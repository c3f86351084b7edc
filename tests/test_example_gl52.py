import json

from conftest import chain_shape, chains_built
from pihall import zoo
from pihall.arith import PiSet
from pihall.reduction import cpi_reduce

PI23 = PiSet([2, 3])


def claim(report, name):
    return next(c for c in report["claims"] if c["name"] == name)


def test_all_claims_hold(gl52_example_report):
    assert gl52_example_report["verdict"] is True
    assert all(c["ok"] for c in gl52_example_report["claims"])


def test_order_factorization_claim(gl52_example_report):
    c = claim(gl52_example_report, "base-order-factorization")
    assert c["order"] == 2 ** 10 * 3 ** 2 * 5 * 7 * 31


def test_three_hall_representatives(gl52_example_report):
    for dims in ("212", "122", "221"):
        assert claim(gl52_example_report, f"hall-{dims}")["order"] == 9216
        assert claim(gl52_example_report, f"self-normalizing-{dims}")["ok"]


def test_non_conjugacy_signatures(gl52_example_report):
    sigs = claim(gl52_example_report, "pairwise-non-conjugate")["signatures"]
    assert sorted(map(tuple, sigs)) == [(1, 6, 24), (3, 4, 24), (3, 12, 16)]


def test_involution_class_action(gl52_example_report):
    assert claim(gl52_example_report, "involution-fixes-first-class")["ok"]
    assert claim(gl52_example_report, "involution-moves-second-class")["ok"]
    assert claim(gl52_example_report, "involution-swaps-classes")["ok"]


def test_extension_hall_claims(gl52_example_report):
    assert claim(gl52_example_report, "extension-hall-order")["order"] == 18432
    assert claim(gl52_example_report, "extension-hall")["ok"]
    assert claim(gl52_example_report, "meets-inner-in-first-rep")["ok"]


def test_induced_count_marked_as_assumption(gl52_example_report):
    c = claim(gl52_example_report, "induced-class-count")
    assert c["k_induced"] == 1 and c["known_classes"] == 3
    assert c["assumed"] is True and c["detail"].startswith("assumed")
    assert "desk scale" in gl52_example_report["exhaustiveness"]


def test_report_is_json_serializable(gl52_example_report):
    json.dumps(gl52_example_report)


def test_lift_through_extension_quotient(gl52_known):
    # a Hall subgroup of the preimage of the order-2 quotient's (trivially
    # Hall) top over the inner copy is the registered order-18432 one
    from pihall.actions import coset_action
    from pihall.hall import find_hall, is_hall
    hat = zoo.gl52_hat()
    hom = coset_action(hat.group, hat.inner)
    kbar = find_hall(hom.quotient, PI23)
    H = find_hall(hom.preimage_group(kbar), PI23, known=gl52_known)
    assert H.order() == 18432
    assert is_hall(hat.group, H, PI23)


def test_registry_feeds_generic_reduction(gl52_example_report, gl52_known):
    # the pipeline registered the extension; the generic procedure, handed
    # those results, decides it and marks the injected steps
    assert gl52_example_report["registered"] is True
    hat = zoo.gl52_hat()
    assert gl52_known.lookup_cpi_verdict(hat.group, PI23) is True
    trace = cpi_reduce(hat.group, PI23, known=gl52_known)
    assert trace.verdict
    assert trace.hall_witness.order() == 18432
    flagged = [lvl for lvl in trace.levels
               if lvl.special_cased_hall
               or any(c.special_cased for c in lvl.automizer_checks)]
    assert flagged, "injected results must be marked in the trace"


def test_every_search_gets_the_node_budget(monkeypatch):
    # --budget-nodes must reach every backtrack search of the example.  The
    # flag stabilizers are built from generators, so the one search left
    # is the extension's normalizer, and its 848 nodes are all the
    # example visits
    from pihall import backtrack
    from pihall.config import Budgets
    from pihall.example_gl52 import run_example

    searchers = []
    init = backtrack._Searcher.__init__

    def record(self, degree, chain, prop, budgets):
        searchers.append(self)
        init(self, degree, chain, prop, budgets)

    monkeypatch.setattr(backtrack._Searcher, "__init__", record)
    budget = 1_999_999
    report = run_example(Budgets(node_budget=budget))
    assert report["verdict"] is True
    assert [s.budget for s in searchers] == [budget]
    assert type(searchers[0].prop) is backtrack.ConjugacyProperty
    assert searchers[0].nodes == 848


def test_example_sift_work_gate(monkeypatch):
    # one cold run sifts at most 680 elements into stabilizer chains (615
    # when this gate was set): every chain, the lifted subgroup's, H's and
    # the search's known subgroup's among them, stops at its stated order
    from pihall import groups
    from pihall.example_gl52 import run_example

    calls = 0
    sift = groups._Chain._sift_add

    def counting(self, start, w):
        nonlocal calls
        calls += 1
        return sift(self, start, w)

    monkeypatch.setattr(groups._Chain, "_sift_add", counting)
    assert run_example()["verdict"] is True
    assert calls <= 680


def test_example_chains_match_full_verification():
    # each of the 8 chains the example builds states an order; stopped
    # there, it has the base, level generators and orbits that full
    # verification gives, and the report is the same
    from pihall.example_gl52 import run_example

    early, early_report = chains_built(run_example, stated=True)
    full, full_report = chains_built(run_example, stated=False)
    assert len(early) == len(full) == 8
    assert all(order is not None for _, order in early)
    for (a, _), (b, _) in zip(early, full):
        assert a.order() == b.order()
        assert chain_shape(a) == chain_shape(b)
    assert early_report == full_report
