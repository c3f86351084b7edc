import json
from collections import Counter
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import small_groups_and_pi
from pihall import zoo
from pihall.arith import PiSet
from pihall.config import DEFAULT_BUDGETS
from pihall.groups import PermGroup
from pihall.hall import classify_EC, classify_ECD, is_hall
from pihall.perms import Perm
from pihall.reduction import (automizer_cpi_check, compare_with_oracle,
                              corollary18_shortcut, cpi_reduce)
from pihall.registry import SpecialCaseRegistry
from pihall.structure import chief_factor_decomposition, chief_series
from pihall.suites import CorpusContext, suite_theorem1

PI23 = PiSet([2, 3])
PI25 = PiSet([2, 5])
PI35 = PiSet([3, 5])


def test_pi_group_is_immediate():
    S4 = zoo.sym(4)
    tr = cpi_reduce(S4, PI23)
    assert tr.verdict and tr.hall_witness.same_group_as(S4)


def test_sym5_positive():
    tr = cpi_reduce(zoo.sym(5), PI23)
    assert tr.verdict
    assert tr.hall_witness.order() == 24
    assert is_hall(zoo.sym(5), tr.hall_witness, PI23)


def test_gl32_negative_at_simple_level():
    tr = cpi_reduce(zoo.gl(3, 2), PI23)
    assert not tr.verdict
    failed = [lvl for lvl in tr.levels if lvl.failure]
    assert len(failed) == 1
    assert failed[0].failure == "automizer"
    assert failed[0].factor_kind == "semisimple"


def test_sylow_case():
    tr = cpi_reduce(zoo.sym(4), PiSet([2]))
    assert tr.verdict and tr.hall_witness.order() == 8


def test_witness_invariants():
    for G, pi in [(zoo.sym(5), PI23), (zoo.alt(5), PI23),
                  (zoo.wreath(zoo.sym(3), 2), PI23),
                  (zoo.direct_product(zoo.alt(5), zoo.alt(5)), PI23)]:
        tr = cpi_reduce(G, pi)
        if tr.verdict:
            assert is_hall(G, tr.hall_witness, pi)
            assert classify_ECD(G, pi).k == 1
        # level arithmetic: H_i contains the series term below it
        for record in tr.levels:
            assert record.H_order % tr.series.terms[record.index - 1].order() \
                   != -1  # order fields populated
        assert len([lvl for lvl in tr.levels if lvl.failure]) == \
               (0 if tr.verdict else 1)


def test_completeness_oracle_k1_implies_verdict():
    for G, pi in [(zoo.alt(5), PI23), (zoo.sym(6), PiSet([2])),
                  (zoo.alt(5), PiSet([5]))]:
        if classify_ECD(G, pi).k == 1:
            assert cpi_reduce(G, pi).verdict


def test_e_consistency():
    # a positive verdict always carries an existence witness
    tr = cpi_reduce(zoo.psl2(7), PiSet([3, 7]))
    assert tr.verdict and tr.hall_witness.order() == 21


def test_automizer_check_operation():
    S5 = zoo.sym(5)
    series = chief_series(S5)
    # level 2 of Sym(5) > Alt(5) > 1
    factors = chief_factor_decomposition(series, 2)
    checks = automizer_cpi_check(S5, PermGroup(5, []), factors, PI23)
    assert len(checks) == 1
    assert checks[0].cpi_verdict
    assert checks[0].automizer_order == 120


def test_automizer_check_failing_factor():
    G = zoo.gl(3, 2)
    series = chief_series(G)
    factors = chief_factor_decomposition(series, 1)
    checks = automizer_cpi_check(G, PermGroup(7, []), factors, PI23)
    assert len(checks) == 1 and not checks[0].cpi_verdict


def test_corollary18_requires_missing_prime():
    assert corollary18_shortcut(chief_series(zoo.sym(4)), PI23) is None


def test_corollary18_solvable():
    assert corollary18_shortcut(chief_series(zoo.sym(4)), PI35) is True


def test_corollary18_alt5_25():
    assert corollary18_shortcut(chief_series(zoo.alt(5)), PI25) is False
    assert classify_ECD(zoo.alt(5), PI25).C is False


def test_corollary18_matches_oracle_on_products():
    G = zoo.direct_product(zoo.sym(5), zoo.cyclic(7))
    series = chief_series(G)
    for pi in [PI35, PI25, PiSet([5, 7])]:
        assert corollary18_shortcut(series, pi) == classify_ECD(G, pi).C


def test_shortcut_recorded_in_trace():
    tr = cpi_reduce(zoo.alt(5), PI25)
    assert tr.shortcut_verdict is False
    assert tr.shortcut_agrees is True


def _theorem1(name):
    ctx = CorpusContext(DEFAULT_BUDGETS, 1)
    entry = next(e for e in zoo.corpus_manifest()
                 if (e["name"], e["pi"]) == (name, "2,3"))
    return ctx, suite_theorem1([entry], ctx)


def test_theorem1_trivial_and_full():
    ctx, res = _theorem1("sym4")
    # every normal subgroup is checked, 1 and G included
    assert sorted(A.order() for A in ctx.normals("sym4")) == [1, 4, 12, 24]
    assert res.checked == 4 and res.passed


def test_theorem1_wreath():
    ctx, res = _theorem1("sym4wr2")
    assert res.checked == len(ctx.normals("sym4wr2")) > 0 and res.passed


def test_theorem1_requires_conjugacy():
    # GL(3,2) has two classes of {2,3}-Hall subgroups: no instance to check
    ctx, res = _theorem1("gl3_2")
    assert not ctx.classify(ctx.group("gl3_2"), PI23).C
    assert res.checked == 0 and res.passed


@st.composite
def _almost_simple_products(draw):
    """alt5, psl2_7 or sym5 times a small group (a random subgroup of S_n,
    n <= 4), with pi two or three primes of the order: the nonabelian
    chief factors and k >= 2 that the small drawn groups lack."""
    simple = draw(st.sampled_from([zoo.alt(5), zoo.psl2(7), zoo.sym(5)]))
    n = draw(st.integers(2, 4))
    images = draw(st.lists(st.permutations(range(n)), min_size=1,
                           max_size=2))
    G = zoo.direct_product(
        simple, PermGroup(n, [Perm(tuple(p)) for p in images]))
    pi = PiSet(draw(st.sampled_from(
        [[2, 3], [2, 5], [3, 5], [2, 7], [3, 7], [2, 3, 5], [2, 3, 7]])))
    return G, pi


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(st.one_of(small_groups_and_pi(), _almost_simple_products()))
def test_reduction_matches_the_oracle(case):
    # the reduction's verdict is the oracle's C, and its witness is Hall
    G, pi = case
    trace = cpi_reduce(G, pi)
    assert trace.verdict is classify_EC(G, pi).C
    if trace.verdict:
        assert is_hall(G, trace.hall_witness, pi)
    else:
        assert trace.hall_witness is None


@pytest.mark.parametrize("name,pi,expected", [
    ("alt5", "2,3", True), ("gl3_2", "2,3", False),
    ("dihedral6", "2", True), ("sym6", "2,3", False),
    ("psl2_13", "2,3", False), ("alt5wr2", "2,3", True),
])
def test_compare_with_oracle(name, pi, expected):
    cmp = compare_with_oracle(zoo.build_named(name), PiSet.parse(pi))
    assert cmp.agree is True
    assert cmp.reduction_verdict is expected


def test_registry_round_trip():
    known = SpecialCaseRegistry()
    G = zoo.sym(4)
    known.register_cpi_verdict(G, PI23, True)
    assert known.lookup_cpi_verdict(zoo.sym(4), PI23) is True
    assert known.lookup_cpi_verdict(zoo.sym(4), PI25) is None
    H = zoo.sym(4)
    known.register_hall(G, PI23, H)
    assert known.lookup_hall(zoo.sym(4), PI23).same_group_as(H)
    assert SpecialCaseRegistry().lookup_cpi_verdict(G, PI23) is None


def _regular(elements, mul, gens):
    """The right regular representation, on indices into `elements`."""
    index = {x: i for i, x in enumerate(elements)}
    n = len(elements)
    return PermGroup(n, [Perm([index[mul(x, g)] for x in elements])
                         for g in gens])


def _invariant(G):
    """(order, orbit lengths, element-order histogram): the same for
    conjugate groups, and for some groups that are not isomorphic."""
    return (G.order(), G.orbit_sizes(),
            Counter(g.order() for g in G.elements()))


def test_registry_keys_are_exact_not_fingerprints():
    # Z4 x Z4 and Q8 x Z2, both regular on 16 points, share the invariant
    # (order, orbit lengths, element-order histogram)
    z44 = _regular([(a, b) for a in range(4) for b in range(4)],
                   lambda x, y: ((x[0] + y[0]) % 4, (x[1] + y[1]) % 4),
                   [(1, 0), (0, 1)])
    # Q8 from explicit permutations of 8 points; i^2 = j^2 = (ij)^2
    i = Perm.from_cycles(8, (0, 1, 2, 3), (4, 5, 6, 7))
    j = Perm.from_cycles(8, (0, 4, 2, 6), (1, 7, 3, 5))
    Q8 = PermGroup(8, [i, j])
    assert Q8.order() == 8 and not Q8.is_abelian()
    assert i * i == j * j == (i * j) * (i * j) != Perm.identity(8)
    q8z2 = _regular([(q, z) for q in sorted(Q8.elements(), key=lambda p: p.images)
                     for z in range(2)],
                    lambda x, y: (x[0] * y[0], (x[1] + y[1]) % 2),
                    [(i, 0), (j, 0), (Perm.identity(8), 1)])
    assert _invariant(z44) == _invariant(q8z2) == \
        (16, (16,), Counter({1: 1, 2: 3, 4: 12}))
    two = PiSet([2])
    known = SpecialCaseRegistry()
    known.register_cpi_verdict(z44, two, True)
    known.register_hall(z44, two, z44)
    assert known.lookup_cpi_verdict(q8z2, two) is None
    assert known.lookup_hall(q8z2, two) is None
    assert known.lookup_cpi_verdict(PermGroup(16, z44.generators[::-1]),
                                    two) is True


def test_cpi_reduce_consults_only_the_given_registry():
    # a (false) verdict registered for Alt(5)'s automizer is used, and
    # marked, only when that registry is passed
    known = SpecialCaseRegistry()
    known.register_cpi_verdict(zoo.alt(5), PI23, False)
    plain = cpi_reduce(zoo.alt(5), PI23)
    injected = cpi_reduce(zoo.alt(5), PI23, known=known)
    assert plain.verdict is True
    assert injected.verdict is False
    check = injected.levels[0].automizer_checks[0]
    assert check.special_cased and check.route == "ambient-faithful"
    assert asdict(check)["route"] == "ambient-faithful"


def test_reduction_does_no_dominance_work(monkeypatch):
    # a work-count gate: deciding C needs no dominance sweep, so the
    # reduction must succeed with it disabled
    from pihall import hall, structure

    def refuse(*args, **kwargs):
        raise AssertionError("wasted work")

    monkeypatch.setattr(hall, "_dominance_check", refuse)
    monkeypatch.setattr(hall, "_classify_cache", {})
    monkeypatch.setattr(structure, "_table_cache", {})
    G = zoo.build_named("gl4_2")
    tr = cpi_reduce(G, PI23)
    assert tr.verdict is True and is_hall(G, tr.hall_witness, PI23)
    assert cpi_reduce(zoo.build_named("psl2_13"), PI23).verdict is False


def test_cold_reduction_builds_one_chief_series(monkeypatch):
    # a work-count gate: the Corollary 18 shortcut reads the series the
    # reduction walks instead of building its own
    from pihall import hall, reduction, structure

    builds = []

    def counting(G, *args, **kwargs):
        builds.append(G.name)
        return chief_series(G, *args, **kwargs)

    monkeypatch.setattr(hall, "_classify_cache", {})
    monkeypatch.setattr(structure, "_table_cache", {})
    monkeypatch.setattr(reduction, "chief_series", counting)
    tr = cpi_reduce(zoo.alt(5), PI25)
    assert tr.verdict is False and tr.shortcut_agrees is True
    assert len(builds) == 1


def test_trace_serialization_includes_generators():
    tr = cpi_reduce(zoo.sym(5), PI23)
    data = tr.to_dict()
    text = json.dumps(data, sort_keys=True)
    assert json.loads(text) == data
    # an external checker can replay the order arithmetic
    gens = data["hall_witness_generators"]
    H = PermGroup(5, [Perm(g) for g in gens])
    assert H.order() == data["hall_witness_order"] == 24
