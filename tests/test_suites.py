import json

from pihall import backtrack, hall, structure, zoo
from pihall.arith import PiSet
from pihall.config import DEFAULT_BUDGETS
from pihall.groups import PermGroup
from pihall.hall import are_conjugate
from pihall.structure import minimal_normal_subgroups
from pihall.suites import (COROLLARY18_PI_SETS, SUITES, CorpusContext,
                           _induced_and_invariant, run_entry_comparisons,
                           suite_corollary18, suite_lemma4_1, suite_lemma5,
                           suite_lemma12, suite_lemma13, suite_lemma15,
                           suite_lemma16, suite_theorem10)


def mini_entries(names_pis):
    manifest = {(e["name"], e["pi"]): e for e in zoo.corpus_manifest()}
    return [manifest[key] for key in names_pis]


def test_entry_comparison_structure():
    ctx = CorpusContext(DEFAULT_BUDGETS, 1)
    entries = mini_entries([("alt5", "2,3"), ("gl3_2", "2,3")])
    results = run_entry_comparisons(entries, ctx)
    assert [r.agree for r in results] == [True, True]
    assert all(r.matches_manifest for r in results)
    json.dumps([r.to_dict() for r in results])


def test_lemma4_1_counts_instances():
    ctx = CorpusContext(DEFAULT_BUDGETS, 1)
    res = suite_lemma4_1(mini_entries([("sym5", "2,3"), ("sym4", "2,3")]), ctx)
    assert res.checked >= 3 and res.passed


def test_lemma5_applies_to_products():
    ctx = CorpusContext(DEFAULT_BUDGETS, 1)
    res = suite_lemma5(mini_entries([("alt5xalt5", "2,3")]), ctx)
    assert res.checked >= 2 and res.passed


def test_lemma12_13_on_sym5():
    ctx = CorpusContext(DEFAULT_BUDGETS, 1)
    entries = mini_entries([("sym5", "2,3")])
    assert suite_lemma12(entries, ctx).passed
    r13 = suite_lemma13(entries, ctx)
    assert r13.checked >= 1 and r13.passed


def test_lemma15_on_direct_products():
    ctx = CorpusContext(DEFAULT_BUDGETS, 1)
    res = suite_lemma15(mini_entries([("alt5xalt5", "2,3")]), ctx)
    assert res.checked == 1 and res.passed


def test_lemma16_on_wreath():
    ctx = CorpusContext(DEFAULT_BUDGETS, 1)
    res = suite_lemma16(mini_entries([("alt5wr2", "2,3")]), ctx)
    assert res.checked >= 1 and res.passed


def test_theorem10_sees_almost_simple_entries():
    ctx = CorpusContext(DEFAULT_BUDGETS, 1)
    res = suite_theorem10(
        mini_entries([("sym5", "2,3"), ("psl2_7", "2,3"), ("sym4", "2,3")]),
        ctx)
    # sym4 is not almost simple; the other two are
    assert res.checked == 2 and res.passed


def test_corollary18_pi_sets_are_the_required_three():
    assert COROLLARY18_PI_SETS == ("2,5", "3,5", "5,7")


def test_corollary18_builds_one_chief_series_per_group(monkeypatch):
    # a work-count gate: the three prime sets share one series per group
    from pihall import reduction, structure, suites

    builds = []
    build = structure.chief_series

    def counting(G, *args, **kwargs):
        builds.append(G.name)
        return build(G, *args, **kwargs)

    for module in (reduction, suites):
        monkeypatch.setattr(module, "chief_series", counting, raising=False)
    ctx = CorpusContext(DEFAULT_BUDGETS, 1)
    entries = mini_entries([("sym5", "2,3"), ("sym5", "2,5"), ("alt5", "2,3")])
    res = suite_corollary18(entries, ctx)
    assert res.checked == 6 and res.passed
    assert sorted(builds) == ["alt5", "sym5"]


def test_suites_run_no_backtrack_search(monkeypatch):
    # a work gate: within the order budget every subgroup question the
    # suites ask (normality, joins, intersections, centralizers,
    # normalizers, invariance of a class) is answered on an element table
    def forbidden(*args, **kwargs):
        raise AssertionError("backtrack search in a suite")

    # every search structure runs goes through backtrack's module functions
    monkeypatch.setattr(backtrack, "subgroup_search", forbidden)
    hall._classify_cache.clear()
    structure._table_cache.clear()
    entries = [e for e in zoo.corpus_manifest() if e["order"] <= 800]
    ctx = CorpusContext(DEFAULT_BUDGETS, 1)
    results = [suite(entries, ctx) for suite in SUITES]
    assert all(r.passed for r in results)
    assert [r.checked for r in results] == [
        56, 18, 54, 54, 54, 53, 53, 53, 1, 2, 100, 9, 45, 37]


def test_lemma11_invariance_matches_are_conjugate(monkeypatch):
    # GL3(2) wr 2 over its base: the shift swaps two of the base's four
    # {2,3}-classes.  The corpus has no class that is neither induced nor
    # invariant, so only this input tells the A-classes from the G-classes
    monkeypatch.setitem(zoo.ZOO_NAMES, "gl3_2wr2", {
        "kind": "wreath", "base": {"kind": "gl", "n": 3, "q": 2}, "n": 2})
    pi = PiSet([2, 3])
    ctx = CorpusContext(DEFAULT_BUDGETS, 1)
    W = ctx.group("gl3_2wr2")
    A = minimal_normal_subgroups(W)[0]
    H = ctx.classify(W, pi).classes.class_reps[0]
    h_gens = ctx.indices("gl3_2wr2", H)[0]
    got = _induced_and_invariant(ctx, "gl3_2wr2", pi, A, h_gens)
    assert [(induced, invariant) for _, induced, invariant in got] == [
        (True, True), (False, False), (False, False), (True, True)]
    # each generator h of H alone, against whether M^h is A-conjugate to M
    for h, h_idx in zip(H.generators, h_gens):
        for M, _, invariant in _induced_and_invariant(ctx, "gl3_2wr2", pi,
                                                      A, [h_idx]):
            Mh = PermGroup(W.degree, [x.conjugate(h) for x in M.generators],
                           order=M.order())
            assert invariant == (are_conjugate(A, Mh, M) is not None)
