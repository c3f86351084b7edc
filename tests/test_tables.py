import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (brute_centralizer, brute_group_elements,
                      brute_normalizer, small_groups_up_to_degree_8)
from pihall import zoo
from pihall.backtrack import (BudgetExceededError, VerificationError,
                              centralizer, normalizer)
from pihall.config import Budgets
from pihall.groups import PermGroup
from pihall.perms import Perm
from pihall.tables import ElementTable, _row_keys


def test_enumeration_matches_brute_force():
    for G in [zoo.sym(4), zoo.alt(5), zoo.dihedral(6), zoo.psl2(7)]:
        tbl = ElementTable(G)
        brute = {p.images for p in brute_group_elements(G)}
        rows = {tuple(int(x) for x in r) for r in tbl.rows}
        assert rows == brute


def test_classes_of_sym4():
    tbl = ElementTable(zoo.sym(4))
    class_id, reps = tbl.classes()
    sizes = sorted([(class_id == cid).sum() for cid in range(len(reps))])
    assert sizes == [1, 3, 6, 6, 8]  # the cycle types of Sym(4)


def test_closure_limit():
    tbl = ElementTable(zoo.sym(4))
    all_els = tbl.closure(tbl.gen_idxs)
    assert len(all_els) == 24
    assert tbl.closure(tbl.gen_idxs, limit=10) is None


def test_subgroup_roundtrip():
    G = zoo.alt(5)
    tbl = ElementTable(G)
    H = G.stabilizer(0)
    idxs = tbl.indices_of_subgroup(H)
    assert len(idxs) == 12
    back = tbl.subgroup(idxs)
    assert back.same_group_as(H)


def test_subgroup_orbit_counts_conjugates():
    from pihall.hall import _orbits_for
    tbl = ElementTable(zoo.sym(4))
    H = PermGroup(4, [Perm.from_cycles(4, (0, 1, 2))])
    orbits = _orbits_for(tbl)
    cid = orbits.class_id(tbl.indices_of_subgroup(H))
    assert orbits.size(cid) == 4  # four Sylow-3 subgroups


def test_order_budget():
    with pytest.raises(BudgetExceededError):
        ElementTable(zoo.sym(8), Budgets(order_budget=1000))


def test_enumeration_short_of_the_order_fails_verification(monkeypatch):
    enumerate_all = ElementTable._enumerate
    monkeypatch.setattr(ElementTable, "_enumerate", staticmethod(
        lambda G, dtype: enumerate_all(G, dtype)[:-1]))
    with pytest.raises(VerificationError):
        ElementTable(zoo.sym(4))


# -- locating rows, maps and labellings against brute force ----------------


@pytest.mark.parametrize("name", sorted({
    e["name"] for e in zoo.corpus_manifest() if e["order"] <= 800}))
def test_locate_reads_back_every_row(name):
    tbl = ElementTable(zoo.build_named(name))
    assert np.array_equal(tbl.locate(tbl.rows), np.arange(tbl.size))
    assert tbl.locate(tbl.rows[::-1]).tolist() == list(range(tbl.size))[::-1]


@pytest.mark.parametrize("dtype", [np.uint16, np.int64])
@pytest.mark.parametrize("count", [0, 1, 7, 200])
def test_row_keys_are_the_rows_bytes(dtype, count):
    rng = np.random.default_rng(count)
    rows = rng.integers(0, 2 ** 15, size=(count, 9)).astype(dtype)
    rows[:, -2:] = 0  # trailing zero bytes stay in the key
    want = [rows[i].tobytes() for i in range(count)]
    assert _row_keys(rows) == want
    # a column slice is not contiguous: the same bytes as its copy
    assert _row_keys(rows[:, 2:]) == [r[2:].tobytes() for r in rows]


def test_locate_rejects_a_row_outside_the_group():
    tbl = ElementTable(zoo.alt(5))
    swap = np.array([Perm.from_cycles(5, (0, 1)).images], dtype=tbl.rows.dtype)
    with pytest.raises(VerificationError):
        tbl.locate(swap)
    with pytest.raises(VerificationError):
        tbl.locate(np.vstack([tbl.rows[:3], swap]))


def test_table_wide_maps():
    tbl = ElementTable(zoo.alt(6))  # large enough to be sifted
    rng = random.Random(2)
    for _ in range(40):
        x, g = rng.randrange(tbl.size), rng.randrange(tbl.size)
        px, pg = tbl.perm_of(x), tbl.perm_of(g)
        assert tbl.perm_of(int(tbl.conj_map(g)[x])) == px.conjugate(pg)
        assert tbl.perm_of(int(tbl.products(x, g))) == px * pg
        assert tbl.perm_of(int(tbl._inverses()[x])) == px.inverse()
        assert [tbl.perm_of(i) for i in tbl.products([x, g], g)] == [
            px * pg, pg * pg]
        assert [tbl.perm_of(i) for i in tbl.products(x, [x, g])] == [
            px * px, px * pg]


@st.composite
def _small_groups(draw):
    """Subgroups of S_n (n <= 6) and direct products of two small ones, of
    order at most 720: tables on both sides of the dict/sift thresholds."""
    def sub(min_degree, max_degree, min_gens, max_gens):
        n = draw(st.integers(min_degree, max_degree))
        images = draw(st.lists(st.permutations(range(n)), min_size=min_gens,
                               max_size=max_gens))
        return PermGroup(n, [Perm(tuple(p)) for p in images])

    kind = draw(st.sampled_from(["sym", "degree 6", "direct"]))
    if kind == "sym":
        G = sub(3, 6, 1, 3)
    elif kind == "degree 6":  # mostly Alt(6) or Sym(6): sifted tables
        G = sub(6, 6, 2, 2)
    else:
        G = zoo.direct_product(sub(2, 5, 1, 2), sub(2, 4, 1, 2))
    assume(1 < G.order() <= 720)
    return G


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(_small_groups())
@example(zoo.alt(6))
@example(zoo.psl2(11))
def test_classes_match_brute_force(G):
    tbl = ElementTable(G)
    class_id, reps = tbl.classes()
    els = [tbl.perm_of(i) for i in range(tbl.size)]
    for cid, rep in enumerate(reps):
        brute = {tbl.idx_of_perm(els[rep].conjugate(g)) for g in els}
        assert set(np.flatnonzero(class_id == cid).tolist()) == brute
        assert rep == min(brute)
    assert reps == sorted(reps)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(_small_groups(), st.lists(st.integers(0, 10 ** 6), min_size=1,
                                 max_size=2))
@example(zoo.sym(6), [5, 77])
@example(zoo.psl2(11), [100])
def test_coset_reps_match_brute_force(G, picks):
    tbl = ElementTable(G)
    gens = [p % tbl.size for p in picks]
    K = tbl.closure(gens)
    els = [tbl.perm_of(i) for i in range(tbl.size)]
    # the least index of each right coset Kx, from the permutations
    brute, covered, cosets = [], set(), []
    for x in range(tbl.size):
        if x not in covered:
            brute.append(x)
            cosets.append({tbl.idx_of_perm(els[k] * els[x]) for k in K})
            covered |= cosets[-1]
    assert tbl.coset_reps(K) == brute
    # a drawn mask holds about half the cosets wholly, the rest in part;
    # only the cosets wholly inside it are kept
    rng = random.Random(repr(picks))
    within = np.zeros(tbl.size, dtype=bool)
    for coset in cosets:
        whole = rng.random() < 0.5
        for y in coset:
            within[y] = whole or rng.random() < 0.7
    kept = [(x, coset) for x, coset in zip(brute, cosets)
            if within[list(coset)].all()]
    assert tbl.coset_reps(K, within=within) == [x for x, _ in kept]
    # the labels: a kept coset's least element on each of its elements,
    # and |G| on every other element
    reps, label = tbl.coset_reps(K, within=within, labels=True)
    assert reps == [x for x, _ in kept]
    want = [tbl.size] * tbl.size
    for x, coset in kept:
        for y in coset:
            want[y] = x
    assert label.tolist() == want


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(_small_groups(), st.lists(st.integers(0, 10 ** 6), min_size=2,
                                 max_size=3))
@example(zoo.sym(6), [5, 77, 301])
@example(zoo.psl2(11), [3, 100, 7])
def test_closure_from_a_known_subgroup(G, picks):
    tbl = ElementTable(G)
    *k_gens, x = [p % tbl.size for p in picks]
    K = tbl.closure(k_gens)
    L = tbl.closure(k_gens + [x])
    assert tbl.closure(k_gens + [x], known=K) == L
    assert {tbl.perm_of(i) for i in L} == set(
        PermGroup(G.degree, [tbl.perm_of(i) for i in k_gens + [x]])
        .elements())
    for limit in (len(L) - 1, len(L), len(L) + 1):
        got = tbl.closure(k_gens + [x], limit=limit, known=K)
        assert (got is None) == (len(L) > limit)
        if got is not None:
            assert got == L


def test_closure_from_a_subgroup_outside_the_generators():
    tbl = ElementTable(zoo.sym(3))
    e, a, b, c = (tbl.idx_of_perm(Perm(t)) for t in
                  [(0, 1, 2), (1, 0, 2), (0, 2, 1), (1, 2, 0)])
    # K = <c^2> lies in <c>, though c^2 is not among the generators
    pc = tbl.perm_of(c)
    c2 = tbl.idx_of_perm(pc * pc)
    assert tbl.closure([c], known=tbl.closure([c2])) == {e, c, c2}
    # A3 permutes with <a>: A3·<a> is the group they generate
    assert tbl.closure([a], known=tbl.closure([c])) == set(range(6))
    # <a>·<b> has four elements and is no group: certified, not returned
    with pytest.raises(VerificationError):
        tbl.closure([b], known=tbl.closure([a]))
    # an abort is right all the same: |<a>·<b>| = 4 > 3, and |<a, b>| = 6
    assert tbl.closure([b], limit=3, known=tbl.closure([a])) is None


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(small_groups_up_to_degree_8(), st.lists(st.integers(0, 10 ** 6),
                                              min_size=1, max_size=2))
@example((6, zoo.sym(6).gen_tuples()), [5, 77])
@example((8, zoo.psl2(7).gen_tuples()), [100])
def test_subgroup_questions_match_brute_force(group, picks):
    # K is generated by one or two drawn elements of G
    degree, gens = group
    G = PermGroup(degree, gens)
    tbl = ElementTable(G)
    k_gens = [pick % tbl.size for pick in picks]
    K = PermGroup(degree, [tbl.perm_of(k) for k in k_gens])
    k_set = tbl.closure(k_gens)
    assert tbl.closure(tbl.generators(k_set)) == k_set
    want_n = brute_normalizer(G, K)
    want_c = brute_centralizer(G, K)
    got_n = tbl.normalizing(k_set, k_gens)
    got_c = tbl.centralizing(k_gens)
    assert {tbl.perm_of(x) for x in got_n} == want_n
    assert {tbl.perm_of(x) for x in got_c} == want_c
    assert list(got_n) == sorted(got_n)
    assert tbl.is_normal(k_set) == (len(want_n) == G.order())
    assert len(got_n) == normalizer(G, K).order()
    assert len(got_c) == centralizer(G, K).order()


def test_the_oracle_and_the_reduction_leave_numpy_ma_unimported():
    # the first np.unique call imports numpy.ma (about 1.7 MB and 30 ms)
    code = ("import sys\n"
            "from pihall import zoo\n"
            "from pihall.arith import PiSet\n"
            "from pihall.hall import classify_ECD\n"
            "from pihall.reduction import cpi_reduce\n"
            "from pihall.suites import run_corpus\n"
            "G, pi = zoo.sym(5), PiSet([2, 3])\n"
            "classify_ECD(G, pi).flags()\n"
            # a Hall sweep that extends a class above its Sylow seed
            "classify_ECD(zoo.alt(5), PiSet([2, 5])).flags()\n"
            "cpi_reduce(G, pi)\n"
            # the suites' table questions: lemma-7's normalizers, lemma-11's
            # centralizer and invariance, theorem-10's socle centralizer
            "run_corpus([e for e in zoo.corpus_manifest()\n"
            "            if (e['name'], e['pi']) in (('sym4', '2,3'),\n"
            "                                        ('sym5', '2,3'))])\n"
            "print('numpy.ma' in sys.modules)\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "False"
