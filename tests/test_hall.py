import random
from collections import Counter

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (brute_elements, brute_group_elements,
                      brute_subgroups_dividing, brute_subgroups_of_order,
                      small_groups_and_pi, small_groups_up_to_degree_8)
from pihall import backtrack, hall, structure, zoo
from pihall.arith import PiSet, is_pi_number, p_part, pi_part, prime_divisors
from pihall.backtrack import BudgetExceededError, conjugating_element
from pihall.config import DEFAULT_BUDGETS, Budgets
from pihall.groups import NotASubgroupError, PermGroup
from pihall.hall import (_orbits_for, all_hall_classes, are_conjugate,
                         classify_EC, classify_ECD, extend_hall, find_hall,
                         hall_classes_kept, is_hall, k_induced,
                         pi_separable_series, sylow)
from pihall.perms import Perm
from pihall.reduction import _hall_in_pi_extension
from pihall.structure import (chief_series, get_table,
                              minimal_normal_subgroups, normal_closure,
                              normal_subgroups)
from pihall.tables import ElementTable

PI23 = PiSet([2, 3])
PI25 = PiSet([2, 5])
PI35 = PiSet([3, 5])


# -- is_hall ------------------------------------------------------------------


def test_is_hall_trivial_subgroup():
    G = zoo.cyclic(7)
    assert is_hall(G, PermGroup(7, []), PI23)


def test_is_hall_flag_stabilizer():
    G = zoo.gl(5, 2)
    H = zoo.flag_stabilizer(5, 2, (2, 1, 2))
    assert is_hall(G, H, PI23)
    assert H.order() == 9216


def test_is_hall_point_stabilizer_alt5():
    A5 = zoo.alt(5)
    H = A5.stabilizer(4)
    assert H.order() == 12
    assert is_hall(A5, H, PI23)


# -- sylow ---------------------------------------------------------------------


@pytest.mark.parametrize("G,p,expect", [
    (zoo.sym(4), 2, 8), (zoo.sym(4), 3, 3), (zoo.alt(5), 5, 5),
    (zoo.alt(5), 2, 4), (zoo.cyclic(12), 2, 4),
    (zoo.wreath(zoo.sym(3), 2), 3, 9), (zoo.psl2(7), 7, 7),
    (zoo.sym(6), 2, 16),
])
def test_sylow_orders(G, p, expect):
    P = sylow(G, p)
    assert P.order() == expect
    assert P.is_subgroup_of(G)


def test_sylow_without_a_p_element_is_a_budget_error(monkeypatch):
    # running out of draws is a budget, never an answer or a bare error
    monkeypatch.setattr(hall, "p_element", lambda G, p, rng: None)
    with pytest.raises(BudgetExceededError) as info:
        sylow(zoo.sym(5), 2, Budgets(order_budget=100))
    assert info.value.kind == "sylow"


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(small_groups_up_to_degree_8(), st.integers(1, 10**6))
def test_sylow_matches_brute_force(group, seed):
    # both routes: the element table within the order budget, the backtrack
    # descent past it
    degree, gens = group
    G = PermGroup(degree, gens)
    order = G.order()
    for p in prime_divisors(order):
        for budgets in (Budgets(), Budgets(order_budget=1)):
            P = sylow(G, p, budgets, seed)
            assert P.order() == p_part(order, p)
            assert P.is_subgroup_of(G)
            assert all(p_part(x.order(), p) == x.order()
                       for x in brute_group_elements(P))


def test_sylow_seeds_pick_different_subgroups():
    # the oracle's self-check compares seeds s and s + 1, so the seed must
    # move the Sylow subgroup that the sweep starts from
    for G, p in [(zoo.sym(4), 2), (zoo.psl2(7), 7)]:
        found = {frozenset(brute_group_elements(sylow(G, p, seed=s)))
                 for s in range(1, 9)}
        assert len(found) >= 2, (G.name, p)


def test_oracle_needs_no_backtrack_search(monkeypatch):
    # within the order budget the Sylow seed comes from the element table:
    # no p-element sampling, no backtrack search
    def forbidden(*args, **kwargs):
        raise AssertionError("backtrack route taken")

    # every search structure runs goes through backtrack's module functions
    monkeypatch.setattr(backtrack, "subgroup_search", forbidden)
    monkeypatch.setattr(hall, "p_element", forbidden)
    for name, pi in [("alt5xsym4", "2,3"), ("sym4wr2", "2"),
                     ("psl2_13", "2,3")]:
        hall._classify_cache.clear()
        structure._table_cache.clear()
        expected = next(e["expected"] for e in zoo.corpus_manifest()
                        if (e["name"], e["pi"]) == (name, pi))
        got = classify_ECD(zoo.build_named(name), PiSet.parse(pi)).flags()
        assert got == expected, (name, pi)


def test_sylow_gl52():
    # matches the unitriangular construction's order
    P = sylow(zoo.gl(5, 2), 2)
    assert P.order() == 1024
    assert zoo.parabolic_order((1, 1, 1, 1, 1), 2) == 1024


# -- find_hall -----------------------------------------------------------------


def test_find_hall_none_with_certainty():
    # exhaustive: no subgroup of order 20 in Alt(5)
    assert find_hall(zoo.alt(5), PI25) is None
    assert brute_subgroups_of_order(zoo.alt(5), 20) == set()


def test_find_hall_pi_group_returns_self():
    S4 = zoo.sym(4)
    assert find_hall(S4, PI23).same_group_as(S4)


def test_find_hall_gl32():
    H = find_hall(zoo.gl(3, 2), PI23)
    assert H is not None and H.order() == 24
    assert is_hall(zoo.gl(3, 2), H, PI23)


# -- the oracle -----------------------------------------------------------------


def test_oracle_alt5():
    hc = all_hall_classes(zoo.alt(5), PI23)
    assert hc.k == 1
    assert hc.class_reps[0].order() == 12
    # brute count: five A4 point stabilizers, one class
    assert len(brute_subgroups_of_order(zoo.alt(5), 12)) == 5
    assert hc.class_sizes == [5]


def test_oracle_gl32_two_classes():
    hc = all_hall_classes(zoo.gl(3, 2), PI23)
    assert hc.k == 2
    assert all(r.order() == 24 for r in hc.class_reps)
    assert hc.class_sizes == [7, 7]
    assert sum(hc.class_sizes) == 14
    assert len(brute_subgroups_of_order(zoo.gl(3, 2), 24)) == 14


def test_oracle_empty():
    assert all_hall_classes(zoo.alt(5), PI35).k == 0


def test_oracle_accounting():
    for G, pi in [(zoo.sym(5), PI23), (zoo.psl2(11), PI23),
                  (zoo.sym(4), PiSet([2]))]:
        hc = all_hall_classes(G, pi)
        for rep in hc.class_reps:
            assert is_hall(G, rep, pi)
        # representatives pairwise non-conjugate
        for i in range(hc.k):
            for j in range(i + 1, hc.k):
                assert are_conjugate(G, hc.class_reps[i],
                                     hc.class_reps[j]) is None


def test_oracle_budget():
    with pytest.raises(BudgetExceededError):
        all_hall_classes(zoo.gl(4, 2), PI23, Budgets(order_budget=100))


def test_oracle_classes_keep_their_index_sets():
    # the classes carry their index sets in the table that named them.  A
    # table of the same group built again (after the cache dropped it) may
    # order its rows by another chain: N adopted its search's chain, and a
    # fresh table from its generators puts the class elsewhere, so that
    # table gets the sets from closures over its own rows
    G = zoo.sym(5)
    N = backtrack.normalizer(G, sylow(G, 3))
    classes = all_hall_classes(N, PiSet([2]))
    tbl = get_table(N)
    assert classes.sets_in(tbl) is classes.class_sets
    assert classes.class_sets == [tbl.indices_of_subgroup(H)
                                  for H in classes.class_reps]
    other = ElementTable(PermGroup(N.degree, N.generators))
    fresh = [other.indices_of_subgroup(H) for H in classes.class_reps]
    assert classes.sets_in(other) == fresh != classes.class_sets


# -- classification ---------------------------------------------------------------


def test_classify_cache_keeps_the_budget():
    # a cached answer must not let a smaller order budget skip its check
    S5 = zoo.sym(5)
    assert classify_ECD(S5, PI23).C is True
    with pytest.raises(BudgetExceededError) as err:
        classify_ECD(S5, PI23, Budgets(order_budget=10))
    assert err.value.kind == "enumeration-order"
    with pytest.raises(BudgetExceededError):
        get_table(S5, Budgets(order_budget=10))


def test_classify_EC_leaves_dominance_unread(monkeypatch):
    import pihall.hall as hall
    calls = []
    monkeypatch.setattr(hall, "_classify_cache", {})
    monkeypatch.setattr(hall, "_dominance_check",
                        lambda *a: calls.append(a) or False)
    rep = hall.classify_EC(zoo.alt(5), PI23)
    assert (rep.E, rep.C, rep.k) == (True, True, 1) and not calls
    assert hall.classify_ECD(zoo.alt(5), PI23) is rep and len(calls) == 1
    assert rep.D is False and len(calls) == 1


def test_classify_alt5():
    rep = classify_ECD(zoo.alt(5), PI23)
    assert rep.flags() == {"E": True, "C": True, "D": False, "k": 1}


def test_classify_dominance_witness():
    # an order-6 subgroup of Alt(5) lies in no order-12 Hall subgroup
    A5 = zoo.alt(5)
    s3 = PermGroup(5, [Perm.from_cycles(5, (0, 1, 2)),
                       Perm.from_cycles(5, (0, 1), (3, 4))])
    assert s3.order() == 6
    halls = brute_subgroups_of_order(A5, 12)
    s3_els = brute_group_elements(s3)
    assert not any(s3_els <= h for h in halls)


def test_classify_gl32():
    rep = classify_ECD(zoo.gl(3, 2), PI23)
    assert rep.flags() == {"E": True, "C": False, "D": False, "k": 2}


def test_classify_empty_pi_intersection():
    rep = classify_ECD(zoo.sym(4), PiSet([7]))
    assert rep.flags() == {"E": True, "C": True, "D": True, "k": 1}


def test_classify_solvable_always_full():
    for G in [zoo.sym(4), zoo.dihedral(6), zoo.cyclic(12),
              zoo.wreath(zoo.sym(3), 2)]:
        for pi in [PI23, PI25, PiSet([2]), PiSet([3])]:
            rep = classify_ECD(G, pi)
            assert rep.E and rep.C and rep.D and rep.k == 1


def test_classify_three_effective_primes():
    G = zoo.direct_product(zoo.alt(5), zoo.cyclic(7))
    rep = classify_ECD(G, PiSet([2, 3, 7]))
    # Hall subgroup A4 x C7 exists; dominance fails as in Alt(5)
    assert rep.E and rep.C and rep.k == 1 and not rep.D


@pytest.mark.parametrize("G,pi", [
    (zoo.alt(5), PI23),
    (zoo.direct_product(zoo.alt(5), zoo.cyclic(7)), PiSet([2, 3, 7])),
    (zoo.sym(5), PI23),
])
def test_dominance_witness_lies_in_no_hall_subgroup(G, pi):
    rep = classify_ECD(G, pi)
    assert rep.C and not rep.D
    W = rep.d_witness
    assert W is not None and W.is_subgroup_of(G)
    assert pi_part(W.order(), pi) == W.order()
    w_els = brute_group_elements(W)
    halls = brute_subgroups_of_order(G, pi_part(G.order(), pi))
    assert halls and not any(w_els <= h for h in halls)
    assert "d_witness" not in rep.flags()


def test_dominance_witness_only_when_c_holds():
    assert classify_ECD(zoo.sym(4), PI23).d_witness is None
    assert classify_ECD(zoo.gl(3, 2), PI23).d_witness is None  # C fails


def _brute_D(G, pi):
    """D by definition: the order-m subgroups form one conjugacy class and
    every pi-subgroup (order dividing m) lies in one of them."""
    m = pi_part(G.order(), pi)
    subs = brute_subgroups_dividing(G, m)
    halls = [s for s in subs if len(s) == m]
    if not halls:
        return False
    h = halls[0]
    orbit = {frozenset(g.inverse() * x * g for x in h)
             for g in brute_group_elements(G)}
    if len(orbit) != len(halls):
        return False
    return all(any(s <= h for h in halls) for s in subs)


def _brute_classes(subs, by):
    """The classes of a set of subgroups (element frozensets) under
    conjugation by the elements `by`, by brute conjugation."""
    classes, remaining = [], set(subs)
    while remaining:
        rep = remaining.pop()
        orbit = {frozenset(g.inverse() * h * g for h in rep) for g in by}
        remaining -= orbit
        classes.append(orbit)
    return classes


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(small_groups_and_pi())
def test_dominance_matches_brute_force(case):
    G, pi = case
    assume(1 < pi_part(G.order(), pi) < G.order())  # past the D = True exits
    rep = classify_ECD(G, pi)
    assert rep.D is _brute_D(G, pi)
    if rep.d_witness is not None:
        w_els = brute_group_elements(rep.d_witness)
        halls = brute_subgroups_of_order(G, pi_part(G.order(), pi))
        assert not any(w_els <= h for h in halls)


def test_dominance_work_gate(monkeypatch):
    # the sweep stops at the first pi-subgroup outside the Hall class: on
    # gl4_2 it closes 12 extensions, where sweeping on past that class
    # closes 23,770; a single effective prime needs no sweep (Sylow)
    calls = [0]
    closure = ElementTable.closure

    def counting(self, *args, **kwargs):
        calls[0] += 1
        return closure(self, *args, **kwargs)

    monkeypatch.setattr(ElementTable, "closure", counting)
    monkeypatch.setattr(hall, "_classify_cache", {})
    structure._table_cache.clear()
    for name, pi, D, bound in [("gl4_2", PI23, False, 15),
                               ("sym4wr2", PiSet([2]), True, 0)]:
        rep = classify_EC(zoo.build_named(name), pi)
        calls[0] = 0  # count the sweep's closures only, not the oracle's
        assert rep.D is D
        assert calls[0] <= bound, (name, calls[0])


def test_oracle_closures_never_abort(monkeypatch):
    # a work-count gate over a cold classify_ECD of the 45 pairs: the
    # whole-coset test is necessary for <K, x> to be a pi-subgroup of order
    # dividing the pi-part, not sufficient, so a closure the sweeps start
    # can still run past it and abort.  The Hall sweep (from the Sylow
    # seed, inside all_hall_classes) aborts none; the dominance sweep
    # aborts one, on gl4_2/{2,3}, and no other closure aborts
    aborted, where = Counter(), [None]
    closure = ElementTable.closure

    def counting(self, *args, **kwargs):
        got = closure(self, *args, **kwargs)
        aborted[where[0]] += got is None
        return got

    def inside(f, name):
        def wrapped(*args, **kwargs):
            where[0] = name
            try:
                return f(*args, **kwargs)
            finally:
                where[0] = None
        return wrapped

    monkeypatch.setattr(ElementTable, "closure", counting)
    monkeypatch.setattr(hall, "all_hall_classes",
                        inside(hall.all_hall_classes, "hall"))
    monkeypatch.setattr(hall, "_grow_outside_hall",
                        inside(hall._grow_outside_hall, "dominance"))
    monkeypatch.setattr(hall, "_classify_cache", {})
    structure._table_cache.clear()
    for e in zoo.corpus_manifest():
        G, pi = zoo.build_named(e["name"]), PiSet.parse(e["pi"])
        assert classify_ECD(G, pi).flags() == e["expected"], e["name"]
    assert aborted["hall"] == 0
    assert aborted["dominance"] <= 1
    assert aborted[None] == 0


def test_coset_pass_looks_up_few_rows(monkeypatch):
    # a work-count gate: the coset passes of a cold classify_ECD(gl4_2,
    # {2,3}) (the Hall sweep's one pass over the Sylow seed's cosets, the
    # batched products that read the later classes' cosets off it, and the
    # dominance sweep's passes) hand at most 46,500 rows to products
    # (42,335 measured; a fresh pass per class handed 109,487); the Hall
    # sweep runs coset_reps exactly once
    rows, depth, passes = [0], [0], Counter()
    products = ElementTable.products

    def counting(self, lefts, rights):
        got = products(self, lefts, rights)
        rows[0] += got.size if depth[0] else 0
        return got

    def inside(f, kind=None):
        def wrapped(*args, **kwargs):
            passes[kind] += 1
            depth[0] += 1
            try:
                return f(*args, **kwargs)
            finally:
                depth[0] -= 1
        return wrapped

    monkeypatch.setattr(ElementTable, "products", counting)
    monkeypatch.setattr(ElementTable, "coset_reps",
                        inside(ElementTable.coset_reps, "coset_reps"))
    monkeypatch.setattr(hall, "_coset_candidates",
                        inside(hall._coset_candidates, "fresh"))
    monkeypatch.setattr(hall._SeedCosets, "__init__",
                        inside(hall._SeedCosets.__init__, "sweep"))
    monkeypatch.setattr(hall._SeedCosets, "candidates",
                        inside(hall._SeedCosets.candidates))
    monkeypatch.setattr(hall, "_classify_cache", {})
    structure._table_cache.clear()
    expected = next(e["expected"] for e in zoo.corpus_manifest()
                    if (e["name"], e["pi"]) == ("gl4_2", "2,3"))
    assert classify_ECD(zoo.build_named("gl4_2"), PI23).flags() == expected
    assert 0 < rows[0] <= 46_500, rows[0]
    # one Hall sweep; every other coset_reps call is a dominance pass
    assert passes["sweep"] == 1
    assert passes["coset_reps"] - passes["fresh"] == passes["sweep"]


def _seed_candidates_checked(G, pi, seed=1):
    """Runs the Hall sweep of all_hall_classes with each class's candidates
    read off the seed's cosets and from a fresh pass; they must be equal.
    Returns the number of classes above the seed that were checked."""
    m = pi_part(G.order(), pi)
    tbl, P, p_set = hall._sylow_seed(G, pi, Budgets(), seed)
    mask = hall._pi_order_mask(tbl, pi, m)
    cosets = hall._SeedCosets(tbl, mask, p_set)
    above = [0]

    def candidates(K):
        got = cosets.candidates(K)
        assert got == hall._coset_candidates(tbl, mask, K)
        above[0] += len(K) > len(p_set)
        return got

    p_gens = tuple(tbl.idx_of_perm(g) for g in P.generators)
    halls = {cid for L, cid in hall._grow(tbl, _orbits_for(tbl), m,
                                          [(p_set, p_gens)], candidates)
             if len(L) == m}
    assert len(halls) == classify_EC(G, pi, seed=seed).k or len(p_set) == m
    return above[0]


def test_seed_cosets_give_the_fresh_candidates_on_the_manifest():
    # the candidates of every class the Hall sweep extends, read off the
    # Sylow seed's cosets, are those of a fresh coset pass
    above = 0
    for e in zoo.corpus_manifest():
        G, pi = zoo.build_named(e["name"]), PiSet.parse(e["pi"])
        m = pi_part(G.order(), pi)
        if 1 < m < G.order():
            above += _seed_candidates_checked(G, pi)
    assert above >= 18  # classes above the seed, over the 45 pairs


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(small_groups_and_pi())
# classes above the Sylow seed, which few drawn groups reach; reading the
# cosets P(r·t) instead of P(t·r) changes the candidates of the second
@example((zoo.direct_product(zoo.direct_product(zoo.sym(3), zoo.sym(3)),
                             zoo.cyclic(5)), PI23))
@example((zoo.direct_product(zoo.wreath(zoo.sym(3), 2), zoo.cyclic(5)), PI23))
def test_seed_cosets_give_the_fresh_candidates(case):
    G, pi = case
    assume(1 < pi_part(G.order(), pi) < G.order())
    _seed_candidates_checked(G, pi)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(small_groups_and_pi(), st.integers(0, 10**6))
def test_coset_test_drops_only_hopeless_extensions(case, pick):
    # every right coset Kx the whole-coset test drops gives a <K, x> that
    # is not a pi-subgroup of order dividing the pi-part m; K is <y> for a
    # drawn pi-element y of order dividing m, or a Sylow subgroup
    G, pi = case
    m = pi_part(G.order(), pi)
    assume(1 < m < G.order())
    tbl = get_table(G)
    mask = hall._pi_order_mask(tbl, pi, m)
    good = [i for i in range(tbl.size) if mask[i]]
    p = [q for q in pi if m % q == 0][pick % len(prime_divisors(m))]
    for K in (tbl.closure([good[pick % len(good)]]),
              tbl.indices_of_subgroup(sylow(G, p, seed=pick))):
        k_gens = [tbl.perm_of(k) for k in K]
        kept = set(hall._coset_candidates(tbl, mask, K))
        for x in tbl.coset_reps(K):
            if x in K or x in kept:
                continue
            L = brute_elements(k_gens + [tbl.perm_of(x)], G.degree, limit=m)
            assert not (m % len(L) == 0
                        and all(is_pi_number(y.order(), pi) for y in L))


# -- conjugacy ---------------------------------------------------------------------


def test_are_conjugate_identity_case():
    G = zoo.sym(4)
    H = PermGroup(4, [Perm.from_cycles(4, (0, 1, 2, 3))])
    x = are_conjugate(G, H, H)
    assert x is not None and all(H.contains(h.conjugate(x))
                                 for h in H.generators)


def test_are_conjugate_sylows():
    G = zoo.sym(4)
    D1 = PermGroup(4, [Perm.from_cycles(4, (0, 1, 2, 3)),
                       Perm.from_cycles(4, (0, 2))])
    D2 = PermGroup(4, [Perm.from_cycles(4, (0, 2, 1, 3)),
                       Perm.from_cycles(4, (0, 1))])
    x = are_conjugate(G, D1, D2)
    assert x is not None
    assert all(D2.contains(h.conjugate(x)) for h in D1.generators)


def test_are_conjugate_distinguishes_hall_classes():
    hc = all_hall_classes(zoo.gl(3, 2), PI23)
    a, b = hc.class_reps
    assert are_conjugate(zoo.gl(3, 2), a, b) is None
    # the fast reject already fires: orbit structures over the 7 points differ
    assert sorted(map(len, a.orbits())) != sorted(map(len, b.orbits()))


@pytest.mark.parametrize(
    "entry", [e for e in zoo.corpus_manifest() if e["order"] <= 800],
    ids=lambda e: f"{e['name']}-{e['pi']}")
def test_are_conjugate_table_route_matches_backtrack(entry):
    # independent evidence: the element table's batched conjugation test
    # against the backtrack search, on every pair of Hall class representatives and on
    # a conjugate of each
    G = zoo.build_named(entry["name"])
    reps = all_hall_classes(G, PiSet.parse(entry["pi"])).class_reps
    rng = random.Random(entry["name"])
    cases = [(H, K) for i, H in enumerate(reps) for K in reps[i:]]
    for H in reps:
        g = G.random_element(rng)
        cases.append((H, PermGroup(G.degree,
                                   [h.conjugate(g) for h in H.generators])))
    for H, K in cases:
        by_table = are_conjugate(G, H, K)
        by_search = conjugating_element(G, H, K)
        assert (by_table is None) == (by_search is None)
        for x in (by_table, by_search):
            if x is not None:
                assert PermGroup(G.degree, [h.conjugate(x)
                                            for h in H.generators]
                                 ).same_group_as(K)


# -- index-set orbits ---------------------------------------------------------------


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(small_groups_up_to_degree_8(), st.integers(0, 10**6))
def test_set_orbits_match_brute_force(group, pick):
    # the orbit kernel in the table of G and in that of a normal subgroup A
    # (whose own classes k_induced and hall_classes_kept name), on K = <g>
    # for a drawn g and on a Sylow subgroup, against brute conjugation of
    # element sets
    degree, gens = group
    G = PermGroup(degree, gens)
    els = sorted(brute_group_elements(G), key=lambda x: x.images)
    primes = prime_divisors(G.order())
    assume(primes)
    A = normal_closure(G, [els[pick // 7 % len(els)]])

    def conj(xs, a):
        return frozenset(x.conjugate(a) for x in xs)

    def subgroups_of(X):
        # <x> for a drawn x in X, and a Sylow subgroup when X is not trivial
        x_els = sorted(brute_group_elements(X), key=lambda x: x.images)
        x_primes = prime_divisors(X.order())
        subs = [PermGroup(degree, [x_els[pick % len(x_els)]])]
        if x_primes:
            subs.append(sylow(X, x_primes[pick % len(x_primes)], seed=pick))
        return subs

    subgroups = subgroups_of(G)
    for acting in (G, A):
        tbl = get_table(acting)
        orbits = _orbits_for(tbl)
        by = sorted(brute_group_elements(acting), key=lambda x: x.images)
        for K in subgroups_of(acting):
            k_els = frozenset(brute_group_elements(K))
            k_set = tbl.indices_of_subgroup(K)
            conjugates = {conj(k_els, a) for a in by}
            cid = orbits.class_id(k_set)
            assert orbits.size(cid) == len(conjugates)
            members = [frozenset(r) for r in orbits.members(cid).tolist()]
            assert {frozenset(map(tbl.perm_of, m))
                    for m in members} == conjugates
            assert orbits.canon(cid) == min(members, key=orbits.key_of)
    # conjugacy in G: a transporter onto each sampled conjugate K^a
    for K in subgroups:
        k_els = frozenset(brute_group_elements(K))
        for a in els[::max(1, len(els) // 5)]:
            x = are_conjugate(G, K, PermGroup(degree, [k.conjugate(a)
                                                       for k in K.generators]))
            assert x is not None and G.contains(x)
            assert conj(k_els, x) == conj(k_els, a)
    # and none onto a cyclic subgroup of K = <g>'s order outside its class
    K = subgroups[0]
    k_conjugates = {conj(brute_group_elements(K), a) for a in els}
    outside = next((y for y in els if y.order() == K.order()
                    and frozenset(brute_elements([y], degree))
                    not in k_conjugates), None)
    if outside is not None:
        assert are_conjugate(G, K, PermGroup(degree, [outside])) is None


# -- k_induced ----------------------------------------------------------------------


def test_k_induced_definitional():
    G = zoo.sym(5)
    rep = k_induced(G, G, PI23)
    assert rep.k_induced == rep.k_total == all_hall_classes(G, PI23).k


def test_k_induced_sym5_over_alt5():
    rep = k_induced(zoo.sym(5), zoo.alt(5), PI23)
    assert rep.k_induced == 1 and rep.k_total == 1
    assert rep.induced_class_reps[0].order() == 12


def test_k_induced_bound():
    DP = zoo.direct_product(zoo.alt(5), zoo.alt(5))
    A = minimal_normal_subgroups(DP)[0]
    rep = k_induced(DP, A, PI23)
    assert rep.k_induced <= rep.k_total


def test_k_induced_repeat_reads_the_classify_cache(monkeypatch):
    # a work-count gate: the Hall classes of A and G come from classify_EC,
    # so a repeated call runs the oracle zero times
    monkeypatch.setattr(hall, "_classify_cache", {})
    G = zoo.sym(5)
    first = k_induced(G, zoo.alt(5), PI23)

    def refuse(*args, **kwargs):
        raise AssertionError("Hall classes computed twice")

    monkeypatch.setattr(hall, "all_hall_classes", refuse)
    again = k_induced(G, zoo.alt(5), PI23)
    assert (again.k_induced, again.k_total) == (first.k_induced,
                                                first.k_total)
    assert [H.generators for H in again.induced_class_reps] == \
        [H.generators for H in first.induced_class_reps]


@st.composite
def _small_groups_normal_and_pi(draw):
    """A group G from small_groups_and_pi, a proper nontrivial normal
    subgroup A, and pi a proper subset of the primes dividing |G|."""
    G, _ = draw(small_groups_and_pi())
    primes = prime_divisors(G.order())
    normals = [A for A in normal_subgroups(G) if 1 < A.order() < G.order()]
    assume(len(primes) > 1 and normals)
    pi = PiSet(draw(st.lists(st.sampled_from(primes), min_size=1,
                             max_size=len(primes) - 1, unique=True)))
    return G, draw(st.sampled_from(normals)), pi


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(_small_groups_normal_and_pi())
# two induced classes, which no drawn group has (they are of order <= 144)
@example((zoo.gl(3, 2), zoo.gl(3, 2), PI23))
def test_k_induced_matches_brute_force(case):
    # k_induced by its definition: the A-classes of {H ∩ A : H Hall in G},
    # over every Hall subgroup of G, by brute conjugation under A
    G, A, pi = case
    a_els = brute_group_elements(A)
    halls = brute_subgroups_of_order(G, pi_part(G.order(), pi))
    classes = _brute_classes({h & a_els for h in halls}, a_els)
    a_halls = brute_subgroups_of_order(A, pi_part(A.order(), pi))
    rep = k_induced(G, A, pi)
    assert rep.k_induced == len(classes)
    assert rep.k_total == len(_brute_classes(a_halls, a_els))
    # one representative in each induced class
    found = [next(i for i, c in enumerate(classes)
                  if frozenset(brute_group_elements(R)) in c)
             for R in rep.induced_class_reps]
    assert sorted(found) == list(range(len(classes)))
    # the index-set orbits in A's own table: sizes and members of the
    # A-classes of the H ∩ A
    tbl = get_table(A)
    orbits = _orbits_for(tbl)
    for c in classes:
        member = frozenset(tbl.idx_of_perm(x) for x in next(iter(c)))
        cid = orbits.class_id(member)
        assert orbits.size(cid) == len(c)
        assert {frozenset(map(tbl.perm_of, m))
                for m in orbits.members(cid).tolist()} == c
    # per Hall class of A, induced exactly when it holds some H ∩ A
    assert rep.induced == [
        any(frozenset(brute_group_elements(M)) in c for c in classes)
        for M in classify_EC(A, pi).classes.class_reps]


def test_k_induced_requires_normal():
    G = zoo.sym(4)
    H = PermGroup(4, [Perm.from_cycles(4, (0, 1))])
    with pytest.raises(ValueError, match="normal"):
        k_induced(G, H, PI23)
    with pytest.raises(NotASubgroupError):
        k_induced(zoo.alt(4), H, PI23)


def test_k_induced_over_the_trivial_subgroup():
    # the trivial group acts with no generators: every set is its own class
    rep = k_induced(zoo.sym(4), PermGroup(4, []), PiSet([2]))
    assert (rep.k_induced, rep.k_total) == (1, 1)


# -- invariance / extension -----------------------------------------------------------


def conjugate_group(M, g):
    return PermGroup(M.degree, [h.conjugate(g) for h in M.generators],
                     order=M.order())


def class_is_G_invariant(G, A, M):
    """Reference for the invariance hall_classes_kept decides: M^g is
    A-conjugate to M for every generator g of G."""
    return all(are_conjugate(A, conjugate_group(M, g), M) is not None
               for g in G.generators if not A.contains(g))


def intersection_elements(H, A):
    """The elements of H that A contains."""
    return {x for x in H.elements() if A.contains(x)}


def test_class_invariance_inside_the_group_itself():
    A5 = zoo.alt(5)
    M = classify_EC(A5, PI23).classes.class_reps[0]
    assert extend_hall(A5, A5, PI23) is M


def test_extend_hall_sym5():
    S5, A5 = zoo.sym(5), zoo.alt(5)
    M = classify_EC(A5, PI23).classes.class_reps[0]
    H = extend_hall(S5, A5, PI23)
    assert H is not None and H.order() == 24
    assert intersection_elements(H, A5) == set(M.elements())


def test_extend_hall_restores_exact_intersection():
    # H meets the socle in the first class representative W keeps
    W = zoo.wreath(zoo.alt(5), 2)
    socle = minimal_normal_subgroups(W)[0]
    reps = classify_EC(socle, PI23).classes.class_reps
    M = next(M for M in reps if class_is_G_invariant(W, socle, M))
    H = extend_hall(W, socle, PI23)
    assert H is not None
    assert intersection_elements(H, socle) == set(M.elements())


def test_extend_hall_none_iff_not_invariant():
    # (G, A, the classes of A that G keeps, the order extend_hall gives)
    W5 = zoo.wreath(zoo.alt(5), 2)
    hat = zoo.GLHat(3, 2)
    W7 = zoo.wreath(zoo.gl(3, 2), 2)
    cases = [
        (W5, minimal_normal_subgroups(W5)[0], [True], 288),
        # the swap exchanges GL3(2)'s two {2,3}-classes: neither extends
        (hat.group, hat.inner, [False, False], None),
        # the shift swaps two of the base's four classes; two extend
        (W7, minimal_normal_subgroups(W7)[0], [True, False, False, True],
         1152),
    ]
    for G, A, kept, order in cases:
        reps = classify_EC(A, PI23).classes.class_reps
        got = hall_classes_kept(A, PI23, G.generators)
        assert got == [class_is_G_invariant(G, A, M) for M in reps] == kept
        # one generator at a time, against whether M^g is A-conjugate to M
        for g in G.generators:
            assert hall_classes_kept(A, PI23, [g]) == [
                are_conjugate(A, conjugate_group(M, g), M) is not None
                for M in reps]
        H = extend_hall(G, A, PI23)
        assert (None if H is None else H.order()) == order
        assert (H is None) == (classify_EC(G, PI23).k == 0)


def test_hall_in_pi_extension_work_gate(monkeypatch):
    # one pass over A's classes: one normalizer search for the class kept,
    # and none when no class is kept
    searches = []
    search = backtrack.subgroup_search

    def counted(G, prop, *args, **kwargs):
        searches.append(type(prop).__name__)
        return search(G, prop, *args, **kwargs)

    monkeypatch.setattr(backtrack, "subgroup_search", counted)
    W = zoo.wreath(zoo.gl(3, 2), 2)
    H, _ = _hall_in_pi_extension(W, minimal_normal_subgroups(W)[0], PI23,
                                 DEFAULT_BUDGETS, 1, None)
    assert H.order() == 1152 and searches == ["ConjugacyProperty"]
    searches.clear()
    hat = zoo.GLHat(3, 2)
    assert _hall_in_pi_extension(hat.group, hat.inner, PI23,
                                 DEFAULT_BUDGETS, 1, None) == (None, False)
    assert searches == []


# -- pi-separable series ---------------------------------------------------------------


def test_separable_series_solvable():
    terms = pi_separable_series(chief_series(zoo.sym(4)), PI23)
    assert terms is not None
    assert terms[0].order() == 24 and terms[-1].order() == 1


def test_separable_series_mixed_simple():
    assert pi_separable_series(chief_series(zoo.alt(5)), PI23) is None


def test_separable_series_pi_group():
    terms = pi_separable_series(chief_series(zoo.alt(5)), PiSet([2, 3, 5]))
    assert terms is not None and len(terms) == 2


def test_oracle_seed_independence():
    rng = random.Random(0)
    for G, pi in [(zoo.sym(5), PI23), (zoo.gl(3, 2), PI23),
                  (zoo.psl2(13), PI23)]:
        a = all_hall_classes(G, pi, seed=1)
        b = all_hall_classes(G, pi, seed=rng.randint(2, 99))
        assert a.k == b.k
        assert sorted(a.class_sizes) == sorted(b.class_sizes)


def test_oracle_against_brute_force_enumeration():
    # full dual route on small groups: enumerate every subgroup of the Hall
    # order by closure growth, split into conjugacy classes by brute
    # conjugation, and compare counts and class sizes with the oracle
    cases = [
        (zoo.sym(3), PI23), (zoo.sym(3), PiSet([2])),
        (zoo.sym(4), PiSet([2])), (zoo.sym(4), PiSet([3])),
        (zoo.dihedral(6), PI23), (zoo.dihedral(6), PiSet([2])),
        (zoo.alt(4), PiSet([2])), (zoo.alt(5), PI23),
        (zoo.alt(5), PiSet([2])), (zoo.alt(5), PiSet([5])),
        (zoo.gl(3, 2), PI23),
    ]
    for G, pi in cases:
        m = pi_part(G.order(), pi)
        subs = brute_subgroups_of_order(G, m)
        classes = [len(c) for c in
                   _brute_classes(subs, brute_group_elements(G))]
        hc = all_hall_classes(G, pi)
        assert hc.k == len(classes), (G.name, pi.key())
        assert sorted(hc.class_sizes) == sorted(classes), (G.name, pi.key())


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(small_groups_and_pi())
# a Hall subgroup S3 x S3 two extensions above the Sylow seed; one extension
# reaches a Hall subgroup in every group drawn here
@example((zoo.direct_product(zoo.direct_product(zoo.sym(3), zoo.sym(3)),
                             zoo.cyclic(5)), PI23))
def test_sweep_matches_brute_force(case):
    # both callers of the Sylow-seeded sweep: the oracle's classes, and
    # find_hall's one Hall subgroup or None
    G, pi = case
    m = pi_part(G.order(), pi)
    assume(1 < m < G.order())  # past the exits before the sweep
    halls = brute_subgroups_of_order(G, m)
    sizes = sorted(len(c) for c in
                   _brute_classes(halls, brute_group_elements(G)))
    rep = classify_EC(G, pi)
    assert (rep.E, rep.C, rep.k) == (bool(sizes), len(sizes) == 1,
                                     len(sizes))
    assert sorted(rep.classes.class_sizes) == sizes
    assert {frozenset(brute_group_elements(H))
            for H in rep.classes.class_reps} <= halls
    H = find_hall(G, pi)
    assert (H is not None) == bool(halls)
    if H is not None:
        assert frozenset(brute_group_elements(H)) in halls


def test_dominance_sweeps_agree():
    # the dominance sweep, one element per right coset for any number of
    # primes, finds a witness exactly when D fails
    for G, pi, expect in [
        (zoo.alt(5), PI23, False), (zoo.sym(4), PI23, True),
        (zoo.wreath(zoo.sym(3), 2), PI23, True),
        (zoo.dihedral(6), PiSet([2]), True),
        (zoo.psl2(7), PiSet([3, 7]), True),
    ]:
        tbl = get_table(G)
        hc = all_hall_classes(G, pi)
        assert hc.k == 1, (G.name, pi.key())
        h_set = tbl.indices_of_subgroup(hc.class_reps[0])
        witness = hall._grow_outside_hall(tbl, pi, h_set)
        assert (witness is None) == expect, (G.name, pi.key())
