from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import brute_elements, brute_group_elements
from pihall import groups, hall, reduction, structure, zoo
from pihall.arith import PiSet, is_prime
from pihall.backtrack import (BudgetExceededError, VerificationError,
                              centralizer)
from pihall.config import Budgets
from pihall.groups import PermGroup
from pihall.perms import Perm
from pihall.reduction import automizer_cpi_check, cpi_reduce
from pihall.tables import ElementTable
from pihall.structure import (chief_factor_decomposition, chief_series,
                              derived_subgroup, factor_orbits,
                              induced_automizer, is_normal,
                              is_simple, minimal_normal_subgroups,
                              normal_closure, normal_subgroups)

SMALL = Budgets(order_budget=10_000)


def test_normal_closure_in_simple_group():
    A5 = zoo.alt(5)
    for x in [Perm.from_cycles(5, (0, 1, 2)), Perm.from_cycles(5, (0, 1), (2, 3))]:
        assert normal_closure(A5, [x]).same_group_as(A5)


def test_derived_subgroup_sym4():
    got = derived_subgroup(zoo.sym(4))
    brute = {g * h * g.inverse() * h.inverse()
             for g in brute_group_elements(zoo.sym(4))
             for h in brute_group_elements(zoo.sym(4))}
    # the commutators of S4 already form A4
    assert got.same_group_as(zoo.alt(4))
    assert brute <= set(brute_group_elements(got))


def test_center_dihedral4():
    for G, order in [(zoo.dihedral(4), 2), (zoo.sym(4), 1),
                     (zoo.cyclic(12), 12)]:
        assert centralizer(G, G).order() == order


@pytest.mark.parametrize("G,expect", [
    (zoo.cyclic(7), True),
    (zoo.alt(5), True),
    (zoo.alt(6), True),
    (zoo.psl2(7), True),
    (zoo.psl2(11), True),
    (zoo.sym(4), False),
    (zoo.alt(4), False),
    (zoo.cyclic(12), False),
    (zoo.direct_product(zoo.alt(5), zoo.alt(5)), False),
])
def test_is_simple_small(G, expect):
    assert is_simple(G) is expect


def test_is_simple_above_enumeration_budget():
    # force the reduction paths: gl(5,2) via the primitive certificate, the
    # direct product via orbit restriction kernels
    assert is_simple(zoo.gl(5, 2), SMALL) is True
    assert is_simple(zoo.gl(4, 2), SMALL) is True
    big_prod = zoo.direct_product(zoo.gl(4, 2), zoo.gl(4, 2))
    assert is_simple(big_prod, SMALL) is False


def test_is_simple_rejects_trivial():
    with pytest.raises(ValueError):
        is_simple(PermGroup(3, []))


def test_minimal_normals_sym4():
    mins = minimal_normal_subgroups(zoo.sym(4))
    assert len(mins) == 1 and mins[0].order() == 4


def test_minimal_normals_simple():
    mins = minimal_normal_subgroups(zoo.alt(5))
    assert len(mins) == 1 and mins[0].same_group_as(zoo.alt(5))


def test_minimal_normals_direct_product():
    DP = zoo.direct_product(zoo.alt(5), zoo.alt(5))
    mins = minimal_normal_subgroups(DP)
    assert len(mins) == 2
    assert sorted(m.order() for m in mins) == [60, 60]


def test_factor_orbits():
    # Alt(5) wr 2: its socle Alt(5) x Alt(5) splits into two simple factors
    # that the top involution swaps; the base group fixes each
    G = zoo.build_named("alt5wr2")
    (socle,) = minimal_normal_subgroups(G)
    factors = minimal_normal_subgroups(socle)
    trivial = PermGroup(G.degree, [])
    assert factor_orbits(G, factors, trivial) == [(0, 2)]
    assert factor_orbits(socle, factors, trivial) == [(0, 1), (1, 1)]
    # a conjugate of the first factor lies in no listed factor
    assert factor_orbits(G, factors[:1], trivial) is None


def test_automizer_check_certifies_the_factor_list():
    G = zoo.build_named("alt5wr2")
    (socle,) = minimal_normal_subgroups(G)
    factors = minimal_normal_subgroups(socle)
    with pytest.raises(VerificationError):
        automizer_cpi_check(G, PermGroup(G.degree, []), factors[:1],
                            PiSet([2, 3]))


def test_minimal_normals_above_budget():
    hat = zoo.gl52_hat()
    mins = minimal_normal_subgroups(hat.group, SMALL)
    assert len(mins) == 1
    assert mins[0].same_group_as(hat.inner)


@pytest.mark.parametrize("name", ["sym5", "psl2_13", "gl4_2", "alt5xalt5"])
def test_sampled_minimal_normals_match_the_table(name):
    # past the order budget sampling stops once its certificate holds;
    # alt5xalt5's first closure is one factor, whose centralizer (the
    # other factor) keeps it going
    G = zoo.build_named(name)
    sampled = minimal_normal_subgroups(G, Budgets(order_budget=1))
    tabled = minimal_normal_subgroups(G)
    assert len(sampled) == len(tabled)
    assert all(any(M.same_group_as(K) for K in tabled) for M in sampled)


def test_chief_series_sym4():
    cs = chief_series(zoo.sym(4))
    assert [t.order() for t in cs.terms] == [24, 12, 4, 1]
    assert [cs.factor_order(i) for i in range(1, 4)] == [2, 3, 4]
    assert all(cs.factor_is_abelian(i) for i in range(1, 4))
    for term in cs.terms:
        assert is_normal(zoo.sym(4), term)


def test_chief_series_simple_group():
    cs = chief_series(zoo.alt(5))
    assert [t.order() for t in cs.terms] == [60, 1]
    assert not cs.factor_is_abelian(1)


def _factor_is_abelian_by_commutators(series, i):
    # A/B is abelian when B holds every commutator of A's generators
    A, B = series.factor_pair(i)
    return all(B.contains(a.commutator(b))
               for idx, a in enumerate(A.generators)
               for b in A.generators[idx + 1:])


@pytest.mark.parametrize("name",
                         sorted({name for name, _ in zoo.CORPUS_PAIRS}))
def test_factor_is_abelian_by_order_matches_commutators(name):
    cs = chief_series(zoo.build_named(name))
    kinds = [cs.factor_is_abelian(i) for i in range(1, len(cs) + 1)]
    assert kinds == [_factor_is_abelian_by_commutators(cs, i)
                     for i in range(1, len(cs) + 1)], name


def test_chief_series_wreath_socle():
    W = zoo.wreath(zoo.alt(5), 2)
    cs = chief_series(W)
    assert [t.order() for t in cs.terms] == [7200, 3600, 1]
    parts = chief_factor_decomposition(cs, 2)
    assert len(parts) == 2 and all(p.order() == 60 for p in parts)


def test_chief_series_extension():
    hat = zoo.gl52_hat()
    cs = chief_series(hat.group, SMALL)
    assert [t.order() for t in cs.terms] == [19998720, 9999360, 1]
    assert cs.terms[1].same_group_as(hat.inner)


def test_abelian_chief_factor_count_from_its_order():
    # V4 over 1, sym4's third level: 2^2, two cyclic factors
    trace = cpi_reduce(zoo.sym(4), PiSet([2, 3]))
    level = trace.levels[2]
    assert (level.factor_order, level.factor_kind) == (4, "abelian")
    assert level.simple_factor_count == 2
    assert level.automizer_checks[0].orbit_size == 2


def test_chief_factor_decomposition_rejects_an_abelian_factor():
    cs = chief_series(zoo.sym(4))
    with pytest.raises(ValueError):
        chief_factor_decomposition(cs, 3)  # V4 over 1


def test_chief_factor_decomposition_simple_factor():
    cs = chief_series(zoo.alt(5))
    parts = chief_factor_decomposition(cs, 1)
    assert len(parts) == 1 and parts[0].same_group_as(zoo.alt(5))


def test_perfect_power_chief_factor_still_splits():
    # alt5wr2's socle A5 x A5 has order 3600 = 60^2, exponents (4, 2, 2)
    # with gcd 2, so it is decomposed, into its two normal A5 factors
    cs = chief_series(zoo.build_named("alt5wr2"))
    A, B = cs.factor_pair(2)
    assert (A.order(), B.order()) == (3600, 1)
    parts = chief_factor_decomposition(cs, 2)
    assert [p.order() for p in parts] == [60, 60]
    assert all(is_normal(A, p) and p.is_subgroup_of(A) for p in parts)
    assert not any(p.is_subgroup_of(q) for p, q in (parts, parts[::-1]))


def test_chief_factor_of_no_perfect_power_order_builds_no_quotient(
        monkeypatch):
    # psl2_7xc2 over its C2: |A/B| = 168 = 2^3*3*7, exponents with gcd 1, so
    # the factor is simple and decomposes to [A] with no regular quotient
    # and no table of one; the trace is the one the quotient route gave
    monkeypatch.setattr(structure, "_table_cache", {})
    monkeypatch.setattr(hall, "_classify_cache", {})
    tabled = []
    init = ElementTable.__init__

    def recording(self, G, *args, **kwargs):
        tabled.append((G.order(), G.degree))
        init(self, G, *args, **kwargs)

    monkeypatch.setattr(ElementTable, "__init__", recording)
    trace = cpi_reduce(zoo.build_named("psl2_7xc2"), PiSet([2, 3]))
    assert tabled == [(336, 10), (168, 167)]   # G, the automizer's image
    assert chief_factor_decomposition(trace.series, 1) == \
        [trace.series.terms[0]]
    assert trace.to_dict() == {
        "pi": "2,3", "series_orders": [336, 2, 1],
        "levels": [{
            "index": 1, "factor_order": 168, "factor_kind": "semisimple",
            "simple_factor_count": 1,
            "automizer_checks": [{
                "factor_index": 0, "automizer_order": 168,
                "cpi_verdict": False, "special_cased": False,
                "orbit_size": 1, "route": "element-action"}],
            "H_order": 336, "H_next_order": None, "failure": "automizer",
            "special_cased_hall": False}],
        "verdict": False, "hall_witness_order": None,
        "hall_witness_generators": None, "shortcut_verdict": None,
        "shortcut_agrees": None}


def test_series_factor_product_is_group_order():
    for G in [zoo.sym(4), zoo.wreath(zoo.sym(3), 2), zoo.sym(6),
              zoo.direct_product(zoo.alt(5), zoo.sym(4))]:
        cs = chief_series(G)
        total = 1
        for i in range(1, len(cs) + 1):
            total *= cs.factor_order(i)
        assert total == G.order()


def test_no_intermediate_normal_subgroup_between_terms():
    # chief factors are minimal normal in the quotient: cross-check against
    # the full normal subgroup lattice for small groups
    for G in [zoo.sym(4), zoo.wreath(zoo.sym(3), 2), zoo.sym(5)]:
        cs = chief_series(G)
        normals = normal_subgroups(G)
        orders = {N.order(): N for N in normals}
        for i in range(1, len(cs) + 1):
            A, B = cs.factor_pair(i)
            for N in normals:
                if B.order() < N.order() < A.order():
                    assert not (B.is_subgroup_of(N) and N.is_subgroup_of(A))


def test_normal_subgroups_sym4():
    orders = sorted(N.order() for N in normal_subgroups(zoo.sym(4)))
    assert orders == [1, 4, 12, 24]


def test_normal_subgroups_direct_product():
    DP = zoo.direct_product(zoo.alt(5), zoo.alt(5))
    orders = sorted(N.order() for N in normal_subgroups(DP))
    assert orders == [1, 60, 60, 3600]


def test_induced_automizer_v4_in_sym4():
    S4 = zoo.sym(4)
    V4 = minimal_normal_subgroups(S4)[0]
    aut = induced_automizer(S4, V4, PermGroup(4, []))
    assert aut.section_image.order() == 6  # kernel V4: 24/6 = 4
    assert aut.route == "element-action"


def test_induced_automizer_alt5_in_sym5():
    aut = induced_automizer(zoo.sym(5), zoo.alt(5), PermGroup(5, []))
    assert aut.section_image.order() == 120  # faithful: trivial kernel


def test_induced_automizer_trivial_section():
    S4 = zoo.sym(4)
    aut = induced_automizer(S4, S4, S4)
    assert aut.section_image.order() == 1


def test_induced_automizer_ambient_route():
    # beyond the element-action budget with trivial centralizer
    hat = zoo.gl52_hat()
    aut = induced_automizer(hat.group, hat.inner, PermGroup(62, []), SMALL)
    assert aut.route == "ambient-faithful"
    assert aut.section_image.same_group_as(hat.group)


def test_induced_automizer_faithful_route_first():
    # B = 1 and trivial centralizer: G itself is faithful, so no element
    # action of degree |A| - 1 is built, even for a small section
    G = zoo.build_named("psl2_13")
    aut = induced_automizer(G, G, PermGroup(G.degree, []))
    assert aut.route == "ambient-faithful"
    assert aut.section_image is G


def test_induced_automizer_coset_route():
    # force route (c): section over the element budget, centralizer nontrivial
    G = zoo.direct_product(zoo.sym(5), zoo.cyclic(3))
    A = PermGroup(8, [Perm(list(p.images) + [5, 6, 7])
                      for p in zoo.alt(5).generators])
    tiny = Budgets(element_action_budget=10)
    aut = induced_automizer(G, A, PermGroup(8, []), tiny)
    assert aut.route == "coset-on-centralizer"
    # the cyclic factor centralizes A: the kernel has order 360/120 = 3
    assert aut.section_image.order() == 120


def test_induced_automizer_coset_route_over_a_nontrivial_b():
    # route (c) with B != 1: C_G(A/B) is taken in G/B.  On S5×C3 over its
    # C3 (A = G) the kernel is C3; on S5×S3×C3 over its C3 with A = A5×C3,
    # A's image is centralized by the S3 factor, which the centre of G/B
    # (trivial) does not show: the kernel is S3×C3
    def padded(p, lo, n):
        return Perm(list(range(lo)) + [lo + x for x in p.images]
                    + list(range(lo + p.degree, n)))

    S5C3 = zoo.direct_product(zoo.sym(5), zoo.cyclic(3))
    S5S3C3 = zoo.direct_product(zoo.direct_product(zoo.sym(5), zoo.sym(3)),
                                zoo.cyclic(3))
    c3 = [padded(g, 5, 8) for g in zoo.cyclic(3).generators]
    c3_last = [padded(g, 8, 11) for g in zoo.cyclic(3).generators]
    a5 = [padded(g, 0, 11) for g in zoo.alt(5).generators]
    cases = [(S5C3, S5C3, PermGroup(8, c3), 3),
             (S5S3C3, PermGroup(11, a5 + c3_last), PermGroup(11, c3_last),
              18)]
    tiny = Budgets(element_action_budget=10)
    for G, A, B, kernel in cases:
        aut = induced_automizer(G, A, B, tiny)
        assert aut.route == "coset-on-centralizer"
        assert aut.section_image.order() == 120
        b_els = brute_group_elements(B)
        brute = {g for g in brute_group_elements(G)
                 if all(g.commutator(a) in b_els for a in A.generators)}
        assert len(brute) == G.order() // aut.section_image.order() == kernel


def test_induced_automizer_requires_normal():
    S4 = zoo.sym(4)
    H = PermGroup(4, [Perm.from_cycles(4, (0, 1, 2))])
    with pytest.raises(ValueError):
        induced_automizer(S4, H, PermGroup(4, []))


def test_automizer_index_divides_normalizer_index():
    # with trivial B and centerless A: the inner part is A itself and the
    # outer part divides |N_G(A) : A C_G(A)|
    from pihall.backtrack import centralizer, normalizer
    for G, A in [(zoo.sym(5), zoo.alt(5)),
                 (zoo.sym(6), zoo.alt(6))]:
        aut = induced_automizer(G, A, PermGroup(G.degree, []))
        N = normalizer(G, A)
        C = centralizer(G, A)
        bound = N.order() // (A.order() * C.order())
        outer = aut.section_image.order() // A.order()
        assert bound % outer == 0


def test_is_simple_sampling_cannot_certify():
    # primitive, and no prime p with p | degree and p^2 not dividing |G|:
    # sampling may refute simplicity but never certify it
    tight = Budgets(order_budget=100)
    with pytest.raises(BudgetExceededError) as info:
        is_simple(zoo.alt(6), tight)
    assert info.value.kind == "simplicity"
    assert is_simple(zoo.sym(8), tight) is False


# -- class-space normal structure against the chain-based reference ----------


def _reference_normal_closure(G, seeds):
    """Normal closure rebuilding a whole PermGroup per added generator."""
    gens = []
    K = PermGroup(G.degree, [])
    queue = list(seeds)
    while queue:
        x = queue.pop(0)
        if K.contains(x):
            continue
        gens.append(x)
        K = PermGroup(G.degree, gens)
        for g in G.generators:
            queue.append(x.conjugate(g))
    return K


def _reference_closures(G, prime_only):
    """(index set, generator indices) of the normal closure of each class
    rep, one per class."""
    tbl = ElementTable(G)
    _, reps = tbl.classes()
    out = []
    for rep in reps:
        if rep == tbl.identity_idx:
            continue
        if prime_only and not is_prime(tbl.element_order(rep)):
            continue
        M = _reference_normal_closure(G, [tbl.perm_of(rep)])
        out.append((tbl.indices_of_subgroup(M),
                    frozenset(tbl.idx_of_perm(g) for g in M.generators)))
    return tbl, out


def _reference_is_simple(G):
    if is_prime(G.order()):
        return True
    _, closures = _reference_closures(G, prime_only=True)
    return all(len(s) == G.order() for s, _ in closures)


def _gens_of(H):
    return [g.images for g in H.generators]


def _reference_minimal_normals(G):
    tbl, closures = _reference_closures(G, prime_only=True)
    sets = {s for s, _ in closures}
    mins = {s for s in sets if not any(t < s for t in sets)}
    out = [tbl.subgroup(s) for s in mins]
    return sorted(out, key=lambda H: (H.order(), sorted(_gens_of(H))))


def _reference_normal_subgroups(G):
    tbl, closures = _reference_closures(G, prime_only=False)
    found = {frozenset([tbl.identity_idx]): frozenset()}
    for s, gens in closures:
        found.setdefault(s, gens)
    worklist = list(found.items())
    while worklist:
        s, gens = worklist.pop()
        for s2, gens2 in list(found.items()):
            join = tbl.closure(gens | gens2)
            if join not in found:
                found[join] = gens | gens2
                worklist.append((join, gens | gens2))
    ordered = sorted(found, key=lambda s: (len(s), tuple(sorted(s))))
    return [tbl.subgroup(s) for s in ordered]


def _perm_group(n, images):
    return PermGroup(n, [Perm(tuple(p)) for p in images])


@st.composite
def small_groups(draw):
    """Random subgroups of S_n (n <= 6), and direct and wreath products of
    small ones."""
    def sub(max_degree, max_gens):
        n = draw(st.integers(2, max_degree))
        images = draw(st.lists(st.permutations(range(n)), min_size=1,
                               max_size=max_gens))
        return _perm_group(n, images)

    kind = draw(st.sampled_from(["sym", "direct", "wreath"]))
    if kind == "sym":
        G = sub(6, 3)
    elif kind == "direct":
        G = zoo.direct_product(sub(4, 2), sub(4, 2))
    else:
        G = zoo.wreath(sub(3, 2), 2)
    assume(G.order() > 1)
    return G


@settings(derandomize=True, database=None, max_examples=150,
          deadline=None)
@given(small_groups())
def test_class_space_normal_structure_matches_reference(G):
    assert is_simple(G) is _reference_is_simple(G)
    assert ([_gens_of(M) for M in minimal_normal_subgroups(G)]
            == [_gens_of(M) for M in _reference_minimal_normals(G)])
    assert ([_gens_of(N) for N in normal_subgroups(G)]
            == [_gens_of(N) for N in _reference_normal_subgroups(G)])


def _brute_normal_closure(G, seeds):
    """Elements of the normal closure of the seeds: add a conjugate of a
    generator by a generator of G until none lies outside the span."""
    gens = list(seeds)
    elements = brute_elements(gens, G.degree)
    while True:
        outside = next((h.conjugate(g) for h in gens for g in G.generators
                        if h.conjugate(g) not in elements), None)
        if outside is None:
            return elements
        gens.append(outside)
        elements = brute_elements(gens, G.degree)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(small_groups())
def test_chief_series_in_table_matches_definition(G):
    # the series as element sets, against its definition: normal terms,
    # strictly decreasing, and A/B minimal normal in G/B for each factor
    assume(G.order() <= 720)
    cs = chief_series(G)
    assert cs.terms[0] is G and cs.terms[-1].is_trivial()
    sets = [brute_group_elements(T) for T in cs.terms]
    g_elements = sets[0]
    for T in sets[1:]:
        assert all(x.conjugate(g) in T for x in T for g in G.generators)
    for i in range(1, len(sets)):
        A, B = sets[i - 1], sets[i]
        assert B < A
        done = set()
        for x in A - B:
            if x in done:
                continue
            seeds = [*cs.terms[i].generators, x]
            assert _brute_normal_closure(G, seeds) == A
            # x's G-conjugates and their B-cosets have the same closure
            conjugates = {x.conjugate(g) for g in g_elements}
            done |= {b * y for y in conjugates for b in B}


# chief_series orders of the corpus groups (default budgets, seed 1), as
# computed through quotients before the series moved into G's table
CORPUS_SERIES_ORDERS = {
    "alt4": [12, 4, 1],
    "alt5": [60, 1],
    "alt5wr2": [7200, 3600, 1],
    "alt5xalt5": [3600, 60, 1],
    "alt5xsym4": [1440, 24, 12, 4, 1],
    "alt6": [360, 1],
    "cyclic12": [12, 4, 2, 1],
    "dihedral4": [8, 4, 2, 1],
    "dihedral6": [12, 6, 2, 1],
    "gl3_2": [168, 1],
    "gl4_2": [20160, 1],
    "psl2_11": [660, 1],
    "psl2_13": [1092, 1],
    "psl2_7": [168, 1],
    "psl2_7xc2": [336, 2, 1],
    "sym3": [6, 3, 1],
    "sym3wr2": [72, 36, 18, 9, 1],
    "sym4": [24, 12, 4, 1],
    "sym4wr2": [1152, 576, 288, 144, 16, 1],
    "sym5": [120, 60, 1],
    "sym6": [720, 360, 1],
}


def test_corpus_chief_series_orders_pinned():
    names = {e["name"] for e in zoo.corpus_manifest()}
    assert names == set(CORPUS_SERIES_ORDERS)
    for name, orders in CORPUS_SERIES_ORDERS.items():
        cs = chief_series(zoo.build_named(name))
        assert [T.order() for T in cs.terms] == orders, name


@pytest.mark.parametrize("name, most", [("gl4_2", 20), ("alt5wr2", 130)])
def test_chief_series_class_products(monkeypatch, name, most):
    # a work-count gate: from a fresh table, the series computes few class
    # products, since no candidate closure grows past |G|/2 or past the
    # least order found at its level
    monkeypatch.setattr(structure, "_table_cache", {})
    G = zoo.build_named(name)
    cs = chief_series(G)
    assert [T.order() for T in cs.terms] == CORPUS_SERIES_ORDERS[name]
    assert len(structure.get_table(G)._class_products) <= most


def test_table_cache_keeps_generator_order(monkeypatch):
    # a table's index order follows the generator order, so two groups with
    # the same generators in another order must not share a table
    S4 = zoo.sym(4)
    reversed_gens = PermGroup(4, list(reversed(S4.generators)))
    monkeypatch.setattr(structure, "_table_cache", {})
    cold = [_gens_of(M) for M in minimal_normal_subgroups(reversed_gens)]
    monkeypatch.setattr(structure, "_table_cache", {})
    minimal_normal_subgroups(S4)
    warm = [_gens_of(M) for M in minimal_normal_subgroups(reversed_gens)]
    assert cold == warm


def test_normal_closure_classes_limit():
    tbl = ElementTable(zoo.sym(4))
    class_id, reps = tbl.classes()
    double = next(c for c, r in enumerate(reps)
                  if tbl.perm_of(r).cycle_lengths() == [2, 2])
    v4 = tbl.normal_closure_classes([double])
    assert len(tbl.union_of_classes(v4)) == 4
    assert tbl.normal_closure_classes([double], limit=4) == v4
    assert tbl.normal_closure_classes([double], limit=3) is None


# -- work-count gate: in-budget normal structure stays in class space --------


def _count_chain_builds(monkeypatch):
    count = [0]
    init = groups._Chain.__init__

    def counting(self, *args, **kwargs):
        count[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(groups._Chain, "__init__", counting)
    return count


def _fresh(name):
    # a new PermGroup, so its chain is built (and counted) inside the gate
    G = zoo.build_named(name)
    return PermGroup(G.degree, G.generators)


def test_normal_structure_work_gate(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("in-budget normal structure left class space")

    monkeypatch.setattr(structure, "normal_closure", refuse)
    monkeypatch.setattr(ElementTable, "closure", refuse)
    monkeypatch.setattr(structure, "_table_cache", {})
    builds = _count_chain_builds(monkeypatch)

    mins = minimal_normal_subgroups(_fresh("gl4_2"))
    assert [M.order() for M in mins] == [20160]
    assert builds[0] <= 3
    builds[0] = 0
    cs = chief_series(_fresh("alt5wr2"))
    assert [T.order() for T in cs.terms] == [7200, 3600, 1]
    assert builds[0] <= 9
    assert is_simple(_fresh("psl2_13")) is True
    assert [N.order() for N in normal_subgroups(_fresh("sym4"))] == [
        1, 4, 12, 24]


def test_reduction_chain_build_gate(monkeypatch):
    monkeypatch.setattr(structure, "_table_cache", {})
    monkeypatch.setattr(hall, "_classify_cache", {})
    builds = _count_chain_builds(monkeypatch)
    assert cpi_reduce(_fresh("alt5xsym4"), PiSet([2, 3])).verdict is True
    assert builds[0] <= 60


def test_reduction_sift_gate(monkeypatch):
    # chains given their exact order stop verifying once it is reached; a
    # full verification of every action and span chain sifts about 2,500
    # times here
    monkeypatch.setattr(structure, "_table_cache", {})
    monkeypatch.setattr(hall, "_classify_cache", {})
    G = _fresh("alt5xsym4")
    G.order()
    sifts = [0]
    sift_add = groups._Chain._sift_add

    def counting(self, *args):
        sifts[0] += 1
        return sift_add(self, *args)

    monkeypatch.setattr(groups._Chain, "_sift_add", counting)
    assert cpi_reduce(G, PiSet([2, 3])).verdict is True
    assert sifts[0] <= 1000


def _count_table_builds(monkeypatch):
    orders = []
    init = ElementTable.__init__

    def counting(self, G, *args, **kwargs):
        orders.append(G.order())
        init(self, G, *args, **kwargs)

    monkeypatch.setattr(ElementTable, "__init__", counting)
    return orders


def test_simple_group_reduction_builds_one_table(monkeypatch):
    # the top term is G itself, so the chief factor of a simple G is
    # decomposed in the table the series was built in
    monkeypatch.setattr(structure, "_table_cache", {})
    monkeypatch.setattr(hall, "_classify_cache", {})
    orders = _count_table_builds(monkeypatch)
    G = _fresh("gl4_2")
    trace = cpi_reduce(G, PiSet([2, 3]))
    assert trace.series.terms[0] is G
    assert Counter(orders)[20160] == 1


def test_chief_series_stays_in_table_gate(monkeypatch):
    # in budget, the series takes no quotient: no coset action and no
    # minimal normal subgroups of a quotient, whose tables the reduction
    # would otherwise build (orders 360 and 120 here)
    monkeypatch.setattr(structure, "_table_cache", {})
    monkeypatch.setattr(hall, "_classify_cache", {})
    orders = _count_table_builds(monkeypatch)
    inside, calls = [False], []

    def watch(name, fn):
        def watched(*args, **kwargs):
            if inside[0]:
                calls.append(name)
            return fn(*args, **kwargs)
        return watched

    def series(*args, **kwargs):
        inside[0] = True
        try:
            return chief_series(*args, **kwargs)
        finally:
            inside[0] = False

    for name in ("coset_action", "minimal_normal_subgroups"):
        monkeypatch.setattr(structure, name,
                            watch(name, getattr(structure, name)))
    monkeypatch.setattr(reduction, "chief_series", series)
    assert cpi_reduce(_fresh("alt5xsym4"), PiSet([2, 3])).verdict is True
    assert calls == []
    assert sorted(orders) == [60, 60, 1440]
