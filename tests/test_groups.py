import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (brute_elements, brute_group_elements, chain_shape,
                      chains_built, small_groups_up_to_degree_8)
from pihall import zoo
from pihall.actions import coset_action
from pihall.backtrack import normalizer
from pihall.groups import PermGroup, VerificationError, _Chain, span
from pihall.hall import sylow
from pihall.perms import Perm
from pihall.structure import normal_closure
from pihall.tables import ElementTable


def test_trivial_group():
    G = PermGroup(3, [])
    assert G.order() == 1
    assert G.contains(Perm.identity(3))
    assert list(G.elements()) == [Perm.identity(3)]


def test_alt5_order():
    assert zoo.alt(5).order() == 60


def test_gl52_order_matches_prime_factorization():
    # gl states its order; read the chain's, and an unstated chain's
    G = zoo.gl(5, 2)
    expected = 2 ** 10 * 3 ** 2 * 5 * 7 * 31
    assert G.chain().order() == expected
    assert _Chain(G.degree, G.gen_tuples()).order() == expected


def test_gl52_hat_order():
    G = zoo.gl52_hat().group
    expected = 2 * 2 ** 10 * 3 ** 2 * 5 * 7 * 31
    assert G.chain().order() == expected
    assert _Chain(G.degree, G.gen_tuples()).order() == expected


@pytest.mark.parametrize("n", range(1, 9))
def test_sym_orders(n):
    assert zoo.sym(n).order() == math.factorial(n)


def test_order_equals_explicit_enumeration_small():
    # chain order vs plain closure enumeration, for everything <= 5040
    for G in [zoo.sym(4), zoo.sym(5), zoo.alt(5), zoo.alt(6), zoo.dihedral(6),
              zoo.cyclic(12), zoo.psl2(7), zoo.wreath(zoo.sym(3), 2),
              zoo.direct_product(zoo.alt(5), zoo.sym(4))]:
        assert G.order() <= 5040
        brute = brute_group_elements(G)
        assert G.order() == len(brute)
        assert set(G.elements()) == brute


def test_random_generated_groups_against_brute_force():
    rng = random.Random(99)
    for _ in range(40):
        n = rng.randint(2, 7)
        gens = []
        for _ in range(rng.randint(1, 3)):
            img = list(range(n))
            rng.shuffle(img)
            gens.append(Perm(img))
        G = PermGroup(n, gens)
        assert G.order() == len(brute_elements(gens, n))


def test_orbit_stabilizer_identity():
    for G in [zoo.sym(5), zoo.alt(5), zoo.psl2(7), zoo.dihedral(6),
              zoo.wreath(zoo.sym(3), 2)]:
        for point in range(G.degree):
            assert len(G.orbit(point)) * G.stabilizer(point).order() == G.order()


def test_point_stabilizer_of_sym5():
    assert zoo.sym(5).stabilizer(0).order() == 24


def test_orbit_of_trivial_group():
    G = PermGroup(4, [])
    assert G.orbit(2) == {2}


def test_orbit_transitive_gl52():
    G = zoo.gl(5, 2)
    assert len(G.orbit(0)) == 31


def test_sifting_products_stay_inside():
    rng = random.Random(7)
    for G in [zoo.sym(5), zoo.alt(6), zoo.psl2(11)]:
        for _ in range(40):
            g = G.random_element(rng)
            h = G.random_element(rng)
            assert G.contains(g * h)


def test_membership_negative():
    a5 = zoo.alt(5)
    assert not a5.contains(Perm.from_cycles(5, (0, 1)))
    assert a5.contains(Perm.from_cycles(5, (0, 1, 2)))
    assert zoo.sym(4).contains(Perm.from_cycles(4, (0, 1, 2)))


def test_is_subgroup():
    assert zoo.alt(4).is_subgroup_of(zoo.sym(4))
    assert not zoo.sym(4).is_subgroup_of(zoo.alt(4))


def test_random_element_determinism():
    G = zoo.sym(6)
    assert G.random_element(42) == G.random_element(42)


def test_random_element_uniformity_sym3():
    # 10^4 samples; each of the 6 elements within 5 sigma of 1/6
    G = zoo.sym(3)
    rng = random.Random(12345)
    counts = Counter(G.random_element(rng) for _ in range(10_000))
    assert len(counts) == 6
    expect = 10_000 / 6
    sigma = (10_000 * (1 / 6) * (5 / 6)) ** 0.5
    for value in counts.values():
        assert abs(value - expect) <= 5 * sigma


def test_base_points_greedy():
    # base points are the smallest points moved at each level
    G = zoo.sym(5)
    base = G.base()
    assert base == sorted(base)
    assert base[0] == 0


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(st.integers(2, 7).flatmap(lambda n: st.tuples(
    st.lists(st.permutations(range(n)), min_size=1, max_size=4),
    st.lists(st.permutations(range(n)), min_size=1, max_size=20),
    st.lists(st.integers(0, n - 1), max_size=3, unique=True))))
def test_chain_extend_matches_fresh_chain(case):
    gens = [tuple(p) for p in case[0]]
    probes = [tuple(p) for p in case[1]]
    hint = case[2]
    n = len(gens[0])
    grown = _Chain(n, [], hint=hint)
    for i, g in enumerate(gens):
        before = grown.order()
        added = grown.extend(g)
        assert added is (grown.order() > before)
        fresh = _Chain(n, gens[:i + 1], hint=hint)
        assert grown.order() == fresh.order()
        assert grown.base()[:len(hint)] == hint
        assert all(grown.contains(w) for w in fresh.iter_tuples())
        assert all(grown.contains(p) == fresh.contains(p) for p in probes)


# -- stated orders: early stop, certified --------------------------------------


def test_stated_order_is_returned_without_a_chain():
    G = PermGroup(4, zoo.sym(4).generators, order=24)
    assert G.order() == 24
    assert G._chain_cache is None
    assert G.chain().order() == 24


@pytest.mark.parametrize("wrong", [48, 23])
def test_wrong_stated_order_raises(wrong):
    # verification runs to the end without meeting the stated order
    with pytest.raises(VerificationError):
        PermGroup(4, zoo.sym(4).generators, order=wrong).chain()


def test_extend_after_early_stop_voids_the_order():
    S4 = zoo.sym(4)
    chain = _Chain(5, [g.images + (4,) for g in S4.generators], order=24)
    assert chain.extend((0, 1, 2, 4, 3))
    assert chain.order() == 120


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(small_groups_up_to_degree_8(), st.integers(0, 10**6))
def test_stated_order_chain_is_identical(group, seed):
    degree, gens = group

    def run():
        rng = random.Random(seed)
        G = PermGroup(degree, gens)
        order = G.order()
        stated = PermGroup(degree, gens, order=order)
        point = rng.randrange(degree)
        stab = stated.stabilizer(point)
        stab.chain()
        x = stated.random_element(rng)
        N = normal_closure(G, [x])
        if order // N.order() <= 120:
            hom = coset_action(stated, N)
            Q = hom.quotient
            Q.chain()
            Qsub = PermGroup(Q.degree, [hom.image(stated.random_element(rng))])
            hom.preimage_group(Qsub).chain()
        tbl = ElementTable(G)
        y = stated.random_element(rng)
        tbl.subgroup(tbl.closure([tbl.idx_of_perm(y)])).chain()
        # extend after the early stop, by an element of S_n usually outside G
        before = chain_shape(stated.chain())
        images = list(range(degree))
        rng.shuffle(images)
        stated.chain().extend(tuple(images))
        return before

    early, early_before = chains_built(run, stated=True)
    full, full_before = chains_built(run, stated=False)
    assert early_before == full_before
    assert len(early) == len(full)
    assert any(order is not None for _, order in early)
    for (a, _), (b, _) in zip(early, full):
        assert a.base() == b.base()
        assert chain_shape(a) == chain_shape(b)


# -- found subgroups: a group's chain depends on its generators alone ---------


def intersection(H, A):
    """H ∩ A, spanned by the elements of H that A contains."""
    return span(H.degree, filter(A.contains, H.elements()))


def test_found_subgroups_table_as_their_generators():
    # a span or search result builds its chain from the generators it
    # kept, so its element table's rows are those of a fresh group on them
    G = zoo.sym(5)
    tbl = ElementTable(G)
    x, y = Perm((4, 3, 2, 1, 0)), Perm((4, 3, 0, 1, 2))
    finders = {
        "normalizer": lambda: normalizer(G, sylow(G, 3)),
        "ElementTable.subgroup": lambda: tbl.subgroup(
            tbl.closure([tbl.idx_of_perm(x), tbl.idx_of_perm(y)])),
        "normal_closure": lambda: normal_closure(G, [Perm((2, 3, 0, 4, 1))]),
    }
    for name, find in finders.items():
        H = find()
        fresh = PermGroup(H.degree, H.generators)
        assert (ElementTable(H).rows == ElementTable(fresh).rows).all(), name


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(small_groups_up_to_degree_8(), st.integers(0, 10**6))
def test_found_subgroups_match_brute_force(group, seed):
    degree, gens = group
    G = PermGroup(degree, gens)
    rng = random.Random(seed)
    x, y = G.random_element(rng), G.random_element(rng)
    tbl = ElementTable(G)
    found = [
        tbl.subgroup(tbl.closure([tbl.idx_of_perm(x), tbl.idx_of_perm(y)])),
        normal_closure(G, [x]),
        intersection(PermGroup(degree, [x, y]), normal_closure(G, [y])),
        normalizer(G, PermGroup(degree, [x])),
    ]
    g_els = brute_group_elements(G)
    for H in found:
        h_els = brute_elements(H.generators, degree)
        assert H.order() == len(h_els)
        assert all(H.contains(g) == (g in h_els) for g in g_els)
        table = ElementTable(H)
        rows = {Perm(tuple(int(v) for v in row), validate=False)
                for row in table.rows}
        assert rows == h_els
        fresh = ElementTable(PermGroup(degree, H.generators))
        assert (table.rows == fresh.rows).all()
