import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_elements, brute_group_elements
from pihall import zoo
from pihall.groups import PermGroup, _Chain
from pihall.perms import Perm


def test_trivial_group():
    G = PermGroup(3, [])
    assert G.order() == 1
    assert G.contains(Perm.identity(3))
    assert list(G.elements()) == [Perm.identity(3)]


def test_alt5_order():
    assert zoo.alt(5).order() == 60


def test_gl52_order_matches_prime_factorization():
    assert zoo.gl(5, 2).order() == 2 ** 10 * 3 ** 2 * 5 * 7 * 31


def test_gl52_hat_order():
    assert zoo.gl52_hat().group.order() == 2 * 2 ** 10 * 3 ** 2 * 5 * 7 * 31


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


def test_pointwise_stabilizer():
    G = zoo.sym(5)
    S = G.pointwise_stabilizer([0, 1])
    assert S.order() == 6
    assert all(g(0) == 0 and g(1) == 1 for g in S.generators)


def test_fingerprint_invariance_under_conjugation():
    G = zoo.sym(5)
    H = PermGroup(5, [Perm.from_cycles(5, (0, 1, 2, 3))])
    rng = random.Random(3)
    g = G.random_element(rng)
    Hg = PermGroup(5, [h.conjugate(g) for h in H.generators])
    assert H.fingerprint() == Hg.fingerprint()


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
