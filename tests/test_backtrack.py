import random

import pytest

from conftest import brute_centralizer, brute_group_elements, brute_normalizer
from pihall import zoo
from pihall.backtrack import (BudgetExceededError, ConjugacyProperty,
                              centralizer, conjugating_element, normalizer,
                              partition_stabilizer, subgroup_search)
from pihall.config import Budgets
from pihall.groups import PermGroup
from pihall.perms import Perm


def test_normalizer_of_normal_subgroup_is_whole_group():
    S4 = zoo.sym(4)
    assert normalizer(S4, zoo.alt(4)).same_group_as(S4)


def test_normalizer_of_three_cycle_in_sym4():
    S4 = zoo.sym(4)
    H = PermGroup(4, [Perm.from_cycles(4, (0, 1, 2))])
    N = normalizer(S4, H)
    assert N.order() == 6
    assert len(brute_normalizer(S4, H)) == 6


def test_centralizer_of_trivial_is_whole():
    G = zoo.sym(4)
    assert centralizer(G, PermGroup(4, [])).same_group_as(G)


def test_centralizer_alt3_in_sym3():
    S3, A3 = zoo.sym(3), zoo.alt(3)
    C = centralizer(S3, A3)
    assert C.same_group_as(A3)
    assert len(brute_centralizer(S3, A3)) == 3


BRUTE_POOL = [zoo.sym(4), zoo.sym(5), zoo.alt(5), zoo.dihedral(6),
              zoo.psl2(7), zoo.wreath(zoo.sym(3), 2)]


def test_randomized_against_brute_force():
    rng = random.Random(5)
    for G in BRUTE_POOL:
        els = sorted(brute_group_elements(G), key=lambda p: p.images)
        for _ in range(5):
            H = PermGroup(G.degree,
                          [rng.choice(els) for _ in range(rng.randint(1, 2))])
            assert normalizer(G, H).order() == len(brute_normalizer(G, H))
            assert centralizer(G, H).order() == len(brute_centralizer(G, H))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_relabelled_searches_match_brute_force(seed):
    # relabelled points and a shuffled base put base points that are not
    # the least of their known-subgroup orbit under the search, where the
    # identity-prefix prune must keep the base point's branch
    rng = random.Random(seed)
    for G0 in BRUTE_POOL:
        n = G0.degree
        sigma = Perm(rng.sample(range(n), n))
        G = PermGroup(n, [g.conjugate(sigma) for g in G0.generators])
        els = sorted(brute_group_elements(G), key=lambda p: p.images)
        for _ in range(8):
            H = PermGroup(n, [rng.choice(els)
                              for _ in range(rng.randint(1, 2))])
            N = subgroup_search(G, ConjugacyProperty(H, H), known=H,
                                chain=G.fresh_chain(
                                    hint=rng.sample(range(n), n)))
            assert brute_group_elements(N) == brute_normalizer(G, H)
            C = centralizer(G, H)
            assert brute_group_elements(C) == brute_centralizer(G, H)


def test_centralizer_of_inner_copy_in_extension_is_trivial():
    hat = zoo.gl52_hat()
    assert centralizer(hat.group, hat.inner).is_trivial()


def test_setwise_stabilizer_sym5():
    # a setwise stabilizer is the stabilizer of a two-colour partition
    G = zoo.sym(5)
    S = partition_stabilizer(G, [1, 1, 0, 0, 0])
    assert S.order() == 12  # Sym{0,1} x Sym{2,3,4}
    brute = [g for g in brute_group_elements(G)
             if {g(0), g(1)} == {0, 1}]
    assert S.order() == len(brute)


def test_partition_stabilizer_matches_brute():
    G = zoo.sym(6)
    colors = [0, 0, 1, 1, 2, 2]
    S = partition_stabilizer(G, colors)
    brute = [g for g in brute_group_elements(G)
             if all(colors[g(x)] == colors[x] for x in range(6))]
    assert S.order() == len(brute) == 8


def test_conjugating_element_sylow2_sym4():
    S4 = zoo.sym(4)
    D1 = PermGroup(4, [Perm.from_cycles(4, (0, 1, 2, 3)),
                       Perm.from_cycles(4, (0, 2))])
    D2 = PermGroup(4, [Perm.from_cycles(4, (0, 2, 1, 3)),
                       Perm.from_cycles(4, (0, 1))])
    x = conjugating_element(S4, D1, D2)
    assert x is not None
    assert all(D2.contains(h.conjugate(x)) for h in D1.generators)


def test_conjugating_element_negative():
    S4 = zoo.sym(4)
    V4 = PermGroup(4, [Perm.from_cycles(4, (0, 1), (2, 3)),
                       Perm.from_cycles(4, (0, 2), (1, 3))])
    C4 = PermGroup(4, [Perm.from_cycles(4, (0, 1, 2, 3))])
    assert conjugating_element(S4, V4, C4) is None


def test_node_budget_raises():
    G = zoo.sym(6)
    H = PermGroup(6, [Perm.from_cycles(6, (0, 1, 2))])
    with pytest.raises(BudgetExceededError):
        normalizer(G, H, Budgets(node_budget=3))


def test_normalizer_of_parabolic_is_itself():
    # self-normalizing flag stabilizer, found by the generic search
    G = zoo.gl(5, 2)
    H = zoo.flag_stabilizer(5, 2, (2, 1, 2))
    assert normalizer(G, H).same_group_as(H)
