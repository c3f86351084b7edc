import random

import pytest

from pihall import zoo
from pihall.actions import (block_action, coset_action, minimal_block_system,
                            nontrivial_block_system, section_action)
from pihall.backtrack import BudgetExceededError, VerificationError
from pihall.config import Budgets
from pihall.groups import PermGroup
from pihall.perms import Perm


def v4_in(degree=4):
    return PermGroup(degree, [Perm.from_cycles(degree, (0, 1), (2, 3)),
                              Perm.from_cycles(degree, (0, 2), (1, 3))])


def test_coset_action_on_self_is_trivial():
    S4 = zoo.sym(4)
    hom = coset_action(S4, S4)
    assert hom.domain_size == 1
    assert hom.quotient.order() == 1


def test_coset_action_sym4_over_alt4():
    S4, A4 = zoo.sym(4), zoo.alt(4)
    hom = coset_action(S4, A4)
    assert hom.domain_size == 2
    assert hom.quotient.order() == 2


def test_coset_action_refuses_non_normal_subgroup():
    # S4 on the cosets of a Sylow-2 would have kernel V4 < D8: not a
    # quotient by D8, so the call is refused, and so is a section S4/D8,
    # whose points are those cosets
    S4 = zoo.sym(4)
    D8 = PermGroup(4, [Perm.from_cycles(4, (0, 1, 2, 3)),
                       Perm.from_cycles(4, (0, 2))])
    with pytest.raises(ValueError):
        coset_action(S4, D8)
    with pytest.raises(ValueError):
        section_action(S4, S4, D8)


def test_coset_action_certifies_the_label_count():
    # C3 normalizes V4 without containing it: 3 cosets V4·g, not |C3:V4|
    C3 = PermGroup(4, [Perm.from_cycles(4, (0, 1, 2))])
    with pytest.raises(VerificationError):
        coset_action(C3, v4_in())


def test_preimage_round_trip():
    S4 = zoo.sym(4)
    hom = coset_action(S4, v4_in())
    rng = random.Random(3)
    for _ in range(25):
        q = hom.quotient.random_element(rng)
        p = hom.preimage(q)
        assert hom.image(p) == q
    with pytest.raises(ValueError):
        sub = PermGroup(hom.domain_size, [])
        # an element outside the image: only possible if image is proper
        bigger = zoo.sym(hom.domain_size)
        outsider = next(g for g in bigger.elements()
                        if not hom.quotient.contains(g))
        hom.preimage(outsider)


def test_preimage_group_pulls_back_subgroup():
    S4 = zoo.sym(4)
    hom = coset_action(S4, v4_in())
    rot = next(g for g in hom.quotient.elements() if g.order() == 3)
    pre = hom.preimage_group(PermGroup(hom.domain_size, [rot]))
    assert pre.same_group_as(zoo.alt(4))


def test_degree_budget():
    with pytest.raises(BudgetExceededError):
        coset_action(zoo.sym(6), PermGroup(6, []),
                     Budgets(coset_degree_budget=100))


def test_section_action_sym4_on_v4():
    # the kernel, of order |S4|/|image| = 4, is V4 itself
    S4 = zoo.sym(4)
    image = section_action(S4, v4_in(), PermGroup(4, []))
    assert image.degree == 3
    assert image.order() == 6


def test_section_action_sym5_on_alt5():
    # faithful on the 59 nonidentity elements, and A5 acting on itself
    # gives its inner automorphisms
    S5, A5 = zoo.sym(5), zoo.alt(5)
    image = section_action(S5, A5, PermGroup(5, []))
    assert image.degree == 59
    assert image.order() == 120
    assert section_action(A5, A5, PermGroup(5, [])).order() == 60


def test_orbit_restriction():
    # singleton blocks over an orbit: A5 x S4 on its first orbit, with
    # kernel S4 of order |A5 x S4|/|image| = 24
    DP = zoo.direct_product(zoo.alt(5), zoo.sym(4))
    image = block_action(DP, [[x] for x in range(5)])
    assert image.degree == 5
    assert image.order() == 60
    assert DP.order() // image.order() == 24


def test_blocks_of_wreath():
    # S3 wr 2 swaps its two blocks; the kernel S3 x S3 has order 72/2 = 36
    W = zoo.wreath(zoo.sym(3), 2)
    blocks = nontrivial_block_system(W)
    assert blocks == [[0, 1, 2], [3, 4, 5]]
    image = block_action(W, blocks)
    assert image.order() == 2
    assert W.order() // image.order() == 36


def test_primitive_group_has_no_blocks():
    assert nontrivial_block_system(zoo.psl2(7)) is None
    assert nontrivial_block_system(zoo.sym(5)) is None


def test_minimal_block_system_contains_pair():
    W = zoo.wreath(zoo.sym(3), 2)
    blocks = minimal_block_system(W, 0, 1)
    cell = next(b for b in blocks if 0 in b)
    assert 1 in cell
