import random

import pytest

from pihall.perms import DegreeMismatchError, Perm, compose


def test_identity_neutral():
    p = Perm.from_cycles(5, (0, 3, 1))
    e = Perm.identity(5)
    assert compose(e, p) == p
    assert compose(p, e) == p


def test_inverse_law():
    p = Perm([2, 0, 3, 1])
    assert compose(p, p.inverse()) == Perm.identity(4)
    assert compose(p.inverse(), p) == Perm.identity(4)


def test_composition_order_convention():
    # the mathematical composition (0 1) after (1 2) maps 0->1, 1->2, 2->0;
    # compose applies its first argument first, so the inner factor comes
    # first in the call
    trans01 = Perm.from_cycles(3, (0, 1))
    trans12 = Perm.from_cycles(3, (1, 2))
    assert compose(trans12, trans01).images == (1, 2, 0)
    assert compose(trans01, trans12).images == (2, 0, 1)


def test_compose_is_associative():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 8)
        ps = []
        for _ in range(3):
            img = list(range(n))
            rng.shuffle(img)
            ps.append(Perm(img))
        a, b, c = ps
        assert (a * b) * c == a * (b * c)


def test_degree_mismatch():
    with pytest.raises(DegreeMismatchError):
        compose(Perm.identity(3), Perm.identity(4))


@pytest.mark.parametrize("images", [[0, 0, 1], [1, 2], [0, 3, 1], [-1, 0],
                                    [True, False]])
def test_rejects_non_bijections(images):
    with pytest.raises(ValueError):
        Perm(images)


def test_cycles_and_order():
    p = Perm.from_cycles(6, (0, 1, 2), (3, 4))
    assert p.cycles() == [(0, 1, 2), (3, 4)]
    assert p.order() == 6
    assert Perm.identity(4).order() == 1
    assert (p ** 6).is_identity()
    assert p ** -1 == p.inverse()


def test_conjugate_and_commutator():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(2, 7)
        imgs = [list(range(n)) for _ in range(2)]
        for img in imgs:
            rng.shuffle(img)
        p, g = Perm(imgs[0]), Perm(imgs[1])
        assert p.conjugate(g) == g.inverse() * p * g
        assert p.commutator(g) == p.inverse() * g.inverse() * p * g


def test_immutability_and_hash():
    p = Perm([1, 0])
    with pytest.raises(AttributeError):
        p.images = (0, 1)
    assert len({Perm([1, 0]), Perm([1, 0]), Perm([0, 1])}) == 2
