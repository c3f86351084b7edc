import random

import pytest

from conftest import brute_group_elements
from pihall import zoo
from pihall.backtrack import BudgetExceededError, VerificationError
from pihall.config import Budgets
from pihall.groups import PermGroup
from pihall.tables import ElementTable


def test_enumeration_matches_brute_force():
    for G in [zoo.sym(4), zoo.alt(5), zoo.dihedral(6), zoo.psl2(7)]:
        tbl = ElementTable(G)
        brute = {p.images for p in brute_group_elements(G)}
        rows = {tuple(int(x) for x in r) for r in tbl.rows}
        assert rows == brute


def test_mul_and_inv():
    G = zoo.sym(5)
    tbl = ElementTable(G)
    rng = random.Random(4)
    for _ in range(50):
        i = rng.randrange(tbl.size)
        j = rng.randrange(tbl.size)
        assert tbl.perm_of(tbl.mul(i, j)) == tbl.perm_of(i) * tbl.perm_of(j)
        assert tbl.mul(i, tbl.inv(i)) == tbl.identity_idx


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
    from pihall.perms import Perm
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
