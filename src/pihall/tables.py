"""Exhaustive element tables for groups within the enumeration budget.

Rows of a numpy matrix hold every element's image list; a bytes-keyed dict
maps rows back to indices.  Conjugation maps per generator are the basis
for conjugacy classes and for orbits of subgroups (as index sets) under
conjugation, which the Hall oracle uses for exact class deduplication.
"""

from __future__ import annotations

import numpy as np

from .backtrack import BudgetExceededError
from .groups import PermGroup
from .perms import Perm

DEFAULT_ORDER_BUDGET = 1_000_000


def require_order_within(G: PermGroup, order_budget: int) -> int:
    """|G|, or BudgetExceededError when it is past the enumeration budget."""
    order = G.order()
    if order > order_budget:
        raise BudgetExceededError("enumeration-order",
                                  f"|G| = {order} > {order_budget}")
    return order


class ElementTable:
    def __init__(self, G: PermGroup, order_budget: int | None = None):
        budget = DEFAULT_ORDER_BUDGET if order_budget is None else order_budget
        order = require_order_within(G, budget)
        self.group = G
        self.degree = G.degree
        dtype = np.uint16 if G.degree < 65536 else np.uint32
        self.rows = self._enumerate(G, dtype)
        self.size = len(self.rows)
        assert self.size == order
        self.index: dict[bytes, int] = {
            row.tobytes(): i for i, row in enumerate(self.rows)}
        self.identity_idx = self.index[
            np.arange(self.degree, dtype=dtype).tobytes()]
        self.gen_idxs = [self.index[np.array(g.images, dtype=dtype).tobytes()]
                         for g in G.generators]
        self._inv: np.ndarray | None = None
        self._conj_maps: list[np.ndarray] | None = None
        self._class_id: np.ndarray | None = None
        self._class_reps: list[int] | None = None
        self._orders: dict[int, int] = {}

    @staticmethod
    def _enumerate(G: PermGroup, dtype) -> np.ndarray:
        chain = G.chain()
        acc = np.arange(G.degree, dtype=dtype)[None, :]
        for lvl in chain.levels:
            if len(lvl.orbit_list) == 1:
                continue
            blocks = []
            for pt in sorted(lvl.orbit_list):
                u = np.array(lvl.rep(pt), dtype=dtype)
                blocks.append(acc[:, u])
            acc = np.vstack(blocks)
        return acc

    # -- element ops -------------------------------------------------------

    def idx_of_perm(self, p: Perm) -> int:
        return self.index[np.array(p.images, dtype=self.rows.dtype).tobytes()]

    def perm_of(self, i: int) -> Perm:
        return Perm(tuple(int(x) for x in self.rows[i]), validate=False)

    def mul(self, i: int, j: int) -> int:
        return self.index[self.rows[j][self.rows[i]].tobytes()]

    def inv(self, i: int) -> int:
        if self._inv is None:
            inv = np.empty(self.size, dtype=np.int64)
            argsorted = np.empty((self.size, self.degree), dtype=self.rows.dtype)
            argsorted[:] = np.argsort(self.rows, axis=1)
            for j in range(self.size):
                inv[j] = self.index[argsorted[j].tobytes()]
            self._inv = inv
        return int(self._inv[i])

    def element_order(self, i: int) -> int:
        got = self._orders.get(i)
        if got is None:
            got = self.perm_of(i).order()
            self._orders[i] = got
        return got

    # -- conjugation --------------------------------------------------------

    def conj_maps(self) -> list[np.ndarray]:
        """For each generator g, the index map x -> g^-1 x g."""
        if self._conj_maps is None:
            maps = []
            for gi in self.gen_idxs:
                g = self.rows[gi]
                g_inv = np.argsort(g)
                conj_rows = g[self.rows[:, g_inv]]
                maps.append(np.fromiter(
                    (self.index[conj_rows[i].tobytes()] for i in range(self.size)),
                    dtype=np.int64, count=self.size))
            self._conj_maps = maps
        return self._conj_maps

    def conjugate_indices(self, idxs, by: int) -> np.ndarray:
        """Indices of t^-1 x t for each x in idxs (t given by index)."""
        t = self.rows[by]
        t_inv = np.argsort(t)
        sub = self.rows[np.asarray(idxs, dtype=np.int64)]
        conj_rows = t[sub[:, t_inv]]
        return np.fromiter(
            (self.index[conj_rows[i].tobytes()] for i in range(len(conj_rows))),
            dtype=np.int64, count=len(conj_rows))

    def classes(self) -> tuple[np.ndarray, list[int]]:
        """(class_id per element, class representative indices)."""
        if self._class_id is None:
            maps = self.conj_maps()
            class_id = np.full(self.size, -1, dtype=np.int64)
            reps: list[int] = []
            for i in range(self.size):
                if class_id[i] != -1:
                    continue
                cid = len(reps)
                reps.append(i)
                class_id[i] = cid
                stack = [i]
                while stack:
                    x = stack.pop()
                    for M in maps:
                        y = int(M[x])
                        if class_id[y] == -1:
                            class_id[y] = cid
                            stack.append(y)
            self._class_id = class_id
            self._class_reps = reps
        return self._class_id, self._class_reps

    # -- subgroups as index sets ---------------------------------------------

    def closure(self, gen_idxs, limit: int | None = None) -> frozenset | None:
        """Indices of the subgroup generated by gen_idxs; None when its size
        exceeds `limit` (early abort)."""
        cap = self.size if limit is None else limit
        gens = sorted(set(int(x) for x in gen_idxs) - {self.identity_idx})
        seen = {self.identity_idx}
        seen.update(gens)
        if len(seen) > cap:
            return None
        frontier = sorted(seen)
        gen_rows = [self.rows[g] for g in gens]
        while frontier:
            sub = self.rows[np.asarray(frontier, dtype=np.int64)]
            nxt = []
            for g_row in gen_rows:
                prod = g_row[sub]
                for i in range(len(prod)):
                    j = self.index[prod[i].tobytes()]
                    if j not in seen:
                        seen.add(j)
                        nxt.append(j)
                if len(seen) > cap:
                    return None
            frontier = nxt
        return frozenset(seen)

    def subgroup_orbit(self, idxs: frozenset) -> list[frozenset]:
        """Orbit of a subgroup (as an index set) under conjugation by G."""
        maps = self.conj_maps()
        start = np.asarray(sorted(idxs), dtype=np.int64)
        seen = {idxs}
        queue = [start]
        out = [idxs]
        while queue:
            arr = queue.pop()
            for M in maps:
                conj = M[arr]
                key = frozenset(int(x) for x in conj)
                if key not in seen:
                    seen.add(key)
                    out.append(key)
                    queue.append(np.sort(conj))
        return out

    def coset_reps(self, sub: frozenset) -> list[int]:
        """Minimal-index representatives of the right cosets of the subgroup."""
        assigned = np.zeros(self.size, dtype=bool)
        sub_arr = np.asarray(sorted(sub), dtype=np.int64)
        sub_rows = self.rows[sub_arr]
        reps = []
        for x in range(self.size):
            if assigned[x]:
                continue
            reps.append(x)
            coset_rows = self.rows[x][sub_rows]
            for i in range(len(coset_rows)):
                assigned[self.index[coset_rows[i].tobytes()]] = True
        return reps

    def subgroup(self, idxs, name: str | None = None) -> PermGroup:
        """PermGroup from an element index set, with a small generating set."""
        target = len(idxs)
        gens: list[Perm] = []
        current = PermGroup(self.degree, [])
        for i in sorted(idxs):
            if current.order() == target:
                break
            p = self.perm_of(i)
            if not current.contains(p):
                gens.append(p)
                current = PermGroup(self.degree, gens)
        current.name = name
        return current

    def indices_of_subgroup(self, H: PermGroup) -> frozenset:
        got = self.closure([self.idx_of_perm(g) for g in H.generators])
        assert got is not None and len(got) == H.order()
        return got
