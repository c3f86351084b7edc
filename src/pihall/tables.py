"""Exhaustive element tables for groups within the enumeration budget.

Rows of a numpy matrix hold every element's image list; a bytes-keyed dict
maps rows back to indices.  Conjugation maps, one per element conjugated
by, are the basis for conjugacy classes and for the Hall oracle's orbits
of subgroups (as index sets) under G or a subgroup of it.
"""

from __future__ import annotations

import numpy as np

from .backtrack import BudgetExceededError, certify
from .config import DEFAULT_BUDGETS, Budgets
from .groups import PermGroup, _Chain
from .perms import Perm


def require_order_within(G: PermGroup,
                         budgets: Budgets = DEFAULT_BUDGETS) -> int:
    """|G|, or BudgetExceededError when it is past the enumeration budget."""
    order = G.order()
    if order > budgets.order_budget:
        raise BudgetExceededError(
            "enumeration-order", f"|G| = {order} > {budgets.order_budget}")
    return order


class ElementTable:
    def __init__(self, G: PermGroup, budgets: Budgets = DEFAULT_BUDGETS):
        order = require_order_within(G, budgets)
        self.group = G
        self.degree = G.degree
        dtype = np.uint16 if G.degree < 65536 else np.uint32
        self.rows = self._enumerate(G, dtype)
        self.size = len(self.rows)
        certify(self.size == order,
                f"enumerated {self.size} elements, |G| = {order}")
        self.index: dict[bytes, int] = {
            row.tobytes(): i for i, row in enumerate(self.rows)}
        self.identity_idx = self.index[
            np.arange(self.degree, dtype=dtype).tobytes()]
        self.gen_idxs = [self.index[np.array(g.images, dtype=dtype).tobytes()]
                         for g in G.generators]
        self._inv: np.ndarray | None = None
        self._conj_by: dict[int, np.ndarray] = {}
        self._conj_maps: list[np.ndarray] | None = None
        self._class_id: np.ndarray | None = None
        self._class_reps: list[int] | None = None
        self._class_size: np.ndarray | None = None
        self._class_products: dict[tuple[int, int], frozenset] = {}
        self._class_orders: dict[int, int] = {}
        # hall._SetOrbits per generating tuple, filled by hall._orbits_for
        self.set_orbits: dict[tuple[int, ...], object] = {}

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
        """Order of element i, computed once per conjugacy class (from the
        class representative: conjugates have equal orders)."""
        class_id, reps = self.classes()
        cid = int(class_id[i])
        got = self._class_orders.get(cid)
        if got is None:
            got = self.perm_of(reps[cid]).order()
            self._class_orders[cid] = got
        return got

    # -- conjugation --------------------------------------------------------

    def conj_map(self, t: int) -> np.ndarray:
        """The index map x -> t^-1 x t (t given by index), memoized."""
        got = self._conj_by.get(t)
        if got is None:
            g = self.rows[t]
            conj_rows = g[self.rows[:, np.argsort(g)]]
            got = np.fromiter(
                (self.index[conj_rows[i].tobytes()] for i in range(self.size)),
                dtype=np.int64, count=self.size)
            self._conj_by[t] = got
        return got

    def conj_maps(self) -> list[np.ndarray]:
        """For each generator g of G, the index map x -> g^-1 x g."""
        if self._conj_maps is None:
            self._conj_maps = [self.conj_map(gi) for gi in self.gen_idxs]
        return self._conj_maps

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
            self._class_size = np.bincount(class_id)
        return self._class_id, self._class_reps

    # -- normal subgroups as sets of class ids --------------------------------

    def normal_closure_classes(self, seed_classes,
                               limit: int | None = None) -> frozenset | None:
        """Class ids of the normal subgroup generated by the seed classes;
        None once its order exceeds `limit` (early abort).

        From the identity class, each class a reached adds the classes that
        meet a·k for each seed class k.  The union of the classes reached
        is then closed under right multiplication by the seeds; being
        finite, it is the subgroup they generate, which is normal as a
        union of classes."""
        class_id, reps = self.classes()
        sizes = self._class_size
        cap = self.size if limit is None else limit
        seeds = sorted(set(seed_classes))
        start = int(class_id[self.identity_idx])
        found = {start}
        total = int(sizes[start])
        frontier = [start]
        while frontier and len(found) < len(reps):
            nxt = []
            for a in frontier:
                for k in seeds:
                    for b in self._class_product(a, k):
                        if b not in found:
                            found.add(b)
                            nxt.append(b)
                            total += int(sizes[b])
                            if total > cap:
                                return None
            frontier = nxt
        return frozenset(found)

    def _class_product(self, a: int, k: int) -> frozenset:
        """Ids of the classes meeting (class a)·(class k), memoized.

        x·y with x in a, y in k is conjugate to rep(a)·y' and to x'·rep(k)
        (y' in k, x' in a), and y·x is conjugate to x·y: so the product is
        symmetric and one pass over the smaller class finds it."""
        key = (a, k) if a <= k else (k, a)
        got = self._class_products.get(key)
        if got is None:
            class_id, reps = self.classes()
            small, big = key
            if self._class_size[small] > self._class_size[big]:
                small, big = big, small
            # rows of x·rep(big) for x in class `small`
            prods = self.rows[reps[big]][self.rows[class_id == small]]
            got = frozenset(int(class_id[self.index[row.tobytes()]])
                            for row in prods)
            self._class_products[key] = got
        return got

    def union_of_classes(self, cids) -> frozenset:
        """Element indices of the union of the given classes."""
        class_id, _ = self.classes()
        return frozenset(
            np.flatnonzero(np.isin(class_id, list(cids))).tolist())

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

    def subgroup(self, idxs) -> PermGroup:
        """PermGroup from an element index set, generated by the elements,
        in index order, that enlarge the span of those before them."""
        target = len(idxs)
        gens: list[Perm] = []
        span = _Chain(self.degree, [])
        for i in sorted(idxs):
            if span.order() == target:
                break
            p = self.perm_of(i)
            if span.extend(p.images):
                gens.append(p)
        return PermGroup(self.degree, gens, order=span.order())

    def indices_of_subgroup(self, H: PermGroup) -> frozenset:
        got = self.closure([self.idx_of_perm(g) for g in H.generators])
        certify(got is not None and len(got) == H.order(),
                "H's generators do not close to a set of size |H|")
        return got
