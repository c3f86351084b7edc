"""Exhaustive element tables for groups within the enumeration budget.

Rows of a numpy matrix hold every element's image list, in the order of
the stabilizer chain's transversals: row i is the product u_k ... u_1 u_0
(left to right, as `perms` multiplies) of one transversal element u_L per
chain level L, the one that maps the base point b_L to some point p_L of
the basic orbit.  The product is determined by (p_0, ..., p_k), so the
index is a mixed-radix number whose digit at level L is the rank of p_L in
the sorted basic orbit.  `locate` reads indices back for a batch of rows
by a sift over the base columns only (p_0 is the image of b_0; removing
u_0 gives the next level's images, and drops b_0's column) and certifies
each answer against the row found.

Every table-wide map is one sift: inverses, and conjugation by an
element.  Conjugacy classes are orbits of the conjugation maps by G's
generators, labelled by the least index in each orbit.  Batches of
products (`products`) are sifted too; single products and small batches
of rows are looked up in a bytes-keyed dict instead (keys cut from one
void view of the rows), and a small table uses it throughout.
The conjugation maps are also the basis of the Hall oracle's orbits of
subgroups (as index sets) under G or a subgroup of it, and `coset_reps`
of its coset passes: one per class for the dominance sweep, and one, over
the Sylow seed's cosets, for the Hall sweep, which keeps their labels.

Subgroups are index sets of one table, and the corpus suites ask their
subgroup questions of them with no chain and no backtrack search: a join
is a `closure` from a known subgroup, an intersection of subgroups is the
set intersection, normality is a union of classes (`is_normal`), C_G(X)
is one batched row comparison per generator of X (`centralizing`), and
N_G(K) one batched conjugation per generator of K, x^-1 k x in K
(`normalizing`, which also grows the Sylow seed and, with the generators
of another subgroup H, finds the x with H^x <= K).  Those take generating
sets (`generators` reads a few off a set), never a subgroup's every
element.
"""

from __future__ import annotations

import numpy as np

from .arith import prime_divisors
from .backtrack import BudgetExceededError, certify
from .config import DEFAULT_BUDGETS, Budgets
from .groups import PermGroup, span
from .perms import Perm

# Rows per sift step: bounds the temporaries of a table-wide map, which
# otherwise fragment the heap (peak RSS on the warm corpus grew with it).
_SIFT_CHUNK = 1024
# Below this many rows, dict lookups beat one sift (30-60 us of fixed cost
# against under 1 us a row).
_SIFT_MIN_ROWS = 96
# Tables this small use the dict throughout: building it costs less than
# the sifter's set-up.
_DICT_TABLE_ROWS = 256


def require_order_within(G: PermGroup,
                         budgets: Budgets = DEFAULT_BUDGETS) -> int:
    """|G|, or BudgetExceededError when it is past the enumeration budget."""
    order = G.order()
    if order > budgets.order_budget:
        raise BudgetExceededError(
            "enumeration-order", f"|G| = {order} > {budgets.order_budget}")
    return order


def _orbit_minima(maps, n: int) -> np.ndarray:
    """For each of n points, the least point of its orbit under the group
    the index maps generate.  Labels only ever fall to a point of the same
    orbit, and label[label] shortcuts along the way."""
    label = np.arange(n, dtype=maps[0].dtype if maps else np.int64)
    while True:
        new = label
        for M in maps:
            new = np.minimum(new, new[M])
        new = new[new]
        if (new == label).all():
            return label
        label = new


def _row_keys(rows: np.ndarray) -> list[bytes]:
    """Each row's bytes: the rows viewed as one void scalar each, which
    `tolist` turns into bytes objects in one call."""
    rows = np.ascontiguousarray(rows)
    return rows.view(f"V{rows.shape[1] * rows.itemsize}").ravel().tolist()


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
        self._sift_levels: list | None = None
        self._index: dict[bytes, int] | None = None
        idxs = self._indices(np.array(
            [tuple(range(self.degree))] + [g.images for g in G.generators],
            dtype=dtype))
        self.identity_idx, *self.gen_idxs = idxs
        self._inv: np.ndarray | None = None
        self._conj_by: dict[int, np.ndarray] = {}
        self._conj_maps: list[np.ndarray] | None = None
        self._class_id: np.ndarray | None = None
        self._class_reps: list[int] | None = None
        self._class_size: np.ndarray | None = None
        self._class_members: dict[int, np.ndarray] = {}
        self._class_products: dict[tuple[int, int], frozenset] = {}
        self._class_orders: dict[int, int] = {}
        self._prime_powers: list[tuple[int, ...]] | None = None
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
        # row-major, so that a row is one contiguous run of bytes
        return np.ascontiguousarray(acc)

    # -- locating rows -------------------------------------------------------

    def _sifter(self) -> tuple[list[int], list]:
        """The base, and per nontrivial chain level in the order `_enumerate`
        walks them: (the digit of each point times the level's stride, its
        offset into the flattened inverse transversal, that transversal),
        all intp, the type numpy indexes with.  A point outside the basic
        orbit reads digit 0: the sift then ends at some row, and only the
        certifying comparison decides membership."""
        if self._sift_levels is None:
            d = self.degree
            base, levels = [], []
            stride = 1
            for lvl in self.group.chain().levels:
                if len(lvl.orbit_list) == 1:
                    continue
                pts = sorted(lvl.orbit_list)
                rank = np.zeros(d, dtype=np.intp)
                rank[pts] = np.arange(len(pts))
                reps = np.array([lvl.rep(pt) for pt in pts], dtype=np.intp)
                inv = np.empty_like(reps)
                inv[np.arange(len(pts))[:, None], reps] = np.arange(d)
                base.append(lvl.point)
                levels.append((rank * stride, rank * d, inv.ravel()))
                stride *= len(pts)
            self._sift_levels = (base, levels)
        return self._sift_levels

    def locate(self, rows: np.ndarray) -> np.ndarray:
        """Indices (int64) of the given image rows, one element per row.

        A batched sift over the base columns: the image of the level's
        base point gives that level's digit, added into the index in
        place, and the inverse of the transversal element it names carries
        the later base images down a level; each column is dropped once its
        level has read it.  Each answer is certified against the row found;
        a row outside G raises VerificationError."""
        base, levels = self._sifter()
        out = np.zeros(len(rows), dtype=np.int64)
        last = len(levels) - 1
        for s in range(0, len(rows), _SIFT_CHUNK):
            part = rows[s:s + _SIFT_CHUNK]
            idx = out[s:s + len(part)]
            imgs = part[:, base].astype(np.intp)
            for col, (digit, offset, inv) in enumerate(levels):
                pts = imgs[:, 0]
                idx += digit[pts]
                if col < last:
                    rest = imgs[:, 1:]
                    rest += offset[pts][:, None]
                    imgs = inv[rest]
            certify((self.rows[idx] == part).all(),
                    "a row sifts to a different element: not in G")
        return out

    def _row_index(self) -> dict[bytes, int]:
        if self._index is None:
            self._index = {key: i
                           for i, key in enumerate(_row_keys(self.rows))}
        return self._index

    def _indices(self, rows: np.ndarray) -> list[int]:
        """Indices of a batch of rows: dict hits for a small batch, and for
        any batch in a small table; `locate` otherwise."""
        if len(rows) < _SIFT_MIN_ROWS or self.size < _DICT_TABLE_ROWS:
            return list(map(self._row_index().__getitem__, _row_keys(rows)))
        return self.locate(rows).tolist()

    def _map(self, image_rows, dtype=np.int64) -> np.ndarray:
        """The index map x -> y where row y = image_rows(row x), for every
        element x, computed a chunk of rows at a time.  Conjugation maps are
        int64, since index-set keys are the int64 bytes of their images;
        the others are int32, half the size."""
        lookup = (self.locate if self.size >= _DICT_TABLE_ROWS
                  else self._indices)
        out = np.empty(self.size, dtype=dtype)
        for s in range(0, self.size, _SIFT_CHUNK):
            out[s:s + _SIFT_CHUNK] = lookup(
                image_rows(self.rows[s:s + _SIFT_CHUNK]))
        return out

    # -- element ops -------------------------------------------------------

    def idx_of_perm(self, p: Perm) -> int:
        return self._indices(np.array([p.images], dtype=self.rows.dtype))[0]

    def perm_of(self, i: int) -> Perm:
        return Perm(tuple(int(x) for x in self.rows[i]), validate=False)

    def products(self, lefts, rights) -> np.ndarray:
        """Indices of a·b for a in lefts and b in rights, shaped
        (len(rights), len(lefts)); a single index on either side drops its
        axis."""
        a, b = self.rows[lefts], self.rows[rights]
        # the row of a·b is b's row read at a's images
        prods = b[a] if b.ndim == 1 else b[:, a]
        return np.array(self._indices(prods.reshape(-1, self.degree)),
                        dtype=np.int64).reshape(prods.shape[:-1])

    def _inverses(self) -> np.ndarray:
        """The index map x -> x^-1, memoized."""
        if self._inv is None:
            dtype = self.rows.dtype
            self._inv = self._map(
                lambda R: np.argsort(R, axis=1).astype(dtype), np.int32)
        return self._inv

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

    def prime_power_classes(self) -> list[tuple[int, ...]]:
        """Per class, the classes of x^p for the primes p dividing the order
        of its elements x (conjugates have conjugate powers), read off the
        class representatives in one lookup; memoized."""
        if self._prime_powers is None:
            _, reps = self.classes()
            owners, powers = [], []
            for cid, rep in enumerate(reps):
                row = self.rows[rep]
                for p in prime_divisors(self.element_order(rep)):
                    # the row of x^k·x is x's row read at x^k's images
                    power = row
                    for _ in range(p - 1):
                        power = row[power]
                    owners.append(cid)
                    powers.append(power)
            found: list[list[int]] = [[] for _ in reps]
            if powers:
                ids = self._class_id[self._indices(np.array(powers))]
                for cid, q in zip(owners, ids.tolist()):
                    found[cid].append(q)
            self._prime_powers = [tuple(f) for f in found]
        return self._prime_powers

    # -- conjugation --------------------------------------------------------

    def conj_map(self, t: int) -> np.ndarray:
        """The index map x -> t^-1 x t (t given by index), memoized."""
        got = self._conj_by.get(t)
        if got is None:
            g = self.rows[t]
            g_inv = np.argsort(g)
            got = self._conj_by[t] = self._map(lambda R: g[R[:, g_inv]])
        return got

    def conj_maps(self) -> list[np.ndarray]:
        """For each generator g of G, the index map x -> g^-1 x g."""
        if self._conj_maps is None:
            self._conj_maps = [self.conj_map(gi) for gi in self.gen_idxs]
        return self._conj_maps

    def classes(self) -> tuple[np.ndarray, list[int]]:
        """(class_id per element, class representative indices): each class
        is represented by its least index, and numbered in that order."""
        if self._class_id is None:
            least = _orbit_minima(self.conj_maps(), self.size)
            is_rep = least == np.arange(self.size)
            self._class_id = (np.cumsum(is_rep) - 1)[least]
            self._class_reps = np.flatnonzero(is_rep).tolist()
            self._class_size = np.bincount(self._class_id)
        return self._class_id, self._class_reps

    # -- normal subgroups as sets of class ids --------------------------------

    def normal_closure_classes(self, seed_classes, limit: int | None = None,
                               start: frozenset | None = None
                               ) -> frozenset | None:
        """Class ids of N·ncl(seed classes), N the normal subgroup `start`
        (class ids; the trivial group when not given); None once its order
        exceeds `limit` (early abort).

        From N's classes, each class a reached adds the classes that meet
        a·k for each seed class k.  The union of the classes reached holds
        every n·k_1···k_r (n in N, each k_i in a seed class) and is closed
        under right multiplication by the seeds; being finite, it is the
        subgroup N and the seeds generate, which is normal as a union of
        classes."""
        class_id, reps = self.classes()
        sizes = self._class_size
        cap = self.size if limit is None else limit
        seeds = sorted(set(seed_classes))
        if start is None:
            start = frozenset([int(class_id[self.identity_idx])])
        found = set(start)
        total = self.size_of_classes(found)
        if total > cap:
            return None
        frontier = sorted(found)
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
        symmetric and one pass over the smaller class finds it, with its
        members read from `class_members`."""
        key = (a, k) if a <= k else (k, a)
        got = self._class_products.get(key)
        if got is None:
            class_id, reps = self.classes()
            small, big = key
            if self._class_size[small] > self._class_size[big]:
                small, big = big, small
            # rows of x·rep(big) for x in class `small`
            prods = self.rows[reps[big]][self.rows[self.class_members(small)]]
            got = frozenset(class_id[self._indices(prods)].tolist())
            self._class_products[key] = got
        return got

    def class_members(self, cid: int) -> np.ndarray:
        """Indices (int32) of the elements of class `cid`, increasing;
        memoized per class, so that a class product reads them instead of
        scanning the table.  (One argsort of the class ids would serve
        every class, but its first call maps in about 128 KB of numpy's
        sort code, which shows in the peak resident set.)"""
        got = self._class_members.get(cid)
        if got is None:
            class_id, _ = self.classes()
            got = self._class_members[cid] = np.flatnonzero(
                class_id == cid).astype(np.int32)
        return got

    def size_of_classes(self, cids) -> int:
        """Number of elements in the union of the given classes."""
        self.classes()
        return int(self._class_size[sorted(cids)].sum())

    def union_of_classes(self, cids) -> frozenset:
        """Element indices of the union of the given classes."""
        class_id, reps = self.classes()
        chosen = np.zeros(len(reps), dtype=bool)
        chosen[list(cids)] = True
        return frozenset(np.flatnonzero(chosen[class_id]).tolist())

    # -- subgroups as index sets ---------------------------------------------

    def mask(self, idxs) -> np.ndarray:
        """The index set as a boolean array over the table."""
        inside = np.zeros(self.size, dtype=bool)
        inside[list(idxs)] = True
        return inside

    def is_normal(self, sub: frozenset) -> bool:
        """Whether the subgroup `sub` (an index set) is normal: a union of
        conjugacy classes, i.e. the classes its elements meet hold exactly
        |sub| elements.  (A boolean array over the class ids, not
        np.unique, whose first call imports numpy.ma.)"""
        class_id, reps = self.classes()
        met = np.zeros(len(reps), dtype=bool)
        met[class_id[list(sub)]] = True
        return int(self._class_size[met].sum()) == len(sub)

    def centralizing(self, gen_idxs) -> frozenset:
        """Indices of C_G(X), X the elements gen_idxs (or the group they
        generate): the x with x·a = a·x for each a, by batched row
        comparisons over the table, a chunk at a time."""
        keep = np.ones(self.size, dtype=bool)
        for s in range(0, self.size, _SIFT_CHUNK):
            R = self.rows[s:s + _SIFT_CHUNK]
            for row in self.rows[list(gen_idxs)]:
                # x·a reads a's row at x's images, a·x reads x's at a's
                keep[s:s + len(R)] &= (row[R] == R[:, row]).all(axis=1)
        return frozenset(np.flatnonzero(keep).tolist())

    def normalizing(self, sub: frozenset, gen_idxs,
                    among: np.ndarray | None = None) -> np.ndarray:
        """The elements x of `among` (an index array; all of G when not
        given), in its order, with x^-1 k x in K = `sub` for each k in
        gen_idxs.  When gen_idxs generate K, that is N_G(K) ∩ among; when
        they generate another subgroup H, it is the x with H^x <= K (so
        H^x = K when |H| = |K|).  One batched test per generator, over the
        candidates left."""
        rows, inv, inside = self.rows, self._inverses(), self.mask(sub)
        cand = np.arange(self.size) if among is None else among
        for k in gen_idxs:
            # the row of x^-1 k x, for every candidate x at once
            conj = np.take_along_axis(rows[cand], rows[k][rows[inv[cand]]],
                                      axis=1)
            cand = cand[inside[self._indices(conj)]]
        return cand

    def generators(self, sub: frozenset) -> list[int]:
        """A few generators of the subgroup `sub` (an index set): each
        element, in index order, outside the closure of those before it."""
        gens, got = [], frozenset([self.identity_idx])
        for x in sorted(sub):
            if x not in got:
                gens.append(x)
                got = self.closure(gens, known=got)
        return gens

    def closure(self, gen_idxs, limit: int | None = None,
                known: frozenset | None = None) -> frozenset | None:
        """Indices of the subgroup generated by gen_idxs and, when given,
        the subgroup `known` (an index set); None when its size exceeds
        `limit` (early abort).

        A breadth-first search over the right cosets K·z of K = `known`
        (the trivial group when not given): K·z·g is the coset of z·g, so
        each new coset takes one product per generator, and its elements
        are looked up once, together.  The cosets reached make up K·H, H
        the group gen_idxs generate.  That is the group asked for when K
        lies in H, as when gen_idxs include generators of K; in general,
        a product of two subgroups is a subgroup exactly when it is closed
        under inverses, which is certified.  An abort is always right:
        K·H lies in the group asked for."""
        cap = self.size if limit is None else limit
        gens = sorted(set(map(int, gen_idxs)) - {self.identity_idx})
        if known is None:
            seen, coset_rows = {self.identity_idx}, None
        else:
            seen = set(known)
            coset_rows = self.rows.take(sorted(known), axis=0)
        if len(seen) > cap:
            return None
        gen_rows = self.rows.take(gens, axis=0)
        zs = gens  # the products e·g
        while zs:
            frontier = []
            for z in zs:
                if z in seen:
                    continue
                if coset_rows is None:
                    seen.add(z)
                else:
                    # k·z reads z's row at k's images
                    seen.update(self._indices(self.rows[z].take(coset_rows)))
                frontier.append(z)
                if len(seen) > cap:
                    return None
            if not frontier:
                break
            # the row of z·g is g's row read at z's images
            prods = gen_rows[:, self.rows[frontier]]
            zs = self._indices(prods.reshape(-1, self.degree))
        if coset_rows is not None:
            members = np.fromiter(seen, np.int64, len(seen))
            inside = np.zeros(self.size, dtype=bool)
            inside[members] = True
            certify(inside[self._inverses()[members]].all(),
                    "K·<gen_idxs> is not a group: K does not permute with "
                    "<gen_idxs>")
        return frozenset(seen)

    def coset_reps(self, sub: frozenset, within=None, labels: bool = False):
        """Least-index representatives of the right cosets Kx of the
        subgroup K = `sub` that lie wholly in the boolean mask `within`
        (all of G when not given), in increasing order.  With `labels`,
        also a label per element (int32): the representative of its coset
        when that coset is kept, and |G| otherwise.

        Only elements of the mask start a coset; a coset that reaches
        outside it is covered but not kept.  Each batch starts cosets
        from uncovered mask elements taken at an even stride (fewer of
        them share a coset than of a run of consecutive ones); a coset
        is known by its least element, so one that two of them share is
        kept once."""
        k_idx = sorted(sub)
        # rows a batch looks up: a quarter of the table at most
        batch = max(1, min(_SIFT_CHUNK, self.size // 4) // len(k_idx))
        todo = (np.ones(self.size, dtype=bool) if within is None
                else within.copy())
        label = (np.full(self.size, self.size, dtype=np.int32) if labels
                 else None)
        reps: set[int] = set()
        while True:
            free = np.flatnonzero(todo)
            if not len(free):
                break
            starts = free[::max(1, len(free) // batch)][:batch]
            cosets = self.products(k_idx, starts)
            todo[cosets] = False
            if within is not None:
                cosets = cosets[within[cosets].all(axis=1)]
            least = cosets.min(axis=1)
            reps.update(least.tolist())
            if labels:
                label[cosets] = least[:, None]
        return (sorted(reps), label) if labels else sorted(reps)

    def subgroup(self, idxs) -> PermGroup:
        """PermGroup from an element index set, generated by the elements,
        in index order, that enlarge the span of those before them."""
        return span(self.degree, map(self.perm_of, sorted(idxs)),
                    order=len(idxs))

    def indices_of_subgroup(self, H: PermGroup) -> frozenset:
        got = self.closure([self.idx_of_perm(g) for g in H.generators])
        certify(got is not None and len(got) == H.order(),
                "H's generators do not close to a set of size |H|")
        return got
