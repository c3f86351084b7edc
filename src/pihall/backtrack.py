"""Depth-first backtrack searches over a stabilizer chain.

One engine serves set/partition stabilizers, normalizers, centralizers and
subgroup-conjugacy searches.  Nodes are partial base-image assignments; the
composed coset representative ``w`` realizes the assignment, candidates at
each level are the translated fundamental orbit.

Subgroup-type searches grow a known subgroup K of the result R and prune
by coset minimality (Leon, J. Symb. Comput. 12 (1991); Seress,
*Permutation Group Algorithms* (2003), section 9.1).  At a level L whose
prefix is the identity, with base point b = b_L and K_L the pointwise
stabilizer of b_0..b_{L-1} in K, the search keeps b itself, drops every
other point of b's K_L-orbit, and keeps only the least point of each other
K_L-orbit.  Sound: for g in the subtree of a dropped c, some k in K_L maps
c to the kept point c' of its orbit, so g k is in the c' subtree (the
identity branch when c' = b), and g k is in R but outside K exactly when
g is.  The identity branch must stay even when b is not its orbit's least
point: dropping the whole orbit then loses every element fixing b.  This
keeps the leaf count near the number of missing generators.

The run's node budget (``Budgets.node_budget``) turns runaway instances
into a clean :class:`BudgetExceededError` instead of an open-ended search.
"""

from __future__ import annotations

from .config import DEFAULT_BUDGETS, Budgets
# VerificationError and certify live in groups; re-exported here
from .groups import (PermGroup, VerificationError, _Chain, _ident, _inv, _mul,
                     certify, is_normal)
from .perms import Perm


class BudgetExceededError(RuntimeError):
    """A configured search/enumeration budget was exhausted.

    Distinct from a negative answer: callers must not interpret this as
    "does not exist"."""

    def __init__(self, kind: str, detail: str = ""):
        super().__init__(f"{kind} budget exceeded{': ' + detail if detail else ''}")
        self.kind = kind
        self.detail = detail


class SearchProperty:
    """Pruning and acceptance callbacks for one backtrack search."""

    def veto(self, level: int, b: int, c: int) -> bool:
        return False

    def push(self, level: int, b: int, c: int) -> None:
        pass

    def pop(self, level: int) -> None:
        pass

    def accept(self, g: tuple[int, ...]) -> bool:
        raise NotImplementedError


class _Searcher:
    def __init__(self, degree: int, chain: _Chain, prop: SearchProperty,
                 budgets: Budgets = DEFAULT_BUDGETS):
        self.degree = degree
        # levels with a single-point orbit offer no choice; dropping them
        # keeps the tree depth at the number of genuine decisions
        self.levels = [lvl for lvl in chain.levels if len(lvl.orbit_list) > 1]
        self.base = [lvl.point for lvl in self.levels]
        self.prop = prop
        self.budget = budgets.node_budget
        self.nodes = 0
        # subgroup-search state (None when searching for a single element)
        self.k_gens: list[tuple[int, ...]] | None = None
        self.k_chain: _Chain | None = None
        self._minmaps: dict[int, list[int]] = {}

    # -- K (known subgroup) handling ---------------------------------------

    def set_known(self, K: PermGroup | None) -> None:
        # hinted with the search base, so K's levels line up with ours, and
        # stopped at K's order
        if K is None:
            self.k_gens, order = [], None
        else:
            self.k_gens, order = K.gen_tuples(), K.order()
        self.k_chain = _Chain(self.degree, self.k_gens, hint=self.base,
                              order=order)
        self._minmaps.clear()

    def add_known(self, g) -> None:
        self.k_gens.append(g)
        self.k_chain.extend(g)
        self._minmaps.clear()

    def _minmap(self, level: int) -> list[int]:
        """minmap[x] = smallest point in the K^(level)-orbit of x."""
        mm = self._minmaps.get(level)
        if mm is None:
            gens = self.k_chain.strong_gens_from(level)
            mm = list(range(self.degree))
            seen = [False] * self.degree
            for x in range(self.degree):
                if seen[x]:
                    continue
                orbit = [x]
                seen[x] = True
                for y in orbit:
                    for g in gens:
                        z = g[y]
                        if not seen[z]:
                            seen[z] = True
                            orbit.append(z)
                for y in orbit:
                    mm[y] = x
            self._minmaps[level] = mm
        return mm

    # -- DFS ----------------------------------------------------------------

    def find(self) -> tuple[int, ...] | None:
        """One element satisfying the property (outside K when K is set)."""
        ident = _ident(self.degree)
        return self._dfs(0, ident, True)

    def _dfs(self, level, w, prefix_identity):
        if level == len(self.levels):
            self.nodes += 1
            if self.nodes > self.budget:
                raise BudgetExceededError("search-nodes")
            if self.k_chain is not None and self.k_chain.contains(w):
                return None
            if self.prop.accept(w):
                return w
            return None
        lvl = self.levels[level]
        b = lvl.point
        minmap = None
        if prefix_identity and self.k_chain is not None:
            minmap = self._minmap(level)
        for delta in sorted(lvl.orbit_list):
            c = w[delta]
            self.nodes += 1
            if self.nodes > self.budget:
                raise BudgetExceededError("search-nodes")
            # b's own K-orbit is covered by the identity branch; every
            # other orbit, by its least point
            if (minmap is not None and c != b
                    and (minmap[c] == minmap[b] or minmap[c] != c)):
                continue
            if self.prop.veto(level, b, c):
                continue
            self.prop.push(level, b, c)
            try:
                w2 = w if delta == b else _mul(lvl.rep(delta), w)
                got = self._dfs(level + 1, w2, prefix_identity and c == b)
                if got is not None:
                    return got
            finally:
                self.prop.pop(level)
        return None


def subgroup_search(G: PermGroup, prop: SearchProperty,
                    known: PermGroup | None = None,
                    budgets: Budgets = DEFAULT_BUDGETS,
                    chain: _Chain | None = None) -> PermGroup:
    """The subgroup {g in G : property holds}; `known`, a subgroup of it,
    seeds the result, and its chain stops at `known.order()`."""
    searcher = _Searcher(G.degree, chain or G.chain(), prop, budgets)
    searcher.set_known(known)
    while True:
        g = searcher.find()
        if g is None:
            break
        searcher.add_known(g)
    return PermGroup(G.degree,
                     [Perm(g, validate=False) for g in searcher.k_gens],
                     order=searcher.k_chain.order())


def element_search(G: PermGroup, prop: SearchProperty,
                   budgets: Budgets = DEFAULT_BUDGETS) -> tuple[int, ...] | None:
    """First element of G satisfying the property, or None (exhausted)."""
    searcher = _Searcher(G.degree, G.chain(), prop, budgets)
    return searcher.find()


# -- concrete properties -------------------------------------------------------


class ColorProperty(SearchProperty):
    """g preserves a coloring of the points (partition stabilizer)."""

    def __init__(self, colors):
        self.colors = list(colors)

    def veto(self, level, b, c):
        return self.colors[c] != self.colors[b]

    def accept(self, g):
        colors = self.colors
        return all(colors[y] == colors[x] for x, y in enumerate(g))


class ConjugacyProperty(SearchProperty):
    """g^-1 H g == K; prunes by matching H-orbits onto K-orbits.  With
    K = H it is the normalizer's property."""

    def __init__(self, H: PermGroup, K: PermGroup):
        self.h_gens = H.gen_tuples()
        self.k_chain = K.chain()

        def orbit_data(G):
            oid = [-1] * G.degree
            size = {}
            for i, orb in enumerate(G.orbits()):
                for x in orb:
                    oid[x] = i
                size[i] = len(orb)
            return oid, size

        self.h_oid, self.h_osize = orbit_data(H)
        self.k_oid, self.k_osize = orbit_data(K)
        self.omap: dict[int, int] = {}
        self.otargets: set[int] = set()
        self.trail: list[tuple[int, int] | None] = []

    def veto(self, level, b, c):
        ob, oc = self.h_oid[b], self.k_oid[c]
        if self.h_osize[ob] != self.k_osize[oc]:
            return True
        mapped = self.omap.get(ob)
        if mapped is not None:
            return mapped != oc
        return oc in self.otargets

    def push(self, level, b, c):
        ob, oc = self.h_oid[b], self.k_oid[c]
        if ob in self.omap:
            self.trail.append(None)
        else:
            self.omap[ob] = oc
            self.otargets.add(oc)
            self.trail.append((ob, oc))

    def pop(self, level):
        entry = self.trail.pop()
        if entry is not None:
            ob, oc = entry
            del self.omap[ob]
            self.otargets.discard(oc)

    def accept(self, g):
        g_inv = _inv(g)
        contains = self.k_chain.contains
        return all(contains(_mul(_mul(g_inv, h), g)) for h in self.h_gens)


class CentralizerProperty(SearchProperty):
    """g commutes with a fixed element z; used with a z-adapted base."""

    def __init__(self, z: tuple[int, ...], base: list[int]):
        self.z = z
        degree = len(z)
        # cycle structure
        cyclen = [1] * degree
        anchor: dict[int, tuple[int, int]] = {}
        seen = [False] * degree
        for start in range(degree):
            if seen[start] or z[start] == start:
                continue
            cycle = [start]
            seen[start] = True
            x = z[start]
            while x != start:
                seen[x] = True
                cycle.append(x)
                x = z[x]
            for t, pt in enumerate(cycle):
                cyclen[pt] = len(cycle)
                anchor[pt] = (start, t)
        self.cyclen = cyclen
        self.anchor = anchor
        # powers of z up to the largest cycle length
        maxlen = max(cyclen)
        pows = [tuple(range(degree))]
        for _ in range(1, maxlen):
            pows.append(_mul(pows[-1], z))
        self.pows = pows
        self.assigned: dict[int, int] = {}
        self.trail: list[int] = []

    def veto(self, level, b, c):
        if self.cyclen[b] != self.cyclen[c]:
            return True
        info = self.anchor.get(b)
        if info is not None:
            start, t = info
            if start != b:
                img = self.assigned.get(start)
                if img is not None:
                    # image of a non-start cycle point is forced
                    return c != self.pows[t][img]
        return False

    def push(self, level, b, c):
        self.trail.append(b)
        self.assigned[b] = c

    def pop(self, level):
        b = self.trail.pop()
        del self.assigned[b]

    def accept(self, g):
        z = self.z
        return all(g[z[x]] == z[g[x]] for x in range(len(g)))


# -- public operations ---------------------------------------------------------


def partition_stabilizer(G: PermGroup, colors,
                         budgets: Budgets = DEFAULT_BUDGETS) -> PermGroup:
    """Subgroup of G preserving every color class setwise.  The package no
    longer calls it: it is the tests' independent reference for
    zoo.flag_stabilizer's closed form, and perfbench/layers.py wraps it."""
    return subgroup_search(G, ColorProperty(colors), budgets=budgets)


def normalizer(G: PermGroup, H: PermGroup,
               budgets: Budgets = DEFAULT_BUDGETS) -> PermGroup:
    """Full normalizer of H in G."""
    if H.is_trivial():
        return G
    if is_normal(G, H):
        return G
    return subgroup_search(G, ConjugacyProperty(H, H), known=H,
                           budgets=budgets)


def element_centralizer(G: PermGroup, z: Perm,
                        budgets: Budgets = DEFAULT_BUDGETS) -> PermGroup:
    """Centralizer of a single element, searched on a z-adapted base."""
    zt = z.images
    if all(_mul(g.images, zt) == _mul(zt, g.images) for g in G.generators):
        return G
    # base: walk each nontrivial cycle from its smallest point
    hint: list[int] = []
    seen = [False] * G.degree
    for start in range(G.degree):
        if seen[start] or zt[start] == start:
            continue
        x = start
        while not seen[x]:
            seen[x] = True
            hint.append(x)
            x = zt[x]
    chain = G.fresh_chain(hint=hint)
    prop = CentralizerProperty(zt, [lvl.point for lvl in chain.levels])
    return subgroup_search(G, prop, budgets=budgets, chain=chain)


def centralizer(G: PermGroup, H: PermGroup,
                budgets: Budgets = DEFAULT_BUDGETS) -> PermGroup:
    """Centralizer of H in G, via iterated element centralizers."""
    current = G
    for h in H.generators:
        current = element_centralizer(current, h, budgets)
    return current


def conjugating_element(G: PermGroup, H: PermGroup, K: PermGroup,
                        budgets: Budgets = DEFAULT_BUDGETS) -> Perm | None:
    """Some g in G with g^-1 H g == K, or None when the search exhausts."""
    if H.order() != K.order():
        return None
    if sorted(map(len, H.orbits())) != sorted(map(len, K.orbits())):
        return None
    got = element_search(G, ConjugacyProperty(H, K), budgets)
    return None if got is None else Perm(got, validate=False)
