"""Permutation actions of a group on labeled domains, with homomorphism
support: image, kernel, and preimage.

The workhorse is a combined-domain stabilizer chain: each generator acts
on (domain points + original points) and the whole domain block heads the
base.  The stabilizer of that block is the kernel, so its generators fall
out of the chain; preimages are computed by sifting a domain permutation
through the domain levels and reading off the original-point part.
"""

from __future__ import annotations

from .backtrack import BudgetExceededError
from .config import DEFAULT_BUDGETS, Budgets
from .groups import PermGroup, _Chain, _ident, _inv, _mul
from .perms import Perm


class ActionHom:
    """A homomorphism G -> Sym(domain) given by a label action."""

    def __init__(self, G: PermGroup, labels: list, act, name: str | None = None):
        self.source = G
        self.labels = labels
        self.index = {label: i for i, label in enumerate(labels)}
        self.act = act
        self.domain_size = len(labels)
        n = G.degree
        m = self.domain_size
        combined = []
        image_gens = []
        for g in G.generators:
            img = self._image_tuple(g.images)
            image_gens.append(img)
            combined.append(img + tuple(x + m for x in g.images))
        # faithful on the original points, so the combined group is G
        self._chain = _Chain(n + m, combined, hint=range(m), order=G.order())
        self.quotient = PermGroup(
            m, [Perm(t, validate=False) for t in image_gens], name=name,
            order=G.order() // self._chain.order(m))
        self._kernel: PermGroup | None = None

    def _image_tuple(self, g: tuple[int, ...]) -> tuple[int, ...]:
        index, act = self.index, self.act
        return tuple(index[act(label, g)] for label in self.labels)

    def image(self, p: Perm) -> Perm:
        return Perm(self._image_tuple(p.images), validate=False)

    def kernel(self) -> PermGroup:
        if self._kernel is None:
            m = self.domain_size
            gens = [Perm(tuple(x - m for x in w[m:]), validate=False)
                    for w in self._chain.strong_gens_from(m)]
            self._kernel = PermGroup(self.source.degree, gens,
                                     order=self._chain.order(m))
        return self._kernel

    def preimage(self, q: Perm) -> Perm:
        """Some element of G mapping to q; raises ValueError if q is not in
        the image."""
        m = self.domain_size
        if q.degree != m:
            raise ValueError("preimage argument degree mismatch")
        r = q.images
        ident_m = _ident(m)
        ts = []
        for lvl in self._chain.levels[:m]:
            b = lvl.point
            x = r[b]
            if x == b:
                continue
            if x not in lvl.tree:
                raise ValueError("permutation is not in the action image")
            t = lvl.rep(x)
            ts.append(t)
            r = _mul(r, _inv(t[:m]))
        if r != ident_m:
            raise ValueError("permutation is not in the action image")
        w = _ident(m + self.source.degree)
        for t in ts:
            w = _mul(t, w)
        return Perm(tuple(x - m for x in w[m:]), validate=False)

    def preimage_group(self, Qsub: PermGroup) -> PermGroup:
        """Full preimage of a subgroup of the image: kernel + pullbacks."""
        K = self.kernel()
        gens = list(K.generators)
        gens += [self.preimage(q) for q in Qsub.generators]
        return PermGroup(self.source.degree, gens,
                         order=K.order() * Qsub.order())


# -- coset actions ---------------------------------------------------------------


def canonical_coset_rep(H: PermGroup, w: tuple[int, ...]) -> tuple[int, ...]:
    """Canonical representative of the coset H*w: greedily minimizes the
    images of H's base points."""
    r = w
    for lvl in H.chain().levels:
        best = min(lvl.orbit_list, key=r.__getitem__)
        if best != lvl.point:
            r = _mul(lvl.rep(best), r)
    return r


def coset_action(G: PermGroup, H: PermGroup,
                 budgets: Budgets = DEFAULT_BUDGETS) -> ActionHom:
    """Action of G on the right cosets of H by right multiplication.

    Requires H <= G (unchecked).  The kernel is the normal core of H in G;
    for normal H the image is a faithful copy of G/H."""
    budget = budgets.coset_degree_budget
    index = G.order() // H.order()
    if index > budget:
        raise BudgetExceededError("coset-degree", f"index {index} > {budget}")

    def act(label, g):
        return canonical_coset_rep(H, _mul(label, g))

    start = canonical_coset_rep(H, _ident(G.degree))
    labels = [start]
    seen = {start}
    gen_tuples = G.gen_tuples()
    head = 0
    while head < len(labels):
        label = labels[head]
        head += 1
        for g in gen_tuples:
            nxt = act(label, g)
            if nxt not in seen:
                seen.add(nxt)
                labels.append(nxt)
    hom = ActionHom(G, labels, act, name=f"{G.name or 'G'}/{H.name or 'H'}")
    return hom


def section_action(G: PermGroup, A: PermGroup, B: PermGroup,
                   budgets: Budgets = DEFAULT_BUDGETS) -> ActionHom:
    """Conjugation action of G on the nonidentity cosets of B in A.

    Requires B normal in A and both normalized by G; the kernel is the
    subgroup of G centralizing every coset of B in A."""
    section_size = A.order() // B.order()
    budget = budgets.element_action_budget
    if section_size > budget:
        raise BudgetExceededError(
            "element-action", f"section size {section_size} > {budget}")

    identity_label = canonical_coset_rep(B, _ident(G.degree))
    labels = [identity_label]
    seen = {identity_label}
    head = 0
    a_gens = A.gen_tuples()
    while head < len(labels):
        label = labels[head]
        head += 1
        for g in a_gens:
            nxt = canonical_coset_rep(B, _mul(label, g))
            if nxt not in seen:
                seen.add(nxt)
                labels.append(nxt)
    labels = [lab for lab in labels if lab != identity_label]

    def act(label, g):
        return canonical_coset_rep(B, _mul(_mul(_inv(g), label), g))

    return ActionHom(G, labels, act,
                     name=f"{A.name or 'A'}/{B.name or 'B'}-section")


def orbit_restriction(G: PermGroup, orbit: list[int]) -> ActionHom:
    """Action of G on one of its invariant point sets."""
    points = sorted(orbit)
    pos = {p: i for i, p in enumerate(points)}

    def act(label, g):
        return pos[g[points[label]]]

    return ActionHom(G, list(range(len(points))), act,
                     name=f"{G.name or 'G'}|orbit{points[0]}")


def block_action(G: PermGroup, blocks: list[list[int]]) -> ActionHom:
    """Action of G on a block system (blocks given as point lists)."""
    rep_of = {}
    for blk in blocks:
        root = min(blk)
        for x in blk:
            rep_of[x] = root
    reps = sorted({min(blk) for blk in blocks})
    pos = {r: i for i, r in enumerate(reps)}

    def act(label, g):
        return pos[rep_of[g[reps[label]]]]

    return ActionHom(G, list(range(len(reps))), act,
                     name=f"{G.name or 'G'}|blocks")


def minimal_block_system(G: PermGroup, a: int, b: int) -> list[list[int]]:
    """The finest G-invariant partition merging points a and b (G transitive)."""
    n = G.degree
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx == ry:
            return False
        if rx > ry:
            rx, ry = ry, rx
        parent[ry] = rx
        return True

    queue = [(a, b)]
    union(a, b)
    gens = G.gen_tuples()
    while queue:
        x, y = queue.pop()
        for g in gens:
            gx, gy = g[x], g[y]
            if union(gx, gy):
                queue.append((gx, gy))
    cells: dict[int, list[int]] = {}
    for x in range(n):
        cells.setdefault(find(x), []).append(x)
    return [sorted(c) for c in cells.values()]


def nontrivial_block_system(G: PermGroup) -> list[list[int]] | None:
    """Some nontrivial block system of a transitive group, or None when the
    group is primitive."""
    n = G.degree
    if n <= 2:
        return None
    for b in range(1, n):
        blocks = minimal_block_system(G, 0, b)
        if 1 < len(blocks) < n:
            return sorted(blocks, key=lambda blk: blk[0])
    return None
