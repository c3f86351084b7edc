"""Permutation actions of a group on labeled domains, with homomorphism
support: image, kernel, and, for quotients, preimage.

The action on the cosets of a normal subgroup N is the regular
representation of G/N: its labels are canonical coset representatives,
its image has order |G:N| (the number of labels) and its kernel is N, so
it needs no stabilizer chain, and a preimage of q is the label q sends
the coset N to.  The section, orbit and block actions find their kernels
and image orders from a combined-domain stabilizer chain: each generator
acts on (domain points + original points) and the whole domain block
heads the base, so the stabilizer of that block is the kernel.
"""

from __future__ import annotations

from .backtrack import BudgetExceededError, certify
from .config import DEFAULT_BUDGETS, Budgets
from .groups import PermGroup, _Chain, _ident, _inv, _mul, is_normal
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


class QuotientHom:
    """The natural map G -> G/N for N normal in G, with G/N acting
    regularly on the right cosets of N, given by their canonical
    representatives (`index`: label -> point, the coset N first)."""

    def __init__(self, G: PermGroup, N: PermGroup, index: dict,
                 image_gens: list[tuple[int, ...]], name: str):
        self.source = G
        self.index = index
        self.labels = list(index)
        self.domain_size = len(index)
        self._kernel = N
        # transitive on |G:N| points with kernel N: regular, of order |G:N|
        self.quotient = PermGroup(
            self.domain_size, [Perm(t, validate=False) for t in image_gens],
            name=name, order=self.domain_size)

    def image(self, p: Perm) -> Perm:
        N, index = self._kernel, self.index
        return Perm(tuple(index[canonical_coset_rep(N, _mul(label, p.images))]
                          for label in self.labels), validate=False)

    def kernel(self) -> PermGroup:
        return self._kernel

    def preimage(self, q: Perm) -> Perm:
        """Some element of G mapping to q: the label of the coset q sends N
        to, as the image is regular; raises ValueError if q is not in the
        image."""
        if q.degree != self.domain_size:
            raise ValueError("preimage argument degree mismatch")
        p = Perm(self.labels[q.images[0]], validate=False)
        if self.image(p) != q:
            raise ValueError("permutation is not in the action image")
        return p

    def preimage_group(self, Qsub: PermGroup) -> PermGroup:
        """Full preimage of a subgroup of the image: kernel + pullbacks."""
        K = self._kernel
        gens = list(K.generators)
        gens += [self.preimage(q) for q in Qsub.generators]
        return PermGroup(self.source.degree, gens,
                         order=K.order() * Qsub.order())


def coset_action(G: PermGroup, N: PermGroup,
                 budgets: Budgets = DEFAULT_BUDGETS) -> QuotientHom:
    """Action of G on the right cosets of a normal subgroup N by right
    multiplication: the regular representation of G/N, with kernel N.

    Raises ValueError when G does not normalize N; a label count other
    than |G:N| (N not inside G) fails certification."""
    budget = budgets.coset_degree_budget
    n_cosets = G.order() // N.order()
    if n_cosets > budget:
        raise BudgetExceededError("coset-degree",
                                  f"index {n_cosets} > {budget}")
    if not is_normal(G, N):
        raise ValueError("coset_action requires a normal subgroup")

    start = canonical_coset_rep(N, _ident(G.degree))
    labels = [start]
    index = {start: 0}
    gen_tuples = G.gen_tuples()
    image_gens: list[list[int]] = [[] for _ in gen_tuples]
    head = 0
    while head < len(labels):
        label = labels[head]
        head += 1
        for g, img in zip(gen_tuples, image_gens):
            nxt = canonical_coset_rep(N, _mul(label, g))
            j = index.get(nxt)
            if j is None:
                j = index[nxt] = len(labels)
                labels.append(nxt)
            img.append(j)
    certify(len(labels) * N.order() == G.order(),
            f"{len(labels)} cosets of N in G, |G:N| = {n_cosets}")
    return QuotientHom(G, N, index, [tuple(img) for img in image_gens],
                       name=f"{G.name or 'G'}/{N.name or 'N'}")


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
