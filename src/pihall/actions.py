"""Permutation actions of a group on labeled domains.

The action on the cosets of a normal subgroup N is the regular
representation of G/N: its labels are canonical coset representatives,
its image has order |G:N| (the number of labels) and its kernel is N, so
it needs no stabilizer chain, and a preimage of q is the label q sends
the coset N to.  The section and block actions return their image groups
alone; a caller that needs the kernel's order reads it as |G|/|image|.
"""

from __future__ import annotations

from .backtrack import BudgetExceededError, certify
from .config import DEFAULT_BUDGETS, Budgets
from .groups import PermGroup, _ident, _inv, _mul, is_normal
from .perms import Perm


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
                   budgets: Budgets = DEFAULT_BUDGETS) -> PermGroup:
    """Image of the conjugation action of G on the nonidentity cosets of B
    in A.

    Requires B normal in A and both normalized by G.  The points are
    coset_action(A, B)'s labels less the coset B itself (its point 0), so
    a B that A does not normalize raises ValueError."""
    section_size = A.order() // B.order()
    budget = budgets.element_action_budget
    if section_size > budget:
        raise BudgetExceededError(
            "element-action", f"section size {section_size} > {budget}")
    labels = coset_action(A, B, budgets).labels[1:]
    index = {label: i for i, label in enumerate(labels)}
    gens = []
    for g in G.gen_tuples():
        g_inv = _inv(g)
        gens.append(Perm(tuple(
            index[canonical_coset_rep(B, _mul(_mul(g_inv, label), g))]
            for label in labels), validate=False))
    return PermGroup(len(labels), gens,
                     name=f"{A.name or 'A'}/{B.name or 'B'}-section")


def block_action(G: PermGroup, blocks: list[list[int]]) -> PermGroup:
    """Image of the action of G on a block system (blocks given as point
    lists); singleton blocks over an orbit give the orbit's action."""
    rep_of = {}
    for blk in blocks:
        root = min(blk)
        for x in blk:
            rep_of[x] = root
    reps = sorted({min(blk) for blk in blocks})
    pos = {r: i for i, r in enumerate(reps)}
    gens = [Perm(tuple(pos[rep_of[g[r]]] for r in reps), validate=False)
            for g in G.gen_tuples()]
    return PermGroup(len(reps), gens, name=f"{G.name or 'G'}|blocks")


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
