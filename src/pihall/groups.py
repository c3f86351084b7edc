"""Permutation groups backed by a base and strong generating set.

The stabilizer chain is built by a deterministic Schreier-Sims procedure
(no Monte Carlo step); base points are chosen greedily as the smallest
point moved by the generator that creates the level.  Groups are immutable
once the chain exists, so they are safe to share across threads.

A chain told an order for its group stops verifying Schreier generators
once the product of its basic orbit lengths reaches that order.  The stated
order must be at least the true order |G|: either |G| itself, computed, or
an upper bound known by construction.  The bounds by construction are the
zoo builders' closed forms (n! for a symmetric group, |G|·|H| for a direct
product, |GL_n(q)| for invertible matrices, ...), |H| for the image of H
under a homomorphism (a subgroup of GL_n(q) lifted to the paired action),
the known subgroup's order for the chain a backtrack search grows from it,
and 2|K| for K extended by an involution normalizing it.  The stop is then
certified, not sampled: each level's generators lie in the true
stabilizer, so the product is at most |G|, with equality exactly when every
level generates its full stabilizer, i.e. when the chain is complete.  A
product that reaches the stated order therefore certifies that order as
|G|; if |G| is smaller, full verification ends below the stated order and
raises VerificationError.  From the stop on every Schreier generator sifts
to the identity, so the base, level generators and orbits are those full
verification gives.  A stated order below |G| is the one error nothing
catches: the product can meet it early and stop an incomplete chain.

`PermGroup.order` returns a stated order without building a chain, so a
check of a stated order reads the chain's: `G.chain().order()`.

A group's chain is built from its generators alone, on first use, so the
chain, and an element table's row order, depend only on the degree and the
generator tuple.  A subgroup found by growing a chain (`span`, the
backtrack searches) keeps the generators that chain kept and states the
order it certified, and builds its own chain from them.

Internally the chain works on raw image tuples for speed; the public API
speaks :class:`~pihall.perms.Perm`.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from typing import Callable, Iterable, Iterator, Sequence

from .arith import p_part
from .perms import DegreeMismatchError, Perm

_IDENTITY_CACHE: dict[int, tuple[int, ...]] = {}

# Rep caching is quadratic in orbit size x degree; cap it for large actions.
_REP_CACHE_DEGREE = 700


def _ident(n: int) -> tuple[int, ...]:
    p = _IDENTITY_CACHE.get(n)
    if p is None:
        p = tuple(range(n))
        _IDENTITY_CACHE[n] = p
    return p


def _mul(p, q):
    return tuple(map(q.__getitem__, p))


def _inv(p):
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


class VerificationError(RuntimeError):
    """A result failed the check that certifies it.

    A fault in the program, never an answer about the group."""


def certify(ok: bool, what: str) -> None:
    """Raise VerificationError unless ok; unlike assert, never stripped."""
    if not ok:
        raise VerificationError(what)


class _Level:
    """One stabilizer-chain level: base point, generators, Schreier tree.

    The orbit and tree grow append-only so that cached coset representatives
    and already-verified Schreier pairs stay valid when generators arrive.
    """

    __slots__ = ("point", "gens", "tree", "orbit_list", "_reps", "_reps_inv",
                 "checked_upto", "cache_reps", "degree")

    def __init__(self, point: int, degree: int):
        self.point = point
        self.degree = degree
        self.gens: list[tuple[int, ...]] = []
        self.tree: dict[int, tuple[int, tuple[int, ...]] | None] = {point: None}
        self.orbit_list: list[int] = [point]
        self._reps = {point: _ident(degree)}
        self._reps_inv = {point: _ident(degree)}
        self.checked_upto: dict[int, int] = {}
        self.cache_reps = degree <= _REP_CACHE_DEGREE

    def add_gen(self, g: tuple[int, ...]) -> None:
        self.gens.append(g)
        frontier = []
        for x in list(self.orbit_list):
            y = g[x]
            if y not in self.tree:
                self.tree[y] = (x, g)
                self.orbit_list.append(y)
                frontier.append(y)
        while frontier:
            nxt = []
            for x in frontier:
                for gen in self.gens:
                    y = gen[x]
                    if y not in self.tree:
                        self.tree[y] = (x, gen)
                        self.orbit_list.append(y)
                        nxt.append(y)
            frontier = nxt

    def _walk(self, point: int) -> tuple[int, ...]:
        # up the tree to the nearest cached rep (the base point's at the
        # latest), then down, caching each rep on the way when allowed
        path = []
        x = point
        while x not in self._reps:
            parent, gen = self.tree[x]
            path.append((x, gen))
            x = parent
        r = self._reps[x]
        for x, gen in reversed(path):
            r = _mul(r, gen)
            if self.cache_reps:
                self._reps[x] = r
        return r

    def rep(self, point: int) -> tuple[int, ...]:
        r = self._reps.get(point)
        if r is None:
            r = self._walk(point)
        return r

    def rep_inv(self, point: int) -> tuple[int, ...]:
        r = self._reps_inv.get(point)
        if r is None:
            r = _inv(self.rep(point))
            if self.cache_reps:
                self._reps_inv[point] = r
        return r


class _Chain:
    """Stabilizer chain over image tuples.

    ``hint`` pre-creates levels on the given points, in order, so they head
    the base even when early generators fix them (a point stabilizer, a
    backtrack search's base).  Pre-created levels that stay trivial cost
    O(1) each.

    ``order``, when given, must be at least the order of the group the
    generators generate: that order, computed, or an upper bound known by
    construction, never an estimate.  Verification stops as soon as the
    orbit-length product reaches it, which certifies it as the group's
    order (see the module docstring).  A stated order that verification
    runs past or never reaches raises VerificationError; one that is too
    small but equals an intermediate product would stop the chain early
    undetected.  The sources used are: a complete chain's orbit-length
    product, or a suffix of it (stabilizers); |kernel|·|Q̄| for a
    preimage; |G:N| for the regular image of a coset action; |H| for a
    conjugate of H; the closed forms of the zoo builders (n! for ``sym``,
    n!/2 for ``alt``, n for ``cyclic``, 2n for ``dihedral``, |G|·|H| for
    ``direct_product``, |G|^n·n for ``wreath``, p(p²-1)/2 for ``psl2``);
    the upper bounds |GL_n(q)| for ``zoo.gl`` and ``zoo.GLHat.inner``
    (images of invertible matrices), the parabolic order for
    ``zoo.flag_stabilizer`` (block-lower-triangular matrices) and
    2|GL_n(q)| for ``zoo.GLHat.group`` (after the constructor certifies,
    with no chain, that the swap is an involution conjugating each
    generator embed_matrix(M) to embed_matrix(M^-T), so that it normalizes
    the inner copy); |H1| for the GL5(2) example's lift of the flag
    stabilizer H1 (the image of the group of H1's generator matrices under
    the homomorphism M -> ``zoo.GLHat.embed_matrix(M)``); the known
    subgroup's order for the chain a backtrack subgroup search grows
    (``backtrack.subgroup_search``); and 2|H1_lift| for the GL5(2)
    example's H = <H1_lift, x> (after the example checks that x is an
    involution normalizing H1_lift).  A span's chain states none; the
    group a span or a search returns states that complete chain's order.
    """

    __slots__ = ("degree", "levels", "_order")

    def __init__(self, degree: int, gens: Iterable[tuple[int, ...]],
                 hint: Sequence[int] = (), order: int | None = None):
        self.degree = degree
        self.levels: list[_Level] = [_Level(h, degree) for h in hint]
        self._order = order
        ident = _ident(degree)
        for g in gens:
            if g != ident:
                self._sift_add(0, g)
        self._complete()

    def extend(self, w) -> bool:
        """Add w to the group: sift it and, when it is not already a member,
        install the residue and complete the chain again (incremental
        Schreier-Sims).  True when the group grew, which voids the stated
        order."""
        if self._sift_add(0, w) is None:
            return False
        self._order = None
        self._complete()
        return True

    def _install_gen(self, level: int, w) -> None:
        # w fixes the bases of all levels above `level`, so it generates
        # every stabilizer group down to that level.
        for j in range(level + 1):
            self.levels[j].add_gen(w)

    def _sift_add(self, start: int, w) -> int | None:
        """Sift w (fixing bases above `start`); add the residue where it
        sticks.  Returns the level index that changed, None otherwise."""
        for i in range(start, len(self.levels)):
            lvl = self.levels[i]
            x = w[lvl.point]
            if x == lvl.point:
                continue
            if x not in lvl.tree:
                self._install_gen(i, w)
                return i
            w = _mul(w, lvl.rep_inv(x))
        if w == _ident(self.degree):
            return None
        pt = next(x for x in range(self.degree) if w[x] != x)
        self.levels.append(_Level(pt, self.degree))
        self._install_gen(len(self.levels) - 1, w)
        return len(self.levels) - 1

    def _check_level(self, i: int) -> int | None:
        """Verify Schreier generators of level i; returns deepest changed
        level, or None when the level is fully verified."""
        lvl = self.levels[i]
        if len(lvl.orbit_list) == 1:
            # every generator here fixes the base (or the orbit would have
            # grown) and was installed at a deeper level, hence is already a
            # member of the stabilizer; nothing to verify.
            return None
        deepest = None
        idx = 0
        while idx < len(lvl.orbit_list):
            pt = lvl.orbit_list[idx]
            start = lvl.checked_upto.get(pt, 0)
            ngens = len(lvl.gens)
            if start < ngens:
                u = lvl.rep(pt)
                for gi in range(start, ngens):
                    gen = lvl.gens[gi]
                    target = gen[pt]
                    if target == pt and pt == lvl.point:
                        # Schreier generator equals gen itself, a member of
                        # the deeper stabilizer by its install level
                        continue
                    w = _mul(u, gen)
                    if w == lvl.rep(target):
                        continue
                    s = _mul(w, lvl.rep_inv(target))
                    j = self._sift_add(i + 1, s)
                    if j is not None:
                        deepest = j if deepest is None else max(deepest, j)
                        if self._order_reached():
                            return deepest
                lvl.checked_upto[pt] = ngens
            idx += 1
        return deepest

    def _order_reached(self) -> bool:
        return self._order is not None and self.order() == self._order

    def _complete(self) -> None:
        i = len(self.levels) - 1
        while i >= 0 and not self._order_reached():
            changed = self._check_level(i)
            if changed is None:
                i -= 1
            else:
                i = changed
        certify(self._order is None or self.order() == self._order,
                f"stated order {self._order}, chain order {self.order()}")

    # -- queries -----------------------------------------------------------

    def order(self, level: int = 0) -> int:
        """Order of the stabilizer of the first `level` base points."""
        n = 1
        for lvl in self.levels[level:]:
            n *= len(lvl.orbit_list)
        return n

    def reduce(self, w) -> tuple[tuple[int, ...], int | None]:
        """Sift w; returns (residue, level index where it stuck or None)."""
        for i, lvl in enumerate(self.levels):
            x = w[lvl.point]
            if x == lvl.point:
                continue
            if x not in lvl.tree:
                return w, i
            w = _mul(w, lvl.rep_inv(x))
        return w, None

    def contains(self, w) -> bool:
        residue, stuck = self.reduce(w)
        return stuck is None and residue == _ident(self.degree)

    def base(self) -> list[int]:
        return [lvl.point for lvl in self.levels]

    def strong_gens_from(self, level: int) -> list[tuple[int, ...]]:
        """Generators of the stabilizer of the first `level` base points."""
        if level >= len(self.levels):
            return []
        return list(self.levels[level].gens)

    def random_tuple(self, rng: random.Random) -> tuple[int, ...]:
        w = _ident(self.degree)
        for lvl in reversed(self.levels):
            if len(lvl.orbit_list) > 1:
                pt = rng.choice(lvl.orbit_list)
                w = _mul(w, lvl.rep(pt))
        return w

    def iter_tuples(self) -> Iterator[tuple[int, ...]]:
        """All elements, in the deterministic transversal-product order."""
        transversals = [[lvl.rep(pt) for pt in sorted(lvl.orbit_list)]
                        for lvl in self.levels if len(lvl.orbit_list) > 1]
        if not transversals:
            yield _ident(self.degree)
            return
        for combo in itertools.product(*reversed(transversals)):
            w = combo[0]
            for u in combo[1:]:
                w = _mul(w, u)
            yield w


class NotASubgroupError(ValueError):
    """Raised when an operation requires H <= G and it does not hold."""


class PermGroup:
    """A finite permutation group on {0..degree-1}.

    Immutable; the stabilizer chain is built from the generators on first
    use and reused, and never extended.
    """

    def __init__(self, degree: int, generators: Iterable[Perm] = (),
                 name: str | None = None, order: int | None = None):
        gens = []
        seen = set()
        for g in generators:
            if not isinstance(g, Perm):
                g = Perm(g)
            if g.degree != degree:
                raise DegreeMismatchError(
                    f"generator degree {g.degree} != group degree {degree}")
            if not g.is_identity() and g.images not in seen:
                seen.add(g.images)
                gens.append(g)
        self.degree = degree
        self.generators: tuple[Perm, ...] = tuple(gens)
        self.name = name
        # stated order (see _Chain); read off the chain when not stated
        self._order = order
        self._chain_cache: _Chain | None = None

    # -- chain plumbing ----------------------------------------------------

    def chain(self) -> _Chain:
        if self._chain_cache is None:
            self._chain_cache = _Chain(
                self.degree, [g.images for g in self.generators],
                order=self._order)
        return self._chain_cache

    def fresh_chain(self, hint: Sequence[int] = ()) -> _Chain:
        """A private chain with a prescribed base prefix; never cached."""
        return _Chain(self.degree, [g.images for g in self.generators],
                      hint=hint, order=self._order)

    def gen_tuples(self) -> list[tuple[int, ...]]:
        return [g.images for g in self.generators]

    # -- basic structure ----------------------------------------------------

    def order(self) -> int:
        if self._order is None:
            self._order = self.chain().order()
        return self._order

    def is_trivial(self) -> bool:
        return not self.generators

    def base(self) -> list[int]:
        return self.chain().base()

    def contains(self, p: Perm) -> bool:
        if p.degree != self.degree:
            raise DegreeMismatchError(
                f"element degree {p.degree} != group degree {self.degree}")
        return self.chain().contains(p.images)

    def __contains__(self, p: Perm) -> bool:
        return self.contains(p)

    def is_subgroup_of(self, other: "PermGroup") -> bool:
        if self.degree != other.degree:
            raise DegreeMismatchError(
                f"degree {self.degree} != {other.degree}")
        return all(other.contains(g) for g in self.generators)

    def same_group_as(self, other: "PermGroup") -> bool:
        return (self.degree == other.degree
                and self.order() == other.order()
                and self.is_subgroup_of(other))

    def is_abelian(self) -> bool:
        for a, b in itertools.combinations(self.generators, 2):
            if a * b != b * a:
                return False
        return True

    # -- orbits and stabilizers ---------------------------------------------

    def _check_point(self, point: int) -> None:
        if not 0 <= point < self.degree:
            raise IndexError(f"point {point} out of range 0..{self.degree - 1}")

    def orbit(self, point: int) -> set[int]:
        self._check_point(point)
        seen = {point}
        queue = [point]
        gens = self.gen_tuples()
        while queue:
            x = queue.pop()
            for g in gens:
                y = g[x]
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        return seen

    def orbits(self) -> list[list[int]]:
        """Orbit partition; each orbit sorted, orbits ordered by min point."""
        seen = [False] * self.degree
        out = []
        for x in range(self.degree):
            if not seen[x]:
                orb = sorted(self.orbit(x))
                for y in orb:
                    seen[y] = True
                out.append(orb)
        return out

    def orbit_sizes(self) -> tuple[int, ...]:
        return tuple(sorted(len(o) for o in self.orbits()))

    def stabilizer(self, point: int) -> "PermGroup":
        self._check_point(point)
        chain = self.fresh_chain(hint=[point])
        gens = chain.strong_gens_from(1)
        return PermGroup(self.degree, [Perm(g, validate=False) for g in gens],
                         order=chain.order(1))

    # -- elements ------------------------------------------------------------

    def random_element(self, rng: random.Random | int) -> Perm:
        if isinstance(rng, int):
            rng = random.Random(rng)
        return Perm(self.chain().random_tuple(rng), validate=False)

    def elements(self) -> Iterator[Perm]:
        for w in self.chain().iter_tuples():
            yield Perm(w, validate=False)

    # -- identity --------------------------------------------------------------

    def cache_key(self):
        """Identity for caching: degree + generators in their given order.
        Not the generator set: a chain, hence an element table's index
        order and the generators read off it, follow the order."""
        return (self.degree, tuple(g.images for g in self.generators))

    def __repr__(self) -> str:
        label = self.name or f"{len(self.generators)} gens"
        return f"PermGroup(degree={self.degree}, {label})"


def require_subgroup(G: PermGroup, H: PermGroup, what: str = "H") -> None:
    if not H.is_subgroup_of(G):
        raise NotASubgroupError(f"{what} is not a subgroup of the ambient group")


def is_normal(G: PermGroup, H: PermGroup) -> bool:
    """Whether G normalizes H: every generator of H conjugated by every
    generator of G lies in H."""
    return all(H.contains(h.conjugate(g))
               for g in G.generators for h in H.generators)


def span(degree: int, candidates: Iterable[Perm], order: int | None = None,
         then: Callable[[Perm], Iterable[Perm]] | None = None) -> PermGroup:
    """The group generated by the candidates, walked in the order given:
    each one that enlarges the span of those kept before it is kept, and
    the walk stops once the span has `order` elements.  For each kept x,
    `then(x)` (when given) names more candidates, walked after all those
    queued before them.  The group states the order the span's chain,
    completed again after each kept candidate, reached."""
    chain = _Chain(degree, [])
    kept: list[Perm] = []
    queue = deque([iter(candidates)])
    while queue and (order is None or chain.order() < order):
        x = next(queue[0], None)
        if x is None:
            queue.popleft()
        elif chain.extend(x.images):
            kept.append(x)
            if then is not None:
                queue.append(iter(then(x)))
    return PermGroup(degree, kept, order=chain.order())


def p_element(G: PermGroup, p: int, rng: random.Random) -> Perm | None:
    """An element of order a positive power of p: the p-part of the first
    of G's generators, then of 8192 random elements drawn from rng, whose
    order p divides; None when none does."""
    draws = (G.random_element(rng) for _ in range(8192))
    for g in itertools.chain(G.generators, draws):
        o = g.order()
        if o % p == 0:
            return g ** (o // p_part(o, p))
    return None


def join_subgroups(G: PermGroup, parts: Iterable[PermGroup]) -> PermGroup:
    """Subgroup generated by the given subgroups of G (no membership check)."""
    gens: list[Perm] = []
    for part in parts:
        gens.extend(part.generators)
    return PermGroup(G.degree, gens)
