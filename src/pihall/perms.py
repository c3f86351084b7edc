"""Permutations of {0..n-1} stored as image tuples.

Products compose left to right: ``(p * q)(x) == q(p(x))``, i.e. apply p
first.  This is the convention used throughout the package, including
stabilizer chains and conjugation ``p ** g == g.inverse() * p * g``.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence


class DegreeMismatchError(ValueError):
    """Raised when combining permutations of different degrees."""


def _validate_images(images: Sequence[int]) -> None:
    n = len(images)
    seen = bytearray(n)
    for x in images:
        # bool is a subclass of int, but True is no point
        if (isinstance(x, bool) or not isinstance(x, int) or not 0 <= x < n
                or seen[x]):
            raise ValueError(f"not a permutation of 0..{n - 1}: {list(images)!r}")
        seen[x] = 1


class Perm:
    """An immutable permutation; hashable, usable as dict key."""

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int], validate: bool = True):
        images = tuple(images)
        if validate:
            _validate_images(images)
        object.__setattr__(self, "images", images)

    def __setattr__(self, name, value):
        raise AttributeError("Perm is immutable")

    @staticmethod
    def identity(degree: int) -> "Perm":
        return Perm(range(degree), validate=False)

    @staticmethod
    def from_cycles(degree: int, *cycles: Sequence[int]) -> "Perm":
        """Build a permutation from disjoint-or-not cycles, applied left to right."""
        images = list(range(degree))
        for cycle in cycles:
            prev = list(images)
            mapping = {cycle[i]: cycle[(i + 1) % len(cycle)] for i in range(len(cycle))}
            for x in range(degree):
                images[x] = mapping.get(prev[x], prev[x])
        return Perm(images)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: "Perm") -> "Perm":
        if len(self.images) != len(other.images):
            raise DegreeMismatchError(
                f"degree {len(self.images)} vs {len(other.images)}"
            )
        return Perm(map(other.images.__getitem__, self.images), validate=False)

    def inverse(self) -> "Perm":
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j] = i
        return Perm(inv, validate=False)

    def __pow__(self, n: int) -> "Perm":
        if n < 0:
            return self.inverse() ** (-n)
        result = Perm.identity(self.degree)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def conjugate(self, g: "Perm") -> "Perm":
        """Return g^-1 * self * g."""
        return g.inverse() * self * g

    def commutator(self, other: "Perm") -> "Perm":
        return self.inverse() * other.inverse() * self * other

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each starting at its smallest point."""
        seen = [False] * self.degree
        out = []
        for start in range(self.degree):
            if seen[start] or self.images[start] == start:
                continue
            cycle = [start]
            seen[start] = True
            x = self.images[start]
            while x != start:
                seen[x] = True
                cycle.append(x)
                x = self.images[x]
            out.append(tuple(cycle))
        return out

    def cycle_lengths(self) -> list[int]:
        return [len(c) for c in self.cycles()]

    def order(self) -> int:
        return math.lcm(*self.cycle_lengths()) if self.cycle_lengths() else 1

    def support(self) -> list[int]:
        return [x for x in range(self.degree) if self.images[x] != x]

    def __eq__(self, other) -> bool:
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        cycles = self.cycles()
        if not cycles:
            return f"Perm.identity({self.degree})"
        text = "".join("(" + " ".join(map(str, c)) + ")" for c in cycles)
        return f"Perm[{self.degree}]{text}"


def compose(p: Perm, q: Perm) -> Perm:
    """Product applying p first: compose(p, q)(x) == q(p(x))."""
    return p * q
