"""Small finite fields GF(q), q <= 9, and matrix/vector helpers.

Field elements are ints 0..q-1.  For prime q the arithmetic is modular;
for q in {4, 8, 9} elements are polynomial bit/digit codes reduced by a
fixed irreducible polynomial, and all ops go through precomputed tables.

Vectors are row vectors; matrices act on the right (v -> v*M), matching
the left-to-right permutation composition used in the rest of the package.
Nonzero vectors are indexed by their base-q digit string, least
significant coordinate first: index(v) = sum(v[i] * q**i) - 1.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# modulus polynomials for the non-prime fields, coded base p
_POLYS = {4: (2, 0b111), 8: (2, 0b1011), 9: (3, 10)}  # x^2+x+1, x^3+x+1, x^2+1


class GF:
    """Arithmetic tables for GF(q)."""

    def __init__(self, q: int):
        if q in _POLYS:
            p, poly = _POLYS[q]
            k = 1
            while p ** (k + 1) <= q:
                k += 1
        else:
            p, poly, k = q, None, 1
            if q < 2 or any(q % d == 0 for d in range(2, q)):
                raise ValueError(f"q={q} is not a supported prime power (q <= 9)")
        self.q = q
        self.p = p
        self.add = [[self._add(a, b) for b in range(q)] for a in range(q)]
        self.neg = [self._neg(a) for a in range(q)]
        self.mul = [[self._mul_raw(a, b, poly) for b in range(q)] for a in range(q)]
        self.inv = [0] * q
        for a in range(1, q):
            for b in range(1, q):
                if self.mul[a][b] == 1:
                    self.inv[a] = b
                    break
        # the same tables as arrays, for numpy lookups over many vectors
        self.add_array = np.array(self.add, dtype=np.intp)
        self.mul_array = np.array(self.mul, dtype=np.intp)

    def _digits(self, a):
        out = []
        while a:
            out.append(a % self.p)
            a //= self.p
        return out

    def _undigits(self, ds):
        val = 0
        for d in reversed(ds):
            val = val * self.p + d
        return val

    def _add(self, a, b):
        da, db = self._digits(a), self._digits(b)
        n = max(len(da), len(db), 1)
        da += [0] * (n - len(da))
        db += [0] * (n - len(db))
        return self._undigits([(x + y) % self.p for x, y in zip(da, db)])

    def _neg(self, a):
        return self._undigits([(-x) % self.p for x in self._digits(a)])

    def _mul_raw(self, a, b, poly):
        if poly is None:
            return (a * b) % self.p
        # polynomial multiplication base p, reduced mod poly
        da, db = self._digits(a), self._digits(b)
        prod = [0] * (len(da) + len(db) + 1)
        for i, x in enumerate(da):
            for j, y in enumerate(db):
                prod[i + j] = (prod[i + j] + x * y) % self.p
        dp = self._digits(poly)
        deg = len(dp) - 1
        lead_inv = pow(dp[-1], -1, self.p)
        for top in range(len(prod) - 1, deg - 1, -1):
            c = (prod[top] * lead_inv) % self.p
            if c:
                for j, y in enumerate(dp):
                    prod[top - deg + j] = (prod[top - deg + j] - c * y) % self.p
        return self._undigits(prod)

    def primitive_element(self) -> int:
        for a in range(2, self.q):
            x, seen = a, set()
            while x not in seen:
                seen.add(x)
                x = self.mul[x][a]
            if len(seen) == self.q - 1:
                return a
        return 1


@lru_cache(maxsize=None)
def gf(q: int) -> GF:
    return GF(q)


# -- matrices: tuples of row tuples -------------------------------------------


def mat_identity(n: int) -> tuple:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_transpose(A) -> tuple:
    return tuple(zip(*A))


def mat_inverse(field: GF, A) -> tuple:
    """Gauss-Jordan inverse; raises ValueError when singular."""
    n = len(A)
    add, mul, inv, neg = field.add, field.mul, field.inv, field.neg
    aug = [list(A[i]) + [1 if i == j else 0 for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        c = inv[aug[col][col]]
        aug[col] = [mul[c][x] for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                c = aug[r][col]
                aug[r] = [add[x][neg[mul[c][y]]]
                          for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


# -- vector point indexing ----------------------------------------------------


def point_to_vec(q: int, n: int, point: int) -> tuple:
    """Point index -> nonzero vector (base-q digits, least significant
    first)."""
    val = point + 1
    out = []
    for _ in range(n):
        out.append(val % q)
        val //= q
    return tuple(out)


def matrix_to_perm_images(field: GF, n: int, M) -> tuple[int, ...]:
    """Permutation of the q^n - 1 nonzero vectors induced by v -> v*M.

    By linearity: the vector of index value d*q^i + low (0 < d < q,
    low < q^i) has image image(low) + d*M[i].  So the images of the
    q^i..q^(i+1)-1 block are one addition-table lookup over the images of
    the values below q^i and the scaled rows d*M[i], and the point indices
    are the images' digit sums weighted by powers of q."""
    q = field.q
    scaled = field.mul_array[:, np.array(M, dtype=np.intp)]  # [d, i] = d*M[i]
    images = np.zeros((q ** n, n), dtype=np.intp)   # row = index value
    size = 1
    for i in range(n):
        block = field.add_array[images[None, :size], scaled[1:, i, None]]
        images[size:q * size] = block.reshape(-1, n)
        size *= q
    points = (images[1:] * q ** np.arange(n)).sum(axis=1) - 1
    if points.min(initial=0) < 0:
        raise ValueError("matrix is singular")
    return tuple(points.tolist())
