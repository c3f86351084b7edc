"""Deterministic constructors for the test groups.

Every builder is pure: two calls produce bit-identical generator lists.
Each states its group's order in closed form (n! for sym, |G|·|H| for a
direct product, p(p²-1)/2 for PSL(2,p), ...), an upper bound by
construction that the group's chain certifies by reaching it (see
:mod:`pihall.groups`).
Matrix groups enter as permutation actions on nonzero vectors (see
:mod:`pihall.linalg` for the point indexing); the dual-paired action on
vectors and covectors realizes the inverse-transpose extension of GL_n(q)
on twice the degree.  Its lifts are images of matrices under
GLHat.embed_matrix, and the GL5(2) example's dual-flag conjugator is the
coordinate reversal w0 (`dual_flag_conjugator`), a closed form certified
on generators.
"""

from __future__ import annotations

from itertools import accumulate
from math import factorial

from . import linalg
from .groups import PermGroup, certify
from .linalg import gf, mat_identity, mat_inverse, mat_transpose
from .perms import Perm

DEGREE_BUDGET = 10_000


def _check_degree(n: int) -> None:
    if n > DEGREE_BUDGET:
        raise ValueError(f"degree {n} exceeds the {DEGREE_BUDGET} budget")


def sym(n: int) -> PermGroup:
    _check_degree(n)
    gens = []
    if n >= 2:
        gens.append(Perm.from_cycles(n, (0, 1)))
    if n >= 3:
        gens.append(Perm.from_cycles(n, tuple(range(n))))
    return PermGroup(n, gens, name=f"sym{n}", order=factorial(n))


def alt(n: int) -> PermGroup:
    _check_degree(n)
    gens = [Perm.from_cycles(n, (i, i + 1, i + 2)) for i in range(max(0, n - 2))]
    return PermGroup(n, gens, name=f"alt{n}",
                     order=factorial(n) // 2 if n >= 2 else 1)


def cyclic(n: int) -> PermGroup:
    _check_degree(n)
    gens = [Perm.from_cycles(n, tuple(range(n)))] if n >= 2 else []
    return PermGroup(max(n, 1), gens, name=f"cyclic{n}", order=max(n, 1))


def dihedral(n: int) -> PermGroup:
    """Symmetries of the n-gon: order 2n on n points (n >= 3)."""
    if n < 3:
        raise ValueError("dihedral(n) needs n >= 3")
    _check_degree(n)
    rot = Perm.from_cycles(n, tuple(range(n)))
    ref = Perm([(n - i) % n for i in range(n)])
    return PermGroup(n, [rot, ref], name=f"dihedral{n}", order=2 * n)


def direct_product(G: PermGroup, H: PermGroup) -> PermGroup:
    """G x H acting on the disjoint union of the two point sets."""
    n, m = G.degree, H.degree
    _check_degree(n + m)
    gens = [Perm(list(g.images) + list(range(n, n + m)), validate=False)
            for g in G.generators]
    gens += [Perm(list(range(n)) + [n + x for x in h.images], validate=False)
             for h in H.generators]
    return PermGroup(n + m, gens,
                     name=f"({G.name or 'G'}x{H.name or 'H'})",
                     order=G.order() * H.order())


def wreath(G: PermGroup, n: int) -> PermGroup:
    """G wr cyclic(n): n disjoint copies of G permuted cyclically."""
    d = G.degree
    _check_degree(d * n)
    total = d * n
    gens = [Perm(list(g.images) + list(range(d, total)), validate=False)
            for g in G.generators]
    shift = Perm([(x + d) % total for x in range(total)], validate=False)
    gens.append(shift)
    return PermGroup(total, gens, name=f"({G.name or 'G'}wr{n})",
                     order=G.order() ** n * n)


# -- projective and linear groups ---------------------------------------------


def psl2(p: int) -> PermGroup:
    """PSL(2,p) on the p+1 points of the projective line (p an odd prime,
    or p=2 where PSL(2,2) = sym(3))."""
    from .arith import is_prime
    if not is_prime(p):
        raise ValueError("psl2(p) needs p prime")
    _check_degree(p + 1)
    inf = p
    shift = Perm([(z + 1) % p for z in range(p)] + [inf], validate=False)
    images = []
    for z in range(p):
        images.append(inf if z == 0 else (-pow(z, -1, p)) % p)
    images.append(0)
    flip = Perm(images)
    return PermGroup(p + 1, [shift, flip], name=f"psl2_{p}",
                     order=6 if p == 2 else p * (p * p - 1) // 2)


def gl_order(n: int, q: int) -> int:
    out = 1
    for i in range(n):
        out *= q ** n - q ** i
    return out


def _gl_generator_matrices(n: int, q: int) -> list[tuple]:
    field = gf(q)
    mats = []
    if q > 2:
        alpha = field.primitive_element()
        diag = [list(row) for row in mat_identity(n)]
        diag[0][0] = alpha
        mats.append(tuple(tuple(r) for r in diag))
    if n >= 2:
        trans = [list(row) for row in mat_identity(n)]
        trans[0][1] = 1
        mats.append(tuple(tuple(r) for r in trans))
        cyc = [[0] * n for _ in range(n)]
        for i in range(n):
            cyc[i][(i + 1) % n] = 1
        mats.append(tuple(tuple(r) for r in cyc))
        if n == 2:
            # the cycle equals a transposition; add the lower transvection
            low = [list(row) for row in mat_identity(n)]
            low[1][0] = 1
            mats.append(tuple(tuple(r) for r in low))
    return mats


def _check_gl(n: int, q: int) -> None:
    if q > 9 or n > 6:
        raise ValueError("gl(n,q) supports q <= 9 and n <= 6")
    _check_degree(q ** n - 1)


def gl(n: int, q: int) -> PermGroup:
    """GL(n,q) acting on the q^n - 1 nonzero row vectors (q <= 9, n <= 6).

    States the order |GL_n(q)|: the generators are invertible matrices, so
    they generate at most that many elements, and the chain certifies the
    order by reaching it (it raises VerificationError if they generate
    fewer; see pihall.groups)."""
    _check_gl(n, q)
    field = gf(q)
    gens = [Perm(linalg.matrix_to_perm_images(field, n, M), validate=False)
            for M in _gl_generator_matrices(n, q)]
    return PermGroup(q ** n - 1, gens, name=f"gl{n}_{q}",
                     order=gl_order(n, q))


# -- flags and their stabilizers ------------------------------------------------


def standard_flag_colors(n: int, q: int, dims) -> list[int]:
    """Color of each nonzero-vector point: the first step of the standard
    flag (coordinate subspaces of cumulative dimension) containing it."""
    if sum(dims) != n:
        raise ValueError("dims must sum to n")
    cuts = []
    total = 0
    for d in dims:
        total += d
        cuts.append(total)
    colors = []
    for point in range(q ** n - 1):
        v = linalg.point_to_vec(q, n, point)
        top = max(i for i, x in enumerate(v) if x)
        colors.append(next(k for k, cut in enumerate(cuts) if top < cut))
    return colors


def parabolic_order(dims, q: int) -> int:
    """Closed-form order of the standard-flag stabilizer."""
    unipotent = sum(dims[i] * dims[j] for i in range(len(dims))
                    for j in range(i + 1, len(dims)))
    out = q ** unipotent
    for d in dims:
        out *= gl_order(d, q)
    return out


def parabolic_generator_matrices(n: int, q: int, dims) -> list[tuple]:
    """Block-lower-triangular generators of the standard-flag stabilizer:
    each block's GL generators on the diagonal, then one elementary
    transvection per adjacent pair of blocks, M[cut][cut-1] = 1 (a row of
    the later block, a column of the earlier one)."""
    mats = []
    start = 0
    for d in dims:
        for B in _gl_generator_matrices(d, q):
            M = [list(row) for row in mat_identity(n)]
            for i in range(d):
                M[start + i][start:start + d] = B[i]
            mats.append(tuple(map(tuple, M)))
        start += d
    for cut in accumulate(dims[:-1]):
        M = [list(row) for row in mat_identity(n)]
        M[cut][cut - 1] = 1
        mats.append(tuple(map(tuple, M)))
    return mats


def flag_stabilizer(n: int, q: int, dims) -> PermGroup:
    """Stabilizer in gl(n,q) of the standard flag with the given dimension
    sequence, from closed-form parabolic generators, with no search.

    Vectors are rows acting by v -> v*M, so M preserves every flag step
    exactly when it is block lower triangular.  The generators are
    certified to map each colour class of `standard_flag_colors` onto
    itself, so they lie in the parabolic subgroup, whose order
    `parabolic_order` is therefore an upper bound; the group states it,
    and its chain certifies it by reaching it (VerificationError if the
    generators generate less; see pihall.groups)."""
    dims = tuple(dims)
    _check_gl(n, q)
    field = gf(q)
    colors = standard_flag_colors(n, q, dims)
    gens = [Perm(linalg.matrix_to_perm_images(field, n, M), validate=False)
            for M in parabolic_generator_matrices(n, q, dims)]
    certify(all(colors[y] == colors[x] for g in gens
                for x, y in enumerate(g.images)),
            "a parabolic generator moves a colour class of the flag")
    H = PermGroup(q ** n - 1, gens,
                  name=f"flag{n}_{q}_" + "".join(map(str, dims)),
                  order=parabolic_order(dims, q))
    H.chain()   # certifies the stated order now, or raises
    return H


# -- GL5(2) extended by the inverse-transpose involution ------------------------


def _block_swap(block: int) -> Perm:
    """The involution exchanging point x and point x + block."""
    return Perm([x + block for x in range(block)] + list(range(block)),
                validate=False)


class GLHat:
    """GL_n(q) acting on vectors + covectors, extended by the block swap.

    ``group`` is the degree-2(q^n-1) extension, ``inner`` the image of
    GL_n(q) inside it, ``iota`` the swapping involution.  Conjugation by
    iota realizes x -> transpose-inverse on the matrix group.

    Both groups state their orders.  ``inner`` is the image of GL_n(q)
    under M -> embed_matrix(M), so it has at most |GL_n(q)| elements.
    ``group`` states 2|GL_n(q)| only after the constructor certifies, with
    no stabilizer chain, that iota is an involution and that
    iota embed_matrix(M) iota = embed_matrix(M^-T) for each generator
    matrix M.  Then iota normalizes ``inner`` (each conjugated generator is
    the image of an invertible matrix), so ``inner`` has index at most 2 in
    ``group``.  Each chain then certifies its stated order by reaching it
    (see pihall.groups).
    """

    def __init__(self, n: int, q: int):
        field = gf(q)
        block = q ** n - 1
        self.n, self.block = n, block
        self._field = field
        mats = _gl_generator_matrices(n, q)
        inner_gens = [self.embed_matrix(M) for M in mats]
        iota = _block_swap(block)
        self.iota = iota
        self.inner = PermGroup(2 * block, inner_gens, name=f"gl{n}_{q}@hat",
                               order=gl_order(n, q))
        duals = [self.embed_matrix(mat_transpose(mat_inverse(field, M)))
                 for M in mats]
        certify((iota * iota).is_identity()
                and all(iota * g * iota == d
                        for g, d in zip(inner_gens, duals)),
                "the block swap is not an involution conjugating each "
                "generator to its inverse transpose")
        self.group = PermGroup(2 * block, inner_gens + [iota],
                               name=f"gl{n}_{q}_hat",
                               order=2 * gl_order(n, q))

    def embed_matrix(self, M) -> Perm:
        """Degree-2(q^n-1) permutation: v -> v*M on the vector block,
        c -> M^-1*c on the covector block."""
        field, n, block = self._field, self.n, self.block
        vec_part = linalg.matrix_to_perm_images(field, n, M)
        Minv_t = mat_transpose(mat_inverse(field, M))
        # column action c -> M^-1 c equals row action c -> c * (M^-1)^T
        covec_part = linalg.matrix_to_perm_images(field, n, Minv_t)
        return Perm(list(vec_part) + [x + block for x in covec_part],
                    validate=False)

    def restrict_perm(self, g: Perm) -> Perm:
        """Restriction of a block-preserving element to the vector block."""
        if any(x >= self.block for x in g.images[:self.block]):
            raise ValueError("element does not preserve the vector block")
        return Perm(g.images[:self.block])

    def restrict_subgroup(self, H: PermGroup) -> PermGroup:
        return PermGroup(self.block,
                         [self.restrict_perm(g) for g in H.generators])


def gl52_hat() -> GLHat:
    """GL5(2) with its dual-paired action and the transpose-inverse
    involution, degree 62; the carrier of the worked example."""
    return GLHat(5, 2)


# -- named builders and the corpus manifest --------------------------------------


def build_from_spec(spec: dict) -> PermGroup:
    """Rebuild a group from its manifest builder record (bit-exact)."""
    kind = spec["kind"]
    if kind == "sym":
        return sym(spec["n"])
    if kind == "alt":
        return alt(spec["n"])
    if kind == "cyclic":
        return cyclic(spec["n"])
    if kind == "dihedral":
        return dihedral(spec["n"])
    if kind == "psl2":
        return psl2(spec["p"])
    if kind == "gl":
        return gl(spec["n"], spec["q"])
    if kind == "gl_hat":
        return GLHat(spec["n"], spec["q"]).group
    if kind == "direct_product":
        return direct_product(build_from_spec(spec["a"]),
                              build_from_spec(spec["b"]))
    if kind == "wreath":
        return wreath(build_from_spec(spec["base"]), spec["n"])
    raise ValueError(f"unknown builder kind {kind!r}")


ZOO_NAMES: dict[str, dict] = {
    "sym3": {"kind": "sym", "n": 3},
    "sym4": {"kind": "sym", "n": 4},
    "sym5": {"kind": "sym", "n": 5},
    "sym6": {"kind": "sym", "n": 6},
    "alt4": {"kind": "alt", "n": 4},
    "alt5": {"kind": "alt", "n": 5},
    "alt6": {"kind": "alt", "n": 6},
    "cyclic12": {"kind": "cyclic", "n": 12},
    "dihedral4": {"kind": "dihedral", "n": 4},
    "dihedral6": {"kind": "dihedral", "n": 6},
    "psl2_7": {"kind": "psl2", "p": 7},
    "psl2_11": {"kind": "psl2", "p": 11},
    "psl2_13": {"kind": "psl2", "p": 13},
    "gl3_2": {"kind": "gl", "n": 3, "q": 2},
    "gl4_2": {"kind": "gl", "n": 4, "q": 2},
    "gl5_2": {"kind": "gl", "n": 5, "q": 2},
    "gl52hat": {"kind": "gl_hat", "n": 5, "q": 2},
    "sym3wr2": {"kind": "wreath", "base": {"kind": "sym", "n": 3}, "n": 2},
    "sym4wr2": {"kind": "wreath", "base": {"kind": "sym", "n": 4}, "n": 2},
    "alt5wr2": {"kind": "wreath", "base": {"kind": "alt", "n": 5}, "n": 2},
    "alt5xalt5": {"kind": "direct_product", "a": {"kind": "alt", "n": 5},
                  "b": {"kind": "alt", "n": 5}},
    "alt5xsym4": {"kind": "direct_product", "a": {"kind": "alt", "n": 5},
                  "b": {"kind": "sym", "n": 4}},
    "psl2_7xc2": {"kind": "direct_product", "a": {"kind": "psl2", "p": 7},
                  "b": {"kind": "cyclic", "n": 2}},
}


def build_named(name: str) -> PermGroup:
    if name not in ZOO_NAMES:
        raise KeyError(f"unknown zoo name {name!r}")
    G = build_from_spec(ZOO_NAMES[name])
    G.name = name
    return G


# (zoo name, prime set) pairs the corpus manifest is bootstrapped from
CORPUS_PAIRS: list[tuple[str, str]] = [
    ("sym3", "2,3"), ("sym3", "2"), ("sym3", "3"),
    ("sym4", "2,3"), ("sym4", "2"), ("sym4", "3"),
    ("alt4", "2"), ("alt4", "3"),
    ("dihedral4", "2"),
    ("dihedral6", "2"), ("dihedral6", "3"), ("dihedral6", "2,3"),
    ("cyclic12", "2,3"), ("cyclic12", "3"),
    ("sym3wr2", "2,3"), ("sym3wr2", "2"), ("sym3wr2", "3"),
    ("sym4wr2", "2,3"), ("sym4wr2", "2"),
    ("alt5", "2,3"), ("alt5", "2,5"), ("alt5", "3,5"),
    ("alt5", "2,3,5"), ("alt5", "5"),
    ("sym5", "2,3"), ("sym5", "2,5"), ("sym5", "3,5"),
    ("alt6", "2,3"), ("alt6", "3,5"),
    ("sym6", "2,3"), ("sym6", "2,5"),
    ("psl2_7", "2,3"), ("psl2_7", "2,7"), ("psl2_7", "3,7"),
    ("psl2_11", "2,3"), ("psl2_11", "2,5"),
    ("psl2_13", "2,3"), ("psl2_13", "2,7"),
    ("gl3_2", "2,3"), ("gl3_2", "3,7"),
    ("gl4_2", "2,3"),
    ("alt5xalt5", "2,3"),
    ("alt5xsym4", "2,3"),
    ("psl2_7xc2", "2,3"),
    ("alt5wr2", "2,3"),
]


def corpus_manifest() -> list[dict]:
    """The frozen corpus manifest: every expected verdict was generated by
    an oracle bootstrap run (see pihall.bootstrap), never written by hand."""
    import json
    from importlib import resources
    data = resources.files("pihall").joinpath("data/corpus_manifest.json")
    with data.open("r", encoding="utf-8") as fh:
        return json.load(fh)["entries"]


def group_file_dict(name: str) -> dict:
    """The JSON group-file form of a named zoo group."""
    G = build_named(name)
    return {"name": name, "degree": G.degree,
            "generators": [list(g.images) for g in G.generators]}


# -- the dual-flag conjugator ---------------------------------------------------


def reversal_matrix(n: int) -> tuple:
    """The coordinate reversal w0: e_i -> e_(n-1-i), its own inverse and
    transpose."""
    return tuple(tuple(1 if j == n - 1 - i else 0 for j in range(n))
                 for i in range(n))


def dual_flag_conjugator(H_a: PermGroup, H_b: PermGroup):
    """w0, the coordinate reversal acting on the 31 nonzero vectors of
    GF(2)^5, when it conjugates H_a onto H_b; None when the orbit-length
    multisets of H_a and H_b differ, a non-conjugacy certificate.

    H_a is meant to be the transpose-inverse image of a standard flag
    stabilizer P_d and H_b a standard one.  The image of the
    block-lower-triangular P_d is block upper triangular: the stabilizer
    of the flag built on the last coordinates, with dimension sequence d.
    w0 maps that flag onto the standard flag of the reversed sequence, so
    it conjugates the image onto P_(d reversed).  That every conjugated
    generator of H_a lies in H_b is certified (VerificationError if not)."""
    if sorted(map(len, H_a.orbits())) != sorted(map(len, H_b.orbits())):
        return None
    w0 = Perm(linalg.matrix_to_perm_images(gf(2), 5, reversal_matrix(5)),
              validate=False)
    w0_inv = w0.inverse()
    certify(all(H_b.contains(w0_inv * h * w0) for h in H_a.generators),
            "w0 does not conjugate H_a onto H_b")
    return w0
