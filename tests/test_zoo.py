import random

import pytest

from conftest import chain_shape, chains_built
from pihall import zoo
from pihall.backtrack import partition_stabilizer
from pihall.groups import PermGroup, VerificationError, _Chain
from pihall.linalg import gf, mat_identity, mat_inverse, mat_transpose, \
    matrix_to_perm_images, point_to_vec
from pihall.perms import Perm

GL_PAIRS = [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2), (5, 2)]


@pytest.mark.parametrize("build,expect", [
    (lambda: zoo.sym(4), 24),
    (lambda: zoo.alt(5), 60),
    (lambda: zoo.cyclic(12), 12),
    (lambda: zoo.dihedral(4), 8),
    (lambda: zoo.dihedral(6), 12),
    (lambda: zoo.direct_product(zoo.alt(5), zoo.alt(5)), 3600),
    (lambda: zoo.wreath(zoo.sym(3), 2), 72),
    (lambda: zoo.psl2(7), 168),
    (lambda: zoo.psl2(11), 660),
    (lambda: zoo.psl2(13), 1092),
    (lambda: zoo.gl(3, 2), 168),
    (lambda: zoo.gl(5, 2), 9999360),
])
def test_constructor_orders(build, expect):
    # the chain's order: order() returns a stated order as given
    assert build().chain().order() == expect


@pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2),
                                 (3, 3), (2, 8), (2, 9), (4, 2)])
def test_gl_orders_closed_form(n, q):
    assert zoo.gl(n, q).order() == zoo.gl_order(n, q)


def test_field_tables():
    for q in (2, 3, 4, 5, 7, 8, 9):
        F = gf(q)
        for a in range(1, q):
            assert F.mul[a][F.inv[a]] == 1
        for a in range(q):
            assert F.add[a][F.neg[a]] == 0


def test_matrix_inverse_round_trip():
    # row i of M times M^-1 is the i-th unit vector
    F = gf(4)
    M = ((1, 2, 0), (0, 1, 3), (2, 0, 1))
    M_inv = mat_inverse(F, M)
    assert tuple(_vec_mat(F, row, M_inv) for row in M) == mat_identity(3)


def _point_index(q, v):
    # the nonzero vector's base-q digits, least significant first, less 1
    return sum(d * q ** i for i, d in enumerate(v)) - 1


def test_vector_point_indexing_least_significant_first():
    assert point_to_vec(2, 3, 0) == (1, 0, 0)
    assert point_to_vec(2, 3, 1) == (0, 1, 0)
    assert point_to_vec(2, 3, 2) == (1, 1, 0)
    assert point_to_vec(2, 3, 5) == (0, 1, 1)
    for q, n in ((2, 3), (3, 2), (4, 2)):
        assert [_point_index(q, point_to_vec(q, n, p))
                for p in range(q ** n - 1)] == list(range(q ** n - 1))


def test_deterministic_rebuild():
    for name in zoo.ZOO_NAMES:
        a = zoo.build_named(name)
        b = zoo.build_named(name)
        assert [g.images for g in a.generators] == \
               [g.images for g in b.generators]


def test_flag_stabilizer_orders():
    assert zoo.flag_stabilizer(5, 2, (5,)).order() == zoo.gl(5, 2).order()
    for dims in [(2, 1, 2), (1, 2, 2), (2, 2, 1)]:
        H = zoo.flag_stabilizer(5, 2, dims)
        assert H.order() == 9216 == zoo.parabolic_order(dims, 2)
    assert zoo.parabolic_order((2, 1, 2), 2) == 36 * 256


def test_flag_stabilizer_small_case():
    H = zoo.flag_stabilizer(3, 2, (1, 2))
    assert H.order() == zoo.parabolic_order((1, 2), 2) == 24


def test_flag_stabilizer_order_mismatch_fails_verification(monkeypatch):
    monkeypatch.setattr(zoo, "parabolic_order", lambda dims, q: 48)
    with pytest.raises(VerificationError):
        zoo.flag_stabilizer(3, 2, (1, 2))


def _compositions(n):
    if n == 0:
        yield ()
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            yield (first,) + rest


FLAG_CASES = [(n, q, dims) for q in (2, 3) for n in range(2, 5)
              for dims in _compositions(n) if len(dims) > 1] + \
             [(5, 2, dims) for dims in ((2, 1, 2), (1, 2, 2), (2, 2, 1))]


def test_flag_stabilizer_is_the_searched_colour_stabilizer():
    # the closed form against an independent backtrack search of gl(n,q)
    # for the subgroup preserving every colour class
    assert len(FLAG_CASES) == 25
    for n, q, dims in FLAG_CASES:
        H = zoo.flag_stabilizer(n, q, dims)
        colors = zoo.standard_flag_colors(n, q, dims)
        S = partition_stabilizer(zoo.gl(n, q), colors)
        assert S.order() == zoo.parabolic_order(dims, q), (n, q, dims)
        assert H.same_group_as(S), (n, q, dims)


def test_flag_generator_off_the_block_triangle_fails_verification(
        monkeypatch):
    # an upper transvection moves a vector of the first flag step out of it
    closed_form = zoo.parabolic_generator_matrices

    def with_upper(n, q, dims):
        upper = [list(row) for row in mat_identity(n)]
        upper[0][n - 1] = 1
        return closed_form(n, q, dims) + [tuple(map(tuple, upper))]

    monkeypatch.setattr(zoo, "parabolic_generator_matrices", with_upper)
    with pytest.raises(VerificationError, match="colour class"):
        zoo.flag_stabilizer(3, 2, (1, 2))


def test_flag_stabilizer_missing_transvection_fails_verification(
        monkeypatch):
    # without the last transvection the generators stay inside the
    # parabolic subgroup but generate less than its stated order
    closed_form = zoo.parabolic_generator_matrices
    monkeypatch.setattr(zoo, "parabolic_generator_matrices",
                        lambda n, q, dims: closed_form(n, q, dims)[:-1])
    with pytest.raises(VerificationError, match="stated order"):
        zoo.flag_stabilizer(5, 2, (2, 1, 2))


def test_gl52_hat_structure():
    hat = zoo.gl52_hat()
    assert hat.group.degree == 62
    assert hat.group.order() == 2 * 9999360
    assert (hat.iota * hat.iota).is_identity()
    assert hat.inner.order() == 9999360
    # restriction of the inner copy to the vector block is gl(5,2)
    restricted = hat.restrict_subgroup(hat.inner)
    assert [g.images for g in restricted.generators] == \
           [g.images for g in zoo.gl(5, 2).generators]


def test_gl_hat_builds_no_chain():
    # the swap is certified on generator matrices; the first chain built is
    # the one a caller asks for
    built, hat = chains_built(lambda: zoo.GLHat(5, 2), stated=True)
    assert built == []
    assert hat.group.chain().order() == 2 * 9999360


def test_iota_conjugation_is_inverse_transpose():
    hat = zoo.gl52_hat()
    F = gf(2)
    for M in zoo._gl_generator_matrices(5, 2):
        emb = hat.embed_matrix(M)
        conj = hat.iota.inverse() * emb * hat.iota
        assert conj == hat.embed_matrix(mat_transpose(mat_inverse(F, M)))
        assert hat.inner.contains(conj)


def _dual_image(hat, dims):
    # the iota-conjugate of the lifted flag stabilizer, on the vectors
    conj = [hat.iota.inverse() * hat.embed_matrix(M) * hat.iota
            for M in zoo.parabolic_generator_matrices(5, 2, dims)]
    return hat.restrict_subgroup(PermGroup(2 * hat.block, conj))


W0 = Perm(matrix_to_perm_images(gf(2), 5, zoo.reversal_matrix(5)))


def test_dual_flag_conjugator_is_w0_on_every_dual_image():
    # the transpose-inverse image of P_d is conjugate by w0 to the
    # stabilizer of the reversed flag, for every composition d of 5
    hat = zoo.gl52_hat()
    compositions = list(_compositions(5))
    assert len(compositions) == 16
    for dims in compositions:
        image = _dual_image(hat, dims)
        target = zoo.flag_stabilizer(5, 2, dims[::-1])
        assert zoo.dual_flag_conjugator(image, target) == W0, dims
        assert all(target.contains(h.conjugate(W0))
                   for h in image.generators), dims


def test_dual_flag_conjugator_none_exactly_when_orbit_multisets_differ():
    # an orbit of P_e has 2^c(2^d - 1) points, c the dimension before its
    # step and d the step's: the multiset determines e, so only the
    # reversed composition shares the image's multiset
    hat = zoo.gl52_hat()
    compositions = list(_compositions(5))
    images = {dims: _dual_image(hat, dims) for dims in compositions}
    flags = {dims: zoo.flag_stabilizer(5, 2, dims) for dims in compositions}
    for d, image in images.items():
        for e, target in flags.items():
            differ = sorted(map(len, image.orbits())) != \
                sorted(map(len, target.orbits()))
            assert differ == (e != d[::-1]), (d, e)
            g = zoo.dual_flag_conjugator(image, target)
            assert (g is None) == differ, (d, e)


def test_dual_flag_conjugator_between_types():
    H1 = zoo.flag_stabilizer(5, 2, (2, 1, 2))
    H2 = zoo.flag_stabilizer(5, 2, (1, 2, 2))
    assert zoo.dual_flag_conjugator(H1, H2) is None


def test_dual_flag_conjugator_on_conjugate():
    # a random GL5(2)-conjugate of P_d shares its orbit multiset but is no
    # dual image: w0 does not carry it onto P_d, and the certificate says so
    G = zoo.gl(5, 2)
    H1 = zoo.flag_stabilizer(5, 2, (2, 1, 2))
    t = G.random_element(9)
    Ht = type(H1)(31, [h.conjugate(t) for h in H1.generators])
    assert sorted(map(len, Ht.orbits())) == sorted(map(len, H1.orbits()))
    with pytest.raises(VerificationError, match="w0"):
        zoo.dual_flag_conjugator(Ht, H1)


def test_dual_flag_conjugator_failure_fails_verification(monkeypatch):
    # a wrong closed form (the identity in place of w0) must not pass as a
    # conjugator between a dual image and the reversed flag's stabilizer
    image = _dual_image(zoo.gl52_hat(), (1, 2, 2))
    H3 = zoo.flag_stabilizer(5, 2, (2, 2, 1))
    assert zoo.dual_flag_conjugator(image, H3) == W0
    monkeypatch.setattr(zoo, "reversal_matrix", mat_identity)
    with pytest.raises(VerificationError):
        zoo.dual_flag_conjugator(image, H3)


def test_build_from_spec_matches_names():
    for name, spec in zoo.ZOO_NAMES.items():
        G = zoo.build_from_spec(spec)
        assert G.degree == zoo.build_named(name).degree


def test_corpus_manifest_is_oracle_stamped():
    entries = zoo.corpus_manifest()
    assert len(entries) >= 30
    for e in entries:
        assert e["provenance"].startswith("oracle-bootstrap")
        assert e["order"] <= 1_000_000
        assert set(e["expected"]) == {"E", "C", "D", "k"}


def test_group_file_dict_round_trip():
    data = zoo.group_file_dict("alt5")
    G = zoo.build_named("alt5")
    assert data["degree"] == 5
    rebuilt = [Perm(images) for images in data["generators"]]
    assert rebuilt == list(G.generators)


def test_degree_budget_guard():
    with pytest.raises(ValueError):
        zoo.sym(20_000)
    with pytest.raises(ValueError):
        zoo.gl(6, 9)


# -- closed-form orders: stated, then certified by the chain -------------------


def _assert_matches_unstated(G, order):
    # the chain stopped at the stated order is the chain full verification
    # builds: same order and, per level, base point, generators and orbit
    assert G.order() == order
    stated = G.chain()
    full = _Chain(G.degree, G.gen_tuples())
    assert stated.order() == full.order() == order
    assert chain_shape(stated) == chain_shape(full)


@pytest.mark.parametrize("name", sorted({name for name, _ in zoo.CORPUS_PAIRS}))
def test_corpus_groups_state_their_certified_order(name):
    G = zoo.build_named(name)
    assert G._order is not None
    _assert_matches_unstated(G, G.order())


@pytest.mark.parametrize("build,expect", [
    (lambda: zoo.sym(1), 1), (lambda: zoo.sym(2), 2),
    (lambda: zoo.alt(2), 1), (lambda: zoo.alt(3), 3),
    (lambda: zoo.cyclic(1), 1), (lambda: zoo.cyclic(2), 2),
    (lambda: zoo.dihedral(3), 6), (lambda: zoo.psl2(2), 6),
    (lambda: zoo.psl2(3), 12), (lambda: zoo.psl2(5), 60),
    (lambda: zoo.wreath(zoo.cyclic(2), 3), 24),
    (lambda: zoo.direct_product(zoo.psl2(2), zoo.alt(4)), 72),
])
def test_small_builders_state_their_certified_order(build, expect):
    _assert_matches_unstated(build(), expect)


@pytest.mark.parametrize("n,q", GL_PAIRS + [(2, 5), (2, 8), (2, 9)])
def test_gl_stated_order_chain_matches_unstated(n, q):
    _assert_matches_unstated(zoo.gl(n, q), zoo.gl_order(n, q))


@pytest.mark.parametrize("n,q", [(2, 3), (3, 2), (5, 2)])
def test_gl_hat_stated_orders_match_unstated(n, q):
    hat = zoo.GLHat(n, q)
    _assert_matches_unstated(hat.inner, zoo.gl_order(n, q))
    _assert_matches_unstated(hat.group, 2 * zoo.gl_order(n, q))


@pytest.mark.parametrize("n,q", GL_PAIRS)
def test_proper_subgroup_stating_gl_order_fails_verification(n, q):
    G = zoo.gl(n, q)
    H = PermGroup(G.degree, G.generators[:1], order=zoo.gl_order(n, q))
    with pytest.raises(VerificationError):
        H.chain()


def test_gl_hat_certifies_the_swap(monkeypatch):
    block = 2 ** 3 - 1
    swap = zoo._block_swap(block)
    tau = Perm.from_cycles(2 * block, (0, 1))
    # an involution that moves the block structure off the linear one, a
    # swap that is no involution, and the identity, an involution that
    # normalizes the inner copy but conjugates embed_matrix(M) to itself,
    # not to embed_matrix(M^-T)
    for bad in (tau * swap * tau, swap * tau, Perm.identity(2 * block)):
        monkeypatch.setattr(zoo, "_block_swap", lambda b, bad=bad: bad)
        with pytest.raises(VerificationError):
            zoo.GLHat(3, 2)


# -- matrix actions -----------------------------------------------------------


def _invertible_matrices(n, q, count, rng):
    F = gf(q)
    out = []
    while len(out) < count:
        M = tuple(tuple(rng.randrange(q) for _ in range(n)) for _ in range(n))
        try:
            mat_inverse(F, M)
        except ValueError:
            continue
        out.append(M)
    return out


def _vec_mat(F, v, M):
    # v*M coordinate by coordinate: sum over i of v[i]*M[i][j]
    out = []
    for j in range(len(M[0])):
        s = 0
        for i, vi in enumerate(v):
            s = F.add[s][F.mul[vi][M[i][j]]]
        out.append(s)
    return tuple(out)


@pytest.mark.parametrize("n,q", GL_PAIRS)
def test_matrix_to_perm_images_by_linearity(n, q):
    F = gf(q)
    mats = zoo._gl_generator_matrices(n, q) + \
        _invertible_matrices(n, q, 4, random.Random(n * 10 + q))
    for M in mats:
        assert matrix_to_perm_images(F, n, M) == tuple(
            _point_index(q, _vec_mat(F, point_to_vec(q, n, p), M))
            for p in range(q ** n - 1))
    singular = (tuple([0] * n),) + tuple(mat_identity(n)[1:])
    with pytest.raises(ValueError):
        matrix_to_perm_images(F, n, singular)
