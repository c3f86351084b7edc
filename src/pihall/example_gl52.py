"""End-to-end run of the GL5(2) extension example.

Verifies, on the degree-62 dual-paired action: the order factorization of
GL5(2); that the three block-flag stabilizers are {2,3}-Hall, pairwise
non-conjugate and self-normalizing; that the transpose-inverse involution
fixes the first class and swaps the other two; and that the normalizer of
the first one in the extension is a {2,3}-Hall subgroup there meeting the
inner copy exactly in it.  Exhaustiveness of the three classes is beyond
desk scale and reported as an assumption, not a result.

The flag stabilizers come from closed-form parabolic generators with a
colour certificate, at their stated order (see zoo.flag_stabilizer), not
from a search; the one backtrack search left is that normalizer's.  The
lifts to the extension are the images of those generator matrices under
GLHat.embed_matrix, and the element that carries a transpose-inverse
image back onto a flag stabilizer is the coordinate reversal w0 (see
zoo.dual_flag_conjugator), certified on generators.

On success the pipeline can record the extension's conjugacy verdict and
Hall subgroup in a SpecialCaseRegistry the caller hands it; passing that
object to `cpi_reduce(known=...)` lets the generic reduction decide the
extension, past the oracle budget.
"""

from __future__ import annotations

from . import zoo
from .arith import PiSet, pi_part
from .config import DEFAULT_BUDGETS, Budgets
from .groups import PermGroup
from .hall import is_hall
from .perms import Perm
from .registry import SpecialCaseRegistry

PI = PiSet([2, 3])
DIMS = [(2, 1, 2), (1, 2, 2), (2, 2, 1)]


class ExampleFailure(AssertionError):
    """A named claim of the example failed verification."""

    def __init__(self, claim: str, detail: str):
        super().__init__(f"{claim}: {detail}")
        self.claim = claim


def _claim(report: dict, name: str, ok: bool, detail: str, **data) -> None:
    report["claims"].append({"name": name, "ok": bool(ok),
                             "detail": detail, **data})
    if not ok:
        raise ExampleFailure(name, detail)


def _iota_image(hat: zoo.GLHat, lifted: list[Perm]) -> PermGroup:
    """Restriction to the vector block of the iota-conjugate of the
    subgroup of the inner copy that the lifted generators generate."""
    conj = [hat.iota.inverse() * g * hat.iota for g in lifted]
    return hat.restrict_subgroup(PermGroup(2 * hat.block, conj))


def _self_normalizing_certificate(G: PermGroup, H: PermGroup,
                                  colors: list[int]) -> bool:
    """N_G(H) = H when H's orbit partition equals its defining color
    partition with pairwise distinct class sizes: every normalizing element
    permutes the orbits, distinct sizes pin each one, and the partition
    stabilizer is H itself."""
    orbit_cells = {frozenset(o) for o in H.orbits()}
    color_cells = {}
    for point, c in enumerate(colors):
        color_cells.setdefault(c, set()).add(point)
    if orbit_cells != {frozenset(v) for v in color_cells.values()}:
        return False
    sizes = sorted(len(o) for o in orbit_cells)
    return len(set(sizes)) == len(sizes)


def run_example(budgets: Budgets = DEFAULT_BUDGETS, seed: int = 1,
                known: SpecialCaseRegistry | None = None) -> dict:
    """Execute every verification of the example; returns the report dict.
    When `known` is given, the verified verdict and Hall subgroup of the
    extension are registered in it.

    Raises ExampleFailure at the first claim that does not hold."""
    report: dict = {"pi": PI.key(), "claims": [],
                    "exhaustiveness":
                        "the three flag-stabilizer classes are assumed "
                        "exhaustive (classification input); not verified "
                        "at desk scale"}

    # Both groups state their closed-form orders, which order() returns
    # as given; the claims read the orders their chains certify.
    G = zoo.gl(5, 2)
    expected = 2 ** 10 * 3 ** 2 * 5 * 7 * 31
    order = G.chain().order()
    _claim(report, "base-order-factorization", order == expected,
           f"|GL5(2)| = {order} = 2^10*3^2*5*7*31", order=order)

    hat = zoo.gl52_hat()
    order = hat.group.chain().order()
    _claim(report, "extension-order", order == 2 * expected,
           f"|extension| = {order} = 2*|GL5(2)|", order=order)
    _claim(report, "involution", (hat.iota * hat.iota).is_identity(),
           "the block swap is an involution")

    reps = [zoo.flag_stabilizer(5, 2, dims) for dims in DIMS]
    hall_order = pi_part(G.order(), PI)
    for H, dims in zip(reps, DIMS):
        _claim(report, f"hall-{''.join(map(str, dims))}",
               H.order() == hall_order == 9216 and is_hall(G, H, PI),
               f"flag stabilizer {dims} is a {{2,3}}-Hall subgroup of "
               f"order {H.order()}", dims=list(dims), order=H.order())
        colors = zoo.standard_flag_colors(5, 2, dims)
        _claim(report, f"self-normalizing-{''.join(map(str, dims))}",
               _self_normalizing_certificate(G, H, colors),
               "normalizer equals the stabilizer (distinct orbit sizes pin "
               "the flag)", orbit_sizes=sorted(map(len, H.orbits())))

    signatures = [tuple(sorted(map(len, H.orbits()))) for H in reps]
    _claim(report, "pairwise-non-conjugate",
           len(set(signatures)) == 3,
           "orbit-length multisets are pairwise distinct certificates",
           signatures=[list(s) for s in signatures])

    H1, H2, H3 = reps
    # each flag's parabolic generator matrices, lifted to the hat
    lifts = [[hat.embed_matrix(M)
              for M in zoo.parabolic_generator_matrices(5, 2, dims)]
             for dims in DIMS]
    images = [_iota_image(hat, lifted) for lifted in lifts]
    g1 = zoo.dual_flag_conjugator(images[0], H1)
    _claim(report, "involution-fixes-first-class", g1 is not None,
           "the image of the first representative is conjugate back to it")
    _claim(report, "involution-moves-second-class",
           zoo.dual_flag_conjugator(images[1], H2) is None,
           "the image of the second representative has the dual dimension "
           "sequence, a non-conjugacy certificate")
    g23 = zoo.dual_flag_conjugator(images[1], H3)
    g32 = zoo.dual_flag_conjugator(images[2], H2)
    _claim(report, "involution-swaps-classes", g23 is not None and g32 is not None,
           "the involution exchanges the second and third classes")

    # the Hall subgroup of the extension over the first class.  The lift
    # states |H1|: M -> embed_matrix(M) is a homomorphism, so it maps the
    # group of H1's matrices onto at most |H1| elements.  g1 is w0, and x
    # is iota followed by the lift of w0's matrix
    H1_lift = PermGroup(hat.group.degree, lifts[0], name="hall212@hat",
                        order=H1.order())
    x = hat.iota * hat.embed_matrix(zoo.reversal_matrix(5))
    x_inv = x.inverse()
    normalizes = all(H1_lift.contains(x_inv * h * x)
                     for h in H1_lift.generators)
    _claim(report, "corrected-swap-normalizes", normalizes,
           "the flag-corrected involution normalizes the lifted subgroup")
    # an involution normalizing H1_lift extends it by index at most 2, so
    # H states 2|H1_lift|; the claims read the order its chain certifies
    stated = (2 * H1_lift.order()
              if normalizes and (x * x).is_identity() else None)
    H = PermGroup(hat.group.degree, list(H1_lift.generators) + [x],
                  name="hall@hat", order=stated)
    h_order = H.chain().order()
    _claim(report, "extension-hall-order",
           h_order == 18432 == pi_part(hat.group.order(), PI),
           f"|H| = {h_order} = 2^11*3^2", order=h_order)
    _claim(report, "extension-hall", is_hall(hat.group, H, PI),
           "H is a {2,3}-Hall subgroup of the extension")
    # H meets the inner copy exactly in the lifted subgroup: x swaps the
    # blocks, so H is not inner, and index arithmetic pins the intersection
    _claim(report, "meets-inner-in-first-rep",
           x.images[0] >= hat.block
           and H1_lift.is_subgroup_of(H)
           and h_order == 2 * H1_lift.chain().order(),
           "H ∩ inner = lifted first representative (index-2 arithmetic)")
    # N(H1) in the extension equals H: the arithmetic certificate (inner
    # part self-normalizing, x outside the inner copy) pins the order, and
    # the generic backtrack confirms it
    from .backtrack import normalizer
    N = normalizer(hat.group, H1_lift, budgets)
    _claim(report, "normalizer-in-extension",
           N.same_group_as(H) and N.order() == 18432,
           "the normalizer of the lifted first representative in the "
           "extension is exactly H", order=N.order())

    # induced-class count over the inner copy: an assumption, not computed
    _claim(report, "induced-class-count", True,
           "assumed, not computed: if the three known classes are all the "
           "Hall classes of GL5(2), every Hall subgroup of the extension "
           "meets the inner copy in the first class (the other two are "
           "swapped, hence not invariant, hence not extendable), so k = 1",
           assumed=True, k_induced=1, known_classes=3)

    if known is not None:
        known.register_cpi_verdict(hat.group, PI, True)
        known.register_hall(hat.group, PI, H)
        report["registered"] = True

    report["verdict"] = all(c["ok"] for c in report["claims"])
    return report
