"""The conjugacy-criterion decision procedure.

Walks a chief series top-down; at each level the conjugacy property of the
whole group reduces to that of the automorphism groups induced on the
simple factors of the chief factor (checked one representative per orbit),
and the Hall subgroup is rebuilt one level further by extending through an
invariant class.  A failed check certifies the negative verdict; finishing
all levels produces a Hall subgroup witness.

Instances whose classification exceeds the oracle budget can be served
from special-cased results the caller passes explicitly (`known`, a
SpecialCaseRegistry whose hits are confirmed exactly); the trace marks
every value that came from it.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass

from .actions import coset_action
from .arith import PiSet, is_pi_number, pi_part, prime_factorization
from .backtrack import BudgetExceededError, certify, normalizer
from .config import DEFAULT_BUDGETS, Budgets
from .groups import PermGroup
from .hall import classify_EC, extend_hall, is_hall
from .registry import SpecialCaseRegistry
from .structure import (ChiefSeries, chief_factor_decomposition, chief_series,
                        factor_orbits, induced_automizer)


@dataclass
class AutomizerCheck:
    factor_index: int
    automizer_order: int
    cpi_verdict: bool
    special_cased: bool = False
    orbit_size: int = 1
    route: str | None = None          # InducedAutomizer.route; None if abelian


@dataclass
class LevelRecord:
    index: int
    factor_order: int
    factor_kind: str                  # "abelian" | "semisimple"
    simple_factor_count: int
    automizer_checks: list[AutomizerCheck]
    H_order: int                      # |H_i| entering the level
    H_next_order: int | None = None   # |H_{i+1}| after the level
    failure: str | None = None        # "automizer" | "extension"
    special_cased_hall: bool = False


@dataclass
class ReductionTrace:
    group: PermGroup
    pi: PiSet
    series: ChiefSeries
    levels: list[LevelRecord]
    verdict: bool
    hall_witness: PermGroup | None
    shortcut_verdict: bool | None = None
    shortcut_agrees: bool | None = None

    def to_dict(self) -> dict:
        return {
            "pi": self.pi.key(),
            "series_orders": [t.order() for t in self.series.terms],
            "levels": [asdict(lvl) for lvl in self.levels],
            "verdict": self.verdict,
            "hall_witness_order":
                None if self.hall_witness is None else self.hall_witness.order(),
            "hall_witness_generators":
                None if self.hall_witness is None else
                [list(g.images) for g in self.hall_witness.generators],
            "shortcut_verdict": self.shortcut_verdict,
            "shortcut_agrees": self.shortcut_agrees,
        }


# -- automizer checks ------------------------------------------------------------


def automizer_cpi_check(Hi: PermGroup, B: PermGroup,
                        factors: list[PermGroup], pi: PiSet,
                        budgets: Budgets = DEFAULT_BUDGETS, seed: int = 1,
                        known: SpecialCaseRegistry | None = None
                        ) -> list[AutomizerCheck]:
    """Conjugacy-property verdicts for the automorphism groups induced by
    Hi on the simple factors of a nonabelian chief factor over B (one
    representative per Hi-orbit of factors)."""
    orbits = factor_orbits(Hi, factors, B)
    certify(orbits is not None,
            "a conjugate of a simple factor lies in no factor")
    checks = []
    for j, orbit_size in orbits:
        Fj = factors[j]
        Nj = normalizer(Hi, Fj, budgets)
        aut = induced_automizer(Nj, Fj, B, budgets)
        target = aut.section_image
        verdict = None
        special = False
        if known is not None:
            hit = known.lookup_cpi_verdict(target, pi)
            if hit is not None:
                verdict, special = hit, True
        if verdict is None:
            verdict = classify_EC(target, pi, budgets, seed).C
        checks.append(AutomizerCheck(factor_index=j,
                                     automizer_order=target.order(),
                                     cpi_verdict=verdict,
                                     special_cased=special,
                                     orbit_size=orbit_size,
                                     route=aut.route))
    return checks


# -- per-level Hall construction ---------------------------------------------------


def _hall_in_pi_extension(X: PermGroup, A: PermGroup, pi: PiSet,
                          budgets: Budgets, seed: int,
                          known: SpecialCaseRegistry | None):
    """A pi-Hall subgroup of X, where A is normal in X with pi-group
    quotient; (hall | None-with-certainty, special_cased)."""
    if pi_part(X.order(), pi) == 1:
        return PermGroup(X.degree, []), False
    if is_pi_number(X.order(), pi):
        return X, False
    if known is not None:
        hit = known.lookup_hall(X, pi)
        if hit is not None:
            return hit, True
    return extend_hall(X, A, pi, budgets, seed), False


def _level_hall(Hi: PermGroup, Gi: PermGroup, Gprev: PermGroup, pi: PiSet,
                budgets: Budgets, seed: int,
                known: SpecialCaseRegistry | None):
    """The full preimage in Hi of a pi-Hall subgroup of Hi/Gi, built through
    the chief factor Gprev/Gi; None with certainty when no Hall subgroup of
    the section exists."""
    if Gi.is_trivial():
        return _hall_in_pi_extension(Hi, Gprev, pi, budgets, seed, known)
    hom = coset_action(Hi, Gi, budgets)
    Abar = PermGroup(hom.domain_size,
                     [hom.image(a) for a in Gprev.generators])
    Hbar, special = _hall_in_pi_extension(hom.quotient, Abar, pi, budgets,
                                          seed, known)
    if Hbar is None:
        return None, special
    return hom.preimage_group(Hbar), special


# -- the decision procedure ---------------------------------------------------------


def cpi_reduce(G: PermGroup, pi: PiSet, budgets: Budgets = DEFAULT_BUDGETS,
               seed: int = 1,
               known: SpecialCaseRegistry | None = None) -> ReductionTrace:
    """Decide the conjugacy property by chief-series descent; on success the
    trace carries a pi-Hall subgroup witness.  `known` supplies
    special-cased verdicts and Hall subgroups for groups past the budgets."""
    series = chief_series(G, budgets, seed)
    shortcut = corollary18_shortcut(series, pi)
    Hi = G
    levels: list[LevelRecord] = []
    verdict = True
    for i in range(1, len(series) + 1):
        A, B = series.factor_pair(i)
        # H_i over the previous term is a Hall subgroup of G over it
        certify(Hi.order() == A.order() * pi_part(G.order() // A.order(), pi),
                f"level {i}: H_i is not Hall over the previous term")
        order = series.factor_order(i)
        abelian = series.factor_is_abelian(i)
        if abelian:
            # an abelian chief factor is elementary abelian, of order p^k:
            # k cyclic factors
            (count,) = prime_factorization(order).values()
            checks = [AutomizerCheck(factor_index=0, automizer_order=1,
                                     cpi_verdict=True, orbit_size=count)]
        else:
            factors = chief_factor_decomposition(series, i)
            count = len(factors)
            checks = automizer_cpi_check(Hi, B, factors, pi, budgets, seed,
                                         known)
        record = LevelRecord(index=i, factor_order=order,
                             factor_kind="abelian" if abelian else "semisimple",
                             simple_factor_count=count,
                             automizer_checks=checks,
                             H_order=Hi.order())
        levels.append(record)
        if not all(c.cpi_verdict for c in checks):
            record.failure = "automizer"
            verdict = False
            break
        Hnext, special = _level_hall(Hi, B, A, pi, budgets, seed, known)
        record.special_cased_hall = special
        if Hnext is None:
            record.failure = "extension"
            verdict = False
            break
        record.H_next_order = Hnext.order()
        Hi = Hnext
    witness = None
    if verdict:
        witness = Hi
        certify(is_hall(G, witness, pi), "the reduction's witness is not Hall")
    trace = ReductionTrace(group=G, pi=pi, series=series, levels=levels,
                           verdict=verdict, hall_witness=witness,
                           shortcut_verdict=shortcut)
    if shortcut is not None:
        trace.shortcut_agrees = (shortcut == verdict)
    return trace


def corollary18_shortcut(series: ChiefSeries, pi: PiSet) -> bool | None:
    """Composition-factor criterion, valid when 2 or 3 is missing from pi
    (None otherwise): the conjugacy property of the series' group holds iff
    every nonabelian composition factor has it (checked on the factor
    alone, not its automizer), under the series' budgets and seed."""
    if 2 in pi and 3 in pi:
        return None
    budgets, seed = series.budgets, series.seed
    for i in range(1, len(series) + 1):
        if series.factor_is_abelian(i):
            continue
        factors = chief_factor_decomposition(series, i)
        # factors of one chief factor are conjugate; check one
        Fj = factors[0]
        B = series.terms[i]
        if B.is_trivial():
            section = Fj
        else:
            section = coset_action(Fj, B, budgets).quotient
        if not classify_EC(section, pi, budgets, seed).C:
            return False
    return True


@dataclass
class OracleComparison:
    reduction_verdict: bool | str
    oracle_verdict: bool | str
    agree: bool | None
    timings_ms: dict
    trace: ReductionTrace | None = None

    def to_dict(self) -> dict:
        return {
            "reduction_verdict": self.reduction_verdict,
            "oracle_verdict": self.oracle_verdict,
            "agree": self.agree,
        }


def compare_with_oracle(G: PermGroup, pi: PiSet,
                        budgets: Budgets = DEFAULT_BUDGETS,
                        seed: int = 1) -> OracleComparison:
    """Run the reduction and the exhaustive oracle; they must agree."""
    timings = {}
    t0 = time.perf_counter()
    try:
        trace = cpi_reduce(G, pi, budgets, seed)
        red: bool | str = trace.verdict
    except BudgetExceededError as exc:
        trace, red = None, exc.verdict
    timings["reduce_ms"] = int((time.perf_counter() - t0) * 1000)
    t0 = time.perf_counter()
    try:
        oracle: bool | str = classify_EC(G, pi, budgets, seed).C
    except BudgetExceededError as exc:
        oracle = exc.verdict
    timings["oracle_ms"] = int((time.perf_counter() - t0) * 1000)
    agree = None
    if isinstance(red, bool) and isinstance(oracle, bool):
        agree = red == oracle
    return OracleComparison(reduction_verdict=red, oracle_verdict=oracle,
                            agree=agree, timings_ms=timings, trace=trace)
