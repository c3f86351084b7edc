"""Corpus runner and the numbered invariant suites.

Each suite states one result of the theory: a generator that walks the
corpus's instance streams (`_pairs`, `_proper_normals`, `_ha_instances`),
skips the instances its hypotheses do not admit, and yields for each
other one the messages of its failed conclusions (`_unless`), empty when
they hold.  One counting loop (`_suite`) turns that into a SuiteResult.
Within the order budget their subgroup questions (normality, joins,
intersections, centralizers, normalizers) are asked of G's element table
as index sets, and whether a normal subgroup's Hall class is induced or
kept of that subgroup's own table (`k_induced`, `hall_classes_kept`),
never by a backtrack search;
a `PermGroup` is made only for a group handed to the oracle, and G
itself stands for a join or normalizer that is all of G.  The context
keeps, once per run, each group's table, subgroups' index sets, the
joins HA and the induced counts.
The suite keys follow the numbering of the underlying theory source,
which is the interface the corpus command reports under.  All expected
values come from the oracle (either frozen at bootstrap time or
recomputed here); nothing is hand-written.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import wraps

import numpy as np

from . import zoo
from .actions import coset_action
from .arith import PiSet, is_pi_number, pi_part
from .backtrack import BudgetExceededError
from .config import DEFAULT_BUDGETS, Budgets
from .groups import PermGroup
from .hall import (KReport, classify_EC, hall_classes_kept, is_hall,
                   k_induced, pi_separable_series)
from .reduction import compare_with_oracle, corollary18_shortcut
from .structure import ChiefSeries, chief_series, get_table, is_simple, \
    minimal_normal_subgroups, normal_subgroups
from .tables import ElementTable

COROLLARY18_PI_SETS = ("2,5", "3,5", "5,7")


@dataclass
class SuiteResult:
    key: str
    name: str
    checked: int = 0
    violations: list[str] = field(default_factory=list)
    # the budget verdict that stopped the suite is its only note
    notes: list[str] = field(default_factory=list)

    @property
    def budget_exceeded(self) -> bool:
        return bool(self.notes)

    @property
    def passed(self) -> bool:
        return not (self.violations or self.budget_exceeded)

    def to_dict(self) -> dict:
        return {"key": self.key, "name": self.name, "checked": self.checked,
                "passed": self.passed, "violations": self.violations,
                "notes": self.notes}


@dataclass
class CorpusEntryResult:
    name: str
    pi: str
    expected: dict
    observed: dict | str
    comparison: dict
    matches_manifest: bool
    agree: bool | None
    timings_ms: dict = field(default_factory=dict)   # not in to_dict

    def to_dict(self) -> dict:
        return {"name": self.name, "pi": self.pi, "expected": self.expected,
                "observed": self.observed, "comparison": self.comparison,
                "matches_manifest": self.matches_manifest, "agree": self.agree}


class CorpusContext:
    """Shared per-run caches: built groups and their element tables,
    normal subgroup lists, subgroups as index sets, the joins HA the
    suites form, induced counts, chief series and quotients, each built
    once under the run's budgets and seed."""

    def __init__(self, budgets: Budgets, seed: int):
        self.budgets = budgets
        self.seed = seed
        self._groups: dict[str, PermGroup] = {}
        self._tables: dict[str, ElementTable] = {}
        self._normals: dict[str, list[PermGroup]] = {}
        self._indices: dict = {}
        self._joins: dict = {}
        self._induced: dict = {}
        self._series: dict[str, ChiefSeries] = {}
        self._quotients: dict = {}

    @staticmethod
    def _memo(cache: dict, key, make):
        """cache[key], made by make() on first use."""
        if key not in cache:
            cache[key] = make()
        return cache[key]

    def group(self, name: str) -> PermGroup:
        return self._memo(self._groups, name, lambda: zoo.build_named(name))

    def table(self, name: str) -> ElementTable:
        return self._memo(self._tables, name,
                          lambda: get_table(self.group(name), self.budgets))

    def indices(self, name: str, H: PermGroup) -> tuple[list[int], frozenset]:
        """(H's generators, H's elements) as indices into the table of the
        group `name`."""
        tbl = self.table(name)
        return self._memo(self._indices, (name, H.cache_key()), lambda: (
            [tbl.idx_of_perm(g) for g in H.generators],
            tbl.indices_of_subgroup(H)))

    def join(self, name: str, H: PermGroup,
             A: PermGroup) -> tuple[PermGroup, frozenset]:
        """HA and its index set, for H and a normal subgroup A of G =
        group(name): a closure over A's index set.  The group handed on
        is G itself when HA is all of G, and otherwise has H's generators,
        then A's, and its order."""
        def make():
            G, tbl = self.group(name), self.table(name)
            ha_set = tbl.closure(self.indices(name, H)[0],
                                 known=self.indices(name, A)[1])
            HA = G if len(ha_set) == tbl.size else PermGroup(
                G.degree, H.generators + A.generators, order=len(ha_set))
            return HA, ha_set
        return self._memo(self._joins,
                          (name, H.cache_key(), A.cache_key()), make)

    def induced(self, G: PermGroup, A: PermGroup, pi: PiSet) -> KReport:
        """The A-classes of the H ∩ A, H Hall in G (`k_induced`)."""
        return self._memo(
            self._induced, (G.cache_key(), A.cache_key(), pi.primes),
            lambda: k_induced(G, A, pi, self.budgets, self.seed))

    def normals(self, name: str) -> list[PermGroup]:
        return self._memo(self._normals, name, lambda: normal_subgroups(
            self.group(name), self.budgets))

    def series(self, name: str) -> ChiefSeries:
        return self._memo(self._series, name, lambda: chief_series(
            self.group(name), self.budgets, self.seed))

    def quotient(self, name: str, A: PermGroup):
        return self._memo(self._quotients, (name, A.cache_key()),
                          lambda: coset_action(self.group(name), A,
                                               self.budgets))

    def classify(self, G: PermGroup, pi: PiSet):
        """E, C, k and the classes; D is computed only where it is read."""
        return classify_EC(G, pi, self.budgets, self.seed)


def _entry_names(entries) -> list[str]:
    """The entries' group names, each once, in first-seen order."""
    return list(dict.fromkeys(e["name"] for e in entries))


def _pairs(entries, ctx: CorpusContext):
    """(entry, G, pi, label) for each entry, label naming it in messages."""
    for e in entries:
        yield (e, ctx.group(e["name"]), PiSet.parse(e["pi"]),
               f"{e['name']}/{e['pi']}")


def _proper_normals(name: str, G: PermGroup, ctx: CorpusContext):
    """The normal subgroups of G other than 1 and G."""
    for A in ctx.normals(name):
        if A.order() not in (1, G.order()):
            yield A


def run_entry_comparisons(entries, ctx: CorpusContext) -> list[CorpusEntryResult]:
    out = []
    for e, G, pi, _ in _pairs(entries, ctx):
        cmp = compare_with_oracle(G, pi, ctx.budgets, ctx.seed)
        try:
            observed = ctx.classify(G, pi).flags()
            matches = observed == e["expected"]
        except BudgetExceededError as exc:
            observed = exc.verdict
            matches = False
        out.append(CorpusEntryResult(
            name=e["name"], pi=e["pi"], expected=e["expected"],
            observed=observed, comparison=cmp.to_dict(),
            matches_manifest=matches, agree=cmp.agree,
            timings_ms=cmp.timings_ms))
    return out


# -- the numbered suites --------------------------------------------------------


def _suite(key: str, name: str):
    """Make a suite of a generator over (entries, ctx) that yields, for
    each instance its hypotheses admit, the list of its violations (empty
    when the conclusion holds).  A budget error stops the suite, which
    keeps its count, notes "budget_exceeded:<kind>" and does not pass."""
    def wrap(instances):
        @wraps(instances)
        def suite(entries, ctx: CorpusContext) -> SuiteResult:
            res = SuiteResult(key, name)
            try:
                for violations in instances(entries, ctx):
                    res.checked += 1
                    res.violations += violations
            except BudgetExceededError as exc:
                res.notes.append(exc.verdict)
            return res
        return suite
    return wrap


def _unless(*checks) -> list[str]:
    """The messages of the (holds, message) checks that fail."""
    return [message for holds, message in checks if not holds]


@_suite("lemma-4.1", "hall-intersection-and-image")
def suite_lemma4_1(entries, ctx: CorpusContext):
    for e, G, pi, label in _pairs(entries, ctx):
        rep = ctx.classify(G, pi)
        if not rep.E:
            continue
        H = rep.classes.class_reps[0]
        _, h_set = ctx.indices(e["name"], H)
        for A in _proper_normals(e["name"], G, ctx):
            _, a_set = ctx.indices(e["name"], A)
            hom = ctx.quotient(e["name"], A)
            Hbar = PermGroup(hom.domain_size,
                             [hom.image(h) for h in H.generators])
            yield _unless(
                (len(h_set & a_set) == pi_part(len(a_set), pi),
                 f"{label}: H∩A not Hall in A (|A|={A.order()})"),
                (is_hall(hom.quotient, Hbar, pi),
                 f"{label}: HA/A not Hall in G/A (|A|={A.order()})"))


@_suite("lemma-4.2", "separable-series-dominance")
def suite_lemma4_2(entries, ctx: CorpusContext):
    for e, G, pi, label in _pairs(entries, ctx):
        if pi_separable_series(ctx.series(e["name"]), pi) is None:
            continue
        rep = ctx.classify(G, pi)
        # flags() reads D, as the condition does whenever C holds (D is
        # False at no cost without C)
        yield _unless((rep.E and rep.C and rep.D,
                       f"{label}: separable series exists but flags "
                       f"are {rep.flags()}"))


@_suite("lemma-5", "extension-closure")
def suite_lemma5(entries, ctx: CorpusContext):
    for e, G, pi, label in _pairs(entries, ctx):
        for A in _proper_normals(e["name"], G, ctx):
            hom = ctx.quotient(e["name"], A)
            if not (ctx.classify(A, pi).C and
                    ctx.classify(hom.quotient, pi).C):
                continue
            yield _unless((ctx.classify(G, pi).C,
                           f"{label}: A and G/A conjugacy holds "
                           f"(|A|={A.order()}) but G fails"))


@_suite("lemma-7", "normalizer-inheritance")
def suite_lemma7(entries, ctx: CorpusContext):
    for e, G, pi, label in _pairs(entries, ctx):
        rep = ctx.classify(G, pi)
        if not rep.C:
            continue
        tbl = ctx.table(e["name"])
        H = rep.classes.class_reps[0]
        h_gens, h_set = ctx.indices(e["name"], H)
        for A in _proper_normals(e["name"], G, ctx):
            a_gens, a_set = ctx.indices(e["name"], A)
            _, ha_set = ctx.join(e["name"], H, A)
            yield _unless(
                (ctx.classify(_normalizer(tbl, G, ha_set, h_gens + a_gens),
                              pi).C,
                 f"{label}: N_G(HA) fails (|A|={A.order()})"),
                (ctx.classify(_normalizer(tbl, G, h_set & a_set), pi).C,
                 f"{label}: N_G(H∩A) fails (|A|={A.order()})"))


def _normalizer(tbl: ElementTable, G: PermGroup, sub: frozenset,
                gens=None) -> PermGroup:
    """N_G(K) for the subgroup K = `sub` of G's table that the elements
    `gens` generate (a few read off `sub` when not given): G itself when K
    is normal."""
    if tbl.is_normal(sub):
        return G
    if gens is None:
        gens = tbl.generators(sub)
    return tbl.subgroup(tbl.normalizing(sub, gens).tolist())


@_suite("lemma-9", "quotient-inheritance")
def suite_lemma9(entries, ctx: CorpusContext):
    for e, G, pi, label in _pairs(entries, ctx):
        if not ctx.classify(G, pi).C:
            continue
        for A in _proper_normals(e["name"], G, ctx):
            hom = ctx.quotient(e["name"], A)
            yield _unless((ctx.classify(hom.quotient, pi).C,
                           f"{label}: quotient by |A|={A.order()} fails"))


def _ha_instances(entries, ctx: CorpusContext):
    """(name, label, G, pi, H, A, HA) with HA normal in G and A a proper
    normal subgroup; the instances Lemmas 11-13 quantify over."""
    for e, G, pi, label in _pairs(entries, ctx):
        rep = ctx.classify(G, pi)
        if not rep.E:
            continue
        H = rep.classes.class_reps[0]
        for A in _proper_normals(e["name"], G, ctx):
            HA, ha_set = ctx.join(e["name"], H, A)
            if ctx.table(e["name"]).is_normal(ha_set):
                yield e["name"], label, G, pi, H, A, HA


def _induced_and_invariant(ctx: CorpusContext, name: str, pi: PiSet,
                           A: PermGroup, xs):
    """(M, induced, invariant) for each Hall class representative M of the
    normal subgroup A of G = group(name): whether M's A-class holds some
    H^g ∩ A (H Hall in G), and whether conjugation by each of the
    permutations xs keeps it."""
    return zip(ctx.classify(A, pi).classes.class_reps,
               ctx.induced(ctx.group(name), A, pi).induced,
               hall_classes_kept(A, pi, xs, ctx.budgets, ctx.seed))


@_suite("lemma-11", "induced-iff-invariant")
def suite_lemma11(entries, ctx: CorpusContext):
    for name, label, G, pi, H, A, HA in _ha_instances(entries, ctx):
        tbl = ctx.table(name)
        h_gens, _ = ctx.indices(name, H)
        a_gens, _ = ctx.indices(name, A)
        # <H, A, C_G(A)> = C_G(A)·<H, A>: the centralizer is normal
        hac = tbl.closure(h_gens + a_gens, known=tbl.centralizing(a_gens))
        if not tbl.is_normal(hac):
            continue
        yield [f"{label}: class of |M|={M.order()} induced={induced} "
               f"invariant={invariant}"
               for M, induced, invariant
               in _induced_and_invariant(ctx, name, pi, A, H.generators)
               if induced != invariant]


@_suite("lemma-12", "induced-count-descends-to-HA")
def suite_lemma12(entries, ctx: CorpusContext):
    for name, label, G, pi, H, A, HA in _ha_instances(entries, ctx):
        kG = ctx.induced(G, A, pi)
        kHA = ctx.induced(HA, A, pi)
        yield _unless(
            (kG.k_induced <= kG.k_total,
             f"{label}: induced count exceeds total"),
            (kG.k_induced == kHA.k_induced,
             f"{label}: k^G(A)={kG.k_induced} but "
             f"k^HA(A)={kHA.k_induced} (|A|={A.order()})"))


@_suite("lemma-13", "one-class-three-ways")
def suite_lemma13(entries, ctx: CorpusContext):
    for name, label, G, pi, H, A, HA in _ha_instances(entries, ctx):
        cond1 = ctx.induced(G, A, pi).k_induced == 1
        cond2 = ctx.classify(HA, pi).C
        # every two Hall subgroups of G conjugate by an element of A:
        # one class overall, and the A-orbit of H is its whole G-class
        rep = ctx.classify(G, pi)
        cond3 = False
        if rep.k == 1 and HA.order() == G.order():
            # each g is h·a with h in H, so H^g = H^a: no search needed
            cond3 = True
        elif rep.k == 1:
            # the A-orbit of H has |A : N_A(H)| members
            h_gens, h_set = ctx.indices(name, H)
            a_set = ctx.indices(name, A)[1]
            n_a = ctx.table(name).normalizing(
                h_set, h_gens, np.fromiter(a_set, np.intp, len(a_set)))
            cond3 = len(a_set) == len(n_a) * rep.classes.class_sizes[0]
        yield _unless((cond1 == cond2 == cond3,
                       f"{label}: |A|={A.order()} "
                       f"k=1:{cond1} HA-conj:{cond2} A-conj:{cond3}"))


@_suite("lemma-15", "product-count-multiplies")
def suite_lemma15(entries, ctx: CorpusContext):
    for e, G, pi, label in _pairs(entries, ctx):
        if zoo.ZOO_NAMES[e["name"]]["kind"] != "direct_product":
            continue
        mins = minimal_normal_subgroups(G, ctx.budgets, ctx.seed)
        # the two disjoint-action factors are the orbit-split normal parts
        factors = [M for M in mins if M.order() > 1]
        if len(factors) < 2:
            continue
        A1, A2 = factors[0], factors[1]
        if A1.order() * A2.order() != G.order():
            continue
        k, k1, k2 = (ctx.classify(X, pi).k for X in (G, A1, A2))
        yield _unless((k == k1 * k2,
                       f"{label}: k={k} but factors give {k1}*{k2}"))


@_suite("lemma-16", "transitive-factors-collapse")
def suite_lemma16(entries, ctx: CorpusContext):
    for e, G, pi, label in _pairs(entries, ctx):
        if zoo.ZOO_NAMES[e["name"]]["kind"] != "wreath":
            continue
        rep = ctx.classify(G, pi)
        if not rep.E:
            continue
        tbl = ctx.table(e["name"])
        h_gens, _ = ctx.indices(e["name"], rep.classes.class_reps[0])
        for A in minimal_normal_subgroups(G, ctx.budgets, ctx.seed):
            subs = minimal_normal_subgroups(A, ctx.budgets, ctx.seed) \
                if A.order() > 1 and not A.same_group_as(G) else []
            if len(subs) < 2:
                continue
            a_gens, _ = ctx.indices(e["name"], A)
            # <H, A, C_G(A)> = C_G(A)·<H, A>: the centralizer is normal
            hac = tbl.closure(h_gens + a_gens, known=tbl.centralizing(a_gens))
            if len(hac) != tbl.size:
                continue
            s_gens, s_set = ctx.indices(e["name"], subs[0])
            N = _normalizer(tbl, G, s_set, s_gens)
            kGA = ctx.induced(G, A, pi).k_induced
            kNS = ctx.induced(N, subs[0], pi).k_induced
            yield _unless((kGA == kNS,
                           f"{label}: k^G(A)={kGA} but k^N(S1)={kNS}"))


@_suite("theorem-1", "hall-times-normal-keeps-conjugacy")
def suite_theorem1(entries, ctx: CorpusContext):
    """For G with the conjugacy property and a fixed Hall subgroup H, HA
    keeps it for every normal subgroup A (1 and G included)."""
    for e, G, pi, label in _pairs(entries, ctx):
        rep = ctx.classify(G, pi)
        if not rep.C:
            continue
        H = rep.classes.class_reps[0]
        for A in ctx.normals(e["name"]):
            HA, _ = ctx.join(e["name"], H, A)
            yield _unless((ctx.classify(HA, pi).C,
                           f"{label}: HA fails for |A|={A.order()}"))


def _almost_simple_socle(name: str, ctx: CorpusContext) -> PermGroup | None:
    """The socle when G = group(name) is almost simple (unique nonabelian
    simple minimal normal subgroup with trivial centralizer), else None."""
    mins = minimal_normal_subgroups(ctx.group(name), ctx.budgets, ctx.seed)
    if len(mins) != 1:
        return None
    S = mins[0]
    if S.order() <= 1 or S.is_abelian():
        return None
    if not is_simple(S, ctx.budgets, ctx.seed):
        return None
    if len(ctx.table(name).centralizing(ctx.indices(name, S)[0])) > 1:
        return None
    return S


@_suite("theorem-10", "almost-simple-class-counts")
def suite_theorem10(entries, ctx: CorpusContext):
    socle_cache: dict[str, PermGroup | None] = {}
    for e, G, pi, label in _pairs(entries, ctx):
        if not ctx.classify(G, pi).E:
            continue
        if e["name"] not in socle_cache:
            socle_cache[e["name"]] = _almost_simple_socle(e["name"], ctx)
        S = socle_cache[e["name"]]
        if S is None:
            continue
        k = ctx.induced(G, S, pi).k_induced
        if 2 not in pi:
            allowed = {1}
        elif 3 not in pi:
            allowed = {1, 2}
        else:
            allowed = {1, 2, 3, 4, 9}
        yield _unless(
            (k in allowed, f"{label}: induced count {k} outside {allowed}"),
            (is_pi_number(k, pi),
             f"{label}: induced count {k} is not a pi-number"))


@_suite("corollary-18", "composition-factor-criterion")
def suite_corollary18(entries, ctx: CorpusContext):
    for name in _entry_names(entries):
        G = ctx.group(name)
        series = ctx.series(name)
        for pi_key in COROLLARY18_PI_SETS:
            pi = PiSet.parse(pi_key)
            crit = corollary18_shortcut(series, pi)
            oracle = ctx.classify(G, pi).C
            yield _unless((crit == oracle, f"{name}/{pi_key}: criterion "
                                           f"{crit} vs oracle {oracle}"))


def _class_signature(classes) -> tuple:
    return (classes.k, sorted(classes.class_sizes),
            sorted((r.order(), r.orbit_sizes()) for r in classes.class_reps))


@_suite("oracle-selfcheck", "seed-independence")
def suite_oracle_selfcheck(entries, ctx: CorpusContext):
    """Re-run the oracle with a different seed: class counts and class
    invariants must match."""
    for e, G, pi, label in _pairs(entries, ctx):
        a = classify_EC(G, pi, ctx.budgets, ctx.seed).classes
        b = classify_EC(G, pi, ctx.budgets, ctx.seed + 1).classes
        yield _unless((_class_signature(a) == _class_signature(b),
                       f"{label}: seeds disagree"))


SUITES = [
    suite_lemma4_1, suite_lemma4_2, suite_lemma5, suite_lemma7, suite_lemma9,
    suite_lemma11, suite_lemma12, suite_lemma13, suite_lemma15, suite_lemma16,
    suite_theorem1, suite_theorem10, suite_corollary18, suite_oracle_selfcheck,
]


@dataclass
class CorpusRunResult:
    entries: list[CorpusEntryResult]
    suites: list[SuiteResult]

    @property
    def all_agree(self) -> bool:
        return all(r.agree is True for r in self.entries)

    @property
    def all_match_manifest(self) -> bool:
        return all(r.matches_manifest for r in self.entries)

    @property
    def all_suites_pass(self) -> bool:
        return all(s.passed for s in self.suites)

    def entry_timings(self) -> list[dict]:
        """Per-entry reduce/oracle times; kept out of to_dict, whose bytes
        are deterministic."""
        return [{"name": r.name, "pi": r.pi, **r.timings_ms}
                for r in self.entries]

    def to_dict(self) -> dict:
        return {
            "entries": [r.to_dict() for r in self.entries],
            "suites": [s.to_dict() for s in self.suites],
            "all_agree": self.all_agree,
            "all_match_manifest": self.all_match_manifest,
            "all_suites_pass": self.all_suites_pass,
        }


def run_corpus(entries=None, budgets: Budgets = DEFAULT_BUDGETS,
               seed: int = 1, jobs: int = 1) -> CorpusRunResult:
    if entries is None:
        entries = zoo.corpus_manifest()
    ctx = CorpusContext(budgets, seed)
    if jobs > 1:
        results = _run_entries_parallel(entries, budgets, seed, jobs)
    else:
        results = run_entry_comparisons(entries, ctx)
    suite_results = [suite(entries, ctx) for suite in SUITES]
    return CorpusRunResult(entries=results, suites=suite_results)


def _entry_job(args):
    entry, budgets, seed = args
    ctx = CorpusContext(budgets, seed)
    result = run_entry_comparisons([entry], ctx)[0]
    return result.to_dict(), result.timings_ms


def _run_entries_parallel(entries, budgets, seed, jobs):
    from concurrent.futures import ProcessPoolExecutor
    args = [(e, budgets, seed) for e in entries]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        jobs_out = list(pool.map(_entry_job, args))
    out = []
    for d, timings in jobs_out:
        out.append(CorpusEntryResult(
            name=d["name"], pi=d["pi"], expected=d["expected"],
            observed=d["observed"], comparison=d["comparison"],
            matches_manifest=d["matches_manifest"], agree=d["agree"],
            timings_ms=timings))
    return out
