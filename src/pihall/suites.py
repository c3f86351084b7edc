"""Corpus runner and the numbered invariant suites.

Each suite states one result of the theory: a generator that walks the
corpus's instance streams (`_pairs`, `_proper_normals`, `_ha_instances`),
skips the instances its hypotheses do not admit, and yields for each
other one the messages of its failed conclusions (`_unless`), empty when
they hold.  One counting loop (`_suite`) turns that into a SuiteResult.
The suite keys follow the numbering of the underlying theory source,
which is the interface the corpus command reports under.  All expected
values come from the oracle (either frozen at bootstrap time or
recomputed here); nothing is hand-written.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import wraps

from . import zoo
from .actions import coset_action
from .arith import PiSet, is_pi_number
from .backtrack import BudgetExceededError, centralizer, normalizer
from .config import DEFAULT_BUDGETS, Budgets
from .groups import PermGroup, join_subgroups
from .hall import (_orbits_for, are_conjugate, classify_EC,
                   intersect_subgroups, is_hall, k_induced,
                   pi_separable_series)
from .reduction import compare_with_oracle, corollary18_shortcut
from .structure import ChiefSeries, chief_series, get_table, is_normal, \
    is_simple, minimal_normal_subgroups, normal_subgroups

COROLLARY18_PI_SETS = ("2,5", "3,5", "5,7")


@dataclass
class SuiteResult:
    key: str
    name: str
    checked: int = 0
    violations: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

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
    """Shared per-run caches: built groups, normal subgroup lists, chief
    series and quotients, each built once under the run's budgets and
    seed."""

    def __init__(self, budgets: Budgets, seed: int):
        self.budgets = budgets
        self.seed = seed
        self._groups: dict[str, PermGroup] = {}
        self._normals: dict[str, list[PermGroup]] = {}
        self._series: dict[str, ChiefSeries] = {}
        self._quotients: dict = {}

    def group(self, name: str) -> PermGroup:
        if name not in self._groups:
            self._groups[name] = zoo.build_named(name)
        return self._groups[name]

    def normals(self, name: str) -> list[PermGroup]:
        if name not in self._normals:
            self._normals[name] = normal_subgroups(self.group(name),
                                                   self.budgets)
        return self._normals[name]

    def series(self, name: str) -> ChiefSeries:
        if name not in self._series:
            self._series[name] = chief_series(self.group(name), self.budgets,
                                              self.seed)
        return self._series[name]

    def quotient(self, name: str, A: PermGroup):
        key = (name, A.cache_key())
        if key not in self._quotients:
            self._quotients[key] = coset_action(self.group(name), A,
                                                self.budgets)
        return self._quotients[key]

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


def _proper_normals(e, G: PermGroup, ctx: CorpusContext):
    """The normal subgroups of G other than 1 and G."""
    for A in ctx.normals(e["name"]):
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
            observed = f"budget_exceeded:{exc.kind}"
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
    when the conclusion holds)."""
    def wrap(instances):
        @wraps(instances)
        def suite(entries, ctx: CorpusContext) -> SuiteResult:
            res = SuiteResult(key, name)
            for violations in instances(entries, ctx):
                res.checked += 1
                res.violations += violations
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
        for A in _proper_normals(e, G, ctx):
            inter = intersect_subgroups(H, A, ctx.budgets)
            hom = ctx.quotient(e["name"], A)
            Hbar = PermGroup(hom.domain_size,
                             [hom.image(h) for h in H.generators])
            yield _unless(
                (is_hall(A, inter, pi),
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
        for A in _proper_normals(e, G, ctx):
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
        H = rep.classes.class_reps[0]
        for A in _proper_normals(e, G, ctx):
            HA = join_subgroups(G, [H, A])
            inter = intersect_subgroups(H, A, ctx.budgets)
            yield _unless(
                (ctx.classify(normalizer(G, HA, ctx.budgets), pi).C,
                 f"{label}: N_G(HA) fails (|A|={A.order()})"),
                (ctx.classify(normalizer(G, inter, ctx.budgets), pi).C,
                 f"{label}: N_G(H∩A) fails (|A|={A.order()})"))


@_suite("lemma-9", "quotient-inheritance")
def suite_lemma9(entries, ctx: CorpusContext):
    for e, G, pi, label in _pairs(entries, ctx):
        if not ctx.classify(G, pi).C:
            continue
        for A in _proper_normals(e, G, ctx):
            hom = ctx.quotient(e["name"], A)
            yield _unless((ctx.classify(hom.quotient, pi).C,
                           f"{label}: quotient by |A|={A.order()} fails"))


def _ha_instances(entries, ctx: CorpusContext):
    """(label, G, pi, H, A, HA) with HA normal in G and A a proper normal
    subgroup; the instances Lemmas 11-13 quantify over."""
    for e, G, pi, label in _pairs(entries, ctx):
        rep = ctx.classify(G, pi)
        if not rep.E:
            continue
        H = rep.classes.class_reps[0]
        for A in _proper_normals(e, G, ctx):
            HA = join_subgroups(G, [H, A])
            if is_normal(G, HA):
                yield label, G, pi, H, A, HA


@_suite("lemma-11", "induced-iff-invariant")
def suite_lemma11(entries, ctx: CorpusContext):
    for label, G, pi, H, A, HA in _ha_instances(entries, ctx):
        C = centralizer(G, A, ctx.budgets)
        if not is_normal(G, join_subgroups(G, [H, A, C])):
            continue
        tbl = get_table(G, ctx.budgets)
        a_set = tbl.indices_of_subgroup(A)
        orbits = _orbits_for(tbl, A)
        # the A-classes of the G-induced Hall subgroups H^g ∩ A
        induced = {orbits.class_id(tbl.indices_of_subgroup(K) & a_set)
                   for K in ctx.classify(G, pi).classes.class_reps}
        violations = []
        for M in ctx.classify(A, pi).classes.class_reps:
            is_induced = orbits.class_id(tbl.indices_of_subgroup(M)) in induced
            h_invariant = all(
                are_conjugate(
                    A, PermGroup(G.degree,
                                 [x.conjugate(h) for x in M.generators]),
                    M, ctx.budgets) is not None
                for h in H.generators)
            violations += _unless((is_induced == h_invariant,
                                   f"{label}: class of |M|={M.order()} "
                                   f"induced={is_induced} "
                                   f"invariant={h_invariant}"))
        yield violations


@_suite("lemma-12", "induced-count-descends-to-HA")
def suite_lemma12(entries, ctx: CorpusContext):
    for label, G, pi, H, A, HA in _ha_instances(entries, ctx):
        kG = k_induced(G, A, pi, ctx.budgets, ctx.seed)
        kHA = k_induced(HA, A, pi, ctx.budgets, ctx.seed)
        yield _unless(
            (kG.k_induced <= kG.k_total,
             f"{label}: induced count exceeds total"),
            (kG.k_induced == kHA.k_induced,
             f"{label}: k^G(A)={kG.k_induced} but "
             f"k^HA(A)={kHA.k_induced} (|A|={A.order()})"))


@_suite("lemma-13", "one-class-three-ways")
def suite_lemma13(entries, ctx: CorpusContext):
    for label, G, pi, H, A, HA in _ha_instances(entries, ctx):
        cond1 = k_induced(G, A, pi, ctx.budgets, ctx.seed).k_induced == 1
        cond2 = ctx.classify(HA, pi).C
        # every two Hall subgroups of G conjugate by an element of A:
        # one class overall, and the A-orbit of H is its whole G-class
        rep = ctx.classify(G, pi)
        cond3 = False
        if rep.k == 1:
            tbl = get_table(G, ctx.budgets)
            h_set = tbl.indices_of_subgroup(rep.classes.class_reps[0])
            orbits = _orbits_for(tbl, A)
            cond3 = (orbits.size(orbits.class_id(h_set))
                     == rep.classes.class_sizes[0])
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
        H = rep.classes.class_reps[0]
        for A in minimal_normal_subgroups(G, ctx.budgets, ctx.seed):
            subs = minimal_normal_subgroups(A, ctx.budgets, ctx.seed) \
                if A.order() > 1 and not A.same_group_as(G) else []
            if len(subs) < 2:
                continue
            C = centralizer(G, A, ctx.budgets)
            if join_subgroups(G, [H, A, C]).order() != G.order():
                continue
            N = normalizer(G, subs[0], ctx.budgets)
            kGA = k_induced(G, A, pi, ctx.budgets, ctx.seed).k_induced
            kNS = k_induced(N, subs[0], pi, ctx.budgets, ctx.seed).k_induced
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
            HA = join_subgroups(G, [H, A])
            yield _unless((ctx.classify(HA, pi).C,
                           f"{label}: HA fails for |A|={A.order()}"))


def _almost_simple_socle(G: PermGroup, ctx: CorpusContext) -> PermGroup | None:
    """The socle when G is almost simple (unique nonabelian simple minimal
    normal subgroup with trivial centralizer), else None."""
    mins = minimal_normal_subgroups(G, ctx.budgets, ctx.seed)
    if len(mins) != 1:
        return None
    S = mins[0]
    if S.order() <= 1 or S.is_abelian():
        return None
    if not is_simple(S, ctx.budgets, ctx.seed):
        return None
    if not centralizer(G, S, ctx.budgets).is_trivial():
        return None
    return S


@_suite("theorem-10", "almost-simple-class-counts")
def suite_theorem10(entries, ctx: CorpusContext):
    socle_cache: dict[str, PermGroup | None] = {}
    for e, G, pi, label in _pairs(entries, ctx):
        if not ctx.classify(G, pi).E:
            continue
        if e["name"] not in socle_cache:
            socle_cache[e["name"]] = _almost_simple_socle(G, ctx)
        S = socle_cache[e["name"]]
        if S is None:
            continue
        k = k_induced(G, S, pi, ctx.budgets, ctx.seed).k_induced
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
