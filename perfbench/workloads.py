"""The benchmark workloads and the checks on their answers.

Every workload runs its queries one at a time from a single process (a
closed loop with one client).  A pass runs every query of the workload
once and returns per-query latencies and the failures found by checking
each answer against the frozen corpus manifest or the example's claims.
A failure is a wrong verdict, a `budget_exceeded` result, an exception, a
non-Hall witness, a failing suite or a failing claim; failed queries keep
their latency in the samples.

oracle-cold   45 manifest pairs, one `hall.classify_ECD` each, cold.
reduce-cold   the same pairs, one `reduction.cpi_reduce` each, cold.
corpus-warm   one `suites.run_corpus()` over the 37 manifest entries with
              |G| <= 800: oracle-vs-reduction comparisons and all 14 suites
              sharing caches, as `pihall corpus` runs them.  A pass takes
              ~6 s, so a run holds a cycle of three seeds.
corpus-full   the same over all 45 entries (40-64 s a pass; for traces,
              not listed in BENCHMARK.json).
gl52-example  one `example_gl52.run_example` per pass.

"Cold" means the process-wide caches (`hall._classify_cache`,
`structure._table_cache`) and the special-case `registry.REGISTRY` are
emptied and the group is rebuilt from its zoo spec before each query, as a
fresh `pihall analyze` / `pihall reduce` would see it.
"""

from __future__ import annotations

import gc
import importlib
import pkgutil
import time
from dataclasses import dataclass, field

EXAMPLE_CLAIMS = 19
CORPUS_SUITES = 14
CORPUS_WARM_MAX_ORDER = 800


@dataclass
class PassResult:
    wall_s: float
    latencies_s: list[float]
    attempted: int
    failed: int
    failures: list[str] = field(default_factory=list)


class Program:
    """The pihall modules a workload needs, imported once (set-up)."""

    def __init__(self):
        import pihall
        for info in pkgutil.iter_modules(pihall.__path__):
            importlib.import_module(f"pihall.{info.name}")
        self.pihall = pihall
        self.mod = {name.rpartition(".")[2]: importlib.import_module(name)
                    for name in ("pihall.zoo", "pihall.hall",
                                 "pihall.structure", "pihall.reduction",
                                 "pihall.suites", "pihall.example_gl52",
                                 "pihall.arith", "pihall.backtrack")}
        self.entries = self.mod["zoo"].corpus_manifest()
        self.notes: list[str] = []
        # process-wide state that a cold query must not inherit
        self._state = (("pihall.hall", "_classify_cache"),
                       ("pihall.structure", "_table_cache"),
                       ("pihall.registry", "REGISTRY"))
        for m, attr in self._state:
            if not hasattr(importlib.import_module(m), attr):
                self.notes.append(f"{m}.{attr} not found; nothing to reset")

    def reset(self) -> None:
        for m, attr in self._state:
            holder = getattr(importlib.import_module(m), attr, None)
            if holder is not None:
                holder.clear()
        gc.collect()

    def group_and_pi(self, entry):
        G = self.mod["zoo"].build_named(entry["name"])
        return G, self.mod["arith"].PiSet.parse(entry["pi"])

    def failure_kind(self, exc: Exception) -> str:
        if isinstance(exc, self.mod["backtrack"].BudgetExceededError):
            return f"budget_exceeded:{exc.kind}"
        return f"exception:{type(exc).__name__}: {exc}"


def _cold_pass(entries, prog: Program, seed: int, rec, query,
               check) -> PassResult:
    lat, failures = [], []
    t_pass = 0.0
    for i, e in enumerate(entries):
        prog.reset()
        G, pi = prog.group_and_pi(e)
        if rec is not None:
            rec.query_id, rec.on = i, True
        t0 = time.perf_counter()
        try:
            answer = query(G, pi, seed)
            err = None
        except Exception as exc:  # counted as a failed query, not dropped
            answer, err = None, prog.failure_kind(exc)
        dt = time.perf_counter() - t0
        if rec is not None:
            rec.on = False
        t_pass += dt
        lat.append(dt)
        if err is None:
            err = check(G, pi, e, answer)
        if err is not None:
            failures.append(f"{e['name']}/{e['pi']}: {err}")
    return PassResult(t_pass, lat, len(entries), len(failures), failures)


def oracle_cold(entries, prog: Program, seed: int, rec=None) -> PassResult:
    hall = prog.mod["hall"]

    def query(G, pi, s):
        return hall.classify_ECD(G, pi, seed=s)

    def check(G, pi, e, rep):
        got = rep.flags()
        return None if got == e["expected"] else f"flags {got} != {e['expected']}"

    return _cold_pass(entries, prog, seed, rec, query, check)


def reduce_cold(entries, prog: Program, seed: int, rec=None) -> PassResult:
    hall, reduction = prog.mod["hall"], prog.mod["reduction"]

    def query(G, pi, s):
        return reduction.cpi_reduce(G, pi, seed=s)

    def check(G, pi, e, trace):
        if trace.verdict != e["expected"]["C"]:
            return f"C verdict {trace.verdict} != {e['expected']['C']}"
        if trace.verdict and not hall.is_hall(G, trace.hall_witness, pi):
            return "witness is not a Hall subgroup"
        return None

    return _cold_pass(entries, prog, seed, rec, query, check)


def corpus(entries, prog: Program, seed: int, rec) -> PassResult:
    """One run_corpus(); its queries are the entry comparisons, whose
    latencies the caller reads from `rec`'s compare_with_oracle spans."""
    prog.reset()
    attempted = len(entries) + CORPUS_SUITES
    rec.auto_query, rec.on = True, True
    t0 = time.perf_counter()
    try:
        res = prog.mod["suites"].run_corpus(entries=entries, seed=seed, jobs=1)
    except Exception as exc:
        wall = time.perf_counter() - t0
        rec.on = False
        return PassResult(wall, [], attempted, attempted,
                          [f"run_corpus: {prog.failure_kind(exc)}"])
    wall = time.perf_counter() - t0
    rec.on = False
    failures = [f"{r.name}/{r.pi}: agree={r.agree} "
                f"matches_manifest={r.matches_manifest} observed={r.observed}"
                for r in res.entries if not (r.agree is True
                                             and r.matches_manifest)]
    failures += [f"suite {s.key}: {s.violations[:3]}"
                 for s in res.suites if not s.passed]
    missing = (len(entries) - len(res.entries)) + (CORPUS_SUITES - len(res.suites))
    if missing:
        failures.append(f"{missing} entries or suites missing from the result")
    if not (res.all_agree and res.all_match_manifest and res.all_suites_pass) \
            and not failures:
        failures.append("run_corpus summary flags disagree with its entries")
    return PassResult(wall, [], attempted, min(len(failures), attempted),
                      failures)


def gl52_example(entries, prog: Program, seed: int, rec=None) -> PassResult:
    ex = prog.mod["example_gl52"]
    prog.reset()
    if rec is not None:
        rec.query_id, rec.on = 0, True
    t0 = time.perf_counter()
    try:
        report = ex.run_example(seed=seed)
        err = None
    except Exception as exc:  # ExampleFailure names the claim that failed
        report, err = None, prog.failure_kind(exc)
    dt = time.perf_counter() - t0
    if rec is not None:
        rec.on = False
    if err is None:
        claims = report["claims"]
        bad = [c["name"] for c in claims if not c["ok"]]
        if len(claims) != EXAMPLE_CLAIMS or bad or report.get("verdict") is not True:
            err = f"{len(claims)} claims, failing {bad}"
    return PassResult(dt, [dt], 1, 0 if err is None else 1,
                      [] if err is None else [f"run_example: {err}"])


def _all(e) -> bool:
    return True


def _corpus_warm(e) -> bool:
    return e["order"] <= CORPUS_WARM_MAX_ORDER


@dataclass(frozen=True)
class Workload:
    run: object          # pass function
    keep: object         # which manifest entries a pass covers
    seeds: int           # program seeds in one cycle of timed passes
    cold: bool           # each query's group is built before its timing


# A run repeats whole cycles of passes, pass j of a cycle at program seed
# N + SEED_STRIDE*j, so every run at --seed N covers the same seeds equally
# often however fast the program is.  Cycle lengths keep one cycle within
# about 20 s; gl52-example's time does not depend on the seed.
SEED_STRIDE = 1000
WORKLOADS = {
    "oracle-cold": Workload(oracle_cold, _all, 4, True),
    "reduce-cold": Workload(reduce_cold, _all, 2, True),
    "corpus-warm": Workload(corpus, _corpus_warm, 3, False),
    "corpus-full": Workload(corpus, _all, 1, False),
    "gl52-example": Workload(gl52_example, _all, 1, False),
}
