"""pihall benchmark: one workload per process, one query at a time.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads (see workloads.py): oracle-cold, reduce-cold, corpus-warm,
gl52-example, and corpus-full for traces.  The program is imported from ``src/`` of the checkout this
file sits in; without it the run exits with code 2 and prints no result.

--trace 0 runs an untimed warm-up pass over the workload's entries with
|G| <= 200 (one run_example for gl52-example), then repeats whole cycles
of passes over the workload's queries, pass j of a cycle at program seed
N + 1000*j (workloads.WORKLOADS gives the cycle length), for as long as
another cycle fits in S seconds (at least one cycle).  Every run at seed N
thus covers the same program seeds, each equally often, whatever the
program's speed.  It reports the end-to-end metrics:
  wall_s        median time of one pass;
  query_p50_ms  median over the workload's queries of each query's mean
                latency across the passes (gl52-example: median over passes);
  query_p75_ms  75th percentile of the same samples;
  setup_s       median over 6 fresh interpreters, 3 before and 3 after the
                timed passes, of the time from process start to the first
                timed query: imports, manifest load and, on the cold
                workloads, the zoo build of the first query's group
                (run_corpus and run_example build their groups inside
                their timed query);
  peak_rss_mb   peak resident set of this process.

--trace 1 ignores S.  After the warm-up it runs one untraced pass and then
two traced passes at seed N, whose span counts and counters must be equal
(a difference is a failure: state leaking between queries or passes).  It
reports the per_layer metrics that BENCHMARK.json lists, with the units it
gives: the values layers.py computes from the first traced pass, plus
trace.overhead_ratio (traced / untraced pass time) and trace.coverage_ratio
(time inside top-level spans / measured query time).
Spans are written to .bench_out/trace-<workload>-seed<N>.npz.

The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it carries
provenance: nproc, Python and numpy versions, commit, seeds, passes, the
sample count behind every statistic, failures and notes.  `failed` over
`attempted` is the failure ratio; a wrong verdict, budget_exceeded result,
exception, non-Hall witness, failing suite or failing claim counts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BENCH = ROOT / "BENCHMARK.json"
SETUP_PROBES = 3   # before and again after the timed passes
# In a fresh process the first run of each small query is up to 1.6x slower
# (memory arenas, interpreter warm-up); that is set-up cost, not query cost,
# so an untimed pass over the small entries comes first.
WARMUP_MAX_ORDER = 200
COVERAGE_FLOOR = 0.9


def die(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_program():
    if not (SRC / "pihall" / "__init__.py").is_file():
        die(f"no pihall sources at {SRC}")
    sys.path.insert(0, str(SRC))
    try:
        import workloads
        prog = workloads.Program()
    except ImportError as exc:
        die(f"cannot import pihall from {SRC}: {exc}")
    if Path(prog.pihall.__file__).resolve().parent != SRC / "pihall":
        die(f"imported pihall from {prog.pihall.__file__}, not {SRC}")
    return prog


def measure_setup(workload: str) -> list[float]:
    """Seconds from spawning a fresh interpreter until it is ready to run
    its first query, once per probe.  Probes are taken both before and
    after the timed passes so that they sample the same stretch of host
    load as the passes do."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        line = proc.stdout.readline()
        times.append(time.perf_counter() - t0)
        proc.stdout.close()
        if proc.wait(timeout=120) != 0 or line.strip() != b"ready":
            die("set-up probe failed")
    return times


def quantile(values, q: int):
    """The q-th percentile (inclusive method); the value itself for one
    sample."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def git_commit() -> str | None:
    """The checked-out commit, read from .git (loose or packed refs), or
    None outside a git checkout."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    return None


def provenance(args, passes, notes) -> dict:
    import numpy
    digest = hashlib.sha256()
    for path in sorted((SRC / "pihall").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "run_seconds": args.seconds,
        "program_seeds": [s for s, _ in passes],
        "passes": len(passes),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "load": "closed loop, one client, one query at a time",
        "notes": notes,
    }


def select(prog, workloads, name):
    """(workload, entries of a timed pass, entries of the warm-up)."""
    w = workloads.WORKLOADS[name]
    entries = [e for e in prog.entries if w.keep(e)]
    return w, entries, [e for e in entries if e["order"] <= WARMUP_MAX_ORDER]


def latency_samples(passes) -> list[float]:
    """One sample per query: its mean latency over the run's passes.  A
    one-query workload (gl52-example) takes each pass as a sample instead.
    Averaging per query first keeps a percentile that falls between two
    clusters of query costs from jumping with one query's noise."""
    counts = {len(p.latencies_s) for _, p in passes}
    if len(counts) != 1 or counts == {1}:
        return [x for _, p in passes for x in p.latencies_s]
    return [statistics.fmean(p.latencies_s[i] for _, p in passes)
            for i in range(counts.pop())]


def failures_of(passes) -> list[str]:
    return [f"seed {s}: {f}" for s, p in passes for f in p.failures][:20]


def run_untraced(args, prog, workloads, layers, spans):
    notes = list(prog.notes)
    setup = measure_setup(args.workload)
    w, entries, warm = select(prog, workloads, args.workload)
    fn = w.run
    cycle = [args.seed + workloads.SEED_STRIDE * j for j in range(w.seeds)]
    query_b = layers.QUERY_BOUNDARIES.get(args.workload)
    rec = None
    if query_b is not None:
        rec = spans.Recorder()
        inst = spans.install(rec, [query_b])
        if inst.missing:
            notes.append(f"query boundary {query_b.target} not found; "
                         f"per-query latencies absent")
    warmup = [(args.seed, fn(warm, prog, args.seed, rec))]
    passes = []
    t_start = time.perf_counter()
    while True:
        t_cycle = time.perf_counter()
        for s in cycle:
            mark = 0 if rec is None else len(rec.start)
            p = fn(entries, prog, s, rec)
            if query_b is not None:
                p.latencies_s = rec.durations(query_b.span, since=mark)
            passes.append((s, p))
        now = time.perf_counter()
        if now - t_start + (now - t_cycle) > args.seconds:
            break
    setup += measure_setup(args.workload)
    walls = [p.wall_s for _, p in passes]
    lat = latency_samples(passes)
    metrics = {"wall_s": {"value": statistics.median(walls), "unit": "s"}}
    if lat:
        metrics["query_p50_ms"] = {"value": 1000 * quantile(lat, 50), "unit": "ms"}
        metrics["query_p75_ms"] = {"value": 1000 * quantile(lat, 75), "unit": "ms"}
    metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    metrics["peak_rss_mb"] = {
        "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "unit": "MB"}
    prov = provenance(args, passes, notes)
    prov.update({
        "samples": {"wall_s": len(walls), "query_p50_ms": len(lat),
                    "query_p75_ms": len(lat), "setup_s": len(setup),
                    "peak_rss_mb": 1},
        "latency_samples": (f"{len(lat)} per-query means over {len(passes)} passes"
                            if len(lat) < sum(len(p.latencies_s) for _, p in passes)
                            else f"{len(lat)} per-query latencies"),
        "pass_wall_s": walls, "setup_probe_s": setup,
        "warmup_passes": len(warmup),
        "failures": failures_of(warmup + passes)})
    return warmup + passes, metrics, prov


def _counts(rec) -> dict:
    out = {n: rec.calls[i] for i, n in enumerate(rec.names)}
    out.update({f"counter:{k}": v for k, v in rec.counters.items()})
    return out


def run_traced(args, prog, workloads, layers, spans, bench):
    notes = list(prog.notes)
    w, entries, warm = select(prog, workloads, args.workload)
    fn = w.run
    query_b = layers.QUERY_BOUNDARIES.get(args.workload)
    light = spans.Recorder()
    light_inst = spans.install(light, [query_b] if query_b else [])
    warm_pass, base_pass = (fn(es, prog, args.seed, light)
                            for es in (warm, entries))
    light_inst.remove()
    passes = [(args.seed, warm_pass), (args.seed, base_pass)]

    recs = []
    for _ in range(2):
        rec = spans.Recorder()
        inst = spans.install(rec, layers.BOUNDARIES)
        passes.append((args.seed, fn(entries, prog, args.seed, rec)))
        inst.remove()
        recs.append(rec)
    rec, traced = recs[0], passes[2][1]
    notes += [f"escaped alias: {e}" for e in inst.escaped]

    # self-check: a second traced pass must count exactly what the first did
    a, b = (_counts(r) for r in recs)
    diff = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
    selfcheck = "identical counters" if not diff else f"differs: {diff[:10]}"
    if diff:
        again = passes[3][1]
        again.failed += 1
        again.attempted += 1
        again.failures.append(f"self-check: counters differ in {diff[:10]}")

    values, absent = layers.per_layer_values(rec, inst.missing)
    base = base_pass.wall_s
    coverage = rec.top_level_seconds() / traced.wall_s
    values["trace.overhead_ratio"] = traced.wall_s / base
    values["trace.coverage_ratio"] = coverage
    if coverage < COVERAGE_FLOOR:
        notes.append(f"top-level spans cover {coverage:.3f} of the measured "
                     f"query time, below {COVERAGE_FLOOR}")
    # BENCHMARK.json is the one list of per-layer names and units
    metrics = {}
    for spec in bench["per_layer"]:
        name = spec["name"]
        if name in values:
            metrics[name] = {"value": values.pop(name), "unit": spec["unit"]}
        else:
            notes.append(f"{name} absent: "
                         + absent.pop(name, "layers.py computes no such metric"))
    notes += [f"{n} absent from the result: {why}" for n, why in absent.items()]
    notes += [f"{n} computed but not listed in BENCHMARK.json"
              for n in sorted(values)]

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"trace-{args.workload}-seed{args.seed}"
    rec.write_spans(f"{stem}.npz")
    summary = rec.summary()
    summary.update({"missing_boundaries": inst.missing, "notes": notes})
    Path(f"{stem}.json").write_text(json.dumps(summary, indent=1, sort_keys=True))

    prov = provenance(args, passes, notes)
    prov.update({
        "samples": {"per_layer": "the first of two traced passes",
                    "trace.overhead_ratio": "one traced / one untraced pass"},
        "untraced_wall_s": base, "traced_wall_s": traced.wall_s,
        "coverage_residue": 1 - coverage, "spans": summary["spans"],
        "self_check": selfcheck, "missing_boundaries": inst.missing,
        "failures": failures_of(passes)})
    return passes, metrics, prov


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not BENCH.is_file():
        die(f"no {BENCH.name} at {ROOT}")
    bench = json.loads(BENCH.read_text())
    prog = load_program()
    import layers
    import spans
    import workloads
    if args.workload not in workloads.WORKLOADS:
        die(f"unknown workload {args.workload!r}; "
            f"choose from {sorted(workloads.WORKLOADS)}")
    if args.setup_probe:
        w, entries, _ = select(prog, workloads, args.workload)
        if w.cold:
            prog.reset()
            prog.group_and_pi(entries[0])
        print("ready", flush=True)
        return 0

    if args.trace:
        passes, metrics, prov = run_traced(args, prog, workloads, layers,
                                           spans, bench)
    else:
        passes, metrics, prov = run_untraced(args, prog, workloads, layers,
                                             spans)
    attempted = sum(p.attempted for _, p in passes)
    failed = sum(p.failed for _, p in passes)
    print(json.dumps({"provenance": prov}))
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
