"""The answers of the oracle and the reduction on the 45 manifest pairs, at
seeds 1 and 2, pinned by one digest; the GL5(2) example's report at seed 1,
pinned by another; the `results` of a seed-1 corpus run (entries and
suites, `run_corpus().to_dict()`), pinned by a third, which
tests/test_acceptance.py checks on the run it already makes; the
`results` of `pihall k` on seven inputs (K_INPUTS), pinned by a fourth;
and what every CLI command shows on CLI_RUNS (exit code, stdout and the
`--json` report), pinned by a fifth.

A change that only makes the program faster must leave all five digests
alone.  A change that moves a witness (another member of the same class,
another Hall subgroup) updates PINNED_DIGEST and lists the moved pairs in
CHANGES.md; `python tests/test_pinned_answers.py` prints the five digests
of the current tree, `--json` prints the answers and the report the first
two cover, and `--moved OLD.json` prints (name, pi, seed, field) for each
answer that differs from OLD.json, a `--json` dump of another tree.
"""

import contextlib
import hashlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

from pihall import cli, hall, structure, zoo
from pihall.arith import PiSet
from pihall.example_gl52 import run_example
from pihall.reduction import cpi_reduce
from pihall.suites import run_corpus

PINNED_DIGEST = (
    "1a942e0e8197dc59034d4e1823b64db6d79007b8ee8b7eabfd6a0c8a40082339")
PINNED_EXAMPLE_DIGEST = (
    "0e5e8ed89f38a2d96d92022b242b861692f6138577f1a2f4311e8830ebdc7b61")
PINNED_CORPUS_DIGEST = (
    "2721bd9f4fb5841b59a5c60695c5b6701939ecbebbc2cb786a9ac04b44177348")
PINNED_K_DIGEST = (
    "314efc3feaf10d2457503cf791004bc2450e6384cf2950453bb2d26f8ab30fed")
PINNED_CLI_DIGEST = (
    "01c668bf3c3cfae3cfa85cfc789a23e66fe82973afbfd9e2b02394d676c2ee58")
SEEDS = (1, 2)
# the pairs whose reduction witness moved when found groups stopped
# adopting the chain that found them, and when subgroup searches stopped
# walking the base point's own known-subgroup orbit (sym5)
MOVED_PAIRS = (("sym4wr2", "2,3"), ("sym4wr2", "2"), ("alt5wr2", "2,3"),
               ("sym5", "2,3"))
# (group, --normal, --pi) for `pihall k`
K_INPUTS = (("gl3_2", "zoo:gl3_2", "2,3"), ("sym5", "derived", "2,3"),
            ("alt5wr2", "socle", "2,3"), ("alt5wr2", "socle", "2,5"),
            ("sym4wr2", "minimal:0", "2"), ("alt5xalt5", "minimal:0", "2,3"),
            ("psl2_11", "zoo:psl2_11", "2,3"))
# every command and each of its report branches; MANIFEST stands for a
# manifest of the CORPUS_PAIRS entries
CORPUS_PAIRS = (("alt5", "2,3"), ("sym4", "2"), ("gl3_2", "2,3"))
CLI_RUNS = (
    ["analyze", "alt5", "--pi", "2,3"],
    ["analyze", "gl4_2", "--pi", "2,3", "--budget-order", "50"],
    ["reduce", "sym5", "--pi", "2,3"],
    ["reduce", "sym5", "--pi", "2,3", "--compare-oracle"],
    # the reduction answers, the oracle is past the budget: agree None
    ["reduce", "alt5xalt5", "--pi", "2,3", "--compare-oracle",
     "--budget-order", "3000"],
    ["reduce", "gl4_2", "--pi", "2,3", "--budget-order", "50"],
    ["k", "sym5", "--normal", "derived", "--pi", "2,3"],
    ["k", "psl2_7xc2", "--normal", "center", "--pi", "2,3"],
    # the normal subgroup needs no table, G's is past the budget
    ["k", "gl3_2", "--normal", "zoo:gl3_2", "--pi", "2,3",
     "--budget-order", "100"],
    ["corpus", "--manifest", "MANIFEST"],
    ["example-gl52"],
    ["zoo", "list"],
    ["zoo", "emit", "alt5"],
)


def _gens(H):
    return None if H is None else [list(g.images) for g in H.generators]


def _cold():
    # every query starts from empty caches, as a fresh CLI run would
    hall._classify_cache.clear()
    structure._table_cache.clear()


def pinned_answers() -> list:
    out = []
    for e in zoo.corpus_manifest():
        pi = PiSet.parse(e["pi"])
        for seed in SEEDS:
            _cold()
            G = zoo.build_named(e["name"])
            rep = hall.classify_ECD(G, pi, seed=seed)
            _cold()
            trace = cpi_reduce(zoo.build_named(e["name"]), pi, seed=seed)
            out.append({
                "name": e["name"], "pi": e["pi"], "seed": seed,
                "flags": rep.flags(),
                "class_sizes": rep.classes.class_sizes,
                "class_reps": [_gens(H) for H in rep.classes.class_reps],
                "d_witness": _gens(rep.d_witness),
                "reduction": trace.to_dict(),
                "series_terms": [_gens(T) for T in trace.series.terms],
            })
    return out


def example_report() -> dict:
    _cold()
    return run_example(seed=1)


def k_results() -> list:
    """The `results` of `pihall k --json` on each of K_INPUTS, each run
    from empty caches."""
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "k.json"
        for group, normal, pi in K_INPUTS:
            _cold()
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["k", group, "--normal", normal, "--pi", pi,
                                 "--json", str(path)])
            assert code == 0, (group, normal, pi)
            out.append(json.loads(path.read_text())["results"])
    return out


def cli_runs() -> list:
    """Per run of CLI_RUNS, each from empty caches: the exit code, stdout
    with elapsed times masked, and the `--json` report (None if none is
    written) without its timings; temporary paths read <tmp>."""
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        manifest = Path(tmp) / "m.json"
        manifest.write_text(json.dumps({"entries": [
            e for e in zoo.corpus_manifest()
            if (e["name"], e["pi"]) in CORPUS_PAIRS]}))
        for i, argv in enumerate(CLI_RUNS):
            path = Path(tmp) / f"{i}.json"
            run = [str(manifest) if a == "MANIFEST" else a for a in argv]
            _cold()
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = cli.main(run + ["--json", str(path)])
            report = None
            if path.exists():
                report = json.loads(path.read_text().replace(tmp, "<tmp>"))
                report.pop("timings")
            out.append({"argv": argv, "code": code,
                        "stdout": re.sub(r"\d+ ms", "N ms",
                                         stdout.getvalue()
                                         ).replace(tmp, "<tmp>"),
                        "report": report})
    return out


def answers_of(name: str, pi: str, seed: int) -> tuple:
    """classify_ECD's flags and class reps and cpi_reduce's trace for one
    pair, each on a freshly built group, through whatever is cached."""
    rep = hall.classify_ECD(zoo.build_named(name), PiSet.parse(pi),
                            seed=seed)
    trace = cpi_reduce(zoo.build_named(name), PiSet.parse(pi), seed=seed)
    return (rep.flags(), [_gens(H) for H in rep.classes.class_reps],
            trace.to_dict())


def digest(answers) -> str:
    blob = json.dumps(answers, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def moved(old: list, new: list) -> list:
    """(name, pi, seed, field) for each field of each answer in `new` that
    differs from the same pair's in `old`; a field holding a dict is
    compared key by key, as "field.key"."""
    before = {(a["name"], a["pi"], a["seed"]): a for a in old}
    out = []
    for a in new:
        key = (a["name"], a["pi"], a["seed"])
        b = before.get(key, {})
        for field, value in sorted(a.items()):
            was = b.get(field)
            if isinstance(value, dict) and isinstance(was, dict):
                out.extend((*key, f"{field}.{sub}")
                           for sub in sorted(value.keys() | was.keys())
                           if value.get(sub) != was.get(sub))
            elif value != was:
                out.append((*key, field))
    return out


def test_pinned_answers():
    assert digest(pinned_answers()) == PINNED_DIGEST


def test_answers_do_not_depend_on_call_order():
    # run cold, again after dropping only the tables (the classify cache
    # keeps classes named in the dropped ones), and after the rest of the
    # manifest filled both caches
    for seed in SEEDS:
        cold = {}
        for pair in MOVED_PAIRS:
            _cold()
            cold[pair] = answers_of(*pair, seed)
            structure._table_cache.clear()
            assert answers_of(*pair, seed) == cold[pair], (pair, seed)
        _cold()
        for e in zoo.corpus_manifest():
            if (e["name"], e["pi"]) not in MOVED_PAIRS:
                answers_of(e["name"], e["pi"], seed)
        for pair in MOVED_PAIRS:
            assert answers_of(*pair, seed) == cold[pair], (pair, seed)


def test_pinned_example_report():
    assert digest(example_report()) == PINNED_EXAMPLE_DIGEST


def test_pinned_k_results():
    assert digest(k_results()) == PINNED_K_DIGEST


def test_pinned_cli_runs():
    assert digest(cli_runs()) == PINNED_CLI_DIGEST


if __name__ == "__main__":
    if "--moved" in sys.argv[1:]:
        path = sys.argv[sys.argv.index("--moved") + 1]
        old = json.loads(Path(path).read_text())["answers"]
        for row in moved(old, pinned_answers()):
            print(*row)
        sys.exit(0)
    answers, report = pinned_answers(), example_report()
    if "--json" in sys.argv[1:]:
        print(json.dumps({"answers": answers, "example": report},
                         sort_keys=True, indent=1))
    else:
        print("answers", digest(answers))
        print("example", digest(report))
        _cold()
        print("corpus", digest(run_corpus().to_dict()))
        print("k", digest(k_results()))
        print("cli", digest(cli_runs()))
