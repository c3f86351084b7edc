"""The answers of the oracle and the reduction on the 45 manifest pairs, at
seeds 1 and 2, pinned by one digest; the GL5(2) example's report at seed 1,
pinned by another; the `results` of a seed-1 corpus run (entries and
suites, `run_corpus().to_dict()`), pinned by a third, which
tests/test_acceptance.py checks on the run it already makes.

A change that only makes the program faster must leave all three digests
alone.  A change that moves a witness (another member of the same class,
another Hall subgroup) updates PINNED_DIGEST and lists the moved pairs in
CHANGES.md; `python tests/test_pinned_answers.py` prints the three digests
of the current tree, and `--json` prints the answers and the report the
first two cover.
"""

import hashlib
import json
import sys

from pihall import hall, structure, zoo
from pihall.arith import PiSet
from pihall.example_gl52 import run_example
from pihall.reduction import cpi_reduce
from pihall.suites import run_corpus

PINNED_DIGEST = (
    "9bec78d8907e24dd6519b7e7653f625499edfed13956b4636c67f3dfb79c6e21")
PINNED_EXAMPLE_DIGEST = (
    "0e5e8ed89f38a2d96d92022b242b861692f6138577f1a2f4311e8830ebdc7b61")
PINNED_CORPUS_DIGEST = (
    "2721bd9f4fb5841b59a5c60695c5b6701939ecbebbc2cb786a9ac04b44177348")
SEEDS = (1, 2)


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


def digest(answers) -> str:
    blob = json.dumps(answers, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def test_pinned_answers():
    assert digest(pinned_answers()) == PINNED_DIGEST


def test_pinned_example_report():
    assert digest(example_report()) == PINNED_EXAMPLE_DIGEST


if __name__ == "__main__":
    answers, report = pinned_answers(), example_report()
    if "--json" in sys.argv[1:]:
        print(json.dumps({"answers": answers, "example": report},
                         sort_keys=True, indent=1))
    else:
        print("answers", digest(answers))
        print("example", digest(report))
        _cold()
        print("corpus", digest(run_corpus().to_dict()))
