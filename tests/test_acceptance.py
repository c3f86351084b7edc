"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import json
import subprocess
import sys
import time

import pytest

from pihall import zoo
from pihall.arith import PiSet
from pihall.config import DEFAULT_BUDGETS
from pihall.hall import classify_ECD, _classify_cache
from pihall.structure import _table_cache
from pihall.suites import run_corpus
from test_pinned_answers import PINNED_CORPUS_DIGEST, digest

CORPUS_TIME_LIMIT_S = 600
EXAMPLE_TIME_LIMIT_S = 60


@pytest.fixture(scope="module")
def corpus_run():
    t0 = time.perf_counter()
    run = run_corpus()
    elapsed = time.perf_counter() - t0
    return run, elapsed


def _line(ok: bool, label: str, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")


def suite_by_key(run, key):
    return next(s for s in run.suites if s.key == key)


def test_criterion_1_oracle_reduction_agreement(corpus_run):
    run, elapsed = corpus_run
    entries = run.entries
    ok = (len(entries) >= 30
          and all(r.agree is True for r in entries)
          and all(r.matches_manifest for r in entries)
          and elapsed <= CORPUS_TIME_LIMIT_S)
    _line(ok, "criterion 1 (oracle-reduction agreement)",
          f"{len(entries)} corpus pairs, all agree and match the frozen "
          f"manifest, {elapsed:.1f}s")
    assert len(entries) >= 30
    for r in entries:
        assert r.agree is True, (r.name, r.pi, r.comparison)
        assert r.matches_manifest, (r.name, r.pi, r.observed, r.expected)
    assert elapsed <= CORPUS_TIME_LIMIT_S


def test_criterion_2_worked_example(gl52_example_run):
    rep, _, elapsed_s = gl52_example_run
    names = {c["name"] for c in rep["claims"]}
    required = {
        "base-order-factorization", "extension-order",
        "hall-212", "hall-122", "hall-221",
        "self-normalizing-212", "self-normalizing-122", "self-normalizing-221",
        "pairwise-non-conjugate", "involution-fixes-first-class",
        "involution-swaps-classes", "extension-hall-order", "extension-hall",
        "meets-inner-in-first-rep", "induced-class-count",
    }
    ok = (rep["verdict"] and required <= names
          and elapsed_s <= EXAMPLE_TIME_LIMIT_S
          and "desk scale" in rep["exhaustiveness"])
    _line(ok, "criterion 2 (worked example)",
          f"{len(rep['claims'])} claims verified in {elapsed_s * 1000:.0f} ms; "
          f"three-class exhaustiveness declared an assumption")
    assert rep["verdict"]
    assert required <= names
    assert elapsed_s <= EXAMPLE_TIME_LIMIT_S
    assert "desk scale" in rep["exhaustiveness"]


def test_criterion_3_theorem1_suite(corpus_run):
    run, _ = corpus_run
    s = suite_by_key(run, "theorem-1")
    _line(s.passed, "criterion 3 (theorem-1 property suite)",
          f"{s.checked} (group, normal subgroup) instances, "
          f"{len(s.violations)} violations")
    assert s.checked > 0
    assert s.passed, s.violations


LEMMA_KEYS = ["lemma-4.1", "lemma-4.2", "lemma-5", "lemma-7", "lemma-9",
              "lemma-11", "lemma-12", "lemma-13", "lemma-15", "lemma-16"]


def test_criterion_4_lemma_suites(corpus_run):
    run, _ = corpus_run
    all_ok = True
    for key in LEMMA_KEYS:
        s = suite_by_key(run, key)
        all_ok = all_ok and s.passed and s.checked > 0
        _line(s.passed and s.checked > 0,
              f"criterion 4 ({key})",
              f"{s.checked} instances, {len(s.violations)} violations")
    for key in LEMMA_KEYS:
        s = suite_by_key(run, key)
        assert s.checked > 0, f"{key} had no instances"
        assert s.passed, (key, s.violations)
    assert all_ok


def test_criterion_5_theorem10_spot_check(corpus_run):
    run, _ = corpus_run
    s = suite_by_key(run, "theorem-10")
    _line(s.passed and s.checked > 0, "criterion 5 (almost-simple counts)",
          f"{s.checked} almost simple instances within the allowed sets")
    assert s.checked > 0
    assert s.passed, s.violations


def test_criterion_6_corollary18(corpus_run):
    run, _ = corpus_run
    s = suite_by_key(run, "corollary-18")
    _line(s.passed, "criterion 6 (composition-factor criterion)",
          f"{s.checked} (group, pi) checks over pi in "
          "{{2,5},{3,5},{5,7}} match the oracle")
    assert s.checked > 0
    assert s.passed, s.violations


def test_corpus_results_are_pinned(corpus_run):
    run, _ = corpus_run
    assert [s.checked for s in run.suites] == [
        77, 20, 75, 75, 75, 68, 68, 68, 2, 4, 133, 11, 63, 45]
    assert digest(run.to_dict()) == PINNED_CORPUS_DIGEST


def test_criterion_7_benchmarks():
    # fresh builds: the chain caches live on the group objects
    t0 = time.perf_counter()
    g52 = zoo.gl(5, 2)
    assert g52.chain().order() == 9999360
    t_bsgs = time.perf_counter() - t0

    t0 = time.perf_counter()
    hat = zoo.gl52_hat()
    assert hat.group.chain().order() == 19998720
    t_hat = time.perf_counter() - t0

    worst_name, worst = None, 0.0
    for entry in zoo.corpus_manifest():
        _classify_cache.clear()
        _table_cache.clear()
        G = zoo.build_named(entry["name"])
        pi = PiSet.parse(entry["pi"])
        t0 = time.perf_counter()
        classify_ECD(G, pi, DEFAULT_BUDGETS, 1)
        dt = time.perf_counter() - t0
        if dt > worst:
            worst_name, worst = f"{entry['name']}/{entry['pi']}", dt
    ok = t_bsgs <= 1.0 and t_hat <= 5.0 and worst <= 60.0
    _line(ok, "criterion 7 (benchmarks)",
          f"chain(gl(5,2))={t_bsgs * 1000:.0f}ms (<=1s), "
          f"chain(extension)={t_hat * 1000:.0f}ms (<=5s), "
          f"slowest oracle entry {worst_name}={worst:.1f}s (<=60s)")
    assert t_bsgs <= 1.0
    assert t_hat <= 5.0
    assert worst <= 60.0


def _results_bytes(path) -> bytes:
    data = json.loads(open(path).read())
    data.pop("timings", None)
    return json.dumps(data, indent=1, sort_keys=True).encode()


def test_criterion_8_determinism(tmp_path):
    outputs = []
    for i in (1, 2):
        out = tmp_path / f"corpus{i}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "pihall.cli", "corpus", "--seed", "1",
             "--json", str(out)],
            capture_output=True, text=True, timeout=CORPUS_TIME_LIMIT_S)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        outputs.append(_results_bytes(out))
    ok = outputs[0] == outputs[1]
    _line(ok, "criterion 8 (determinism)",
          f"two seeded corpus runs: results sections byte-identical "
          f"({len(outputs[0])} bytes)")
    assert ok
