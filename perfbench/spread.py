"""Run-to-run spread of the end-to-end metrics across seeds.

    python3 perfbench/spread.py [--workloads W,...] [--seeds 1,2,...]
                                [--seconds S] [--out FILE]

Runs run.py once per (workload, seed), one after another, and prints for
every end-to-end metric of BENCHMARK.json its median, its interquartile
range as a share of the median (statistics.quantiles, n=4) and its bound.
A spread above a third of its bound is flagged.  The raw result lines go
to FILE as JSON when --out is given.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    raw: dict = {}
    status = 0
    for w in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        raw[w] = []
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"),
                 "--workload", w, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 else None
            raw[w].append({"seed": seed, "returncode": proc.returncode,
                           "result": result,
                           "provenance": json.loads(lines[-2])["provenance"]
                           if result else None})
            if result is None or not result["correct"]:
                print(f"{w} seed {seed}: FAILED rc={proc.returncode} "
                      f"{proc.stderr[-500:]} {lines[-1:] }")
                status = 1
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for m in bench["end_to_end"]:
            v = values.get(m["name"], [])
            if len(v) < 2:
                print(f"{w:14s} {m['name']:14s} only {len(v)} values")
                status = 1
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            flag = ""
            if m["name"] != "setup_s" and spread > m["bound"] / 3:
                flag = "  <-- above bound/3"
            print(f"{w:14s} {m['name']:14s} median {med:10.4f}  "
                  f"spread {spread:6.3f}  bound {m['bound']}{flag}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(raw, indent=1))
    return status


if __name__ == "__main__":
    sys.exit(main())
