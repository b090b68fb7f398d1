"""Run the benchmark over several seeds and summarise the spread.

    python3 bench/repeat.py --runs 10 [--workload W ...] [--out FILE]

For each workload it makes one run of BENCHMARK.json's run_seconds per
seed 0..runs-1 with tracing off, then one traced run with seed 0.  For
every end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and their distance as a share of
the median, and checks it against a third of the metric's bound in
BENCHMARK.json.  ``--out`` writes everything, with the machine it ran
on, as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900, check=True)
    lines = proc.stdout.strip().splitlines()
    return {**json.loads(lines[-1]), "log": lines[-2]}


def machine() -> dict:
    probe = subprocess.run(
        [sys.executable, "-c", "import numpy, scipy, mpmath; "
         "print(numpy.__version__, scipy.__version__, mpmath.__version__)"],
        capture_output=True, text=True, check=True).stdout.split()
    mem = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    return {"nproc": os.cpu_count(), "mem_total_gib": round(mem / 2 ** 30, 2),
            "python": platform.python_version(), "numpy": probe[0],
            "scipy": probe[1], "mpmath": probe[2], "machine": platform.machine()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"machine": machine(), "run_seconds": seconds, "runs": args.runs,
              "workloads": {}}
    steady = True
    for workload in args.workload or WORKLOADS:
        results = [one_run(workload, seed, seconds, 0) for seed in range(args.runs)]
        summary = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            summary[name] = {"unit": results[0]["metrics"][name]["unit"],
                             "median": med, "q1": q1, "q3": q3,
                             "spread": spread, "values": values}
            flag = "" if spread < bound / 3 else "  WIDE"
            steady &= not flag
            print(f"{workload:10s} {name:12s} median {med:12.4f}  q1 {q1:12.4f}  "
                  f"q3 {q3:12.4f}  spread {spread:6.3f} (bound {bound}){flag}",
                  flush=True)
        traced = one_run(workload, 0, seconds, 1)
        report["workloads"][workload] = {
            "correct": all(r["correct"] for r in results + [traced]),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": summary,
            "per_layer_seed0": {k: v["value"] for k, v in traced["metrics"].items()},
            "passes": [r["log"] for r in results],
        }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
