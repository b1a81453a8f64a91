#!/usr/bin/env python3
"""Run sets of benchmark runs and print each metric's spread per set.

    python3 perfbench/sets.py --runs 10 --sets 2
    python3 perfbench/sets.py --workloads long-app --runs 5 --sets 1

Runs ``perfbench/run.py`` one run at a time with tracing off, for the
``run_seconds`` of ``BENCHMARK.json``, each run with its own seed (set
s, run i uses seed first_seed + s * runs + i), and prints for every
metric of every workload its unit and, per set, the median, the
quartiles and the spread: the quartile distance as a share of the
median, from ``statistics.quantiles(values, n=4)``.  It also
prints each metric's bound from ``BENCHMARK.json`` and how far each
later set's median moved from the first's.  The bounds in
``BENCHMARK.json`` are set from this output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    for workload in args.workloads.split(","):
        sets = []
        for s in range(args.sets):
            results = []
            for i in range(args.runs):
                seed = args.first_seed + s * args.runs + i
                results.append(one_run(workload, seed, spec["run_seconds"]))
                values = {k: round(v["value"], 4) for k, v in results[-1]["metrics"].items()
                          if k in bounds}
                print(f"# {workload} set {s + 1} seed {seed}: "
                      f"correct={results[-1]['correct']} attempted={results[-1]['attempted']} "
                      f"failed={results[-1]['failed']} {values}", flush=True)
            sets.append(results)
        report(workload, sets, bounds)
    return 0


def report(workload: str, sets: list[list[dict]], bounds: dict) -> None:
    print(f"\n{workload}")
    for s, results in enumerate(sets, start=1):
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        correct = all(r["correct"] for r in results)
        print(f"  set {s}: {len(results)} runs, fits attempted {attempted}, failed {failed}, "
              f"all checks passed: {correct}")
    print(f"  {'metric':<26}{'unit':<7}{'set':>4}{'median':>14}{'q1':>14}{'q3':>14}"
          f"{'spread':>9}{'shift':>9}{'bound':>7}")
    for name, first in sets[0][0]["metrics"].items():
        base = None
        for s, results in enumerate(sets, start=1):
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            spread = (q3 - q1) / med if med else float("nan")
            shift = f"{(med - base) / base:+.3f}" if base else ""
            base = base or med
            bound = f"{bounds[name]:.2f}" if name in bounds else ""
            print(f"  {name:<26}{first['unit']:<7}{s:>4}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}"
                  f"{spread:>9.3f}{shift:>9}{bound:>7}")


if __name__ == "__main__":
    sys.exit(main())
