#!/usr/bin/env python3
"""Check that the benchmark is steady across seeds.

    python3 perfbench/steadiness.py [--workload NAME ...] [--trace 0|1]

Runs perfbench/run.py once per seed 1-10 and workload (sequentially, with
the run_seconds of BENCHMARK.json) and prints, per metric, the median over the
runs and the spread: the distance between the first and third quartile of
statistics.quantiles(values, n=4), as a share of the median. For the
end-to-end metrics it also prints the bound and whether the spread is below
a third of it. Raw results go to .bench_build/steadiness-<workload>.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def run_once(workload, seed, seconds, trace):
    result = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False)
    if result.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {result.returncode}\n{result.stderr}")
    return json.loads(result.stdout.strip().splitlines()[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, allow_abbrev=False,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        runs = []
        for seed in SEEDS:
            runs.append(run_once(workload, seed, spec["run_seconds"], args.trace))
            print(f"{workload} seed {seed}: correct={runs[-1]['correct']} "
                  f"failed={runs[-1]['failed']}/{runs[-1]['attempted']}", flush=True)
        out = ROOT / ".bench_build" / f"steadiness-{workload}.json"
        out.write_text(json.dumps(runs, indent=1))
        print(f"\n{workload}: {len(runs)} runs, all correct: "
              f"{all(r['correct'] for r in runs)}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / abs(med) if med else float("inf")
            line = f"  {name:34s} median {med:14.6g}  spread {spread:7.2%}"
            if name in bounds:
                ok = spread < bounds[name] / 3
                line += f"  bound {bounds[name]:.2f} {'steady' if ok else 'NOT steady'}"
            print(line)


if __name__ == "__main__":
    main()
