"""Steadiness check: sets of repeated runs, one seed each, and how far they agree.

    python3 bench/steadiness.py                      # 2 sets of 10 seeds, BENCHMARK.json's workloads
    python3 bench/steadiness.py --sets 1 --seeds 5 --workloads search_d3

Runs bench/run.py sequentially with BENCHMARK.json's run length.  Set i
uses seeds first_seed + i * seeds onward; the sets run one after the other,
each over every workload.  For every end-to-end metric of every workload it
prints, per set, the median, the quartiles (``statistics.quantiles(values,
n=4)``) and the spread (q3 - q1) / median, and between sets the change of the
median in the metric's worse direction, each next to the metric's bound.

The exit status is the acceptance rule: 1 if any run failed a check, if the
share of failed operations differs between runs, if a spread other than
setup_s's exceeds its bound, or if a median gets worse from one set to the
next by more than its bound (setup_s included); 0 otherwise.  A spread at or
above a third of its bound, setup_s's too, is the steadiness target and is
flagged without changing the exit status.  Every result goes to
bench/results/steadiness-<first seed>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from run import RESULTS, ROOT, WORKLOADS


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return dict(json.loads(proc.stdout.strip().splitlines()[-1]), wall_s=time.monotonic() - start)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seeds", type=int, default=10, help="runs per workload in each set")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS,
                        help="default: the workloads BENCHMARK.json lists")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    runs = {w: [] for w in workloads}  # workload -> one list of results per set
    for s in range(args.sets):
        first = args.first_seed + s * args.seeds
        for workload in workloads:
            results = []
            for seed in range(first, first + args.seeds):
                result = run_once(workload, seed, spec["run_seconds"])
                results.append(result)
                values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
                print(f"set {s + 1} {workload} seed {seed}: {values} "
                      f"failed {result['failed']}/{result['attempted']} in {result['wall_s']:.1f} s", flush=True)
            runs[workload].append(results)

    gate_failures, target_flags, report = [], 0, {}
    for workload, sets in runs.items():
        everything = [r for results in sets for r in results]
        if not all(r["correct"] for r in everything):
            gate_failures.append(f"{workload}: a check failed")
        if len({Fraction(r["failed"], r["attempted"]) for r in everything}) > 1:
            gate_failures.append(f"{workload}: the share of failed operations differs between runs")
        report[workload] = {"runs": sets, "median": {}, "spread": {}}
        print(workload)
        for name, metric in metrics.items():
            bound, medians, spreads = metric["bound"], [], []
            for s, results in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in results]
                q1, median, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / median
                medians.append(median)
                spreads.append(spread)
                note = ""
                if spread > bound and name != "setup_s":
                    gate_failures.append(f"{workload} {name}: spread {spread:.1%} in set {s + 1}")
                    note = "  <-- over the bound"
                elif spread >= bound / 3:
                    target_flags += 1
                    note = "  <-- over a third of the bound"
                print(f"  {name:12s} set {s + 1}: median {median:.4f} q1 {q1:.4f} q3 {q3:.4f} "
                      f"spread {spread:.1%} bound {bound:.0%}{note}", flush=True)
            for s in range(1, len(medians)):
                worse = (medians[s] - medians[s - 1]) / medians[s - 1]
                if metric["better"] == "higher":
                    worse = -worse
                over = worse > bound
                if over:
                    gate_failures.append(f"{workload} {name}: set {s + 1} median worse by {worse:.1%}")
                print(f"  {name:12s} set {s} -> {s + 1}: median worse by {worse:+.1%} "
                      f"bound {bound:.0%}{'  <-- over the bound' if over else ''}", flush=True)
            report[workload]["median"][name] = medians
            report[workload]["spread"][name] = spreads
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"steadiness-{args.first_seed}.json").write_text(json.dumps(report, indent=1))
    for line in gate_failures:
        print(f"outside the bounds: {line}")
    print(f"{target_flags} spread(s) at or above a third of the bound")
    print("within the bounds" if not gate_failures else "NOT within the bounds")
    return 1 if gate_failures else 0


if __name__ == "__main__":
    sys.exit(main())
