"""spherediv benchmark: one workload per invocation.

    python3 bench/run.py --workload decide_d8 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; spherediv is imported from its ``src``.
Every measured process is fresh and runs with one BLAS thread.  The run
starts one worker that sets up and makes the workload's fixed list of calls,
and 2 * PROBES_EACH_SIDE processes that only set up, half before the worker
and half after it, so that they meet different states of a shared machine.
``setup_s`` is the median set-up time over all of them; ``call_s`` the median
wall time per call; ``peak_rss_mb`` the worker's peak resident set.  With
``--trace 1`` only the worker runs: it traces its calls and the per-layer
metrics are printed instead.
The last line of standard output is the result as one JSON object.  Details
(every call time, the environment, the trace's spans) go to bench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
WORKLOADS = ("decide_d8", "certify_d8", "genericity_d3", "search_d3")
PROBES_EACH_SIDE = 3
# the whole run, every process included, ends within this many seconds
RUN_TIMEOUT_S = 175
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "PYTHONDONTWRITEBYTECODE": "1",
}


class BenchError(RuntimeError):
    pass


def run_worker(deadline: float, *args: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(PINNED_ENV)
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), *args],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(0.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {' '.join(args)} ran past the {RUN_TIMEOUT_S} s limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "spherediv" / "__init__.py").is_file():
        print(f"no spherediv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_TIMEOUT_S
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    worker_args = [*common, "--trace", str(args.trace)]
    if args.trace:
        worker_args += ["--trace-file", str(RESULTS / f"{stem}-spans.npz")]

    def setup_probes() -> list:
        count = 0 if args.trace else PROBES_EACH_SIDE
        return [run_worker(deadline, *common, "--setup-only")["setup_s"] for _ in range(count)]

    try:
        probes = setup_probes()
        worker = run_worker(deadline, *worker_args)
        probes += setup_probes()
    except BenchError as exc:
        print(exc, file=sys.stderr)
        return 1

    setups = probes + [worker["setup_s"]]
    times = worker["times"]
    problems = worker["problems"] + ([] if times else ["no call completed"])
    if args.trace:
        metrics = worker["layers"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "call_s": {"value": statistics.median(times) if times else 0.0, "unit": "s"},
            "peak_rss_mb": {"value": worker["peak_rss_mb"], "unit": "MB"},
        }
    details = dict(worker, setup_probes=probes, metrics=metrics)
    (RESULTS / f"{stem}.json").write_text(json.dumps(details, indent=1))
    for line in problems[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    for line in worker["failures"][:20]:
        print(f"operation failed: {line}", file=sys.stderr)
    if worker.get("absent"):
        print(f"absent layer metrics: {', '.join(worker['absent'])}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": worker["attempted"],
                "failed": len(worker["failures"]),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
