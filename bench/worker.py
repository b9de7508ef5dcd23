"""One measured process of one workload; started by run.py, not by hand.

Set-up (importing spherediv from the checkout's ``src``, building the run's
list of calls, one small warm-up call) is timed from the top of this file.
With ``--setup-only`` the process stops there.  Otherwise it makes the list
of calls, timing each one and checking each output, and prints one JSON
object as its last line.  With ``--trace 1`` it makes the list twice: traced
first, then untraced, so the tracing overhead is measured on the same inputs.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


def make_calls(workload, calls, tracer=None) -> dict:
    """Time and check each call; a tracer, if given, records the calls but not the checks."""
    times, failures, problems = [], [], []
    for call in calls:
        t0 = time.perf_counter()
        try:
            out = workload.run(call)
        except Exception as exc:  # a failed operation is counted, never fatal
            failures.append(f"call {call['k']}: {type(exc).__name__}: {exc}")
            continue
        times.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.active = False
        problems += [f"call {call['k']}: {p}" for p in workload.check(call, out)]
        if tracer is not None:
            tracer.active = True
    return {"times": times, "failures": failures, "problems": problems}


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-file")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import spherediv

    if Path(spherediv.__file__).resolve().parent != SRC / "spherediv":
        print(f"spherediv imported from {spherediv.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    calls = workload.calls(args.seed, args.seconds)
    workload.warm_up()
    setup_s = time.perf_counter() - START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    result = {"setup_s": setup_s, "calls": len(calls), "environment": environment()}
    if args.trace:
        from tracer import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()
        tracer.active = True
        try:
            traced = make_calls(workload, calls, tracer)
        finally:
            tracer.active = False
            tracer.uninstall()
        untraced = make_calls(workload, calls)
        layers, absent = layer_metrics(tracer, len(calls))
        traced_s = statistics.median(traced["times"])
        untraced_s = statistics.median(untraced["times"])
        layers["trace.calls"] = {"value": len(calls), "unit": "count"}
        layers["trace.call_s"] = {"value": traced_s, "unit": "s"}
        layers["trace.untraced_call_s"] = {"value": untraced_s, "unit": "s"}
        layers["trace.overhead_s"] = {"value": traced_s - untraced_s, "unit": "s"}
        result.update(
            times=traced["times"],
            untraced_times=untraced["times"],
            failures=traced["failures"] + untraced["failures"],
            problems=traced["problems"] + untraced["problems"],
            layers=layers,
            absent=absent,
            spans=tracer.span_count(),
        )
        if args.trace_file:
            tracer.write(args.trace_file)
    else:
        result.update(make_calls(workload, calls))
    result["attempted"] = len(calls) * (2 if args.trace else 1)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
