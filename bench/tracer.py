"""Per-layer tracing from outside the program.

``Tracer.install`` wraps public spherediv names (and ``scipy.optimize.minimize``,
which the search drives) in every module namespace that holds them, plus the
numpy.linalg factorizations the layers call.  While ``active`` is set, each
wrapped call records a span (name, start, end, parent); a span's self time is
its duration minus that of its child spans.  numpy.linalg calls are not spans:
each one made while a span is open is counted and timed, and its time stays
inside that span's self time.  Spans are kept in memory, in flat
arrays, and written out by ``write`` as one .npz file.  A public name that
no longer exists is recorded as absent, and every layer metric that needs
it is reported absent rather than failing.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter

import numpy as np

# (module that defines the name, public name); "Class.method" patches the class
TRACE_POINTS = [
    ("spherediv.harmonics", "GegenbauerTable.eval"),
    ("spherediv.sampling", "uniform_sphere"),
    ("spherediv.sampling", "derive_rng"),
    ("spherediv.rotations", "haar_sample"),
    ("spherediv.rotations", "Rotation.__post_init__"),
    ("spherediv.divisibility", "build_zonal_basis"),
    ("spherediv.divisibility", "operator_gram"),
    ("spherediv.divisibility", "operator_matrix"),
    ("spherediv.divisibility", "weighted_singular_values"),
    ("spherediv.divisibility", "kernel_witness"),
    ("spherediv.divisibility", "HarmonicFunction.__call__"),
    ("spherediv.divisibility", "verify_divisor"),
    ("spherediv.divisibility", "divisibility_test"),
    ("spherediv.experiments", "run_genericity"),
    ("spherediv.experiments", "search_divisible"),
    ("spherediv.experiments", "cayley_rotation"),
    ("scipy.optimize", "minimize"),
]
LINALG = ("svd", "eigh", "eigvalsh", "solve", "cond", "qr", "det")


def _n3(matrix) -> float:
    shape = np.shape(matrix)
    if len(shape) < 2:
        return 0.0
    m, n = shape[-2], shape[-1]
    return float(m) * n * min(m, n)


class Tracer:
    def __init__(self):
        self.active = False
        self.names: list = []
        # one entry per span; parent is a span index or -1
        self.spans = {"name": array("i"), "start": array("d"), "end": array("d"), "parent": array("q")}
        self.stats: dict = {}  # name -> [calls, total s, self s]
        self.counts: Counter = Counter()
        self.absent: list = []
        self._stack: list = []  # [span index, seconds covered by children]
        self._open: Counter = Counter()
        self._patches: list = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        for module_name, public in TRACE_POINTS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(public)
                continue
            if "." in public:
                cls_name, attr = public.split(".")
                cls = getattr(module, cls_name, None)
                original = None if cls is None else cls.__dict__.get(attr)
                if original is None:
                    self.absent.append(public)
                    continue
                self._patch(cls, attr, self._wrap(public, original))
                continue
            original = getattr(module, public, None)
            if original is None:
                self.absent.append(public)
                continue
            wrapper = self._wrap(public, original)
            self._patch(module, public, wrapper)
            for name, mod in list(sys.modules.items()):
                if mod is not module and name.split(".")[0] == "spherediv":
                    if getattr(mod, public, None) is original:
                        self._patch(mod, public, wrapper)
        for fn in LINALG:
            self._patch(np.linalg, fn, self._wrap_linalg(getattr(np.linalg, fn)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    # -- recording --------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self
        name_id = len(self.names)
        self.names.append(name)
        self.stats[name] = [0, 0.0, 0.0]
        on_call = ON_CALL.get(name)
        on_result = ON_RESULT.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack, spans = tracer._stack, tracer.spans
            parent = stack[-1][0] if stack else -1
            if on_call is not None:
                on_call(tracer, parent, *args, **kwargs)
            index = len(spans["name"])
            spans["name"].append(name_id)
            spans["parent"].append(parent)
            spans["end"].append(0.0)
            frame = [index, 0.0]
            stack.append(frame)
            tracer._open[name] += 1
            start = time.perf_counter()
            spans["start"].append(start)
            try:
                out = fn(*args, **kwargs)
            finally:
                spans["end"][index] = end = time.perf_counter()
                tracer._open[name] -= 1
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                entry = tracer.stats[name]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[1]
            if on_result is not None:
                on_result(tracer, out)
            return out

        return wrapper

    def _wrap_linalg(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not (tracer.active and tracer._stack):
                return fn(*args, **kwargs)
            start = time.perf_counter()
            out = fn(*args, **kwargs)
            end = time.perf_counter()
            work = _n3(args[0]) if args else 0.0
            tracer.counts["linalg_calls"] += 1
            tracer.counts["linalg_s"] += end - start
            tracer.counts["linalg_n3"] += work
            if tracer._open["divisibility_test"]:
                tracer.counts["linalg_test_calls"] += 1
            return out

        return wrapper

    def parent_name(self, parent: int) -> str:
        return self.names[self.spans["name"][parent]] if parent >= 0 else ""

    def total_s(self, name) -> float:
        return self.stats[name][1]

    def self_s(self, name) -> float:
        return self.stats[name][2]

    def calls(self, name) -> int:
        return self.stats[name][0]

    # -- output -----------------------------------------------------------

    def span_count(self) -> int:
        return len(self.spans["name"])

    def write(self, path) -> None:
        """Spans as span_* arrays, plus the table of span names and the absent names."""
        arrays = {f"span_{k}": np.frombuffer(v, dtype=v.typecode) for k, v in self.spans.items()}
        np.savez_compressed(path, names=np.array(self.names), absent=np.array(self.absent, dtype=str), **arrays)


def _gegenbauer_points(tracer, parent, table, n, t):
    tracer.counts["gegenbauer_points"] += int(np.size(t))


def _sphere_points(tracer, parent, d, size, rng=None):
    tracer.counts["sphere_points"] += int(size)
    if tracer.parent_name(parent) == "build_zonal_basis":
        tracer.counts["basis_attempts"] += 1


def _harmonic_eval(tracer, parent, harmonic, x):
    points = np.shape(x)[0] if np.ndim(x) == 2 else 1
    size = points * harmonic.basis.dim * 8
    tracer.counts["harmonic_eval_bytes"] = max(tracer.counts["harmonic_eval_bytes"], size)


def _verified(tracer, result):
    tracer.counts["verify_samples"] += result.n_samples


def _tested(tracer, report):
    tracer.counts["degrees"] += len(report.degrees)
    tracer.counts["divisors_kept"] += int(report.divisor is not None)


def _searched(tracer, run):
    tracer.counts["search_evals"] += len(run.trace)


ON_CALL = {
    "GegenbauerTable.eval": _gegenbauer_points,
    "uniform_sphere": _sphere_points,
    "HarmonicFunction.__call__": _harmonic_eval,
}
ON_RESULT = {
    "verify_divisor": _verified,
    "divisibility_test": _tested,
    "search_divisible": _searched,
}


def _ratio(num: float, base: float) -> float:
    # a ratio whose base is 0 (no such work on this workload) reads 0
    return num / base if base else 0.0


# name, unit, public names it needs, value over the whole traced pass,
# and whether the value is divided by the number of entry-point calls
LAYER_METRICS = [
    ("harmonics.gegenbauer_s", "s", ["GegenbauerTable.eval"], lambda t: t.self_s("GegenbauerTable.eval"), True),
    ("harmonics.gegenbauer_points", "count", ["GegenbauerTable.eval"], lambda t: t.counts["gegenbauer_points"], True),
    ("sampling.sphere_points", "count", ["uniform_sphere"], lambda t: t.counts["sphere_points"], True),
    ("sampling.uniform_sphere_s", "s", ["uniform_sphere"], lambda t: t.total_s("uniform_sphere"), True),
    ("sampling.derive_rng_calls", "count", ["derive_rng"], lambda t: t.calls("derive_rng"), True),
    ("sampling.derive_rng_s", "s", ["derive_rng"], lambda t: t.total_s("derive_rng"), True),
    ("rotations.haar_sample_calls", "count", ["haar_sample"], lambda t: t.calls("haar_sample"), True),
    ("rotations.haar_sample_s", "s", ["haar_sample"], lambda t: t.total_s("haar_sample"), True),
    ("rotations.validate_calls", "count", ["Rotation.__post_init__"], lambda t: t.calls("Rotation.__post_init__"), True),
    ("rotations.validate_s", "s", ["Rotation.__post_init__"], lambda t: t.total_s("Rotation.__post_init__"), True),
    ("divisibility.basis_builds", "count", ["build_zonal_basis"], lambda t: t.calls("build_zonal_basis"), True),
    ("divisibility.basis_attempts", "count", ["build_zonal_basis", "uniform_sphere"], lambda t: t.counts["basis_attempts"], True),
    (
        "divisibility.basis_admit_ratio", "ratio", ["build_zonal_basis", "uniform_sphere"],
        lambda t: _ratio(t.calls("build_zonal_basis"), t.counts["basis_attempts"]), False,
    ),
    ("divisibility.basis_s", "s", ["build_zonal_basis"], lambda t: t.self_s("build_zonal_basis"), True),
    ("divisibility.assembly_calls", "count", ["operator_gram"], lambda t: t.calls("operator_gram"), True),
    ("divisibility.assembly_s", "s", ["operator_gram"], lambda t: t.self_s("operator_gram"), True),
    ("divisibility.solve_s", "s", ["operator_matrix"], lambda t: t.self_s("operator_matrix"), True),
    ("divisibility.spectral_calls", "count", ["weighted_singular_values"], lambda t: t.calls("weighted_singular_values"), True),
    ("divisibility.spectral_s", "s", ["weighted_singular_values"], lambda t: t.total_s("weighted_singular_values"), True),
    ("divisibility.witness_calls", "count", ["kernel_witness"], lambda t: t.calls("kernel_witness"), True),
    ("divisibility.witness_s", "s", ["kernel_witness"], lambda t: t.self_s("kernel_witness"), True),
    ("divisibility.harmonic_eval_s", "s", ["HarmonicFunction.__call__"], lambda t: t.self_s("HarmonicFunction.__call__"), True),
    ("divisibility.harmonic_eval_bytes", "bytes", ["HarmonicFunction.__call__"], lambda t: t.counts["harmonic_eval_bytes"], False),
    ("divisibility.verify_calls", "count", ["verify_divisor"], lambda t: t.calls("verify_divisor"), True),
    ("divisibility.verify_samples", "count", ["verify_divisor"], lambda t: t.counts["verify_samples"], True),
    ("divisibility.verify_s", "s", ["verify_divisor"], lambda t: t.self_s("verify_divisor"), True),
    (
        "divisibility.divisor_kept_ratio", "ratio", ["verify_divisor", "divisibility_test"],
        lambda t: _ratio(t.counts["divisors_kept"], t.calls("verify_divisor")), False,
    ),
    ("divisibility.test_self_s", "s", ["divisibility_test"], lambda t: t.self_s("divisibility_test"), True),
    ("linalg.calls", "count", [], lambda t: t.counts["linalg_calls"], True),
    (
        "linalg.calls_per_degree", "count", ["divisibility_test"],
        lambda t: _ratio(t.counts["linalg_test_calls"], t.counts["degrees"]), False,
    ),
    ("linalg.s", "s", [], lambda t: t.counts["linalg_s"], True),
    ("linalg.n3", "count", [], lambda t: t.counts["linalg_n3"], True),
    ("experiments.genericity_self_s", "s", ["run_genericity"], lambda t: t.self_s("run_genericity"), True),
    ("experiments.search_evals", "count", ["search_divisible"], lambda t: t.counts["search_evals"], True),
    (
        "experiments.s_per_eval", "s", ["search_divisible"],
        lambda t: _ratio(t.total_s("search_divisible"), t.counts["search_evals"]), False,
    ),
    ("experiments.cayley_s", "s", ["cayley_rotation"], lambda t: t.total_s("cayley_rotation"), True),
    ("experiments.optimizer_s", "s", ["minimize"], lambda t: t.self_s("minimize"), True),
]


def layer_metrics(tracer: Tracer, calls: int) -> tuple:
    """Per-layer values (per entry-point call where marked) and the absent names."""
    values, absent = {}, []
    for name, unit, needs, value, per_call in LAYER_METRICS:
        if any(need in tracer.absent for need in needs):
            absent.append(name)
            continue
        raw = float(value(tracer))
        values[name] = {"value": raw / calls if per_call else raw, "unit": unit}
    return values, absent
