"""Monte-Carlo genericity studies and a derivative-free search for divisible tuples.

A genericity study freezes a suffix of rotations, draws the remaining ones
from Haar measure trial after trial, and records how close each extended
tuple comes to singularity.  Sections over a generic suffix are null sets,
so Haar sampling is expected to produce zero certified-singular trials
(the odd-d four-rotation diagonal suffix is the designed exception).

A study is batched in the exact Fischer frame (see ``fischer``).  The
frozen suffix's operator U^T (sum_s Sym^n) U is built once per study for
every degree; each block of trials runs one pass of the symmetric-power
recurrence over its free rotations, and per degree one stacked operator
M = U^T S U plus the suffix's, one stacked values-only SVD and one
vectorised trigger.  Blocks hold as many
trials as fit one gather of the recurrence in BLOCK_BYTES.  A study of pairs
(r = 2) runs neither: per block and degree, one stacked eigenvalue solve
gives every trial's torus angles and one product with the degree's weights
its sigma_max and sigma_min (``_pair_spectrum``); a block holds as many
trials as have their phases fit BLOCK_BYTES.  A trial whose
trigger fires or lands in the near band at any degree is re-run alone
through divisibility_test(tuple, rng=trial seed), which certifies it or
marks it borderline exactly as a standalone run would.  The frame is
deterministic, so every trial's ratios equal a standalone
divisibility_test's up to round-off: the batch reads a values-only SVD, a
standalone run of three or more rotations the Gram step of
``divisibility._spectrum``, and the two agree within 1e-13.

The search minimizes how singular the degree-n operator is over tuples
parametrized by Cayley charts around restart base points, with a
Nelder-Mead simplex (the objective is nonsmooth exactly at its zero set).
The simplex method is ``_nelder_mead``, written here so that the package
needs numpy alone at run time; tests/test_experiments.py checks that its
iterates equal the reference implementation's bitwise.
The objective is the operator's weighted smallest singular value divided
by r, a dimensionless number in [0, 1]: 1 at the identity tuple, 0 at a
divisible one.  (The sigma_min/sigma_max ratio is useless as an objective
at conformal degrees, where all singular values collapse together.)
Optimizer minima are never reported as divisible on their own: a candidate
counts only after its kernel witness and divisor pass the residual check.

Everything is reproducible from the root seed: trial k draws its free
rotations and then its trial seed from derive_rng(seed, 1, k), restart j
from derive_rng(seed, 4, j), so results do not depend on execution order
or block size.  Seeds draw rotations and verification points only; no
frame is random.
"""

from __future__ import annotations

import csv
import io
import logging
import math
import time
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Optional

import numpy as np

from .divisibility import (
    DEFAULT_SING_TOL,
    VERDICT_INVERTIBLE,
    DivisibilityReport,
    _certify,
    _check_budget,
    _check_cost,
    _check_tolerance,
    _kernel_vector,
    _near_singular,
    _pair_spectrum,
    _rotation_matrices,
    divisibility_test,
    weighted_singular_values,
)
from .errors import InputDomainError
from .fischer import BLOCK_BYTES, _torus_weights, fischer_frame, summed_powers
from .rotations import Rotation, RotationTuple, haar_from_gaussian, haar_sample
from .sampling import derive_rng, resolve_seed

__all__ = [
    "GenericityResult",
    "GenericityStudy",
    "SearchRun",
    "SearchSettings",
    "TrialRecord",
    "cayley_rotation",
    "default_free_count",
    "run_genericity",
    "search_csv_text",
    "search_divisible",
    "trial_csv_text",
]


_log = logging.getLogger("spherediv")


def default_free_count(d: int, r: int) -> int:
    """Free-rotation count for which sections are null: floor(r/2) if d >= 3, else 1.

    The paper's theorem assumes at least r/2 generic rotations, which is
    ceil(r/2) for odd r; the default floor(r/2) leaves one fewer free at
    odd r.  The sections are still Haar-null there, whatever the suffix:
    setting every free rotation equal to one frozen gamma_j gives
    sigma_min >= 2 ell + 2 - r >= 1 at every degree (gamma_j counted
    ell + 1 times against r - ell - 1 isometries), so det sum_s rho_n(gamma_s)
    is a real-analytic function on SO(d)^ell that is not identically zero,
    and its zero set is Haar-null (Mityagin, arXiv:1512.07276); so is the
    countable union over n.  At d = 2 one free angle suffices: each degree
    is singular at finitely many angles.  The paper's "generic" may be an
    explicit condition rather than a measure-theoretic one.
    """
    return r // 2 if d >= 3 else 1


@dataclass(frozen=True)
class GenericityStudy:
    """Configuration of one genericity experiment.

    ``suffix`` holds the r - ell frozen rotations; each trial prepends ell
    fresh Haar rotations and runs the divisibility test up to ``n_max``.
    The paper's theorem covers ell >= r/2.  With odd r and the default
    ell = floor(r/2) (acceptance criterion 8: r = 3, ell = 1) the singular
    trials still form a Haar-null set, by the argument of
    ``default_free_count``, so a zero singular count is expected; the
    smallest ratio a study reaches stays empirical.  ``sing_tol`` must be a
    finite number in (0, 1), and the trials' rotations and records must fit
    COST_BUDGET_BYTES.
    """

    d: int
    r: int
    suffix: tuple
    trials: int
    n_max: int
    seed: int
    ell: Optional[int] = None
    sing_tol: float = DEFAULT_SING_TOL

    def __post_init__(self):
        ell = self.ell if self.ell is not None else default_free_count(self.d, self.r)
        if not 1 <= ell <= self.r:
            raise InputDomainError(f"free-rotation count {ell} outside 1..r={self.r}")
        suffix = tuple(self.suffix)
        if len(suffix) != self.r - ell:
            raise InputDomainError(
                f"suffix has {len(suffix)} rotations, expected r - ell = {self.r - ell}"
            )
        for g in suffix:
            if g.d != self.d:
                raise InputDomainError(f"suffix rotation has dimension {g.d}, expected {self.d}")
        if self.trials < 1:
            raise InputDomainError(f"trials must be >= 1, got {self.trials}")
        if self.n_max < 1:
            raise InputDomainError(f"n_max must be >= 1, got {self.n_max}")
        _check_tolerance("sing_tol", self.sing_tol)
        _check_cost(self.d, self.r, self.n_max)
        # bytes per trial, tracemalloc's marginal peaks (numpy 2.4, 2000 to 40000 trials at
        # five (d, r, ell, n_max)) summed and rounded up: drawing the rotations, 34 per entry of
        # the (ell, d, d) stack plus 58; the records, 8 per entry plus 243 plus 117 per degree
        need = self.trials * (48 * ell * self.d**2 + 320 + 120 * self.n_max)
        _check_budget(need, f"trials={self.trials}", "trials")
        object.__setattr__(self, "ell", ell)
        object.__setattr__(self, "suffix", suffix)

    def to_json_obj(self) -> dict:
        return {
            "d": self.d,
            "r": self.r,
            "ell": self.ell,
            "trials": self.trials,
            "n_max": self.n_max,
            "seed": self.seed,
            "sing_tol": self.sing_tol,
            "suffix": [g.to_json_obj() for g in self.suffix],
        }


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    min_ratio: float
    singular: bool
    degrees: tuple  # (n, sigma_min_rel, verdict) triples
    # every frame is exact, so no trial can fail; kept for readers of studies
    failed = False


@dataclass(frozen=True)
class GenericityResult:
    study: GenericityStudy
    records: tuple
    n_singular: int
    ratio_quartiles: tuple  # (min, q25, median, q75, max) over all trials
    # every frame is exact, so no trial can fail; kept for readers of studies
    n_failed = 0

    def trial_rows(self) -> list:
        return [(rec.trial, n, ratio, verdict) for rec in self.records for n, ratio, verdict in rec.degrees]

    def to_json_obj(self) -> dict:
        qmin, q25, q50, q75, qmax = self.ratio_quartiles
        return {
            "study": self.study.to_json_obj(),
            "trials": self.study.trials,
            "n_singular": self.n_singular,
            "n_failed": self.n_failed,
            "min_ratio": qmin,
            "q25_ratio": q25,
            "median_ratio": q50,
            "q75_ratio": q75,
            "max_ratio": qmax,
        }


def trial_csv_text(result: GenericityResult) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["trial", "n", "sigma_min_rel", "verdict"])
    for trial, n, ratio, verdict in result.trial_rows():
        writer.writerow([trial, n, f"{ratio:.17g}", verdict])
    return buf.getvalue()


def _draw_trials(study: GenericityStudy):
    """Every trial's free rotations as one (trials, ell, d, d) stack, and the trial seeds.

    Trial k draws its ell Gaussian (d, d) blocks and then its seed from
    derive_rng(seed, 1, k), the stream haar_sample would read, so the free
    rotations equal haar_sample's bitwise.
    """
    gauss = np.empty((study.trials, study.ell, study.d, study.d))
    seeds = []
    for k in range(study.trials):
        rng = derive_rng(study.seed, 1, k)
        gauss[k] = rng.standard_normal((study.ell, study.d, study.d))
        seeds.append(int(rng.integers(0, 2**63)))
    return haar_from_gaussian(gauss), seeds


def run_genericity(study: GenericityStudy) -> GenericityResult:
    """Execute the study: every trial is decided, and fired or near-band trials are certified alone."""
    free, seeds = _draw_trials(study)
    suffix = np.array([g.matrix for g in study.suffix]).reshape(-1, study.d, study.d)
    if study.r == 2:
        # a block holds each trial's phases k . theta, one per torus weight of the top degree
        width = len(_torus_weights(study.d, study.n_max)[0])
    else:
        fixed = [fischer_frame(study.d, n).operator(sums) for n, sums in summed_powers(suffix, study.n_max)]
        width = study.ell * study.d * fischer_frame(study.d, study.n_max).size ** 2
    step = max(1, BLOCK_BYTES // (8 * width))
    sigma_rel = np.empty((study.trials, study.n_max))
    rerun = np.zeros(study.trials, dtype=bool)
    for lo in range(0, study.trials, step):
        block = free[lo:lo + step]
        if study.r == 2:  # pairs are decided from their torus angles, with no operator
            pairs = np.concatenate([block, np.broadcast_to(suffix, (len(block),) + suffix.shape)], axis=1)
            spectra = (_pair_spectrum(pairs, n) for n in range(1, study.n_max + 1))
        else:
            spectra = (
                weighted_singular_values(fischer_frame(study.d, n).operator(sums) + fixed[n - 1])
                for n, sums in summed_powers(block, study.n_max)
            )
        for n, svals in enumerate(spectra, 1):
            ratio, fired, near_band = _near_singular(svals, study.r, study.sing_tol)
            sigma_rel[lo:lo + step, n - 1] = ratio
            rerun[lo:lo + step] |= fired | near_band

    records = []
    for k, row in enumerate(sigma_rel.tolist()):
        if rerun[k]:
            extended = RotationTuple(tuple(Rotation(m) for m in free[k]) + study.suffix)
            report: DivisibilityReport = divisibility_test(
                extended, study.n_max, study.sing_tol, rng=seeds[k]
            )
            degrees = tuple((rec.n, rec.sigma_min_rel, rec.verdict) for rec in report.degrees)
            singular = report.divisible
        else:
            degrees = tuple(zip(range(1, study.n_max + 1), row, [VERDICT_INVERTIBLE] * study.n_max))
            singular = False
        records.append(
            TrialRecord(
                trial=k,
                min_ratio=min(ratio for _, ratio, _ in degrees),
                singular=singular,
                degrees=degrees,
            )
        )
    quart = np.percentile([rec.min_ratio for rec in records], [0, 25, 50, 75, 100])
    return GenericityResult(
        study=study,
        records=tuple(records),
        n_singular=sum(rec.singular for rec in records),
        ratio_quartiles=tuple(float(q) for q in quart),
    )


@lru_cache(maxsize=None)
def _chart_constants(d: int):
    """The Cayley chart's upper-triangle scatter indices and identity in dimension d, read-only."""
    rows, cols = np.triu_indices(d, k=1)
    eye = np.eye(d)
    for arr in (rows, cols, eye):
        arr.setflags(write=False)
    return rows, cols, eye


def cayley_rotation(base: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Rotation base @ (I - S)(I + S)^{-1} for the skew matrix S packed in theta.

    The Cayley factor is exactly special orthogonal up to solve round-off; it
    charts a neighborhood of the base point rationally and cheaply.  Stacks
    broadcast: bases (k, d, d) with parameters (k, d(d-1)/2) give k rotations
    from one stacked solve.  The chart's scatter indices and identity are
    built once per d (``_chart_constants``), not once per call.
    """
    d = base.shape[-1]
    theta = np.asarray(theta)
    rows, cols, eye = _chart_constants(d)
    if theta.shape[-1:] != rows.shape:  # a scalar has no last axis and fails too
        raise InputDomainError(
            f"Cayley parameters have shape {theta.shape}, expected last axis d(d-1)/2 = {len(rows)}"
        )
    s = np.zeros(theta.shape[:-1] + (d, d))
    s[..., rows, cols] = theta
    s = s - np.swapaxes(s, -1, -2)
    factor = np.swapaxes(np.linalg.solve(eye - s, eye + s), -1, -2)
    return base @ factor


@dataclass(frozen=True)
class SearchSettings:
    """Search budget and target.

    ``restarts`` and ``max_iter`` must be >= 1, ``simplex_scale`` a finite
    number > 0 and ``target_ratio`` a finite number in (0, 1).
    """

    restarts: int = 4
    max_iter: int = 400
    simplex_scale: float = 0.35
    target_ratio: float = DEFAULT_SING_TOL
    base_tuple: Optional[RotationTuple] = None

    def __post_init__(self):
        if self.restarts < 1:
            raise InputDomainError(f"restarts must be >= 1, got {self.restarts}")
        if self.max_iter < 1:
            raise InputDomainError(f"max_iter must be >= 1, got {self.max_iter}")
        if not 0.0 < self.simplex_scale < math.inf:  # false for NaN as well
            raise InputDomainError(f"simplex_scale must be a finite number > 0, got {self.simplex_scale}")
        _check_tolerance("target_ratio", self.target_ratio)

    def to_json_obj(self) -> dict:
        obj = {
            "restarts": self.restarts,
            "max_iter": self.max_iter,
            "simplex_scale": self.simplex_scale,
            "target_ratio": self.target_ratio,
        }
        if self.base_tuple is not None:
            obj["base_tuple"] = self.base_tuple.to_json_obj()
        return obj


@dataclass(frozen=True)
class SearchRun:
    """Result of a singularity search at one degree.

    ``best_ratio`` and the trace hold the dimensionless objective
    (weighted sigma_min of the operator over r); values are always >= 0 and
    the trace is the nonincreasing best-so-far sequence over evaluations.
    """

    d: int
    r: int
    n: int
    seed: int
    settings: SearchSettings
    best_ratio: float
    best_tuple: RotationTuple
    trace: tuple
    certified: bool
    residual_max: Optional[float] = None
    restart_ratios: tuple = field(default_factory=tuple)

    def to_json_obj(self) -> dict:
        obj = {
            "d": self.d,
            "r": self.r,
            "n": self.n,
            "seed": self.seed,
            "settings": self.settings.to_json_obj(),
            "best_ratio": self.best_ratio,
            "best_tuple": self.best_tuple.to_json_obj(),
            "certified": self.certified,
            "restart_ratios": list(self.restart_ratios),
            "evaluations": len(self.trace),
        }
        if self.residual_max is not None:
            obj["residual_max"] = self.residual_max
        return obj


class _BudgetSpent(Exception):
    """Raised by ``_nelder_mead``'s evaluator when an evaluation would exceed max_evals."""


def _nelder_mead(func, simplex, max_iter: int, max_evals: int):
    """Minimize func from the (N + 1, N) simplex; return the best vertex and the evaluation count.

    The Nelder-Mead method (Nelder & Mead, Comput. J. 7, 1965; Lagarias,
    Reeds, Wright & Wright, SIAM J. Optim. 9, 1998) with reflection 1,
    expansion 2, contraction 1/2 and shrink 1/2, written operation for
    operation as the reference that ``TestNelderMead`` in
    tests/test_experiments.py runs (its non-adaptive, unbounded Nelder-Mead
    with xatol=1e-13 and fatol=1e-15), so the iterates equal the
    reference's bitwise: the same point formulas (integer coefficients are
    exact), branch order, strict and non-strict comparisons, termination
    test and loop condition, with ``iterations`` starting at 1.  An
    evaluation past ``max_evals`` is refused, which ends the iteration in
    progress, even inside the initial simplex or a shrink; a vertex never
    evaluated keeps f = inf.  Every sort is argsort then take, and the
    initial simplex is sorted twice, as the reference sorts: argsort is not
    stable, so ties could otherwise come out in another order.  ``func``
    must not modify its argument.
    """
    sim = np.array(simplex, dtype=float)
    dim = sim.shape[1]
    fsim = np.full(dim + 1, np.inf)
    evals = 0

    def f(x):
        nonlocal evals
        if evals >= max_evals:
            raise _BudgetSpent
        evals += 1
        return func(x)

    try:
        for k in range(dim + 1):
            fsim[k] = f(sim[k])
    except _BudgetSpent:
        pass
    for _ in range(2):
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)

    iterations = 1
    while evals < max_evals and iterations < max_iter:
        try:
            if (
                np.max(np.abs(sim[1:] - sim[0])) <= 1e-13
                and np.max(np.abs(fsim[0] - fsim[1:])) <= 1e-15
            ):
                break
            xbar = np.add.reduce(sim[:-1], 0) / dim
            xr = 2 * xbar - sim[-1]
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = 3 * xbar - 2 * sim[-1]
                fxe = f(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:  # outside contraction
                    xc = 1.5 * xbar - 0.5 * sim[-1]
                    fxc = f(xc)
                    accept = fxc <= fxr
                else:  # inside contraction
                    xc = 0.5 * xbar + 0.5 * sim[-1]
                    fxc = f(xc)
                    accept = fxc < fsim[-1]
                if accept:
                    sim[-1], fsim[-1] = xc, fxc
                else:  # shrink toward the best vertex
                    for j in range(1, dim + 1):
                        sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                        fsim[j] = f(sim[j])
            iterations += 1
        except _BudgetSpent:
            pass
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
    return sim[0], evals


def search_divisible(
    d: int,
    r: int,
    n: int,
    settings: Optional[SearchSettings] = None,
    rng=None,
) -> SearchRun:
    """Minimize the degree-n singularity objective over rotation tuples.

    Runs Nelder-Mead restarts in Cayley charts (``_nelder_mead``, at most
    ``max_iter`` iterations and 4 * ``max_iter`` evaluations each, from a
    simplex of edge ``simplex_scale``).  Internally the simplex
    compares log-objective values: Nelder-Mead is comparison-based, so the
    iterates are unchanged, but the flat termination plateau around the
    zero set disappears and the simplex keeps contracting into it.  A best
    tuple reaching ``target_ratio`` is certified like a report's first
    singular degree before the run may claim a divisible tuple: its kernel
    witness's divisor must pass the Fischer-frame residual bound and one
    sampled check (``divisibility._kernel_vector`` on the M kept from the
    best evaluation, then ``divisibility._certify``, so nothing is
    assembled or factored twice); budget
    exhaustion returns the best tuple found with ``certified=False``.
    Logs one debug line per restart on the "spherediv" logger with its
    evaluation count, its objective and its wall time.
    """
    if n < 1:
        raise InputDomainError(f"target degree must be >= 1, got n={n}")
    _check_cost(d, r, n)
    settings = settings or SearchSettings()
    seed = resolve_seed(rng)
    frame = fischer_frame(d, n)
    n_params = d * (d - 1) // 2

    def summed(mats) -> np.ndarray:
        for _, sums in summed_powers(mats, n):
            pass
        return sums

    def objective(svals) -> float:
        return float(svals[-1]) / r

    trace: list = []

    def log_objective_factory(bases):
        def log_objective(theta):
            mats = cayley_rotation(bases, theta.reshape(r, n_params))
            val = objective(weighted_singular_values(frame.operator(summed(mats))))
            trace.append(val if not trace else min(trace[-1], val))
            return math.log10(val + 1e-300)

        return log_objective

    best_ratio = math.inf
    best_mats = best_sums = best_matrix = best_svals = None
    restart_ratios = []
    for j in range(settings.restarts):
        start = time.perf_counter()
        rng_j = derive_rng(seed, 4, j)
        if j == 0 and settings.base_tuple is not None:
            if settings.base_tuple.d != d or settings.base_tuple.r != r:
                raise InputDomainError("base_tuple shape does not match (d, r)")
            bases = np.array([g.matrix for g in settings.base_tuple])
        else:
            bases = np.array([haar_sample(d, rng_j).matrix for _ in range(r)])
        dim = r * n_params
        simplex = np.vstack([np.zeros(dim), settings.simplex_scale * np.eye(dim)])
        x, evals = _nelder_mead(log_objective_factory(bases), simplex, settings.max_iter, 4 * settings.max_iter)
        mats = cayley_rotation(bases, x.reshape(r, n_params))
        sums = summed(mats)
        matrix = frame.operator(sums)
        svals = weighted_singular_values(matrix)
        val = objective(svals)
        restart_ratios.append(val)
        _log.debug("restart %d: %d evaluations, ratio %.3e, %.4f s", j, evals, val, time.perf_counter() - start)
        if val < best_ratio:
            best_ratio, best_mats, best_sums, best_matrix, best_svals = val, mats, sums, matrix, svals
        if best_ratio < settings.target_ratio:
            break

    best_tuple = RotationTuple(tuple(Rotation(m) for m in best_mats))
    certified = False
    residual_max = None
    if best_ratio < settings.target_ratio:
        # best_ratio is sigma_min / r, so this gate is the trigger's dead-operator clause
        vector = _kernel_vector(best_matrix, best_svals[0], r)
        bound = partial(frame.residual_bound, best_sums, mats=_rotation_matrices(best_tuple))
        _, _, ver = _certify(frame, vector, bound, best_tuple, derive_rng(seed, 6))
        certified = ver.passed
        residual_max = ver.max_residual
    return SearchRun(
        d=d,
        r=r,
        n=n,
        seed=seed,
        settings=settings,
        best_ratio=float(best_ratio),
        best_tuple=best_tuple,
        trace=tuple(trace),
        certified=certified,
        residual_max=residual_max,
        restart_ratios=tuple(restart_ratios),
    )


def search_csv_text(run: SearchRun) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["restart", "n", "sigma_min_rel", "verdict"])
    for j, ratio in enumerate(run.restart_ratios):
        verdict = "singular" if (run.certified and ratio == run.best_ratio) else "invertible"
        writer.writerow([j, run.n, f"{ratio:.17g}", verdict])
    return buf.getvalue()
