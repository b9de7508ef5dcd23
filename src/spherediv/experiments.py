"""Monte-Carlo genericity studies and a Gauss-Newton search for divisible tuples.

A genericity study freezes a suffix of rotations, draws the remaining ones
from Haar measure trial after trial, and records how close each extended
tuple comes to singularity.  Sections over a generic suffix are null sets,
so Haar sampling is expected to produce zero certified-singular trials
(the odd-d four-rotation diagonal suffix is the designed exception).

A study decides its trials a block at a time through the route that
divisibility_test takes for a generic trial (``_study_route``): the circle
route at d = 2, the pair route for pairs and the Gram route otherwise; each
route's ``trials`` describes its batch (``divisibility._Route``).  A trial
whose trigger fires or lands in the near band at any degree is re-run alone
through divisibility_test(tuple, rng=trial seed), which certifies it or
marks it borderline exactly as a standalone run would, so every trial's
row is a standalone run's up to round-off.

The search minimizes how singular the degree-n operator is over tuples
modulo left and right translations, in a Cayley chart of that quotient
around each restart's base tuple (``_quotient_chart``), with each operator
assembled from the translated S_n, as the Gram route's (``_assemble``).  It
does not minimize sigma_min directly: sigma_min is not smooth at its zero
set (near a simple zero it grows like |x - x*|, a cone), which defeats a
gradient step.  It solves the kernel equation instead, F(x, v) = M(x) v = 0
with |v| = 1, which is smooth in both x and v.  Each Gauss-Newton step
linearizes F at the iterate x and the right-singular vector v of its
sigma_min, and takes the minimum-norm solution of the bordered system

    [ J  M  ] [delta]   [-M v]
    [ 0  v^T] [  w  ] = [  0 ],   J = d(M(x) v)/dx,

with J exact from the Lie-algebra action of each chart direction
(``_jacobian``).  The last row keeps the update w of v orthogonal to v, so
|v| = 1 to first order (Griewank & Reddien, SIAM J. Numer. Anal. 21, 1984;
Nocedal & Wright, Numerical Optimization, ch. 10).  Near a zero set that F
meets transversally the step converges quadratically; a backtracking line
search on sigma_min keeps every accepted step a descent.  A restart stops
at the first iterate below ``target_ratio`` and DEFAULT_SING_TOL alike,
and that also ends the restarts: the tuple that first gets there goes to
the certificate, with no further polishing.  (The second bound keeps a
large ``target_ratio`` from stopping the search at a tuple whose residual
fails RESIDUAL_TOL.)
The objective is the operator's weighted smallest singular value divided
by r, a dimensionless number in [0, 1]: 1 at the identity tuple, 0 at a
divisible one.  (The sigma_min/sigma_max ratio is useless as an objective
at conformal degrees, where all singular values collapse together.)
Optimizer minima are never reported as divisible on their own: a candidate
counts only after its kernel witness and divisor pass the residual check.

Everything is reproducible from the root seed: trial k draws its free
rotations and then its trial seed from derive_rng(seed, 1, k), restart j
from derive_rng(seed, 4, j), so results do not depend on execution order
or block size.  A study seeds all its trials' streams in one vectorized
pass (``sampling.derive_rngs``), equal bit for bit to derive_rng(seed, 1, k),
which stays the one-stream reference: any trial can be rebuilt alone from
it.  Seeds draw rotations only; no frame is random and no certificate samples.
"""

from __future__ import annotations

import csv
import io
import itertools
import logging
import math
import time
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Optional

import numpy as np

from . import fischer
from .divisibility import (
    DEFAULT_SING_TOL,
    VERDICT_INVERTIBLE,
    _certify,
    _check_budget,
    _check_tolerance,
    _CircleRoute,
    _GramRoute,
    _PairRoute,
    _svd_witness,
    _translated_bound,
    _witness,
    divisibility_test,
)
from .errors import InputDomainError, _check_count
from .fischer import fischer_frame, summed_powers
from .rotations import Rotation, RotationTuple, _check_rotations, haar_from_gaussian
from .sampling import _seed, derive_rng, derive_rngs, resolve_seed

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
    explicit condition rather than a measure-theoretic one.  ``d`` and ``r``
    must be integers >= 2.
    """
    _check_count("d", d, 2)
    _check_count("r", r, 2)
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
    smallest ratio a study reaches stays empirical.  ``d`` and ``r`` must be
    integers >= 2, ``suffix`` Rotation entries of dimension d, ``seed`` a
    non-negative integer, ``sing_tol`` a finite number in (0, 1), and the
    trials' rotations and records must fit COST_BUDGET_BYTES.
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
        _check_count("d", self.d, 2)
        _check_count("r", self.r, 2)
        ell = self.ell if self.ell is not None else default_free_count(self.d, self.r)
        _check_count("ell", ell, 1)
        if ell > self.r:
            raise InputDomainError(f"free-rotation count {ell} outside 1..r={self.r}")
        suffix = _check_rotations("suffix", self.suffix, self.d)
        if len(suffix) != self.r - ell:
            raise InputDomainError(
                f"suffix has {len(suffix)} rotations, expected r - ell = {self.r - ell}"
            )
        _check_count("trials", self.trials, 1)
        _check_count("n_max", self.n_max, 1)
        object.__setattr__(self, "seed", _seed(self.seed))
        _check_tolerance("sing_tol", self.sing_tol)
        _study_route(self.d, self.r).price(self.d, self.r, self.n_max)
        # bytes per trial, tracemalloc's marginal peaks (numpy 2.4, 2000 to 40000 trials at
        # six (d, ell)) summed and rounded up: drawing the rotations, 34 per entry of the
        # (ell, d, d) stack plus 90, 32 of them the streams' state table (``derive_rngs``); the
        # records, 8 per entry plus 243 plus 117 per degree.  A whole study's peak stayed within
        # 0.82 of the sum at seven (d, r, ell, n_max), 20000 and 40000 trials
        need = self.trials * (48 * ell * self.d**2 + 340 + 120 * self.n_max)
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
    rotations equal haar_sample's bitwise.  The streams come from
    ``derive_rngs``, whose one vectorized pass seeds them all, bit for bit
    as derive_rng would one at a time.
    """
    gauss = np.empty((study.trials, study.ell, study.d, study.d))
    seeds = []
    for block, rng in zip(gauss, derive_rngs(study.seed, 1, count=study.trials)):
        rng.standard_normal(out=block)
        seeds.append(int(rng.integers(0, 2**63)))
    return haar_from_gaussian(gauss), seeds


def _study_route(d: int, r: int):
    """The route of a study's trials, as divisibility_test picks it for a generic trial: circle at d = 2, pair, Gram."""
    return _CircleRoute if d == 2 else _PairRoute if r == 2 else _GramRoute


def run_genericity(study: GenericityStudy) -> GenericityResult:
    """Execute the study: every trial is decided, and fired or near-band trials are certified alone."""
    free, seeds = _draw_trials(study)
    suffix = np.array([g.matrix for g in study.suffix]).reshape(-1, study.d, study.d)
    sigma_rel, rerun = _study_route(study.d, study.r).trials(free, suffix, study.n_max, study.sing_tol)

    degree_numbers = range(1, study.n_max + 1)
    verdicts = [VERDICT_INVERTIBLE] * study.n_max
    records = []
    for k, row in enumerate(sigma_rel.tolist()):
        if rerun[k]:
            extended = RotationTuple(tuple(Rotation(m) for m in free[k]) + study.suffix)
            report = divisibility_test(extended, study.n_max, study.sing_tol, rng=seeds[k])
            degrees = tuple((rec.n, rec.sigma_min_rel, rec.verdict) for rec in report.degrees)
            records.append(TrialRecord(k, min(ratio for _, ratio, _ in degrees), report.divisible, degrees))
        else:
            records.append(TrialRecord(k, min(row), False, tuple(zip(degree_numbers, row, verdicts))))
    return GenericityResult(
        study=study,
        records=tuple(records),
        n_singular=sum(rec.singular for rec in records),
        ratio_quartiles=_quartiles([rec.min_ratio for rec in records]),
    )


def _quartiles(values) -> tuple:
    """``np.percentile(values, [0, 25, 50, 75, 100])`` bit for bit, as floats, for values with no NaN.

    One sort and numpy's own linear interpolation (``_lerp``) between the
    order statistics around (n - 1) q: a + (b - a) t, or b - (b - a)(1 - t)
    where t >= 0.5.  np.percentile itself imports numpy.ma (9 to 14 ms) through
    np.unique on its first call.
    """
    ranked = np.sort(np.asarray(values, dtype=float))
    last = len(ranked) - 1
    out = []
    for q in (0.0, 0.25, 0.5, 0.75, 1.0):
        index = last * q
        below = math.floor(index)
        t = index - below
        a, b = float(ranked[below]), float(ranked[min(below + 1, last)])
        out.append(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)
    return tuple(out)


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


# a singular value of Z -> h^T Z h - Z at or below this marks a direction of the commutant
# of h (``_quotient_chart``).  The map is Ad(h) - I with Ad(h) orthogonal on the skew
# matrices, so its singular values lie in [0, 2] and the threshold is relative to that scale
_COMMUTANT_TOL = 1e-8


def _quotient_chart(bases: np.ndarray) -> np.ndarray:
    """The chart C ((r - 1) p, dim) of a restart around ``bases`` (r, d, d), p = d(d-1)/2.

    The restart's tuple at x is gamma_1 = bases[0] and
    gamma_s = bases[s - 1] Cayley(theta_s) for s >= 2, with the stacked
    theta_2..theta_r = C x.  C is block diagonal: theta_2 ranges over the
    skew Z that commute with h = bases[0]^T bases[1], the null space of
    Z -> h^T Z h - Z from one SVD of its p x p matrix (singular values at
    most _COMMUTANT_TOL), and theta_3..theta_r take the identity.  Cayley(Z)
    is a rational function of Z, so gamma_1^T gamma_2 = h Cayley(Z) commutes
    with h.  A Haar h has a commutant of dimension floor(d/2), its maximal
    torus, so dim = floor(d/2) + (r - 2) p; a degenerate h has a larger one.
    """
    r, d = bases.shape[0], bases.shape[-1]
    rows, cols, _ = _chart_constants(d)
    p = len(rows)
    h = bases[0].T @ bases[1]
    # h^T (e_i e_j^T - e_j e_i^T) h has (a, b) entry h_ia h_jb - h_ja h_ib, a 2 x 2 minor of h, so
    # column (i, j) of Ad(h) - I is its minors at the packed (a, b), with no d x d unit formed
    hr, hc = h[rows], h[cols]
    ad = (hr[:, rows] * hc[:, cols] - hr[:, cols] * hc[:, rows]).T - np.eye(p)
    _, svals, vt = np.linalg.svd(ad)
    torus = vt[svals <= _COMMUTANT_TOL].T
    k = torus.shape[1]
    chart = np.zeros(((r - 1) * p, k + (r - 2) * p))
    chart[:p, :k] = torus
    chart[p:, k:] = np.eye((r - 2) * p)
    return chart


@dataclass(frozen=True)
class SearchSettings:
    """Search budget and target.

    ``restarts`` and ``max_iter`` must be >= 1 and ``target_ratio`` a
    finite number in (0, 1), and the search's trace, one value per operator
    assembly and at most 4 ``max_iter`` assemblies per restart, must fit
    COST_BUDGET_BYTES.  ``max_iter`` bounds each restart's Gauss-Newton
    iterations.  A ``base_tuple`` given as a sequence of Rotation entries
    becomes a RotationTuple.
    """

    restarts: int = 4
    max_iter: int = 400
    target_ratio: float = DEFAULT_SING_TOL
    base_tuple: Optional[RotationTuple] = None

    def __post_init__(self):
        _check_count("restarts", self.restarts, 1)
        _check_count("max_iter", self.max_iter, 1)
        if self.base_tuple is not None and not isinstance(self.base_tuple, RotationTuple):
            object.__setattr__(self, "base_tuple", RotationTuple(_check_rotations("base_tuple", self.base_tuple)))
        _check_tolerance("target_ratio", self.target_ratio)
        # a traced value takes a float object and the pointers of the trace list and of SearchRun's tuple
        need = 40 * 4 * self.max_iter * self.restarts
        _check_budget(need, f"restarts={self.restarts}, max_iter={self.max_iter}", "restarts or max_iter")

    def to_json_obj(self) -> dict:
        obj = {
            "restarts": self.restarts,
            "max_iter": self.max_iter,
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
    the trace is the nonincreasing best-so-far sequence over operator
    assemblies, so its length counts them: one value per iterate and per
    line-search trial; a Jacobian takes no assembly.
    A run whose iterate gets below min(``target_ratio``, DEFAULT_SING_TOL)
    ends at that iterate, so its trace's first value below that is its
    last; pass a smaller ``target_ratio`` for a deeper minimum.
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


# the line search tries x + t delta for t = 1, 1/2, 1/4, ... while t is at least this: ten trials
_MIN_STEP = 1e-3


def _gauss_newton(assemble, dim: int, r: int, stop: float, max_iter: int, max_evals: int, record):
    """One restart's Gauss-Newton iterations on M(x) v = 0 from x = 0; return (ratio, assembly, v, evals, iterations).

    ``assemble(x)`` gives (mats, bound, M, jacobian) at the chart point x
    (dim,), one of the at most ``max_evals`` assemblies, with jacobian(v)
    the Jacobian J = d(M(x) v)/dx, (N, dim).  Each iteration holds the
    iterate's M and the right-singular vector v of its sigma_min from one
    SVD; one least-squares solve gives the minimum-norm step delta of the
    bordered system [J M; 0 v^T] [delta; w] = [-M v; 0]; and x + t delta for
    t = 1, 1/2, ... down to _MIN_STEP is assembled until one lowers
    sigma_min, which becomes the next iterate.  The iterations end at the
    first iterate whose ratio sigma_min / r is below ``stop``, after
    ``max_iter`` of them, when the assemblies reach ``max_evals``, or when
    no step lowers sigma_min.  ``record`` receives each assembly's ratio.
    The iterate's (mats, bound, M) is returned with its ratio and its v.
    """

    def evaluate(point):
        """The assembly at ``point``, its Jacobian, the right-singular vector of its sigma_min and its ratio."""
        *assembly, jacobian = assemble(point)
        svals, vector = _svd_witness(assembly[2])
        ratio = float(svals[-1]) / r
        record(ratio)
        return assembly, jacobian, vector, ratio

    x = np.zeros(dim)
    current, jacobian, v, val = evaluate(x)
    evals, iterations = 1, 0
    while val >= stop and iterations < max_iter and evals < max_evals:
        iterations += 1
        matrix = current[2]
        bordered = np.zeros((len(v) + 1, dim + len(v)))
        bordered[:-1, :dim], bordered[:-1, dim:], bordered[-1, dim:] = jacobian(v), matrix, v
        delta = np.linalg.lstsq(bordered, np.append(-(matrix @ v), 0.0), rcond=None)[0][:dim]
        t = 1.0
        while t >= _MIN_STEP and evals < max_evals:
            # the last assembly's arrays go before the next one's are built
            trial = jacobian = None
            trial, jacobian, trial_v, trial_val = evaluate(x + t * delta)
            evals += 1
            if trial_val < val:
                x, current, v, val = x + t * delta, trial, trial_v, trial_val
                break
            t /= 2
        else:  # no step lowered sigma_min
            break
    return val, current, v, evals, iterations


def _assemble(frame, bases: np.ndarray, chart: np.ndarray, x: np.ndarray):
    """(mats, bound, M, jacobian) at the chart point x: the tuple, its certificate's bound, its operator and J.

    gamma_1 = bases[0] and gamma_s = bases[s - 1] Q_s, Q_s the Cayley factor
    of theta_s (``_quotient_chart``).  The recurrence runs once, on
    h_2 .. h_r as one-rotation tuples, and keeps each Sym^n(h_s) for the
    Jacobian; S_n = I + sum_s Sym^n(h_s), h_1 = I free, gives M = U^T S_n U
    and the bound through S_n (``divisibility._translated_bound``), as the
    Gram route's do.
    """
    r, d = bases.shape[0], bases.shape[-1]
    mats = np.empty((r, d, d))
    mats[0], mats[1:] = bases[0], cayley_rotation(bases[1:], (chart @ x).reshape(r - 1, -1))
    turns = np.swapaxes(mats[:1], -1, -2) @ mats
    turns[0] = np.eye(d)
    *_, (_, powers) = summed_powers(turns[1:, None], frame.n)
    sums = powers.sum(axis=0)
    sums[np.diag_indices(frame.size)] += 1.0
    jacobian = partial(_jacobian, frame, chart, bases, mats, powers)
    return mats, partial(_translated_bound, frame, sums, turns), frame.operator(sums), jacobian


def _jacobian(frame, chart, bases: np.ndarray, mats: np.ndarray, powers: np.ndarray, v: np.ndarray) -> np.ndarray:
    """J = d(M v)/dx (N, dim), exactly, at the assembly of the tuple ``mats`` with its Sym^n(h_s), (r - 1, P_n, P_n).

    gamma_s = g_s Q_s, Q_s = (I - S)(I + S)^-1 the Cayley factor of theta_s.  Moving theta_s along the
    packed unit E_j = e_a e_b^T - e_b e_a^T, a < b, moves h_s as h_s e^(tY) to first order, with
    Y = Q_s^T dQ_s = -2 A E_j A^T, A = (I - S)^-1 = (I + Q_s^T) / 2, so Y = -2 (A_a A_b^T - A_b A_a^T)
    from A's columns a and b.  So d(M v)/d theta_(s, j) = U^T Sym^n(h_s) dSym^n(Y) U v
    (``fischer._lie_action``), and the chart C carries those (r - 1) p columns to J = J_theta C.
    """
    rows, cols, eye = _chart_constants(mats.shape[-1])
    inverse = (eye + np.swapaxes(mats[1:], -1, -2) @ bases[1:]) / 2
    first, second = np.swapaxes(inverse[..., rows], -1, -2), np.swapaxes(inverse[..., cols], -1, -2)
    ys = 2.0 * (second[..., :, None] * first[..., None, :] - first[..., :, None] * second[..., None, :])
    moved = powers @ np.swapaxes(fischer._lie_action(ys, frame._lift(v), frame.n), -1, -2)
    return frame._project(np.swapaxes(moved, 0, 1).reshape(frame.size, -1)) @ chart


def search_divisible(
    d: int,
    r: int,
    n: int,
    settings: Optional[SearchSettings] = None,
    rng=None,
) -> SearchRun:
    """Minimize the degree-n singularity objective over rotation tuples.

    Runs Gauss-Newton restarts on the kernel equation M(x) v = 0 (see the
    module docstring) in a chart of the tuples modulo their symmetries.
    For rotations k and l, rho_n(k gamma l) =
    rho_n(k) rho_n(gamma) rho_n(l) with rho_n(k) and rho_n(l) orthogonal
    in the orthonormal frame, so the tuples (k gamma_s l) and (gamma_s) have
    operators with the same singular values, and the objective is constant
    on each orbit.  (Divisibility itself is invariant too: f divides
    (gamma_s) exactly when f(l .) divides (k gamma_s l).)  Each orbit meets
    gamma_1 = g_1 for the restart's base tuple g, drawn or ``base_tuple``;
    what is left is one conjugation of every h_s = g_1^T gamma_s.  Every
    rotation near a regular h_2 = g_1^T g_2 is conjugate, by a rotation near
    I, to one in the maximal torus of h_2, so the restart fixes gamma_1 = g_1,
    moves gamma_2 = g_2 Cayley(Z) only with Z in the commutant of h_2, and
    gives every other rotation a full Cayley chart (``_quotient_chart``):
    dim = floor(d/2) + (r - 2) d(d-1)/2 chart coordinates instead of
    r d(d-1)/2, and x = 0 is the base tuple.  The chart drops only
    directions along which the objective is constant, and no candidate
    rests on it: a commutant made too large by a degenerate h_2 only adds
    dimensions, and every candidate still goes through the certificate.

    Each restart draws its r base rotations from one stacked
    ``haar_from_gaussian`` call, unless ``base_tuple`` gives them, and runs
    ``_gauss_newton`` from x = 0: an iteration takes one SVD of the
    iterate's M, its exact Jacobian from the Sym^n(h_s) its assembly kept
    (``_jacobian``), one least-squares solve and a backtracking line search
    on sigma_min, each iterate and trial one assembly (``_assemble``).
    A restart ends at the first iterate below both ``target_ratio`` and
    DEFAULT_SING_TOL, after ``max_iter`` iterations, when its assemblies
    reach 4 ``max_iter``, or when no step lowers sigma_min; an iterate
    below the target also ends the restarts.  A
    larger ``target_ratio`` still decides which tuple counts as found, but
    the search refines it to DEFAULT_SING_TOL so that its residual
    certifies.  A best tuple reaching ``target_ratio`` is certified like a
    report's first singular degree before the run may claim a divisible
    tuple: its kernel witness's divisor must pass the residual bound through
    its translated S_n (``divisibility._translated_bound``), with no sampled
    check (the witness from the right-singular vector that the best
    iterate's own SVD gave, then ``divisibility._certify``, so nothing is
    assembled or factored twice); budget exhaustion returns the best tuple
    found with ``certified=False``.  The chart's SVD of a p x p matrix,
    p = d(d-1)/2, is priced with the degree's cost on the Gram route, so a
    search too large for COST_BUDGET_BYTES is refused before it allocates.
    Its assemblies run the recurrence, so it keeps the degree cap
    (``divisibility._STABLE_MAX_DEGREE``) at d = 2 too.  An n that is not an
    integer >= 1, or a d or an r that is not one >= 2, is refused.  Logs one debug
    line per restart on the "spherediv" logger with its assembly count, its
    objective, its wall time and its Gauss-Newton iteration count.
    """
    _check_count("d", d, 2)
    _check_count("n", n, 1)
    _check_count("r", r, 2)
    _GramRoute.price(d, r, n)
    p = d * (d - 1) // 2
    # the chart's SVD holds Ad(h) - I, LAPACK's copy of it, both full factors and gesdd's
    # workspace: its peak RSS was 9.1 to 9.7 p x p arrays of floats at d = 40 and 60 (numpy 2.4,
    # OpenBLAS), priced at a dozen
    _check_budget(12 * 8 * p * p, f"a search chart at d={d}", "d")
    settings = settings or SearchSettings()
    seed = resolve_seed(rng)
    frame = fischer_frame(d, n)
    ratios: list = []  # every assembly's, in order; the trace keeps the best so far
    # The certificate needs a residual <= RESIDUAL_TOL, and a stopped tuple's residual runs at
    # 0.1 to 0.5 times its ratio, so a target above DEFAULT_SING_TOL still counts as met but the
    # search refines on to DEFAULT_SING_TOL, where the residual is far below RESIDUAL_TOL.
    stop = min(settings.target_ratio, DEFAULT_SING_TOL)
    max_evals = 4 * settings.max_iter
    best_ratio = math.inf
    best_mats = best_bound = best_vector = None
    restart_ratios = []
    for j in range(settings.restarts):
        start = time.perf_counter()
        rng_j = derive_rng(seed, 4, j)
        if j == 0 and settings.base_tuple is not None:
            if settings.base_tuple.d != d or settings.base_tuple.r != r:
                raise InputDomainError("base_tuple shape does not match (d, r)")
            bases = np.array([g.matrix for g in settings.base_tuple])
        else:
            bases = haar_from_gaussian(rng_j.standard_normal((r, d, d)))
        chart = _quotient_chart(bases)
        val, (mats, bound, _), vector, evals, iterations = _gauss_newton(
            partial(_assemble, frame, bases, chart), chart.shape[1], r, stop, settings.max_iter, max_evals,
            ratios.append,
        )
        restart_ratios.append(val)
        _log.debug(
            "restart %d: %d evaluations, ratio %.3e, %.4f s, %d Gauss-Newton iterations",
            j, evals, val, time.perf_counter() - start, iterations,
        )
        if val < best_ratio:
            best_ratio, best_mats, best_bound, best_vector = val, mats, bound, vector
        if best_ratio < settings.target_ratio:
            break

    best_tuple = RotationTuple(tuple(Rotation(m) for m in best_mats))
    certified = False
    residual_max = None
    if best_ratio < settings.target_ratio:
        # best_ratio is sigma_min / r, so this gate is the trigger's dead-operator clause
        residual_max, certified, _ = _certify(_witness(frame, best_vector), best_bound, r)
    return SearchRun(
        d=d,
        r=r,
        n=n,
        seed=seed,
        settings=settings,
        best_ratio=float(best_ratio),
        best_tuple=best_tuple,
        trace=tuple(itertools.accumulate(ratios, min)),
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
