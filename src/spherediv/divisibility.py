"""Per-degree operator matrices, singularity certificates, and divisor checks.

An r-tuple of rotations fractionally divides the sphere exactly when, for
some degree n >= 1, the operator g -> sum_s g(gamma_s^T .) on the degree-n
harmonic space fails to be invertible.  divisibility_test decides each degree
in the exact Fischer frame of ``fischer``: one pass of the symmetric-power
recurrence gives S_n = sum_s Sym^n(gamma_s) for every degree, and

    M = U^T S_n U

is the operator in orthonormal coordinates, so its singular values are the
operator's L^2 ones.  At the top degree of one tuple S_n may be streamed
from the r copies of Sym^(n-1) (``fischer._StreamedSum``): M is then built
from S_n's column slabs, and S_n reaches vectors through those copies.  The
trigger reads only sigma_max and sigma_min of M (``_spectrum``).  A tuple
of three or more rotations decides every degree from the Gram matrix
G = M^T M: one symmetric eigenvalue solve gives sigma_max and an estimate
of sigma_min, and one shifted solve refines it into a Rayleigh quotient,
checked against that estimate within the Gram's round-off allowance.
Where the round-off could hide sigma_min (every fired or near-band degree
at the default tolerance) or the check fails, one more shifted solve with
G gives a kernel witness v, and ||M v||, applied through the frame, bounds
sigma_min from above: where that bound fires the trigger it decides the
degree, whose sigma_min_rel is then an upper bound, with no second
assembly of M, and a values-only SVD of a re-assembled M decides only
where it does not.
A pair takes none of this: with h = gamma_1^T gamma_2, M = rho(gamma_1)
(I + rho(h)) and I + rho(h) is normal, so every degree's sigma_max and
sigma_min are 2 |cos(k . theta / 2)| over the torus weights k of H_n, with
theta the rotation angles of h (``_pair_spectrum``).  A pair never
assembles M and never runs the recurrence.
The frame is deterministic, so verdicts do not depend on the seed, which
drives only the verification points.  Near-zero smallest singular values
only *trigger* certificate extraction; the certificate itself is the
residual of a concrete kernel witness g, propagated into an explicit divisor
f = 1/r + c g whose rotated copies must sum to 1 everywhere.  A fired
degree takes no SVD for its witness, whose frame coordinates are v.  A
pair writes v down from the torus frame of h (``_torus_frame``): one
``eig`` gives linear forms a_j with rho(h) a_j = e^(i theta_j) a_j, and
the product of those forms that sigma_min's weight k names has
rho(h) q = e^(i k . theta) q = -q, so its harmonic projection, built by n
multiplications by a linear form, is a kernel vector with no M and no
solve (``_pair_witness``).  A larger tuple takes v from one step of
shifted inverse iteration, on G (``_gram_witness``) for a Gram-step
degree, and otherwise on M + mu I (``_kernel_vector``), one pair of
solves per step, with a second step only where the first leaves ||M v||
above 2 mu.  M stays with the code that assembled it, which makes v once
per fired degree: ``_spectrum`` keeps the v that bounded a Gram-step
degree's sigma_min, and divisibility_test assembles M again only for a
degree whose known sigma_min fired at a large sing_tol.
The certificate never reads M.  The frame bounds that residual over the
whole sphere: its polynomial has Fischer coordinates R = S_n v, and
|p(x)| <= ||p||_F / sqrt(n!) for every degree-n p and unit x, so one
matvec per fired degree certifies sup |sum_s f(gamma_s^T x) - 1|
(``_certify``).  A pair takes R from the same product loop as its
witness: rho(g) prod_j (a_j . x) = prod_j ((g a_j) . x), so the
residual is the harmonic projection of the sum of two products of
rotated forms, bounded with the loop's round-off and the frame's defect
(``_product_bound``).  The first certified degree,
whose divisor a report keeps, is also spot-checked on VERIFY_SAMPLES random
points.  A report never claims divisibility without a passing residual.

Zonal bases P_n(v_i . ) of random poles are kept as a reference that tests
compare against:

    gram_ij = P_n(v_i . v_j) / N_n                (basis Gram matrix, scaled)
    L_ij    = sum_s P_n(v_i . (gamma_s v_j)) / N_n
    M       = B L B^T,  B = W^{-1/2} Q^T  for  gram = Q W Q^T

B is an orthonormal frame (B gram B^T = I), so this M has the same singular
values up to the round-off of the pole draw.  HarmonicFunction and
kernel_witness work over either kind of frame.

The n_max cutoff makes the test one-sided: invertibility at every tested
degree does not prove non-divisibility.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import asdict, dataclass, replace
from functools import lru_cache, partial
from typing import Optional

import numpy as np

from . import fischer
from .errors import BasisConstructionError, InputDomainError, NotSingularError
from .fischer import fischer_frame, summed_powers
from .harmonics import GegenbauerTable, dim_harmonic
from .rotations import Rotation, RotationTuple
from .sampling import as_rng, derive_rng, resolve_seed, uniform_sphere

__all__ = [
    "DegreeRecord",
    "DivisibilityReport",
    "DivisorFunction",
    "HarmonicFunction",
    "VerificationResult",
    "ZonalBasis",
    "build_zonal_basis",
    "divisibility_test",
    "kernel_witness",
    "make_divisor",
    "operator_gram",
    "operator_matrix",
    "report_hooks",
    "verify_divisor",
    "weighted_singular_values",
]

DEFAULT_SING_TOL = 1e-10
DEFAULT_COND_THRESHOLD = 1e8
DEFAULT_MAX_ATTEMPTS = 50
# points on which the divisor a report keeps is spot-checked
VERIFY_SAMPLES = 10_000
# largest |sum_s f(gamma_s^T x) - 1| a certified divisor may have
RESIDUAL_TOL = 1e-8
# share of 1/r a divisor f = 1/r + scale g may move away from 1/r (make_divisor)
_DIVISOR_MARGIN = 0.5
# estimated working set (see _peak_bytes) above which a run is refused before
# it allocates: d = 8 is admitted up to n_max = 7 for r <= 3, not at n_max = 8
COST_BUDGET_BYTES = 1 << 30
# below this absolute scale the whole operator matrix is numerically zero and
# the sigma_min / sigma_max ratio would be noise over noise
ZERO_OPERATOR_FLOOR = 1e-12

VERDICT_INVERTIBLE = "invertible"
VERDICT_SINGULAR = "singular"
VERDICT_BORDERLINE = "borderline"

# highest degree admitted at d = 2 and d = 3, where the recurrence loses
# orthogonality exponentially in n.  Worst |sigma - 1| over the singular values
# of U^T Sym^n(g) U for one rotation g: d = 2, 400 angles in (0, pi]: 5.9e-13
# at n = 50, 1.1e-12 at 54, 3.3e-12 at 60, 1.9e-11 at 70; d = 3, 30 Haar
# draws: 2.9e-13 at n = 34, 9.4e-13 at 38, 1.7e-12 at 40, 5.7e-12 at 44.
# Each cap keeps that drift below 1e-12, two decades under DEFAULT_SING_TOL.
# d >= 4 needs no cap inside COST_BUDGET_BYTES (d = 4, 3 Haar draws: 1e-13
# at n = 28; the budget admits n <= 31).  A pair runs no recurrence but keeps
# the cap: beyond it a divisor scaled by sum |c_a| loses its sampled variance,
# until divisors are scaled and measured in L^2.
_STABLE_MAX_DEGREE = {2: 50, 3: 34}

_log = logging.getLogger("spherediv")

# observers called with every finished DivisibilityReport (used by the test
# suite's certificate-soundness gate); each must accept one argument
report_hooks: list = []


@dataclass(frozen=True)
class ZonalBasis:
    """A concrete zonal basis of the degree-n harmonic space.

    ``points`` holds the N_n unit poles v_i (rows); ``gram`` is the scaled
    Gram matrix P_n(v_i . v_j) / N_n, symmetric positive definite with
    diagonal 1/N_n; ``cond`` its 2-norm condition number; ``frame`` the
    orthonormal frame B = W^{-1/2} Q^T of gram = Q W Q^T, so that
    B @ gram @ B.T = I.
    """

    d: int
    n: int
    points: np.ndarray
    gram: np.ndarray
    cond: float
    table: GegenbauerTable
    frame: np.ndarray

    def __post_init__(self):
        self.points.setflags(write=False)
        self.gram.setflags(write=False)
        self.frame.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.points.shape[0]

    @property
    def size(self) -> int:
        """The coefficient count of a HarmonicFunction: one per pole."""
        return self.dim

    def coefficients(self, coords: np.ndarray) -> np.ndarray:
        """Zonal coefficients B^T y of the harmonic with frame coordinates ``coords``."""
        return self.frame.T @ coords

    def terms(self, x: np.ndarray) -> np.ndarray:
        """Values P_n(v_j . x) of every zonal function at the points ``x`` (m, d)."""
        return self.table.eval(self.n, np.clip(x @ self.points.T, -1.0, 1.0))


def build_zonal_basis(
    d: int,
    n: int,
    rng=None,
    cond_threshold: float = DEFAULT_COND_THRESHOLD,
) -> ZonalBasis:
    """Sample random zonal poles until their Gram matrix is well conditioned.

    Draws N_n uniform points per attempt and admits the set when the scaled
    Gram matrix is positive definite with condition number below
    ``cond_threshold``.  Random poles form a basis almost surely, so a
    handful of attempts suffices in practice.  One eigendecomposition per
    attempt gives positivity, the condition number and the frame.
    """
    if n < 1:
        raise InputDomainError(f"zonal bases are built for degrees n >= 1, got n={n}")
    gen = as_rng(rng)
    size = dim_harmonic(d, n)
    table = GegenbauerTable(d, n)
    best = np.inf
    for _ in range(DEFAULT_MAX_ATTEMPTS):
        points = uniform_sphere(d, size, gen)
        dots = np.clip(points @ points.T, -1.0, 1.0)
        gram = table.eval(n, dots) / size
        gram = (gram + gram.T) / 2.0
        w, q = np.linalg.eigh(gram)
        mags = np.abs(w)
        cond = float(mags.max() / mags.min()) if mags.min() > 0.0 else np.inf
        if cond < cond_threshold and w[0] > 0.0:
            frame = (q / np.sqrt(w)).T
            return ZonalBasis(d=d, n=n, points=points, gram=gram, cond=cond, table=table, frame=frame)
        best = min(best, cond)
    raise BasisConstructionError(
        f"no admissible zonal basis for d={d}, n={n} in {DEFAULT_MAX_ATTEMPTS} attempts "
        f"(best condition number {best:.3e}, threshold {cond_threshold:.3e})",
        best_condition=best,
    )


def _rotation_matrices(rotations) -> np.ndarray:
    """The matrices of a tuple as one (r, d, d) array; arrays pass through."""
    if isinstance(rotations, np.ndarray):
        return rotations
    return np.array([g.matrix if isinstance(g, Rotation) else g for g in rotations], dtype=float)


def operator_gram(basis: ZonalBasis, rotations) -> np.ndarray:
    """Matrix of inner products between summed translates and the basis.

    Entry (i, j) is sum_s P_n(v_i . (gamma_s v_j)) / N_n, i.e. the scaled
    inner product of the adjoint image of P_n(v_i . ) with P_n(v_j . ).
    Accepts a RotationTuple, any sequence of rotations (matrices allowed),
    or an array (..., r, d, d) of tuples, all of the basis dimension; the
    result has shape (..., N_n, N_n).  The r translates accumulate into one
    output, so a stack holds one N_n x N_n array per tuple, not per rotation.
    """
    mats = _rotation_matrices(rotations)
    if mats.ndim < 3 or mats.shape[-2:] != (basis.d, basis.d):
        raise InputDomainError(
            f"rotation shape {mats.shape[-2:]} does not match basis dimension d={basis.d}"
        )
    v = basis.points
    size = basis.dim
    out = np.zeros(mats.shape[:-3] + (size, size))
    for s in range(mats.shape[-3]):
        dots = np.clip(v @ (mats[..., s, :, :] @ v.T), -1.0, 1.0)
        out += basis.table.eval(basis.n, dots)
    return out / size


def operator_matrix(basis: ZonalBasis, rotations) -> np.ndarray:
    """The summed-translate operator in the basis's orthonormal frame: M = B L B^T.

    Broadcasts like ``operator_gram``: a stack of tuples gives a stack of M.
    """
    lmat = operator_gram(basis, rotations)
    return basis.frame @ lmat @ basis.frame.T


def weighted_singular_values(matrix: np.ndarray) -> np.ndarray:
    """Singular values of ``operator_matrix``, the operator's L^2 singular values.

    The frame is orthonormal, so the Euclidean singular values of M are the
    genuine L^2 singular values of the operator, independent of the basis
    draw up to round-off.  A stack of M gives a stack of descending rows.
    """
    return np.linalg.svd(matrix, compute_uv=False)


@dataclass(frozen=True)
class HarmonicFunction:
    """A degree-n harmonic g(x) = sum_k coeffs[k] * phi_k(x) over the functions of a frame.

    ``basis`` is a FischerFrame, whose functions phi_k are the monomials
    x^a (the coefficients must then form a harmonic polynomial), or a
    ZonalBasis, whose functions are P_n(v_k . x).  Callable on a single
    point (d,) or a batch (m, d) of unit vectors.  Only Fischer-frame
    functions have a JSON form.
    """

    basis: object
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=float)
        if c.shape != (self.basis.size,):
            raise InputDomainError(
                f"coefficient vector has shape {c.shape}, the frame has {self.basis.size} functions"
            )
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def size(self) -> int:
        """Values one evaluation holds per point: the frame's function count."""
        return self.basis.size

    def __call__(self, x):
        arr = np.asarray(x, dtype=float)
        single = arr.ndim == 1
        vals = self.basis.terms(np.atleast_2d(arr)) @ self.coeffs
        return float(vals[0]) if single else vals

    def sup_bound(self) -> float:
        """Rigorous sup-norm bound sum_k |c_k|: on the sphere |x^a| <= 1 and |P_n| <= 1."""
        return float(np.sum(np.abs(self.coeffs)))

    def degree_one_pole(self) -> np.ndarray:
        """For n = 1 the function is x -> w . x; returns w normalized."""
        if self.basis.n != 1:
            raise InputDomainError(f"degree_one_pole needs a degree-1 function, got n={self.basis.n}")
        w = self(np.eye(self.basis.d))
        norm = np.linalg.norm(w)
        if norm == 0:
            raise InputDomainError("zero harmonic has no pole")
        return w / norm

    def to_json_obj(self) -> dict:
        return self.basis.function_json(self.coeffs)


def _near_singular(svals: np.ndarray, r: int, sing_tol: float):
    """Dual singularity trigger: (ratio, fired, near band).

    ``svals`` are the operator's L^2 singular values in descending order
    (``weighted_singular_values``), which are independent of the basis draw
    up to round-off; only the first and the last are read, so the
    [sigma_max, sigma_min] of ``_gram_extremes`` and ``_pair_spectrum``
    serve as well.  Fires when sigma_min/sigma_max drops below sing_tol,
    or when the whole operator is uniformly dead: its smallest singular
    value below sing_tol * r (r is the operator's natural scale, a sum of r
    isometries).  The second clause matters at degrees where the operator
    acts conformally and all singular values collapse together, leaving the
    ratio near 1 arbitrarily close to singularity.  If the largest singular
    value is below an absolute floor the operator is zero to round-off and
    the ratio is reported as 0 rather than noise/noise.  The near band is
    the same test with 10 sing_tol.  Vectorised over leading axes of
    ``svals``: one value per row.
    """
    smax, weighted_min = svals[..., 0], svals[..., -1]
    live = smax > ZERO_OPERATOR_FLOOR
    ratio = np.divide(weighted_min, smax, out=np.zeros(np.shape(smax)), where=live)

    def below(tol):
        return (ratio < tol) | (weighted_min < tol * r)

    return ratio, below(sing_tol), below(10.0 * sing_tol)


def _check_tolerance(name: str, value: float) -> None:
    """Refuse a singularity tolerance that is not a finite number in (0, 1)."""
    if not 0.0 < value < 1.0:  # false for NaN and both infinities as well
        raise InputDomainError(f"{name} must be a finite number in (0, 1), got {value}")


# golden ratio: the witness's start vector cos(k phi) has no zero entry and no period
_GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def _start(size: int) -> np.ndarray:
    """The fixed start cos(k phi), k = 1 .. size, of every inverse-iteration step here."""
    return np.cos(_GOLDEN * np.arange(1, size + 1))


def _kernel_vector(matrix: np.ndarray, sigma_max: float, r: int) -> np.ndarray:
    """A unit vector v with M v near zero for a near-singular M, by shifted inverse iteration.

    It serves the callers that hold M and no closed form: the Gram step's
    fall-backs (an exact zero pivot of ``_gram_witness``'s solve, and a
    degree whose known sigma_min fires at a large sing_tol), the search's
    certificate and ``kernel_witness``; a pair's witness comes from its
    torus frame (``_pair_witness``).
    ``sigma_max`` is M's largest singular value as the trigger read it, so
    no factorization repeats the spectral step.  With A = M + mu I, a step is
    x <- A^-1 (A^-T x), normalized: inverse iteration on A^T A, which draws
    x towards the right-singular vector of A's smallest singular value
    (Ipsen, SIAM Review 39, 1997), at the cost of two LU solves.  A kernel
    vector k of M has ||A k|| = mu, so A's smallest singular value is at
    most mu and a step that has found it gives ||M v|| <= ||A v|| + mu,
    about 2 mu at most.  After each step one matvec with M reads ||M v||,
    and v is returned as soon as that is at most 2 mu; at most two steps
    run.  The start cos(k phi) is fixed, so the witness does not depend on
    any seed; it may lie nearly orthogonal to the kernel, and then the
    second step removes what the first left.  The shift
    mu = 1e-13 max(sigma_max, r) is far above the ulp of every diagonal
    entry (|M_ii| <= sigma_max), so it changes each of them and keeps the
    LU clear of the exact zero pivots an unshifted or ulp-shifted M can
    meet.  Nothing here is trusted: ``_certify`` bounds the residual of
    whatever v comes out, after two steps that missed 2 mu as well.
    """
    shift = 1e-13 * max(float(sigma_max), r)
    shifted = matrix.copy()
    shifted[np.diag_indices(len(matrix))] += shift
    x = _start(len(matrix))
    for _ in range(2):
        x = np.linalg.solve(shifted, np.linalg.solve(shifted.T, x))
        x /= np.linalg.norm(x)
        if np.linalg.norm(matrix @ x) <= 2.0 * shift:
            break
    return x


def _gram_refinement(shifted: np.ndarray) -> np.ndarray:
    """One step of inverse iteration, x = (G - c I)^-1 cos(k phi), normalized, for ``shifted`` = G - c I."""
    x = np.linalg.solve(shifted, _start(len(shifted)))
    return x / np.linalg.norm(x)


def _gram_extremes(frame, sums, gram: np.ndarray):
    """(sigma_max, sigma_min) of M = U^T S U from G = M^T M, with sigma_min None where G cannot give it.

    ``gram`` is G as computed from M; its diagonal is shifted and shifted
    back, so it is G again on return up to one rounding per diagonal
    entry.  Its eigenvalues w, ascending, give sigma_max = sqrt(w[-1]).
    Round-off bounds the rest (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., chs. 3 and 8), with u = 2^-53 and N = N_n: the
    computed G differs from M^T M by at most gamma_N |M|^T |M| entrywise,
    whose 2-norm is at most gamma_N ||M||_F^2 = gamma_N trace(G), and
    ``eigvalsh`` is backward stable, which moves each eigenvalue by at most
    about N u w[-1].  With that allowance, w[0] within
    max(1e3 N u w[-1], 2 allowance) of zero says nothing about sigma_min:
    every fired or near-band degree at the default tolerance ends there.
    Otherwise one step of inverse iteration with the shift w[0]
    (``_gram_refinement``) gives a unit x, and M x, applied through the
    frame's parity blocks, gives the Rayleigh quotient
    ||M x||^2 >= sigma_min^2.  sqrt(w[0]) alone is off by up to about 1e-9
    relative; the quotient agrees with the SVD to about 1e-12.  It is kept
    only if it is within the allowance of w[0]: ``eigvalsh`` is dense and
    cannot skip an eigenvalue, so that check is the whole guard.  At the
    round-off floor, at an exact zero pivot of the shifted solve and where
    the check fails, sigma_min is None, and ``_spectrum`` bounds it by a
    witness taken from G (``_gram_witness``) before any SVD; it assembles M
    again only where that solve meets an exact zero pivot (for
    ``_kernel_vector``) or the witness's bound does not fire (for the SVD).
    """
    size = len(gram)
    trace = float(np.trace(gram))
    w = np.linalg.eigvalsh(gram)
    unit = 2.0**-53
    allowance = size * unit / (1.0 - size * unit) * trace + size * unit * w[-1]
    sigma_max = math.sqrt(w[-1])
    if w[0] <= max(1e3 * size * unit * w[-1], 2.0 * allowance):
        return sigma_max, None
    diagonal = np.diag_indices(size)
    gram[diagonal] -= w[0]
    try:
        x = _gram_refinement(gram)
    except np.linalg.LinAlgError:  # an exact zero pivot
        return sigma_max, None
    finally:
        gram[diagonal] += w[0]
    image = frame.apply(sums, x)
    rayleigh = float(image @ image) / float(x @ x)
    if not abs(rayleigh - w[0]) <= allowance:  # NaN fails too
        return sigma_max, None
    return sigma_max, math.sqrt(rayleigh)


def _gram_witness(gram: np.ndarray, sigma_max: float, r: int) -> Optional[np.ndarray]:
    """A unit x with M x near zero, from one solve of (G + mu I) x = cos(k phi); None at an exact zero pivot.

    One step of inverse iteration on G = M^T M draws x towards the right
    singular vector of M's smallest singular value, as two solves with M
    do in ``_kernel_vector``, with no copy of M.  The shift
    mu = 1e-15 max(sigma_max, r)^2 keeps the solve clear of the exact zero
    pivots of a G that is exactly 0 (a tuple whose translates cancel) and
    stays near the ulp of G's largest entries, so that one step reaches
    ||M x|| near round-off at a fired degree: a shift of twice the Gram
    allowance, about 1e-9 at N = 1386, left ||M x|| at 4.6e-10.  ``gram`` is
    overwritten.  Nothing here is trusted: ``_spectrum`` reads ||M x||
    through the frame, and ``_certify`` bounds the residual of x.
    """
    gram[np.diag_indices(len(gram))] += 1e-15 * max(sigma_max, r) ** 2
    try:
        return _gram_refinement(gram)
    except np.linalg.LinAlgError:
        return None


def _spectrum(frame, sums, r: int, sing_tol: float):
    """(svals, v) of one degree: the singular values its trigger reads, and a kernel vector v where one was made.

    M = U^T S U gives G = M^T M and is freed, and ``_gram_extremes`` reads
    sigma_max and, where it can, sigma_min from G.  No M leaves this
    function.  The paths, each named in one debug line on the "spherediv"
    logger with N_n and the step's wall time after the first assembly:
    - gram: svals = [sigma_max, sigma_min] from ``_gram_extremes``, and v
      None;
    - gram→witness: where ``_gram_extremes`` leaves sigma_min unknown, one
      shifted solve with G (``_gram_witness``) gives a unit v, and ||M v||,
      applied through the frame, bounds sigma_min from above, so
      svals = [sigma_max, ||M v||].  Where that bound fires the trigger
      (``_near_singular``), it decides the degree with no SVD and no second
      assembly of M, and v is the witness that ``_certify`` takes; the
      degree's ``sigma_min_rel`` is then an upper bound, below
      ``sing_tol``, not the SVD's ratio.  Only at an exact zero pivot of
      that solve is M assembled again, for ``_kernel_vector``'s v;
    - gram→svd: where the witness's bound does not fire, M is assembled
      again and its values-only SVD decides; v is kept, so a degree that
      the SVD fires certifies it as well.
    ``_near_singular`` reads only the first and last entries of svals, so
    every kind serves.
    """
    matrix = frame.operator(sums)
    start = time.perf_counter()
    gram = matrix.T @ matrix
    del matrix  # G replaces M (see _peak_bytes)
    sigma_max, sigma_min = _gram_extremes(frame, sums, gram)
    if sigma_min is not None:
        del gram
        svals, vector, path = np.array([sigma_max, sigma_min]), None, "gram"
    else:  # bound sigma_min by a witness, and take the SVD only where that bound does not fire
        vector, matrix = _gram_witness(gram, sigma_max, r), None
        del gram
        if vector is None:  # an exact zero pivot
            matrix = frame.operator(sums)
            vector = _kernel_vector(matrix, sigma_max, r)
        svals, path = np.array([sigma_max, np.linalg.norm(frame.apply(sums, vector))]), "gram→witness"
        if not _near_singular(svals, r, sing_tol)[1]:
            matrix = frame.operator(sums) if matrix is None else matrix
            svals, path = weighted_singular_values(matrix), "gram→svd"
    _log.debug("degree %d: N=%d, %s, %.4f s", frame.n, frame.dim, path, time.perf_counter() - start)
    return svals, vector


def _torus_angles(mats: np.ndarray) -> np.ndarray:
    """Rotation angles theta_1..theta_m in [0, pi] of h = g_1^T g_2, for a pair (2, d, d) or a stack (..., 2, d, d).

    h has the eigenvalues e^(+-i theta_j), j = 1..m = d // 2, and one more 1
    at odd d.  ``eigvals`` returns each conjugate pair exactly conjugate, a
    real eigenvalue's angle is exactly 0 or pi, and det h = 1 makes the
    eigenvalues near -1 even in number, so the sorted |angles| come in equal
    pairs after one 0 at odd d: every second one is theta.
    """
    h = np.swapaxes(mats[..., 0, :, :], -1, -2) @ mats[..., 1, :, :]
    angles = np.sort(np.abs(np.angle(np.linalg.eigvals(h))), axis=-1)
    return angles[..., mats.shape[-1] % 2::2]


def _pair_spectrum(mats: np.ndarray, n: int) -> np.ndarray:
    """[sigma_max, sigma_min] of a pair's degree-n operator, or a stack (..., 2) of them, without forming M.

    M = rho(g_1) + rho(g_2) = rho(g_1) (I + rho(h)) with h = g_1^T g_2, and
    rho(g_1) is orthogonal, so M has the singular values of I + rho(h), which
    is normal: rho(h) has the eigenvalue e^(i k . theta) for every torus weight
    k of H_n (``fischer._torus_weights``), so the singular values are
    |1 + e^(i k . theta)| = 2 |cos(k . theta / 2)|.  ``mats`` is a pair
    (2, d, d) or a stack (..., 2, d, d) of pairs.
    """
    weights, _ = fischer._torus_weights(mats.shape[-1], n)
    values = 2.0 * np.abs(np.cos(0.5 * (_torus_angles(mats) @ weights.T)))
    return np.stack([values.max(axis=-1), values.min(axis=-1)], axis=-1)


def _torus_frame(mats: np.ndarray):
    """(forms (m, d), angles (m,), axis) of a pair (2, d, d): linear forms a_j with rho(h) a_j = e^(i theta_j) a_j.

    With h = g_1^T g_2 and rho(h) p = p(h^T .), as in ``_pair_spectrum``,
    the linear form a . x is taken to (h a) . x, so the forms are the
    eigenvectors of h, from one ``eig``.  An eigenvalue e^(i theta) with
    Im > 0 gives a_j and theta_j, and its eigenvector is isotropic,
    a . a = 0, since h is orthogonal and e^(2 i theta) != 1.  The real
    eigenvalues are +-1 with eigenvectors that are not isotropic (h = -I
    gives the axes), so each of those two eigenspaces is made orthonormal
    by QR and its vectors u, w are paired into (u + i w) / sqrt(2), with
    the angle pi or 0.  det h = 1 makes the -1 eigenspace even, so one +1
    vector is left over exactly at odd d: the fixed axis, None at even d.
    Every a_j has unit norm, so a_j . conj(a_j) = 1.
    """
    values, vectors = np.linalg.eig(mats[0].T @ mats[1])
    rising = values.imag > 0
    forms, angles, axis = [vectors[:, rising].T], [np.angle(values[rising])], None
    for sign, angle in ((-1.0, math.pi), (1.0, 0.0)):
        space = np.linalg.qr(vectors[:, (values.imag == 0) & (np.sign(values.real) == sign)].real)[0]
        half = space.shape[1] // 2
        forms.append((space[:, :half] + 1j * space[:, half:2 * half]).T / math.sqrt(2.0))
        angles.append(np.full(half, angle))
        if space.shape[1] % 2:
            axis = space[:, -1]
    return np.concatenate(forms), np.concatenate(angles), axis


@lru_cache(maxsize=None)
def _lowering(d: int, m: int) -> np.ndarray:
    """(d, P_m): the index of b - e_j among the P_(m-1) monomials of degree m - 1, per monomial b and variable j.

    Where b_j = 0 the index is P_(m-1), a zero pad.  It inverts
    ``fischer._step``'s ``up`` table.
    """
    step = fischer._step(d, m)
    below = np.full((d, len(step.lead)), step.up.shape[1], dtype=np.int32)
    for j in range(d):
        below[j, step.up[j]] = np.arange(step.up.shape[1])
    return below


def _form_products(forms: np.ndarray, d: int) -> np.ndarray:
    """Orthonormal-monomial coordinates of prod_j (forms[..., j, :] . x), for a stack (..., m, d) of m linear forms each.

    m multiplications by a linear form: with x_j x^c / sqrt(c!) =
    sqrt(c_j + 1) x^(c + e_j) / sqrt((c + e_j)!), the product of a . x with
    coordinates c has sum_j a_j sqrt(b_j) c_(b - e_j) at each monomial b, one
    gather (``_lowering``) and one product with the forms per step: O(m d P_m)
    per product, and no Sym^m.
    """
    lead = forms.shape[:-2]
    coords = np.ones(lead + (1,), dtype=forms.dtype)
    for m in range(1, forms.shape[-2] + 1):
        padded = np.concatenate([coords, np.zeros(lead + (1,))], axis=-1)
        roots = np.sqrt(fischer._exponents(d, m).T)
        coords = (forms[..., m - 1, None, :] @ (padded[..., _lowering(d, m)] * roots))[..., 0, :]
    return coords


def _pair_witness(torus, frame, mats: np.ndarray):
    """(v, bound) of a fired pair degree, from the torus frame of h (``_torus_frame``), with no M and no S_n.

    v is a unit vector with M v near zero, and bound(coeffs) bounds the
    residual sup |sum_s p(g_s^T x)| of the polynomial p with the
    coefficients coeffs, as ``FischerFrame.residual_bound`` does from S_n
    (``_product_bound``).  The weight k of H_n that minimizes
    |1 + e^(i k . theta)|, the one ``_pair_spectrum`` reads as sigma_min,
    with ties within the round-off of k . theta going to the largest
    |k|_1, names the product of linear forms q = prod_j a_j^(k_j)
    (conj(a_j)^(-k_j) where k_j < 0) times a filler of weight 0: e^(n - |k|_1)
    at odd d, (a_1 conj(a_1))^((n - |k|_1) / 2) at even d.  So
    rho(h) q = e^(i k . theta) q, and its harmonic projection, U^T of its
    orthonormal-monomial coordinates, keeps that, since H_n is invariant and
    U orthonormal.  M = rho(g_1) (I + rho(h)), and where the degree fires
    e^(i k . theta) is -1 up to the trigger, so the real or the imaginary
    part of that projection, whichever is larger, is a v with M v = 0 up to
    round-off.
    The projection is never zero: q is a product of linear forms, and so
    not a multiple of |x|^2, which is irreducible at d >= 3; at d = 2 the
    weights are +-n, so q = a_1^n is harmonic.  The largest |k|_1 needs the
    least filler, so its q loses the least to the projection, and so does
    the bound: the half-turn in SO(3) fires at every odd k, and with the
    filler of k = 1 the bound at n = 28 read about 450 times the S_n bound
    of the same coefficients.  One stacked run of ``_form_products`` gives q,
    its translates rho(g_s) q = prod_j ((g_s a_j) . x) and the products of
    the entrywise |forms| and |g_s| |forms|, whose sizes bound the
    round-off.  Nothing here is trusted: the bound holds for whatever
    coefficients ``_certify`` stores.
    """
    forms, angles, axis = torus
    d, n = frame.d, frame.n
    weights, _ = fischer._torus_weights(d, n)
    gaps = np.abs(np.cos(0.5 * (weights @ angles)))
    tied = np.flatnonzero(gaps <= gaps.min() + 4.0 * d * n * 2.0**-53)
    k = weights[tied[np.argmax(np.abs(weights[tied]).sum(axis=1))]]
    factors = [forms[j] if k[j] > 0 else forms[j].conj() for j in range(len(k)) for _ in range(abs(k[j]))]
    rest = n - len(factors)
    factors += [axis] * rest if d % 2 else [forms[0], forms[0].conj()] * (rest // 2)
    factors = np.array(factors, dtype=complex)
    turns, spans, r = np.swapaxes(mats, -1, -2), np.abs(factors), len(mats)
    # the forms of q and of its r translates, g_s a_j from two real products (two real dot products of length
    # d an entry), then their sizes |a_j| and |g_s| |a_j|, whose zero imaginary parts change nothing
    stack = [factors[None], factors.real @ turns + 1j * (factors.imag @ turns), spans[None], spans @ np.abs(turns)]
    products = _form_products(np.concatenate(stack), d)
    sizes = np.linalg.norm(products[r + 1:].real, axis=-1)
    moved = products[1:r + 1].sum(axis=0)
    parts = frame._project(np.stack([products[0].real, products[0].imag, moved.real, moved.imag], axis=1))
    pick = int(np.argmax(np.linalg.norm(parts[:, :2], axis=0)))
    own, moved = (products[0].imag, moved.imag) if pick else (products[0].real, moved.real)
    vector = parts[:, pick] / np.linalg.norm(parts[:, pick])
    norms = [np.linalg.norm(own), np.linalg.norm(moved), np.linalg.norm(frame._lift(parts[:, 2 + pick]))]
    return vector, partial(_product_bound, frame, r, frame._lift(parts[:, pick]), *map(float, norms), sizes)


def _product_bound(frame, r, lifted, own, moved, kept, sizes, coeffs) -> float:
    """A bound on max_{|x| = 1} |sum_s p(g_s^T x)| for p = sum_k coeffs[k] x^exponents[k], from products of forms.

    ``_pair_witness`` computed the product q~ of its stored forms a_j, the
    translates Q~_s = prod_j ((g_s a_j) . x) and their sum, and took one part
    of each, real or imaginary: x~ of q~, which its witness projects, and
    y~ of the sum.  It passes ``lifted`` = t~, the computed U U^T x~; the
    norms ``own`` = ||x~||, ``moved`` = ||y~|| and ``kept`` = ||fl(U U^T y~)||;
    and ``sizes``, the norms of the computed products of the |a_j| and of
    the |g_s| |a_j|, in the order q, Q_1 .. Q_r.  Write q for the exact
    product of the stored forms and Re q^ for the part taken (q^ = q or
    -i q).  The bound holds for every coeffs, related to the product or not.

    Exact part.  rho(g) prod_j (a_j . x) = prod_j ((g a_j) . x) for every
    complex a_j, so S_n q^ = sum_s Q^_s exactly, with Q^_s the exact
    translates, and S_n commutes with the harmonic projection P_H, as each
    rho(g) does.  Let w = sqrt(a!) c / sqrt(n!) for the coefficients c and,
    for any number lambda, w = lambda P_H Re q^ + e.  Each rho(g_s) is a
    Fischer isometry, so ||S_n|| <= r and
    ||S_n w|| <= |lambda| ||P_H Re sum_s Q^_s|| + r ||e||; as in
    ``FischerFrame.residual_bound``, the residual's sup over the sphere is at
    most ||S_n w||.  With D the frame's ``defect``,
    ||P_H Re sum_s Q^_s|| <= ||fl(U U^T y~)|| + D ||y~|| + ||y~ - Re sum_s Q^_s||,
    and ||e|| <= ||w - lambda t~|| + |lambda| (D ||x~|| + ||x~ - Re q^||).
    lambda is the least-squares fit of the computed w' to t~.  Projecting
    the translates keeps what an error in the forms adds outside H_n, which
    S_n does not cancel, out of the bound.

    Round-off (Higham, Accuracy and Stability of Numerical Algorithms, 2nd
    ed., ch. 3), u = 2^-53, gamma_k = k u / (1 - k u).  One multiplication by
    a form sums at most d terms a_j sqrt(c_j + 1) c, each within gamma_5 of
    the exact product of the computed inputs (a complex product is within
    sqrt(2) gamma_2, Lemma 3.5), so the step adds at most gamma_(d + 4) of the
    same step run on |a| and |c|; over n steps the computed product is
    within gamma_(n (d + 4)) A of the exact one, A the exact product of the
    |a_j|.  That bounds ||x~ - Re q^||.  The rotated forms fl(g_s a_j) are
    within sqrt(2) gamma_d |g_s| |a_j| of g_s a_j, which moves the exact
    product by at most ((1 + gamma_(2d))^n - 1) A_s, A_s the exact product
    of the |g_s| |a_j|; with the sum of the translates, y~ is within
    gamma_(n (3d + 4) + 1) sum_s A_s of Re sum_s Q^_s.  The computed w' is
    within gamma_J of w (``FischerFrame.scaled_coordinates``), and forming
    w' - lambda t~ adds gamma_2 (|w'| + |lambda| |t~|), so ||w - lambda t~|| is
    at most the computed norm plus gamma_(J + 3) (||w'|| + |lambda| ||t~||).
    Every product of |forms| takes at most n (2d + 3) roundings of
    nonnegative numbers, so A_s is at most the computed one over
    (1 - gamma_(n (2d + 3))).  One factor 1 + g, with
    g = gamma_(P_n + n (2d + 3) + 12), covers that, the relative error of
    every norm and the arithmetic that sums the terms.
    """
    d, n = frame.d, frame.n
    unit = 2.0**-53

    def gamma(k):
        return k * unit / (1.0 - k * unit)

    scaled, scaling = frame.scaled_coordinates(coeffs)
    fit = float(scaled @ lifted) / float(lifted @ lifted)
    gap = float(np.linalg.norm(scaled - fit * lifted))
    gap += gamma(scaling + 3) * (float(np.linalg.norm(scaled)) + abs(fit) * float(np.linalg.norm(lifted)))
    drift = frame.defect * own + gamma(n * (d + 4)) * float(sizes[0])
    left = kept + frame.defect * moved + gamma(n * (3 * d + 4) + 1) * float(np.sum(sizes[1:]))
    return (1.0 + gamma(frame.size + n * (2 * d + 3) + 12)) * (abs(fit) * left + r * (gap + abs(fit) * drift))


def _witness(basis, vector: np.ndarray) -> HarmonicFunction:
    """The harmonic with frame coordinates ``vector`` in ``basis``, scaled to a witness.

    ``vector`` is a kernel vector from ``_pair_witness``, ``_gram_witness``
    or ``_kernel_vector``; the coefficients are normalized so that
    sum_k |c_k| = 1 with a positive largest entry.
    """
    coeffs = basis.coefficients(vector)
    coeffs = coeffs / np.sum(np.abs(coeffs))
    if coeffs[np.argmax(np.abs(coeffs))] < 0:
        coeffs = -coeffs
    return HarmonicFunction(basis, coeffs)


def kernel_witness(
    basis,
    matrix: np.ndarray,
    r: int,
    sing_tol: float = DEFAULT_SING_TOL,
) -> HarmonicFunction:
    """A kernel element of the r-rotation operator whose matrix in ``basis``'s frame is ``matrix``.

    ``basis`` is a FischerFrame (with M = U^T S_n U) or a ZonalBasis (with
    M from ``operator_matrix``).  Takes the values-only SVD of M and raises
    NotSingularError unless M is near-singular per ``sing_tol`` (see
    ``_near_singular``).  The witness's frame coordinates come from shifted
    inverse iteration (``_kernel_vector``), not from a second SVD; its
    coefficients are normalized so that sum_k |c_k| = 1 with a positive
    largest entry.  The witness is not residual-checked here:
    divisibility_test and search_divisible certify the residual of its
    divisor.
    """
    svals = weighted_singular_values(matrix)
    ratio, fired, _ = _near_singular(svals, r, sing_tol)
    if not fired:
        raise NotSingularError(
            f"not singular per sing_tol={sing_tol:.3e}: sigma ratio {float(ratio):.3e}, "
            f"weighted sigma_min {svals[-1]:.3e}"
        )
    return _witness(basis, _kernel_vector(matrix, svals[0], r))


@dataclass(frozen=True)
class DivisorFunction:
    """An explicit divisor f = 1/r + scale * g built from a kernel witness.

    The scale is chosen below (1/r) / sup|g|, so 0 < f < 1 everywhere, and
    the rotated copies of f sum to 1 wherever those of g sum to 0.
    """

    witness: HarmonicFunction
    r: int
    scale: float

    @property
    def size(self) -> int:
        """Values one evaluation holds per point, as for the witness."""
        return self.witness.size

    def __call__(self, x):
        return 1.0 / self.r + self.scale * self.witness(x)


def make_divisor(witness: HarmonicFunction, r: int) -> DivisorFunction:
    """Scale a kernel witness into a divisor with values strictly inside (0, 1).

    The scale is _DIVISOR_MARGIN / (r sup|g|), so |f - 1/r| <= 1/(2r).
    """
    if r < 2:
        raise InputDomainError(f"divisors need r >= 2, got r={r}")
    bound = witness.sup_bound()
    if bound == 0.0:
        raise InputDomainError("witness is identically zero")
    return DivisorFunction(witness=witness, r=r, scale=_DIVISOR_MARGIN / (r * bound))


@dataclass(frozen=True)
class VerificationResult:
    """Residual statistics of a divisor candidate over random sphere samples.

    ``residual_bound`` is the whole-sphere bound of a certificate (see
    ``_certify``) and None for a sampled check alone; when it is set,
    ``max_residual`` is the larger of the bound and the sampled maximum.  A
    result with ``n_samples`` 0 rests on the bound alone, and its sample
    statistics read 0.
    """

    max_residual: float
    mean_residual: float
    function_variance: float
    n_samples: int
    n_skipped: int
    residual_tol: float
    passed: bool
    residual_bound: Optional[float] = None

    def to_json_obj(self) -> dict:
        return asdict(self)


def verify_divisor(
    rotations,
    f,
    samples: int = 100_000,
    rng=None,
    *,
    skip=None,
) -> VerificationResult:
    """Check |sum_s f(gamma_s^T x) - 1| on random samples; never raises on failure.

    ``f`` is any callable on batches of unit points.  ``skip`` may mark
    points to exclude (e.g. within 1e-12 of an indicator's boundary, a
    measure-zero set on which almost-everywhere equality says nothing).
    Passing requires max residual <= RESIDUAL_TOL and a strictly
    positive sample variance of f (nonconstancy evidence).  f is evaluated
    on blocks of points holding at most ``fischer.BLOCK_BYTES`` of values,
    taking ``f.size`` values per point where f has one (HarmonicFunction and
    DivisorFunction do) and d otherwise; only the per-point sums and values
    are kept whole.  This is a sampled check, not a bound over the
    sphere: divisibility_test certifies its degrees through ``_certify``.
    A ``samples`` below 1 or above COST_BUDGET_BYTES / (8 (2d + 2)) raises
    InputDomainError: the sphere draw holds the points twice while it
    normalizes them, and the per-point sums and values add two entries per
    point, about 8 samples (2d + 2) bytes in all.
    """
    if samples < 1:
        raise InputDomainError(f"samples must be >= 1, got {samples}")
    mats = _rotation_matrices(rotations)
    d = mats[0].shape[0]
    _check_budget(8 * samples * (2 * d + 2), f"samples={samples} in d={d}", "samples")
    pts = uniform_sphere(d, samples, rng)
    skipped = 0
    if skip is not None:
        mask = np.asarray(skip(pts), dtype=bool)
        skipped = int(mask.sum())
        pts = pts[~mask]
    rows = max(1, fischer.BLOCK_BYTES // (8 * getattr(f, "size", d)))
    total = np.zeros(len(pts))
    fvals = np.empty(len(pts))
    for lo in range(0, len(pts), rows):
        block = pts[lo:lo + rows]
        for mat in mats:
            total[lo:lo + rows] += np.asarray(f(block @ mat), dtype=float)
        fvals[lo:lo + rows] = f(block)
    residuals = np.abs(total - 1.0)
    max_res = float(residuals.max()) if len(pts) else 0.0
    mean_res = float(residuals.mean()) if len(pts) else 0.0
    var = float(fvals.var()) if len(pts) else 0.0
    return VerificationResult(
        max_residual=max_res,
        mean_residual=mean_res,
        function_variance=var,
        n_samples=int(len(pts)),
        n_skipped=skipped,
        residual_tol=RESIDUAL_TOL,
        passed=bool(max_res <= RESIDUAL_TOL and var > 0.0),
    )


def _certify(frame, vector, bound, rotations, rng):
    """Witness, divisor and certificate of a degree whose trigger fired.

    ``frame`` is the degree's FischerFrame and ``vector`` a kernel vector of
    its operator M = U^T S_n U, made once per fired degree: for a pair from
    the torus frame of h with no M (``_pair_witness``), and otherwise by the
    code that assembled M (``_spectrum`` through ``_gram_witness``, or
    ``_kernel_vector`` in divisibility_test and search_divisible); nothing
    here reads M.  The witness g has the frame coordinates ``vector``, and
    the divisor f = 1/r + scale * g of the kernel witness g has the residual
    sum_s f(gamma_s^T x) - 1 = scale * sum_s g(gamma_s^T x).  ``bound`` maps
    the witness's stored coefficients c to a bound on
    sup_{|x| = 1} |sum_s g(gamma_s^T x)|, round-off included, that holds
    whatever c is: ``FischerFrame.residual_bound`` over the degree's S_n,
    ||R|| + delta over sqrt(n!) with R = S_n v and v = sqrt(a!) c, for a
    larger tuple, and ``_product_bound`` from the products of h's
    eigen-forms for a pair.  So

        sup_{|x| = 1} |sum_s f(gamma_s^T x) - 1| <= scale * bound(c).

    The certificate passes when that is at most RESIDUAL_TOL and the
    witness's translates cancel, bound(c) <= 1e-6 N_n.  Given ``rng``, a passing
    bound is also spot-checked by verify_divisor on VERIFY_SAMPLES points
    from ``rng``: the result then passes only if the samples do too, and its
    max_residual is the larger of the bound and the sampled maximum.  With
    ``rng`` None nothing is sampled and the result holds the bound alone.
    """
    witness = _witness(frame, vector)
    divisor = make_divisor(witness, rotations.r)
    sup = bound(witness.coeffs)
    bound = divisor.scale * sup
    passed = bound <= RESIDUAL_TOL and sup <= 1e-6 * frame.dim
    if passed and rng is not None:
        ver = verify_divisor(rotations, divisor, VERIFY_SAMPLES, rng)
        ver = replace(ver, max_residual=max(bound, ver.max_residual), residual_bound=bound)
    else:
        ver = VerificationResult(
            max_residual=bound,
            mean_residual=0.0,
            function_variance=0.0,
            n_samples=0,
            n_skipped=0,
            residual_tol=RESIDUAL_TOL,
            passed=passed,
            residual_bound=bound,
        )
    return witness, divisor, ver


@dataclass(frozen=True)
class DegreeRecord:
    """Outcome of the singularity check at one degree.

    ``sigma_min_rel`` is the smallest over largest singular value of the
    degree-n operator in the L^2 geometry (its matrix in the Fischer frame),
    the ratio that determined the verdict.  At a fired degree of a tuple of
    three or more rotations (``_spectrum``'s gram→witness path) it is an
    upper bound on that ratio, ||M v|| / sigma_max for the witness v that
    one shifted solve with G gives, and below ``sing_tol``, so it reads
    round-off, not the SVD's value; a pair reads the exact ratio from its
    torus weights, and its witness is the harmonic projection of a product
    of h's eigen-linear-forms (``_pair_witness``).  ``dim`` is N_n.
    ``residual_bound`` is the whole-sphere bound on the residual of the
    degree's divisor (see ``_certify``) when its trigger fired, and None
    otherwise: through S_n for a larger tuple, from the products of the
    rotated forms for a pair (``_product_bound``).
    """

    n: int
    dim: int
    sigma_min_rel: float
    verdict: str
    residual_bound: Optional[float] = None

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "N_n": self.dim,
            "sigma_min_rel": self.sigma_min_rel,
            "verdict": self.verdict,
            "residual_bound": self.residual_bound,
        }


@dataclass(frozen=True)
class DivisibilityReport:
    """Per-degree singularity metrics with, when certified, a verified divisor."""

    d: int
    r: int
    n_max: int
    sing_tol: float
    seed: int
    degrees: tuple
    overall: str
    witness: Optional[HarmonicFunction] = None
    divisor: Optional[DivisorFunction] = None
    verification: Optional[VerificationResult] = None

    @property
    def divisible(self) -> bool:
        return any(rec.verdict == VERDICT_SINGULAR for rec in self.degrees)

    def singular_degrees(self) -> list:
        return [rec.n for rec in self.degrees if rec.verdict == VERDICT_SINGULAR]

    def to_json_obj(self) -> dict:
        obj = {
            "d": self.d,
            "r": self.r,
            "n_max": self.n_max,
            "sing_tol": self.sing_tol,
            "seed": self.seed,
            "degrees": [rec.to_json_obj() for rec in self.degrees],
            "overall": self.overall,
        }
        if self.witness is not None:
            obj["witness"] = self.witness.to_json_obj()
        if self.verification is not None:
            obj["residual_max"] = self.verification.max_residual
            obj["verification"] = self.verification.to_json_obj()
        return obj


def _peak_bytes(d: int, r: int, n: int) -> int:
    """Estimated peak bytes of deciding and certifying degree n for r rotations in dimension d.

    The estimate is 8 max((r + 1) P_n^2 + P_n N_n + 4 N_n^2, r (P_(n-1)^2 + P_(n-2)^2),
    (r + 1) P_(n-1)^2 + P_(n-3) P_(n-1)) bytes for the stages below, plus
    4 ``fischer.BLOCK_BYTES`` of temporaries and the per-process caches.
    A pair runs none of the recurrence, operator or spectral stages: its
    fired degrees hold a frame and a few stacked products of P_n entries,
    so for r = 2 the estimate is an upper bound, kept as it is:
    - the recurrence step to degree n holds the r copies of Sym^(n-1) and
      the sum S_n, at most (r + 1) P_n^2, and works in column slabs; the
      previous degree's S and M are freed before it starts;
    - where one tuple's r copies of Sym^(n-1) take fewer entries than S_n,
      r P_(n-1)^2 < P_n^2 (the size rule of ``fischer.summed_powers``),
      the top degree keeps those copies in place of S_n from the
      recurrence through the spectral step and the certificate, and the
      operator builds S_n one column slab at a time, P_n rows of at most
      P_(n-1) columns: together less than 2 P_n^2, within the count above;
    - the operator keeps S_n and adds U^T S_n (N_n P_n) and M (N_n^2), and
      a dense U (only at P_n <= ``fischer.DENSE_MAX_SIZE``) P_n N_n more;
      the parity blocks gather S_n a chunk of classes at a time;
    - the spectral step (``_spectrum``) holds a few N_n^2, within 4 N_n^2:
      M and G = M^T M while G is formed, then G and LAPACK's copy in the
      eigenvalue solve, again in the shifted solve and again in the
      witness's solve with G (gram→witness); M again only where that
      solve meets an exact zero pivot, with ``_kernel_vector``'s shifted
      copy and LAPACK's copy of that, or where the witness's bound does
      not fire, with the SVD's copy (gram→svd);
    - the step to degree n - 1 holds the r copies of both Sym^(n-2) and
      Sym^(n-1).  At d <= 4 and large n, where P_n grows slowly, it is the
      peak, close to 2 r P_n^2;
    - building the frame of degree n - 1, on a first run, holds those r
      copies of Sym^(n-1), S_(n-1) and the dense Laplacian, P_(n-3) P_(n-1);
    - temporaries: a recurrence slab holds its parent columns, their
      product with one shift and the target rows it gathers, and an
      operator chunk its gathered rows and their product, each at most
      ``fischer.BLOCK_BYTES``;
    - caches, kept for every degree m <= n: the step tables and exponents,
      (d + 4) P_m + 2 d P_(m-1) entries; the frame's QR blocks, at most N_m
      times the largest parity class C(m // 2 + d - 1, d - 1), its index
      arrays and, where P_m <= DENSE_MAX_SIZE, the dense U; and the d
      P_m x P_(m-1) moves of the steps small enough to build them.
    Every other stage of a degree below n costs less than its counterpart
    at degree n.
    """
    def monomials(m):
        return math.comb(m + d - 1, d - 1) if m >= 0 else 0

    size = [monomials(m) for m in (n, n - 1, n - 2, n - 3)]
    dim = dim_harmonic(d, n)
    degree_n = (r + 1) * size[0] ** 2 + size[0] * dim + 4 * dim * dim
    step_below = r * (size[1] ** 2 + size[2] ** 2)
    frame_below = (r + 1) * size[1] ** 2 + size[3] * size[1]
    cached = 0
    for m in range(1, n + 1):
        here, below, harmonics = monomials(m), monomials(m - 1), dim_harmonic(d, m)
        cached += (d + 4) * here + 2 * d * below + here + harmonics
        cached += monomials(m // 2) * harmonics
        if here <= fischer.DENSE_MAX_SIZE:
            cached += here * harmonics
        if 8 * r * d * here * here <= fischer.BLOCK_BYTES:
            cached += d * here * below
    return 8 * (max(degree_n, step_below, frame_below) + cached) + 4 * fischer.BLOCK_BYTES


def _check_budget(need: int, what: str, knob: str) -> None:
    """Refuse ``what``, before it allocates, when its estimated ``need`` bytes exceed COST_BUDGET_BYTES."""
    if need > COST_BUDGET_BYTES:
        raise InputDomainError(
            f"{what} would need about {need / 2**30:.1f} GiB, over the "
            f"{COST_BUDGET_BYTES / 2**30:.0f} GiB budget; lower {knob}"
        )


def _check_cost(d: int, r: int, n_max: int) -> None:
    """Refuse, before anything is allocated, a degree the frame cannot carry or a run over COST_BUDGET_BYTES."""
    limit = _STABLE_MAX_DEGREE.get(d)
    if limit is not None and n_max > limit:
        raise InputDomainError(
            f"d={d}, n_max={n_max}: above degree {limit} the symmetric-power recurrence loses "
            f"orthogonality (its frame drifts past 1e-12, near sing_tol), so verdicts there mean "
            f"nothing; lower n_max to at most {limit}"
        )
    _check_budget(_peak_bytes(d, r, n_max), f"d={d}, r={r}, n_max={n_max}", "n_max")


def _overall_text(divisible: bool, n_max: int) -> str:
    if divisible:
        return f"fractionally divisible (certified up to degree {n_max})"
    return f"no divisibility witness below degree {n_max + 1}"


def divisibility_test(
    rotations: RotationTuple,
    n_max: int,
    sing_tol: float = DEFAULT_SING_TOL,
    rng=None,
) -> DivisibilityReport:
    """Run the per-degree singularity check for n = 1 .. n_max.

    A degree is recorded ``singular`` only when the near-zero trigger
    (sigma_min / sigma_max below ``sing_tol``) is confirmed by a kernel
    witness whose divisor ``_certify`` bounds over the whole sphere: a
    residual of at most RESIDUAL_TOL from the Fischer frame, recorded as the
    degree's ``residual_bound``.  A pair reads each degree's sigma_max and
    sigma_min from ``_pair_spectrum``, a larger tuple from ``_spectrum``; one
    "spherediv" debug line per degree names the path (pair, pair→witness,
    gram, gram→witness or gram→svd) and its wall time.  A fired pair degree
    takes its witness and its certificate's bound from the torus frame of h
    (``_pair_witness``), with no M, no solve and no recurrence: a pair runs
    ``summed_powers`` at no degree.  At the default tolerance every fired degree
    of a larger tuple takes the gram→witness path: it fires on an upper
    bound of sigma_min from its witness, with no SVD and no second assembly
    of M, and records that bound
    as its ``sigma_min_rel``.  Only the first certified degree, whose divisor
    the report keeps, is also spot-checked by ``verify_divisor`` on
    VERIFY_SAMPLES points, so a report makes at most one sampled check in
    normal runs.  A trigger that fails certification is downgraded to
    ``borderline``, and so is a degree within 10x of the trigger.  The
    verdicts and ratios do not depend on ``rng``, which draws only the
    verification points.  A ``sing_tol`` outside (0, 1), NaN included, and
    runs whose estimated working set exceeds COST_BUDGET_BYTES are refused
    with InputDomainError before anything is allocated, as is an n_max
    above the degree the frame carries at d <= 3 (_STABLE_MAX_DEGREE).
    The test is one-sided: ``invertible`` at all tested degrees does not
    prove non-divisibility.
    """
    if not isinstance(rotations, RotationTuple):
        rotations = RotationTuple(tuple(rotations))
    if n_max < 1:
        raise InputDomainError(f"n_max must be >= 1, got {n_max}")
    _check_tolerance("sing_tol", sing_tol)
    _check_cost(rotations.d, rotations.r, n_max)
    seed = resolve_seed(rng)
    records = []
    witness = None
    divisor = None
    verification = None

    mats = _rotation_matrices(rotations)
    pair = rotations.r == 2
    if pair:  # no recurrence: the spectrum, the witness and its bound all come from h
        spectra, times = [], []
        for n in range(1, n_max + 1):
            start = time.perf_counter()
            spectra.append(_pair_spectrum(mats, n))
            times.append(time.perf_counter() - start)
        fires = any(_near_singular(svals, 2, sing_tol)[1] for svals in spectra)
        torus = _torus_frame(mats) if fires else None
    else:
        powers = summed_powers(mats, n_max)

    for n in range(1, n_max + 1):
        sums = bound = None
        if pair:
            svals, vector = spectra[n - 1], None
        else:
            sums = next(powers)[1]
            svals, vector = _spectrum(fischer_frame(rotations.d, n), sums, rotations.r, sing_tol)
        ratio, fired, near_band = _near_singular(svals, rotations.r, sing_tol)
        if pair:
            path, start = "pair", time.perf_counter()
            if fired:  # its witness and its bound come from the torus frame of h, with no M and no S_n
                vector, bound = _pair_witness(torus, fischer_frame(rotations.d, n), mats)
                path = "pair→witness"
            elapsed = times[n - 1] + time.perf_counter() - start
            _log.debug("degree %d: N=%d, %s, %.4f s", n, dim_harmonic(rotations.d, n), path, elapsed)
        residual = None
        if fired:
            frame = fischer_frame(rotations.d, n)
            if vector is None:  # a Gram-step degree whose known sigma_min fires at a large sing_tol
                vector = _kernel_vector(frame.operator(sums), svals[0], rotations.r)
            if bound is None:
                bound = partial(frame.residual_bound, sums, mats=mats)
            sample_rng = derive_rng(seed, 2, n, 3) if witness is None else None
            g, f, ver = _certify(frame, vector, bound, rotations, sample_rng)
            residual = ver.residual_bound
            if ver.passed:
                verdict = VERDICT_SINGULAR
                if witness is None:
                    witness, divisor, verification = g, f, ver
            else:
                verdict = VERDICT_BORDERLINE
        elif near_band:
            verdict = VERDICT_BORDERLINE
        else:
            verdict = VERDICT_INVERTIBLE
        dim = dim_harmonic(rotations.d, n)
        records.append(
            DegreeRecord(n=n, dim=dim, sigma_min_rel=float(ratio), verdict=verdict, residual_bound=residual)
        )
        del sums, vector, bound  # free degree n before the recurrence builds degree n + 1 (see _peak_bytes)

    report = DivisibilityReport(
        d=rotations.d,
        r=rotations.r,
        n_max=n_max,
        sing_tol=sing_tol,
        seed=seed,
        degrees=tuple(records),
        overall=_overall_text(any(rec.verdict == VERDICT_SINGULAR for rec in records), n_max),
        witness=witness,
        divisor=divisor,
        verification=verification,
    )
    for hook in report_hooks:
        hook(report)
    return report
