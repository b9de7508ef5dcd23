"""Per-degree operator matrices, singularity certificates, and divisor checks.

An r-tuple of rotations fractionally divides the sphere exactly when, for
some degree n >= 1, the operator g -> sum_s g(gamma_s^T .) on the degree-n
harmonic space fails to be invertible.  Every verdict rests on one identity:
with h_s = gamma_1^T gamma_s, sum_s rho(gamma_s) = rho(gamma_1) sum_s rho(h_s),
so both share singular values and right singular vectors.
divisibility_test picks one route per call, and that route decides every
degree; each route is described once, on its object (``_Route``):
``_CircleRoute`` for a tuple whose h_s all rotate one plane (``circle``),
``_PairRoute`` for a pair, from the torus angles of h = h_2, and
``_GramRoute`` for the rest, in the exact Fischer frame of ``fischer``.
The genericity studies decide their trials through the same routes, and
the searches assemble the Gram route's translated S_n
(``experiments._assemble``).
The frames are deterministic and no certificate samples the sphere, so
nothing in a report depends on the seed.  Near-zero smallest singular values
only *trigger* certificate extraction (``_near_singular``); the certificate
itself is the residual of a concrete kernel witness g, propagated into an
explicit divisor f = 1/r + c g whose rotated copies must sum to 1
everywhere, and bounded over the whole sphere by the route that decided the
degree (``_certify``, or a circle tuple's closed form), which also reads the
divisor's exact variance from the witness's frame, once per fired degree.
A report never claims divisibility without a passing residual.

Zonal bases P_n(v_i . ) of random poles are kept as a reference that tests
compare against:

    gram_ij = P_n(v_i . v_j) / N_n                (basis Gram matrix, scaled)
    L_ij    = sum_s P_n(v_i . (gamma_s v_j)) / N_n
    M       = B L B^T,  B = W^{-1/2} Q^T  for  gram = Q W Q^T

B is an orthonormal frame (B gram B^T = I), so this M has the same singular
values up to the round-off of the pole draw.  HarmonicFunction and
kernel_witness work over either kind of frame, and HarmonicFunction also
over a circle witness's product of forms (``circle.FormProduct``).

The n_max cutoff makes the test one-sided: invertibility at every tested
degree does not prove non-divisibility.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import asdict, dataclass
from functools import partial
from typing import Optional

import numpy as np

from . import circle, fischer
from .errors import BasisConstructionError, InputDomainError, NotSingularError, _check_count
from .fischer import fischer_frame, summed_powers
from .harmonics import GegenbauerTable, dim_harmonic
from .rotations import Rotation, RotationTuple
from .sampling import as_rng, resolve_seed, uniform_sphere

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
# largest |sum_s f(gamma_s^T x) - 1| a certified divisor may have
RESIDUAL_TOL = 1e-8
# share of 1/r a divisor f = 1/r + scale g may move away from 1/r (make_divisor)
_DIVISOR_MARGIN = 0.5
# estimated working set (see _peak_bytes) above which a run is refused before
# it allocates: d = 8 is admitted up to n_max = 7 for r <= 7 and up to 6 at r = 8
COST_BUDGET_BYTES = 1 << 30
# bytes a circle tuple's degree holds in its DegreeRecord and the report's JSON (see _CircleRoute.price):
# tracemalloc's peak of a run and its JSON text, {I, -I} in SO(2) at n_max 2e4 and 1e5, was 1.43-1.48 kB
_DEGREE_BYTES = 2048
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
# at n = 28; the budget admits n <= 31 for pairs, 29 at r = 3, 28 at r = 4
# and 25 at r = 8).  A d = 3 pair runs no recurrence but keeps the cap: beyond
# it the variance of a divisor scaled by sum |c_a|, read from its frame, collapses
# towards 0, until divisors are scaled in L^2.  divisibility_test and the genericity studies
# take every d = 2 tuple, rounded entries included, on the circle route (``circle.detect``),
# which no cap limits; the d = 2 entry still caps the searches, whose Gauss-Newton steps assemble M.
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
    _check_count("d", d, 2)
    _check_count("n", n, 1)
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
    x^a (the coefficients must then form a harmonic polynomial), a
    ZonalBasis, whose functions are P_n(v_k . x), or a circle tuple's
    ``circle.FormProduct``, whose two functions are Re q and Im q of one
    product of linear forms.  Callable on a single point (d,) or a batch
    (m, d) of unit vectors.  Fischer-frame and form-product functions have
    a JSON form.
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
        """Rigorous sup-norm bound: the basis's own sup where it gives one, else sum_k |c_k|.

        A FormProduct knows its exact sup, |w| for the coefficients
        (Re w, Im w).  Otherwise sum_k |c_k| bounds |g|, since on the sphere
        |x^a| <= 1 and |P_n| <= 1.
        """
        sup = getattr(self.basis, "sup", None)
        return float(np.sum(np.abs(self.coeffs))) if sup is None else sup(self.coeffs)

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


def _near_singular(svals: np.ndarray, r: int, sing_tol: float, slack: float = 0.0):
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
    the same test with 10 sing_tol, on sigma_min lowered and sigma_max
    raised by ``slack``, how far the route may have moved the singular
    values (``_Route.degree``).
    Vectorised over leading axes of ``svals``: one value per row.
    """
    smax, weighted_min = svals[..., 0], svals[..., -1]

    def below(tol, low, high):
        live = high > ZERO_OPERATOR_FLOOR
        ratio = np.divide(low, high, out=np.zeros(np.shape(high)), where=live)
        return ratio, (ratio < tol) | (low < tol * r)

    ratio, fired = below(sing_tol, weighted_min, smax)
    near = below(10.0 * sing_tol, weighted_min - slack, smax + slack)[1]
    return ratio, fired, near


def _check_tolerance(name: str, value: float) -> None:
    """Refuse a singularity tolerance that is not a finite number in (0, 1)."""
    if not 0.0 < value < 1.0:  # false for NaN and both infinities as well
        raise InputDomainError(f"{name} must be a finite number in (0, 1), got {value}")


# golden ratio: the witness's start vector cos(k phi) has no zero entry and no period
_GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def _svd_witness(matrix: np.ndarray):
    """(svals, v) of M from one SVD: its singular values, descending, and the right-singular vector of the last.

    It serves the callers that hold M and no factorization of their own:
    ``kernel_witness``, the search's iterates and ``_GramRoute.degree``'s
    fall-back where no solve with G gives a vector it can keep.  v is copied
    out of the factor V^T, so neither factor outlives the call.
    """
    _, svals, vt = np.linalg.svd(matrix)
    return svals, vt[-1].copy()


def _gram_refinement(gram: np.ndarray, shift: float) -> Optional[np.ndarray]:
    """One step of inverse iteration, x = (G - shift I)^-1 cos(k phi), normalized; None at an exact zero pivot.

    G's diagonal is shifted and shifted back, so ``gram`` is G again on
    return up to one rounding per diagonal entry.  The start cos(k phi),
    k = 1 .. N_n, is fixed, so x does not depend on any seed.
    """
    diagonal = np.diag_indices(len(gram))
    gram[diagonal] -= shift
    try:
        x = np.linalg.solve(gram, np.cos(_GOLDEN * np.arange(1, len(gram) + 1)))
    except np.linalg.LinAlgError:
        return None
    finally:
        gram[diagonal] += shift
    return x / np.linalg.norm(x)


def _gram_extremes(frame, sums, gram: np.ndarray, r: int):
    """(sigma_max, sigma_min, x, resolved) of M = U^T S U from G = M^T M, one ``eigvalsh`` and one shifted solve.

    ``gram`` is G as computed from M, and G again on return
    (``_gram_refinement``).  Its eigenvalues w, ascending, give
    sigma_max = sqrt(w[-1]).  Round-off bounds the rest (Higham, Accuracy
    and Stability of Numerical Algorithms, 2nd ed., chs. 3 and 8), with
    u = 2^-53 and N = N_n: the computed G differs from M^T M by at most
    gamma_N |M|^T |M| entrywise, whose 2-norm is at most
    gamma_N ||M||_F^2 = gamma_N trace(G), and ``eigvalsh`` is backward
    stable, which moves each eigenvalue by at most about N u w[-1].  With
    that allowance, w[0] within max(1e3 N u w[-1], 2 allowance) of zero
    says nothing about sigma_min: every fired or near-band degree at the
    default tolerance ends there, and w[0] is not resolved.  x is one step
    of inverse iteration (``_gram_refinement``; Ipsen, SIAM Review 39,
    1997), and M x, applied through the frame's parity blocks, is read:
    - resolved: the shift is w[0], and ||M x||^2 >= sigma_min^2 is the
      Rayleigh quotient.  sqrt(w[0]) alone is off by up to about 1e-9
      relative; the quotient agrees with the SVD to about 1e-12.  Where the
      LU of G - w[0] I meets an exact zero pivot (14 of 300 degree-1 Haar
      operators, d = 3 .. 7) the step is taken again with the shift the
      allowance lower; at every degree that shift would cost accuracy near
      a close second eigenvalue (1e-10 relative at d = 8, n = 3).  The
      quotient is kept only if it is within the allowance of w[0]:
      ``eigvalsh`` is dense and cannot skip an eigenvalue, so that check is
      the whole guard.  Then sigma_min is its square root, and x the unit
      vector whose ||M x|| it is: the degree's witness should it fire;
    - not resolved: the shift is -1e-15 max(sigma_max, r)^2, and ||M x||
      bounds sigma_min from above.  The shift keeps the solve clear of the
      exact zero pivots of a G that is exactly 0 (a tuple whose translates
      cancel) and stays near the ulp of G's largest entries, so that one
      step reaches ||M x|| near round-off at a fired degree: a shift of
      twice the allowance, about 1e-9 at N = 1386, left ||M x|| at 4.6e-10.
      Nothing here is trusted: ``_GramRoute.degree`` takes the SVD where the
      bound does not fire, and ``_certify`` bounds the residual of x.
    sigma_min and x are None where every solve met an exact zero pivot,
    and, on a resolved degree, where the check fails.
    """
    size = len(gram)
    trace = float(np.trace(gram))
    w = np.linalg.eigvalsh(gram)
    unit = 2.0**-53
    allowance = fischer._gamma(size) * trace + size * unit * w[-1]
    sigma_max = math.sqrt(w[-1])
    resolved = not w[0] <= max(1e3 * size * unit * w[-1], 2.0 * allowance)
    x = _gram_refinement(gram, w[0] if resolved else -1e-15 * max(sigma_max, r) ** 2)
    if x is None and resolved:  # an exact zero pivot: the shift's, so move it once
        x = _gram_refinement(gram, w[0] - allowance)
    if x is None:
        return sigma_max, None, None, resolved
    image = frame.apply(sums, x)
    if not resolved:
        return sigma_max, float(np.linalg.norm(image)), x, False
    rayleigh = float(image @ image) / float(x @ x)
    if not abs(rayleigh - w[0]) <= allowance:  # NaN fails too
        return sigma_max, None, None, True
    return sigma_max, math.sqrt(rayleigh), x, True


def _translate(mats: np.ndarray):
    """(turns, drift) of a tuple (r, d, d): the formed h_s = fl(gamma_1^T gamma_s) with h_1 = I exactly, and eps.

    eps = ``drift`` bounds max_s ||gamma_s^T gamma_s - I||_F for the stored matrices, which ``Rotation`` keeps only
    within ORTHO_TOL of orthogonal: forming gamma_s^T gamma_s adds at most gamma_d ||gamma_s||_F^2 (Higham, Accuracy
    and Stability of Numerical Algorithms, 2nd ed., ch. 3), and 1 + gamma_(d^2 + 8) covers the subtraction of I,
    the norms and the sums.
    """
    d, gamma, eye = mats.shape[-1], fischer._gamma, np.eye(mats.shape[-1])
    grams = np.swapaxes(mats, -1, -2) @ mats - eye
    moved = np.einsum("sij,sij->s", grams, grams) ** 0.5 + gamma(d) * np.einsum("sij,sij->s", mats, mats)
    turns = np.swapaxes(mats[:1], -1, -2) @ mats
    turns[0] = eye
    return turns, float(moved.max()) * (1.0 + gamma(d * d + 8))


def _formed_slack(d: int, r: int, n: int, drift: float) -> float:
    """How far the translated S_n may be from the exact one: n (1 + delta + eps)^(n - 1) ((r - 1) delta + eps).

    The exact sum is sum_s Sym^n(H_s), H_s = gamma_1^T gamma_s for the stored matrices.  With eps = ``drift``,
    ||H_1 - I||_F <= eps, ||H_s||_2 <= ||gamma_1||_2 ||gamma_s||_2 <= 1 + eps and ||fl(h_s) - H_s||_F <=
    gamma_d ||gamma_1||_F ||gamma_s||_F <= d gamma_d (1 + eps) = delta; telescoping over the n factors of A^(tensor n),
    which Sym^n(A) restricts, gives each term.  The near band and ``_translated_bound`` read this slack.
    """
    delta = d * fischer._gamma(d) * (1.0 + drift)
    return n * (1.0 + delta + drift) ** (n - 1) * ((r - 1) * delta + drift)


def _translated_bound(frame, sums, turns: np.ndarray, drift: float, coeffs: np.ndarray) -> float:
    """A bound on max_{|x| = 1} |sum_s p(gamma_s^T x)| from S_n = I + sum_s Sym^n(fl(h_s)) over the h stack ``turns``.

    With y = gamma_1^-1 x and H_s = gamma_1^T gamma_s for the stored matrices, sum_s p(gamma_s^T x) = q(y) for
    q = sum_s p(H_s^T .), exactly.  ``FischerFrame.residual_bound`` bounds q for the formed h_s; the exact H_s move
    its Fischer coordinates by at most ``_formed_slack`` ||v'|| (v' as there), taken (1 + gamma_(J + P_n + 4)) higher.
    |y|^2 <= 1 / (1 - eps), eps = ``drift``, and q has degree n, so the sum is taken (1 - eps)^(-n/2) (1 + gamma_(n + 4)) higher.
    """
    scaled, scaling = frame.scaled_coordinates(coeffs)
    slack = _formed_slack(frame.d, len(turns), frame.n, drift) * float(np.linalg.norm(scaled))
    bound = frame.residual_bound(sums, coeffs, turns) + (1.0 + fischer._gamma(scaling + frame.size + 4)) * slack
    return bound * (1.0 - drift) ** (-0.5 * frame.n) * (1.0 + fischer._gamma(frame.n + 4))


def _torus_angles(values: np.ndarray) -> np.ndarray:
    """Rotation angles theta_1..theta_m in [0, pi], ascending, of h = g_1^T g_2 from its eigenvalues ``values`` (..., d).

    h has the eigenvalues e^(+-i theta_j), j = 1..m = d // 2, and one more 1
    at odd d.  ``eig`` and ``eigvals`` return each conjugate pair exactly
    conjugate, a real eigenvalue's angle is exactly 0 or pi, and det h = 1
    makes the eigenvalues near -1 even in number, so the sorted |angles|
    come in equal pairs after one 0 at odd d: every second one is theta.
    """
    angles = np.sort(np.abs(np.angle(values)), axis=-1)
    return angles[..., values.shape[-1] % 2::2]


def _pair_spectrum(angles: np.ndarray, d: int, n: int):
    """([sigma_max, sigma_min], values) of a pair's degree-n operator, or stacks (..., 2) and (..., K), without M.

    M = rho(g_1) + rho(g_2) = rho(g_1) (I + rho(h)) with h = g_1^T g_2, and
    rho(g_1) is orthogonal, so M has the singular values of I + rho(h), which
    is normal: rho(h) has the eigenvalue e^(i k . theta) for each of the K
    torus weights k of H_n (``fischer._torus_weights``), so the singular
    values are ``values`` = |1 + e^(i k . theta)| = 2 |cos(k . theta / 2)|,
    in the order of the weights.  ``angles`` are the pair's theta, (m,) from
    ``_torus_angles`` or its torus frame, or a stack (..., m), taken once
    for every degree.
    """
    weights, _ = fischer._torus_weights(d, n)
    values = 2.0 * np.abs(np.cos(0.5 * (angles @ weights.T)))
    return np.stack([values.max(axis=-1), values.min(axis=-1)], axis=-1), values


def _torus_frame(values: np.ndarray, vectors: np.ndarray):
    """(forms (m, d), angles (m,), axis) of a pair from ``eig`` of h: linear forms a_j with rho(h) a_j = e^(i theta_j) a_j.

    With h = g_1^T g_2 and rho(h) p = p(h^T .), as in ``_pair_spectrum``,
    the linear form a . x is taken to (h a) . x, so the forms are the
    eigenvectors ``vectors`` of h, of the eigenvalues ``values``.  An
    eigenvalue e^(i theta) with Im > 0 gives a_j and theta_j, and its
    eigenvector is isotropic, a . a = 0, since h is orthogonal and
    e^(2 i theta) != 1.  The real
    eigenvalues are +-1 with eigenvectors that are not isotropic (h = -I
    gives the axes), so each of those two eigenspaces is made orthonormal
    by QR and its vectors u, w are paired into (u + i w) / sqrt(2), with
    the angle pi or 0.  det h = 1 makes the -1 eigenspace even, so one +1
    vector is left over exactly at odd d: the fixed axis, None at even d.
    Every a_j has unit norm, so a_j . conj(a_j) = 1.
    """
    rising = values.imag > 0
    forms, angles, axis = [vectors[:, rising].T], [np.angle(values[rising])], None
    for sign, angle in ((-1.0, math.pi), (1.0, 0.0)):
        space = vectors[:, (values.imag == 0) & (np.sign(values.real) == sign)].real
        if not space.shape[1]:  # a generic h has neither eigenvalue: no QR of an empty space
            continue
        space = np.linalg.qr(space)[0]
        half = space.shape[1] // 2
        forms.append((space[:, :half] + 1j * space[:, half:2 * half]).T / math.sqrt(2.0))
        angles.append(np.full(half, angle))
        if space.shape[1] % 2:
            axis = space[:, -1]
    return np.concatenate(forms), np.concatenate(angles), axis


def _form_products(forms: np.ndarray, d: int) -> np.ndarray:
    """Orthonormal-monomial coordinates of prod_j (forms[..., j, :] . x), for a stack (..., m, d) of m linear forms each.

    m multiplications by a linear form: (a . x) p = sum_j x_j (a_j p), one
    ``fischer._times_x`` of the d products a_j c per step: O(m d P_m) per
    product, and no Sym^m.
    """
    coords = np.ones(forms.shape[:-2] + (1,), dtype=forms.dtype)
    for m in range(1, forms.shape[-2] + 1):
        coords = fischer._times_x(forms[..., m - 1, :, None] * coords[..., None, :], m)
    return coords


def _pair_witness(torus, frame, mats: np.ndarray, k: np.ndarray):
    """(v, bound) of a fired pair degree, from the torus frame of h (``_torus_frame``), with no M and no S_n.

    v is a unit vector with M v near zero, and bound(coeffs) bounds the
    residual sup |sum_s p(g_s^T x)| of the polynomial p with the
    coefficients coeffs, as ``FischerFrame.residual_bound`` does from S_n
    (``_product_bound``).  The weight k of H_n whose |1 + e^(i k . theta)|
    is sigma_min (``_PairRoute.degree`` picks it) names the product of linear
    forms q = prod_j a_j^(k_j)
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
    forms, _, axis = torus
    d, n = frame.d, frame.n
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
    d, n, gamma = frame.d, frame.n, fischer._gamma
    scaled, scaling = frame.scaled_coordinates(coeffs)
    fit = float(scaled @ lifted) / float(lifted @ lifted)
    gap = float(np.linalg.norm(scaled - fit * lifted))
    gap += gamma(scaling + 3) * (float(np.linalg.norm(scaled)) + abs(fit) * float(np.linalg.norm(lifted)))
    drift = frame.defect * own + gamma(n * (d + 4)) * float(sizes[0])
    left = kept + frame.defect * moved + gamma(n * (3 * d + 4) + 1) * float(np.sum(sizes[1:]))
    return (1.0 + gamma(frame.size + n * (2 * d + 3) + 12)) * (abs(fit) * left + r * (gap + abs(fit) * drift))


def _witness(basis, vector: np.ndarray) -> HarmonicFunction:
    """The harmonic with frame coordinates ``vector`` in ``basis``, scaled to a witness.

    ``vector`` is a kernel vector from ``_pair_witness``, ``_GramRoute.degree`` or
    ``_svd_witness``; the coefficients are normalized so that
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
    M from ``operator_matrix``).  One SVD of M (``_svd_witness``) gives the
    singular values, and NotSingularError is raised unless M is
    near-singular per ``sing_tol`` (see ``_near_singular``), and the
    witness's frame coordinates, the right-singular vector of sigma_min; its
    coefficients are normalized so that sum_k |c_k| = 1 with a positive
    largest entry.  The witness is not residual-checked here:
    divisibility_test and search_divisible certify the residual of its
    divisor.
    """
    _check_count("r", r, 2)
    svals, vector = _svd_witness(matrix)
    ratio, fired, _ = _near_singular(svals, r, sing_tol)
    if not fired:
        raise NotSingularError(
            f"not singular per sing_tol={sing_tol:.3e}: sigma ratio {float(ratio):.3e}, "
            f"weighted sigma_min {svals[-1]:.3e}"
        )
    return _witness(basis, vector)


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

    The scale is _DIVISOR_MARGIN / (r sup|g|), so |f - 1/r| <= 1/(2r), with
    sup|g| from ``HarmonicFunction.sup_bound``: a circle witness's exact sup,
    so its divisor reaches 1/r +- 1/(2r) and cannot go constant, and
    sum_k |c_k| for a frame's monomials or zonal functions.
    """
    _check_count("r", r, 2)
    bound = witness.sup_bound()
    if bound == 0.0:
        raise InputDomainError("witness is identically zero")
    return DivisorFunction(witness=witness, r=r, scale=_DIVISOR_MARGIN / (r * bound))


@dataclass(frozen=True)
class VerificationResult:
    """Residual statistics of a divisor candidate: a sampled check's or a certificate's.

    ``verify_divisor`` fills every field from random sphere samples and
    leaves ``residual_bound`` None.  A certificate (``_certify``) samples
    nothing: ``residual_bound`` and ``max_residual`` are its whole-sphere
    bound, ``function_variance`` is the divisor's exact variance from the
    witness's frame, and ``n_samples``, ``n_skipped`` and ``mean_residual``
    read 0.
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
    positive sample variance of f (nonconstancy evidence), read from the
    first translate's values f(gamma_1^T x): gamma_1^T x is uniform on the
    sphere too, so those are f at as many iid uniform points, and f is
    evaluated r times per point.  f is evaluated on blocks of points
    holding at most ``fischer.BLOCK_BYTES`` of values, taking ``f.size``
    values per point where f has one (HarmonicFunction and DivisorFunction
    do) and d otherwise; only the per-point sums and first values are kept
    whole, and the result does not depend on the block size.  This is a
    sampled check, not a bound over the sphere: divisibility_test certifies
    its degrees through ``_certify`` and calls no sampled check.
    A ``samples`` that is not an integer >= 1, or one above
    COST_BUDGET_BYTES / (8 (2d + 2)), raises InputDomainError: the points
    are held twice where ``skip`` drops some, and the per-point sums and
    values add two entries per point, about 8 samples (2d + 2) bytes in all.
    """
    _check_count("samples", samples, 1)
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
    total = np.empty(len(pts))
    first = np.empty(len(pts))  # f(gamma_1^T x), which the sums start from
    for lo in range(0, len(pts), rows):
        block = pts[lo:lo + rows]
        first[lo:lo + rows] = f(block @ mats[0])
        total[lo:lo + rows] = first[lo:lo + rows]
        for mat in mats[1:]:
            total[lo:lo + rows] += np.asarray(f(block @ mat), dtype=float)
    residuals = np.abs(total - 1.0)
    max_res = float(residuals.max()) if len(pts) else 0.0
    mean_res = float(residuals.mean()) if len(pts) else 0.0
    var = float(first.var()) if len(pts) else 0.0
    return VerificationResult(
        max_residual=max_res,
        mean_residual=mean_res,
        function_variance=var,
        n_samples=int(len(pts)),
        n_skipped=skipped,
        residual_tol=RESIDUAL_TOL,
        passed=bool(max_res <= RESIDUAL_TOL and var > 0.0),
    )


def _numbers(sup, bound, mean_square, r, dim):
    """A certificate's (divisor scale, make_divisor's, residual bound, Var f, passed) from sup |g|, bound(c), g's mean square, r, N_n."""
    scale = _DIVISOR_MARGIN / (r * sup)
    residual, variance = scale * bound, scale**2 * mean_square
    return scale, residual, variance, residual <= RESIDUAL_TOL and bound <= 1e-6 * dim and variance > 0.0


def _certify(witness, bound, r: int):
    """(residual bound, passed, make) of a degree whose trigger fired, from its kernel ``witness`` g in a Fischer frame.

    The witness is made by the route that decided the degree (``_Route``),
    or from one SVD of the M that search_divisible holds; nothing here
    reads M.  The divisor f = 1/r + scale * g has the residual
    sum_s f(gamma_s^T x) - 1 = scale * sum_s g(gamma_s^T x).
    ``bound`` maps the witness's stored coefficients c to a bound on
    sup_{|x| = 1} |sum_s g(gamma_s^T x)|, round-off included, that holds
    whatever c is: ``_translated_bound`` over the degree's S_n for the Gram
    route and the search, and ``_product_bound`` from the products of h's
    eigen-forms for a pair.  So

        sup_{|x| = 1} |sum_s f(gamma_s^T x) - 1| <= scale * bound(c).

    g has mean 0 at n >= 1, so Var f = scale^2 times the integral of g^2,
    which the witness's frame gives exactly (``mean_square``).  The
    certificate passes when the bound is at most RESIDUAL_TOL, the
    witness's translates cancel, bound(c) <= 1e-6 N_n, and Var f > 0
    (``_numbers``), each number computed here once; make() only builds the
    (witness, divisor, certificate) of those numbers.  Nothing is sampled.
    """
    coeffs, basis = witness.coeffs, witness.basis
    numbers = _numbers(witness.sup_bound(), bound(coeffs), basis.mean_square(coeffs), r, dim_harmonic(basis.d, basis.n))
    return numbers[1], numbers[3], partial(_certificate, witness, r, numbers)


def _certificate(witness, r: int, numbers):
    """(witness, divisor, certificate) from a certified degree's ``_numbers``: objects only, no arithmetic."""
    scale, residual, variance, passed = numbers
    ver = VerificationResult(max_residual=residual, mean_residual=0.0, function_variance=variance, n_samples=0,
                             n_skipped=0, residual_tol=RESIDUAL_TOL, passed=passed, residual_bound=residual)
    return witness, DivisorFunction(witness=witness, r=r, scale=scale), ver


@dataclass(frozen=True)
class DegreeRecord:
    """Outcome of the singularity check at one degree.

    ``sigma_min_rel`` is the smallest over largest singular value of the
    degree-n operator in the L^2 geometry (its matrix in the Fischer frame),
    the ratio that determined the verdict, as the degree's route reads it
    (``_Route.degree``).  On the Gram route's gram→witness path it is an
    upper bound on that ratio, ||M v|| / sigma_max for the witness v that
    one shifted solve with G gives, and below ``sing_tol``, so it reads
    round-off, not the SVD's value.  ``dim`` is N_n.  ``residual_bound``
    is the whole-sphere bound on the residual of the degree's divisor (see
    ``_certify``) when its trigger fired, and None otherwise.
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
    (r + 1) P_(n-1)^2 + P_(n-3) P_(n-1), P_n^2 + 10 N_n^2,
    (r + 1) P_(n-1)^2 + 10 N_(n-1)^2) bytes for the stages below, plus
    4 ``fischer.BLOCK_BYTES`` of temporaries and the per-process caches.
    A pair runs none of the recurrence, operator or spectral stages: its
    fired degrees hold a frame and a few stacked products of P_n entries,
    so for r = 2 the estimate is an upper bound, kept as it is.  Only a
    study's batch recurs on all r rotations (``_GramRoute.trials``);
    divisibility_test and the searches recur on the r - 1 translated ones,
    so the r copies of each Sym^m below over-count them:
    - the recurrence step to degree n holds the r copies of Sym^(n-1) and
      the sum S_n, at most (r + 1) P_n^2, and works in column slabs; the
      previous degree's S and M are freed before it starts;
    - where one tuple's r copies of Sym^(n-1) take fewer entries than S_n,
      r P_(n-1)^2 < P_n^2 (the size rule of ``fischer.summed_powers``),
      the top degree keeps those copies in place of S_n from the
      recurrence through the spectral step and the certificate, and the
      operator builds S_n one column slab at a time, P_n rows of at most
      P_(n-1) columns: together less than 2 P_n^2, within the count above;
    - a search's assembly (``experiments._assemble``) keeps the r - 1 dense Sym^n(h_s) beside S_n
      for its Jacobian, so a line-search trial and the iterate's S_n hold (r + 1) P_n^2;
    - the operator keeps S_n and adds U^T S_n (N_n P_n) and M (N_n^2), and
      a dense U (only at P_n <= ``fischer.DENSE_MAX_SIZE``) P_n N_n more;
      the parity blocks gather S_n a chunk of classes at a time;
    - the spectral step (``_GramRoute.degree``) holds a few N_n^2, within 4 N_n^2:
      M and G = M^T M while G is formed, then G and LAPACK's copy in the
      eigenvalue solve and again in the shifted solve (gram, gram→witness);
      M again, with G freed, where the solve's bound does not fire, with
      the values-only SVD's copy (gram→svd);
    - where no solve gives a vector (an exact zero pivot) or the Rayleigh
      check fails, M again with the full SVD of ``_svd_witness``: its copy
      of M, U and V^T both in LAPACK's buffers and in numpy's, and gesdd's
      workspace of about 4 N_m^2,
      within 10 N_m^2 with M (8.1 N_m^2 beyond M measured as peak RSS at
      N_m = 1386, numpy 2.4 on OpenBLAS).  At the top degree the
      recurrence then holds S_n or its streamed copies, at most P_n^2,
      and the r copies of Sym^n only for a step small enough to stack,
      within BLOCK_BYTES; at degree n - 1 it holds the r copies of
      Sym^(n-1) and S_(n-1);
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
    at degree n.  A run over the budget on these stages alone is priced
    without the caches, whose sum runs over every degree up to n.
    A circle tuple runs none of this (``_CircleRoute.price``).
    """
    def monomials(m):
        return math.comb(m + d - 1, d - 1) if m >= 0 else 0

    size = [monomials(m) for m in (n, n - 1, n - 2, n - 3)]
    dim = dim_harmonic(d, n)
    dim_below = dim_harmonic(d, n - 1) if n > 1 else 0
    degree_n = (r + 1) * size[0] ** 2 + size[0] * dim + 4 * dim * dim
    step_below = r * (size[1] ** 2 + size[2] ** 2)
    frame_below = (r + 1) * size[1] ** 2 + size[3] * size[1]
    zero_pivot = max(size[0] ** 2 + 10 * dim * dim, (r + 1) * size[1] ** 2 + 10 * dim_below * dim_below)
    staged = max(degree_n, step_below, frame_below, zero_pivot)
    if 8 * staged > COST_BUDGET_BYTES:
        return 8 * staged
    cached = 0
    for m in range(1, n + 1):
        here, below, harmonics = monomials(m), monomials(m - 1), dim_harmonic(d, m)
        cached += (d + 4) * here + 2 * d * below + here + harmonics
        cached += monomials(m // 2) * harmonics
        if here <= fischer.DENSE_MAX_SIZE:
            cached += here * harmonics
        if 8 * r * d * here * here <= fischer.BLOCK_BYTES:
            cached += d * here * below
    return 8 * (staged + cached) + 4 * fischer.BLOCK_BYTES


def _check_budget(need: int, what: str, knob: str) -> None:
    """Refuse ``what``, before it allocates, when its estimated ``need`` bytes exceed COST_BUDGET_BYTES."""
    if need > COST_BUDGET_BYTES:
        raise InputDomainError(
            f"{what} would need about {need / 2**30:.1f} GiB, over the "
            f"{COST_BUDGET_BYTES / 2**30:.0f} GiB budget; lower {knob}"
        )


def _check_cost(d: int, r: int, n_max: int) -> None:
    """Refuse, before anything is allocated, a Fischer-frame run over COST_BUDGET_BYTES or the recurrence's degree cap.

    The price of the pair and Gram routes (``_Route.price``), and of the
    searches, whose assemblies run the recurrence: ``_peak_bytes``, and the
    cap of _STABLE_MAX_DEGREE.
    """
    limit = _STABLE_MAX_DEGREE.get(d)
    if limit is not None and n_max > limit:
        raise InputDomainError(
            f"d={d}, n_max={n_max}: above degree {limit} the symmetric-power recurrence loses "
            f"orthogonality (its frame drifts past 1e-12, near sing_tol), so verdicts there mean "
            f"nothing; lower n_max to at most {limit}"
        )
    _check_budget(_peak_bytes(d, r, n_max), f"d={d}, r={r}, n_max={n_max}", "n_max")


class _Route:
    """One way to decide every degree of a tuple; divisibility_test picks one per call, circle before pair before Gram.

    Every route decides the h_s = gamma_1^T gamma_s, whose operator has the
    tuple's singular values.  A route owns everything route-specific:
    - ``price(d, r, n_max)`` refuses, before anything is allocated, a run
      over COST_BUDGET_BYTES on the route or above its degree cap; this
      base prices on the Fischer frame (``_check_cost``);
    - ``degree(n)`` gives (ratio, fired, near band, certificate, path): the
      trigger (``_near_singular``), read once, on the singular values and
      the slack by which the route may have moved them; at a fired degree
      (residual bound, passed, make) decided once (``_numbers``), make()
      only building the (witness, divisor, certificate) of those numbers,
      else None; and the path its debug line names.  Here ``spectrum(n)``
      gives (svals, slack), and ``witness(n)`` the kernel harmonic g and
      bound(c) >= sup |sum_s g(gamma_s^T x)|, which ``_certify`` reads;
    - ``trials(free, suffix, n_max, sing_tol)`` decides a genericity study
      whose trial k is the tuple free[k] followed by suffix: (ratios
      (trials, n_max), rerun (trials,)), every trial's ratios as a
      standalone run reads them, up to round-off, and whether its trigger
      fired or it landed in the near band at any degree, so that it is
      re-run alone.  It decides a block of trials at a time: ``batch``
      gives (width, spectra), spectra(block) the block's singular values
      of every degree, (block, n_max, 2), and their slack, and a block
      holds as many trials as have ``width`` doubles each fit
      ``fischer.BLOCK_BYTES``.  Here a block is one route over the stacked
      tuples, whose ``spectrum`` reads each trial as it reads alone: bit for
      bit on the circle route, within the round-off of one stacked product
      k . theta on the pair route.  A trial takes ``width(d, n_max)`` doubles.
    """

    price = staticmethod(_check_cost)

    def __init__(self, mats: np.ndarray, plane, n_max: int, sing_tol: float):
        self.mats, self.plane, self.sing_tol = mats, plane, sing_tol
        self.d, self.r = mats.shape[-1], mats.shape[-3]

    def degree(self, n: int):
        svals, slack = self.spectrum(n)
        trigger = _near_singular(svals, self.r, self.sing_tol, slack)
        return self.entry(trigger, self.path + "→witness" * bool(trigger[1]), partial(self.witness, n))

    def entry(self, trigger, path, witness):
        """``degree``'s entry from its trigger: at a fired degree, the certificate of (g, bound) = witness()."""
        return (*trigger, _certify(*witness(), self.r) if trigger[1] else None, path)

    @classmethod
    def trials(cls, free: np.ndarray, suffix: np.ndarray, n_max: int, sing_tol: float):
        width, spectra = cls.batch(free, suffix, n_max, sing_tol)
        step = max(1, fischer.BLOCK_BYTES // (8 * width))
        ratios, rerun = np.empty((len(free), n_max)), np.empty(len(free), dtype=bool)
        for lo in range(0, len(free), step):
            svals, slack = spectra(free[lo:lo + step])
            ratios[lo:lo + step], fired, near_band = _near_singular(svals, free.shape[1] + len(suffix), sing_tol, slack)
            rerun[lo:lo + step] = np.any(fired | near_band, axis=-1)
        return ratios, rerun

    @classmethod
    def batch(cls, free: np.ndarray, suffix: np.ndarray, n_max: int, sing_tol: float):
        def spectra(block):
            tuples = np.concatenate([block, np.broadcast_to(suffix, (len(block),) + suffix.shape)], axis=1)
            svals, slack = zip(*map(cls(tuples, None, n_max, sing_tol).spectrum, range(1, n_max + 1)))
            return np.stack(svals, axis=-2), np.stack(slack, axis=-1)

        return cls.width(free.shape[-1], n_max), spectra


class _CircleRoute(_Route):
    """A tuple whose h_s all rotate one plane and fix its complement: every tuple at d = 2, none at d = 3.

    ``circle`` derives it all.  Every degree's singular values |lambda_j|
    come from one table per call (``circle.spectrum``), those of the tuple
    rebuilt from its plane (``circle.detect``), within the slack n r delta
    of its own, delta the plane's defect.  One pass (``decide``) reads
    every degree's trigger from it and every fired degree's certificate
    numbers from the one closed form of ``circle.Witness``: only the kept
    degree builds its witness, a product of two linear forms, its divisor
    and its certificate, as objects, from those numbers.  No
    FischerFrame is built and no degree cap applies: a run is priced by its
    table, pass and records.  A study detects its trials' planes in one
    stacked call per block, and a trial off the plane fires, so it is re-run.
    """

    path = "circle"

    @staticmethod
    def price(d: int, r: int, n_max: int) -> None:
        """Refuse a run over COST_BUDGET_BYTES, estimated from every degree's deciding and certifying.

        The weight sums of every degree (``circle.spectrum``): their moduli,
        the running extremes, the witness's j and their temporaries, within 8
        doubles per degree.  The pass (``decide``), its results and the
        records, within 40 + 4 r doubles per degree with the table
        (tracemalloc's peak, at n_max 2e4: 35 at r = 2 and 38 at r = 6 at
        d = 2, 46 at d = 4 where every degree fires); only the records
        outlive the call, and with the report's JSON take _DEGREE_BYTES.
        detect's h_s, its h_s - I and their SVD, within 4 r d^2 doubles.
        """
        need = 8 * (8 * (n_max + 1) + 4 * r * d * d) + max(_DEGREE_BYTES, 8 * (40 + 4 * r)) * n_max
        _check_budget(need, f"d={d}, r={r}, n_max={n_max} on the circle route", "n_max")

    width = staticmethod(lambda d, n_max: n_max + 1)  # a trial's table of weight sums

    def __init__(self, mats, plane, n_max, sing_tol):
        super().__init__(mats, circle.detect(mats) if plane is None else plane, n_max, sing_tol)
        self.table = circle.spectrum(self.plane, self.d, n_max)
        self.decided = self.decide() if mats.ndim == 3 else None  # one tuple, not a study's stack

    def spectrum(self, n: int):
        top, low = self.table[:2]
        return np.stack([top[..., n], low[..., n]], axis=-1), n * self.r * self.plane.defect

    def decide(self):
        """What ``degree`` reads, as lists by degree: ratio, fired, near band, and at a fired degree residual bound and passed."""
        start, (top, low, pick, moduli), n = time.perf_counter(), self.table, np.arange(1, len(self.table[0]))
        ratio, fired, near = _near_singular(np.array([top[1:], low[1:]]).T, self.r, self.sing_tol, n * self.r * self.plane.defect)
        # numbers: each fired degree's divisor scale and Var f, two doubles per degree
        shown, residual, passed, self.numbers = n[fired], [None] * len(n), [False] * len(n), np.empty((len(n), 2))
        if len(shown):
            self.witnesses = circle.Witness(self.plane, self.mats)
            for m, (sup, total, mean) in zip(shown.tolist(), self.witnesses.numbers(moduli, shown, pick[shown])):
                scale, residual[m - 1], variance, passed[m - 1] = _numbers(sup, sup * total, mean, self.r, dim_harmonic(self.d, m))
                self.numbers[m - 1] = scale, variance
        _log.debug("circle pass: %d degrees, %d fired, %.4f s", len(n), len(shown), time.perf_counter() - start)
        return ratio.tolist(), fired.tolist(), near.tolist(), residual, passed

    def degree(self, n: int):
        ratio, fired, near, residual, passed = (column[n - 1] for column in self.decided)
        if not fired:
            return ratio, fired, near, None, self.path
        (scale, variance), j = self.numbers[n - 1].tolist(), int(self.table[2][n])
        make = lambda: _certificate(HarmonicFunction(*self.witnesses(n, j)), self.r, (scale, residual, variance, passed))
        return ratio, fired, near, (residual, passed, make), self.path + "→witness"


class _PairRoute(_Route):
    """Two rotations off the circle: every degree from one ``eig`` of h = gamma_1^T gamma_2, with no M.

    Every degree's sigma_max and sigma_min are closed form in the rotation
    angles of h (``_pair_spectrum``), sorted from its eigenvalues
    (``_torus_angles``); the slack is 0.  The same decomposition gives the
    torus frame (``_torus_frame``), whose forms write down every fired
    degree's witness and bound (``_pair_witness``): the weight k whose
    phase gives sigma_min in the frame's own angle order, ties within
    round-off going to the largest |k|_1, names them.  A study's block of
    pairs needs no frame: one stacked ``eigvals`` feeds ``_torus_angles``.
    Only a fired degree builds its FischerFrame, and no pair assembles M or
    runs the recurrence.
    """

    path = "pair"

    # a trial's phases k . theta, one per torus weight of the top degree
    width = staticmethod(lambda d, n_max: len(fischer._torus_weights(d, n_max)[0]))

    def __init__(self, mats, plane, n_max, sing_tol):
        super().__init__(mats, plane, n_max, sing_tol)
        h = np.swapaxes(mats[..., 0, :, :], -1, -2) @ mats[..., 1, :, :]
        if mats.ndim == 3:  # one pair; a study's stack needs no frame
            values, vectors = np.linalg.eig(h)
            self.torus = _torus_frame(values, vectors)
        self.angles = _torus_angles(values if mats.ndim == 3 else np.linalg.eigvals(h))

    def spectrum(self, n: int):
        return _pair_spectrum(self.angles, self.d, n)[0], 0.0

    def witness(self, n: int):
        weights, _ = fischer._torus_weights(self.d, n)
        values = _pair_spectrum(self.torus[1], self.d, n)[1]
        tied = np.flatnonzero(values <= values.min() + 8.0 * self.d * n * 2.0**-53)
        k = weights[tied[np.argmax(np.abs(weights[tied]).sum(axis=1))]]
        frame = fischer_frame(self.d, n)
        vector, bound = _pair_witness(self.torus, frame, self.mats, k)
        return _witness(frame, vector), bound


class _GramRoute(_Route):
    """Every other tuple: each degree decided in the exact Fischer frame of ``fischer`` from G = M^T M.

    One pass of the symmetric-power recurrence over h_2 .. h_r gives
    S_n = I + sum_(s >= 2) Sym^n(h_s) for every degree, the term of h_1 = I
    free, and M = U^T S_n U is the operator in orthonormal
    coordinates, so its singular values are the operator's L^2 ones, within
    ``_formed_slack`` of the formed h_s: that is the slack.  At the top
    degree S_n may be streamed from the r - 1 copies of Sym^(n-1)
    (``fischer._StreamedSum``): M is then built from S_n's column slabs, and
    S_n reaches vectors through those copies.  A fired degree's witness
    comes from the factorization that decided it (``degree``), and its
    bound through S_n (``_translated_bound``).  A study's trials are not
    translated: a right translation would keep every suffix term
    trial-independent, a left one by a free gamma_1 does not, so the
    suffix's U^T (sum_s Sym^n) U is built once per study for every degree,
    and each block of trials runs one pass of the recurrence over its free
    rotations and per degree one stacked operator plus the suffix's (none in
    an all-free study) and one stacked values-only SVD.  That SVD of the
    untranslated operator agrees with a standalone run's Gram step of the
    translated one up to round-off of order u sigma_max in sigma_min, an
    absolute bound: a small ratio can differ by more than 1e-12 relative.
    """

    def __init__(self, mats, plane, n_max, sing_tol):
        super().__init__(mats, plane, n_max, sing_tol)
        # the formed h_s = gamma_1^T gamma_s, h_1 = I exactly, and (n, S_n) from h_2 .. h_r
        self.turns, self.drift = _translate(mats)
        self.powers = summed_powers(self.turns[1:], n_max, identity=True)

    def degree(self, n: int):
        """The degree's entry, from S_n: the tuple's operator is rho(gamma_1) M, M = U^T S_n U.

        M gives G = M^T M and is freed, and ``_gram_extremes`` reads
        sigma_max and sigma_min, or a bound on it, from one ``eigvalsh`` of G
        and one shifted solve (two at an exact zero pivot).  No M leaves this
        method, and the witness's unit vector v (``_witness``) comes from the
        factorization that decided the degree, so a fired degree's witness
        costs nothing more.  The paths:
        - gram: w[0] resolved, svals = [sigma_max, sigma_min] from the
          checked Rayleigh quotient of the solve's unit v;
        - gram→witness: w[0] not resolved, svals = [sigma_max, ||M v||], an
          upper bound on sigma_min that fires the trigger and so decides the
          degree with no SVD and no second assembly of M; the degree's
          ``sigma_min_rel`` is then an upper bound, below ``sing_tol``, not
          the SVD's ratio;
        - gram→svd: every case the solve cannot settle assembles M once more
          for one SVD: values only, keeping v, where the bound does not
          fire; ``_svd_witness``, which also gives v, where no solve gave a
          vector (exact zero pivots) or the Rayleigh check failed.
        """
        frame, sums = fischer_frame(self.d, n), next(self.powers)[1]
        matrix = frame.operator(sums)
        gram = matrix.T @ matrix
        del matrix  # G replaces M (see _peak_bytes)
        sigma_max, sigma_min, vector, resolved = _gram_extremes(frame, sums, gram, self.r)
        del gram
        slack = _formed_slack(self.d, self.r, n, self.drift)
        trigger = sigma_min is not None and _near_singular(np.array([sigma_max, sigma_min]), self.r, self.sing_tol, slack)
        path = "gram" if resolved else "gram→witness"
        if not trigger or not (resolved or trigger[1]):
            if vector is None:
                svals, vector = _svd_witness(frame.operator(sums))
            else:
                svals = weighted_singular_values(frame.operator(sums))
            trigger, path = _near_singular(svals, self.r, self.sing_tol, slack), "gram→svd"
        return self.entry(trigger, path, lambda: (_witness(frame, vector), partial(_translated_bound, frame, sums, self.turns, self.drift)))

    @staticmethod
    def batch(free, suffix, n_max, sing_tol):
        d = free.shape[-1]
        # an all-free study (ell = r) has no suffix operator
        fixed = [fischer_frame(d, n).operator(sums) for n, sums in summed_powers(suffix, n_max)] if len(suffix) else [0.0] * n_max

        def spectra(block):
            svals = [
                weighted_singular_values(fischer_frame(d, n).operator(sums) + fixed[n - 1])[:, [0, -1]]
                for n, sums in summed_powers(block, n_max)
            ]
            return np.stack(svals, axis=1), 0.0

        # a block holds as many trials as fit one gather of the recurrence
        return free.shape[1] * d * fischer_frame(d, n_max).size ** 2, spectra


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
    residual of at most RESIDUAL_TOL, recorded as the degree's
    ``residual_bound``.  Each call picks one route for every degree before
    it prices the run: ``_CircleRoute`` for a tuple whose h_s all rotate one
    plane (``circle.detect``), else ``_PairRoute`` for a pair, else
    ``_GramRoute``; it gives each degree's trigger, read once, and a fired
    degree's residual bound and verdict, certified once (``_Route``), whose
    numbers the kept degree's divisor and certificate carry.  One "spherediv" debug
    line per degree names the route's path and its wall time, certificate
    included, but for the circle route: it logs its pass before the first
    line and builds the report's witness, divisor and certificate, its only
    objects, after the kept degree's.  The report keeps the first certified
    degree's.  No sphere point is drawn.  A trigger that fails certification
    is downgraded to ``borderline``, and so is a degree within 10x of the
    trigger.  ``rng`` draws nothing: it only names the report's ``seed`` (``resolve_seed``).  An
    n_max that is not an integer >= 1, a seed that ``resolve_seed`` refuses,
    a ``sing_tol`` outside (0, 1), NaN included, and runs over the route's
    price (``_Route.price``) are refused with InputDomainError before
    anything but the route's detection is allocated.
    The test is one-sided: ``invertible`` at all tested degrees does not
    prove non-divisibility.
    """
    if not isinstance(rotations, RotationTuple):
        rotations = RotationTuple(rotations)
    _check_count("n_max", n_max, 1)
    _check_tolerance("sing_tol", sing_tol)
    mats = _rotation_matrices(rotations)
    plane = circle.detect(mats)
    kind = _CircleRoute if plane is not None else _PairRoute if rotations.r == 2 else _GramRoute
    kind.price(rotations.d, rotations.r, n_max)
    seed = resolve_seed(rng)
    route = kind(mats, plane, n_max, sing_tol)
    records = []
    witness = divisor = verification = None
    for n in range(1, n_max + 1):
        start = time.perf_counter()
        ratio, fired, near_band, certificate, path = route.degree(n)
        dim = dim_harmonic(route.d, n)
        _log.debug("degree %d: N=%d, %s, %.4f s", n, dim, path, time.perf_counter() - start)
        residual, passed, make = certificate or (None, False, None)
        if passed and witness is None:  # the kept degree alone builds its witness, divisor and certificate
            witness, divisor, verification = make()
        verdict = VERDICT_SINGULAR if passed else VERDICT_BORDERLINE if fired or near_band else VERDICT_INVERTIBLE
        records.append(DegreeRecord(n=n, dim=dim, sigma_min_rel=float(ratio), verdict=verdict, residual_bound=residual))

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
