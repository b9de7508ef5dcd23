"""Tuples that rotate one plane: every degree decided and certified in closed form on its circle.

Let h_s = gamma_1^T gamma_s.  When every h_s fixes one common subspace F of
dimension d - 2 (at d = 2, F = 0 and every tuple qualifies), each h_s is a
rotation of the plane F^perp.  With u, v an orthonormal basis of that plane,
the isotropic unit form a = (u + i v) / sqrt(2) has h_s a = z_s a, |z_s| = 1.
Restricted to the SO(2) of that plane, H_n(R^d) has the weights -n..n for
d >= 3 and only +-n at d = 2 (Stein & Weiss, Fourier Analysis on Euclidean
Spaces, ch. IV), and the weight-j space holds (a . x)^j (b . x)^(n - j) for
an isotropic unit form b of F.  M = rho(gamma_1) sum_s rho(h_s) is
rho(gamma_1) times a normal operator, so the singular values of degree n are
|lambda_j|, lambda_j = sum_s z_s^j, over 0 <= j <= n (j = n alone at d = 2).
``spectrum`` builds that table once per call for every degree, or once for
a study's trials; ``Witness`` gives every fired degree's certificate
numbers from one closed form, and writes down the kept degree's kernel
harmonic.  No Fischer frame, recurrence or P_n-sized array is built.

``detect`` finds F from one SVD of the stacked h_s - I, rebuilds every h_s
as the rotation of the plane by z_s, and takes the route at d = 2 always,
else only when the rebuilt tuple is within DEFECT_ULPS d u of the given one
(u = 2^-53).  Its defect delta moves every singular value by at most
n r delta (rho_n is n-Lipschitz on SO(d)), and voids no certificate:
``Witness`` bounds the stored matrices.  d = 3 never takes the route: there
F is a line, and its lift is left to the Gegenbauer form of H_n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .fischer import _gamma

# largest defect, in units of d u, of a tuple rebuilt from its plane that takes the circle route
DEFECT_ULPS = 1e3
# FormProduct evaluates (mu_a a . x)^j (mu_b b . x)^k as complex powers up to this degree: each
# factor is at most (n / j)^(j / 2) <= e^(n / (2 e)) on the sphere, finite in floats below n = 3854
_DIRECT_MAX_DEGREE = 2048


@dataclass(frozen=True)
class Plane:
    """The plane a tuple rotates, or a stack of them, with what decides every degree.

    ``forms`` (..., 2, d) holds a = (u + i v) / sqrt(2), for the plane's
    orthonormal u, v, and b, built the same way from two unit vectors of F
    (zero at d = 2); both are isotropic, a . a = b . b = a . b = 0, up to
    round-off.  ``phases`` (..., r) holds the z_s of h_s a = z_s a, stored
    with unit modulus.  ``defect`` bounds max_s ||h_s - rebuilt h_s||_F, the
    forming of h_s included.  In a stack, a tuple off the route reads zero
    phases and a zero defect, so that every degree of it fires.
    """

    forms: np.ndarray
    phases: np.ndarray
    defect: object


def detect(mats: np.ndarray) -> Optional[Plane]:
    """The plane that every h_s = gamma_1^T gamma_s of ``mats`` (..., r, d, d) rotates, or None.

    At d >= 4 the right singular vectors of the stacked h_s - I (s >= 2),
    ordered by descending singular value, give the plane (the first two) and
    F (the last d - 2).  Each h_s is rebuilt as I - P P^T + P B_s P^T with
    P = [u v] and B_s = [[Re z_s, Im z_s], [-Im z_s, Re z_s]], since
    h_s (u + i v) = z_s (u + i v); the route is taken when every rebuilt h_s
    is within DEFECT_ULPS d u of the computed one in Frobenius norm, and at
    d = 2 always.  Forming h_s = fl(gamma_1^T gamma_s) is within gamma_d
    |gamma_1|^T |gamma_s| of the exact product, at most d gamma_d in Frobenius
    norm for rotations, which ``defect`` adds.  Returns None at d = 3, and for
    one tuple off the plane; a stack (leading axes before r) gives one Plane
    whose tuples off the plane read as ``Plane`` says.  Every tuple of a stack
    is computed as it would be alone, bit for bit.
    """
    d = mats.shape[-1]
    if d == 3:
        return None
    turns = np.swapaxes(mats[..., :1, :, :], -1, -2) @ mats
    frame = np.eye(2) if d == 2 else np.swapaxes(
        np.linalg.svd((turns[..., 1:, :, :] - np.eye(d)).reshape(turns.shape[:-3] + (-1, d)))[2], -1, -2)
    a = (frame[..., 0] + 1j * frame[..., 1]) / math.sqrt(2.0)
    b = (frame[..., 2] + 1j * frame[..., 3]) / math.sqrt(2.0) if d >= 4 else np.zeros(d, dtype=complex)
    phases = (a.conj()[..., None, None, :] @ (turns @ a[..., None, :, None]))[..., 0, 0]
    # where |z_s| < 1/2 the rebuilt h_s misses h_s by at least max(|z_s|, sqrt(2) (1 - 2 |z_s|)) > 1/3 in
    # Frobenius norm (on a, and on the plane's norm sqrt(2)): the defect refuses it, with no zero to divide by
    phases /= np.maximum(np.abs(phases), 0.5)
    span = frame[..., None, :, :2]
    blocks = np.empty(phases.shape + (2, 2))
    blocks[..., 0, 0] = blocks[..., 1, 1] = phases.real
    blocks[..., 0, 1], blocks[..., 1, 0] = phases.imag, -phases.imag
    rebuilt = np.eye(d) - span @ np.swapaxes(span, -1, -2) + span @ blocks @ np.swapaxes(span, -1, -2)
    defect = np.linalg.norm(turns - rebuilt, axis=(-2, -1)).max(axis=-1) + d * _gamma(d)
    taken = (defect <= DEFECT_ULPS * d * 2.0**-53) | (d == 2)  # NaN fails too at d >= 4
    forms = np.stack([a, b], axis=-2)
    if mats.ndim == 3:
        return Plane(forms, phases, float(defect)) if taken else None
    return Plane(forms, np.where(taken[..., None], phases, 0.0), np.where(taken, defect, 0.0))


def spectrum(plane: Plane, d: int, n_max: int):
    """(top, low, pick, moduli) by degree 0..n_max on the last axis: sigma_max, sigma_min, the witness's j, |lambda_j|.

    lambda_j = sum_s z_s^j for j = 0..n_max, with z_s^j from a running
    product, one degree at a time: numpy's own running products
    (``np.cumprod``) pick their arithmetic by the table's shape, and degree
    n's values would move with n_max in their last bits.  At d = 2 a
    degree's singular values are both |lambda_n|, and its witness takes
    j = n; otherwise they range over |lambda_j|, j <= n, and the witness
    takes the last j <= n that attains the minimum.  A stacked ``plane``
    gives one row per tuple, each the table that tuple would read alone.
    """
    phases = plane.phases
    moduli, power = np.empty(phases.shape[:-1] + (n_max + 1,)), np.ones_like(phases)
    moduli[..., 0] = phases.shape[-1]
    for j in range(1, n_max + 1):
        power = power * phases
        moduli[..., j] = np.abs(power.sum(axis=-1))
    degrees = np.arange(n_max + 1)
    if d == 2:
        return moduli, moduli, degrees, moduli
    low = np.minimum.accumulate(moduli, axis=-1)
    pick = np.maximum.accumulate(np.where(moduli == low, degrees, 0), axis=-1)
    return np.maximum.accumulate(moduli, axis=-1), low, pick, moduli


@dataclass(frozen=True)
class FormProduct:
    """The two functions Re q and Im q of q(x) = (mu_a a . x)^j (mu_b b . x)^k: the frame of a circle witness.

    ``forms`` (2, d) holds the complex forms a and b, ``scales`` the reals
    mu_a and mu_b and ``powers`` (j, k).  A HarmonicFunction over it with
    coefficients (Re w, Im w) is g(x) = Re(conj(w) q(x)).  The witness's
    scales are sqrt(2 n / j) and sqrt(2 n / k), so that sup |q| over the
    sphere is 1: with s = |a . x| and t = |b . x|, s^2 + t^2 <= 1/2 on the
    unit sphere and s^j t^k peaks at s^2 = j / (2 n).  So sup |g| = |w|,
    exactly for exactly isotropic forms (``sup``).  Its JSON form is
    ``form-product-v1``.
    """

    forms: np.ndarray
    scales: tuple
    powers: tuple

    @property
    def d(self) -> int:
        return self.forms.shape[1]

    @property
    def n(self) -> int:
        return sum(self.powers)

    @property
    def size(self) -> int:
        """Values one evaluation holds per point: Re q and Im q."""
        return 2

    dim = size  # bench/tracer.py sizes a HarmonicFunction's evaluation by basis.dim

    def terms(self, x: np.ndarray) -> np.ndarray:
        """Re q and Im q at the points ``x`` (m, d), shape (m, 2).

        Up to _DIRECT_MAX_DEGREE as complex powers; above it from
        exp(j log|mu_a a . x| + k log|mu_b b . x|) and the summed phases,
        which no power can overflow.
        """
        # columns Re a, Im a, Re b, Im b, so that each row of x @ stack views as (a . x, b . x)
        stack = np.stack([self.forms.real, self.forms.imag], axis=-1).transpose(1, 0, 2).reshape(self.d, 4)
        vals = np.ascontiguousarray(x @ stack).view(complex)
        kept = [(vals[:, i] * mu, k) for i, (mu, k) in enumerate(zip(self.scales, self.powers)) if k]
        if self.n > _DIRECT_MAX_DEGREE:
            with np.errstate(divide="ignore"):
                size = sum(k * np.log(np.abs(v)) for v, k in kept)
            phase = sum(k * np.angle(v) for v, k in kept)
            return np.exp(size)[:, None] * np.stack([np.cos(phase), np.sin(phase)], axis=-1)
        out = _power(*kept[0])
        for v, k in kept[1:]:
            out *= _power(v, k)
        return out.view(float).reshape(-1, 2)

    def sup(self, coeffs: np.ndarray) -> float:
        """sup |Re(conj(w) q)| = |w| for w = coeffs[0] + i coeffs[1]: the witness's own sup on the sphere, ``Witness.numbers``'s hypot."""
        return math.hypot(*coeffs)

    def function_json(self, coeffs: np.ndarray) -> dict:
        """Versioned JSON of g(x) = Re(conj(w) prod_i (scales[i] forms[i] . x)^powers[i])."""
        kept = [i for i, k in enumerate(self.powers) if k]
        return {
            "format": "form-product-v1",
            "d": self.d,
            "n": self.n,
            "forms": [{"re": self.forms[i].real.tolist(), "im": self.forms[i].imag.tolist()} for i in kept],
            "scales": [float(self.scales[i]) for i in kept],
            "powers": [int(self.powers[i]) for i in kept],
            "weight": {"re": float(coeffs[0]), "im": float(coeffs[1])},
        }


def _power(z: np.ndarray, k: int) -> np.ndarray:
    """z^k for k >= 1 by repeated squaring: about 2 log2(k) complex products, where ``**`` takes numpy's generic complex power."""
    out = None
    while True:
        if k & 1:
            out = z if out is None else out * z
        k >>= 1
        if not k:
            return out
        z = z * z


def _log_peak(j: int, k: int) -> float:
    """log c_(j, k), c_(j, k) = (j / n)^(j / 2) (k / n)^(k / 2) = max of s^j t^k on s^2 + t^2 = 1, with 0^0 = 1."""
    n = j + k
    return 0.5 * ((j * math.log(j / n) if j else 0.0) + (k * math.log(k / n) if k else 0.0))


class Witness:
    """Every fired degree's witness of one circle tuple: its certificate numbers in one closed form (``numbers``).

    Built once per call, by the route's array pass, which reads every fired
    degree's numbers; only the kept degree writes its witness down as a
    ``FormProduct`` (``__call__``).  With A and B the
    computed gamma_1 a and gamma_1 b, ``slips`` (r, 2) bounds
    ||gamma_s a - z_s A|| and ||gamma_s b - B||, ``spread`` bounds ||C||_2
    for C = sqrt(2) [Re A, Im A] and for C = sqrt(2) [Re A, Im A, Re B, Im B],
    and ``modulus`` bounds max(1, |z_s|), each with its round-off.
    gamma_s a is taken by two real products, so each entry is a real dot
    product of length d, within gamma_d |gamma_s| |a| of the exact one
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., ch. 3;
    u = 2^-53, gamma_k = k u / (1 - k u)): ||fl(gamma_s a) - gamma_s a|| <=
    gamma_d ||gamma_s||_F ||a||.  z_s A is within sqrt(2) gamma_2 |z_s| |A|,
    and the difference and its norm add gamma_(d + 2) relative.
    ||C||_2^2 = ||C^T C||_2 <= 1 + ||C^T C - I||_F, fl(C^T C) is within
    gamma_(d + 2) |C|^T |C|, of Frobenius norm at most ||C||_F^2, and
    forming C adds gamma_3 ||C||_F.
    """

    def __init__(self, plane: Plane, mats: np.ndarray):
        self.plane, self.mats = plane, mats
        d, forms, phases, gamma = mats.shape[-1], plane.forms, plane.phases, _gamma
        self.turn = np.angle(forms[0, int(np.argmax(np.abs(forms[0])))])  # the weight w's phase per unit j
        images = mats @ forms.real.T + 1j * (mats @ forms.imag.T)  # (r, d, 2): gamma_s a and gamma_s b
        shifts = np.stack([phases, np.ones_like(phases)], axis=-1)
        self.modulus = max(1.0, float(np.abs(phases).max())) * (1.0 + gamma(2))
        slips = np.linalg.norm(images - shifts[:, None, :] * images[0], axis=1)
        slips += gamma(d) * np.linalg.norm(mats, axis=(1, 2))[:, None] * np.linalg.norm(forms, axis=1)
        slips += gamma(3) * self.modulus * np.linalg.norm(images[0], axis=0)
        self.slips = slips * (1.0 + gamma(d + 2))
        spread = []
        for kept in (1, 2):
            cols = math.sqrt(2.0) * np.concatenate([images[0, :, :kept].real, images[0, :, :kept].imag], axis=1)
            size = float(np.linalg.norm(cols))
            gram = cols.T @ cols - np.eye(2 * kept)
            spread.append(math.sqrt(1.0 + float(np.linalg.norm(gram)) + gamma(d + 2) * size**2) + gamma(3) * size)
        self.spread, slips, root = tuple(spread), self.slips, math.sqrt(2.0)
        # sqrt(2) R_s with a alone (k = 0) and with both forms (k > 0)
        self.radii = (self.modulus * spread[0] + root * slips[:, 0], self.modulus * spread[1] + root * np.hypot(*slips.T))

    def __call__(self, n: int, j: int):
        """(basis, coeffs) of the degree-n witness g = Re(conj(w) (mu_a a . x)^j (mu_b b . x)^(n - j)).

        The scales make sup |q| = 1 (``FormProduct``).  The weight
        w = (a_i / |a_i|)^j, for the entry a_i of largest modulus, puts g's
        maximum 1 at sqrt(j / n) c + sqrt(k / n) sqrt(2) Re(b), c the unit
        projection of the i-th axis on the plane, whatever basis u, v of the
        plane the SVD returned; coeffs = (Re w, Im w).  ``numbers`` gives its bound.
        """
        k = n - j
        scales = (math.sqrt(2.0 * n / j), math.sqrt(2.0 * n / k) if k else 1.0)
        weight = np.exp(1j * j * self.turn)
        return FormProduct(forms=self.plane.forms, scales=scales, powers=(j, k)), np.array([weight.real, weight.imag])

    def numbers(self, moduli: np.ndarray, n: np.ndarray, j: np.ndarray):
        """[(sup |g|, total, mean square of g)] of the witnesses at the integer arrays ``n`` and ``j``: each bound is |w| total.

        ``moduli`` are the |fl(lambda_j)| of ``spectrum``.  rho(h_s)
        (a . x)^j (b . x)^k = ((h_s a) . x)^j ((h_s b) . x)^k =
        z_s^j (a . x)^j (b . x)^k, so M g = Re(conj(w) lambda_j rho(gamma_1) q),
        zero where lambda_j is.  Every number is taken on Python floats, with
        ``math``'s logarithms, exponentials, powers and hypot.

        The total bounds max_{|x| = 1} |sum_s Re(conj(w) q(gamma_s^T x))| / |w|
        whatever w is.  Write k = n - j and
        take A and B the computed gamma_1 a and gamma_1 b.  With the exact
        vectors e_s = gamma_s a - z_s A and f_s = gamma_s b - B,
        (gamma_s a) . x = z_s (A . x) + e_s . x, and the sum over s of the
        unperturbed products is lambda_j (A . x)^j (B . x)^k exactly.  With
        S = |A . x| and T = |B . x|, S^2 + T^2 = ||C^T x||^2 / 2 <= kappa^2 / 2
        for C = sqrt(2) [Re A, Im A, Re B, Im B] (only the forms of positive
        power count) and kappa >= ||C||_2 (``spread``).  So
        |lambda_j| S^j T^k <= |lambda_j| (kappa / sqrt(2))^n c_(j, k), c as in
        ``_log_peak``, and mu_a^j mu_b^k 2^(-n/2) c_(j, k) = beta is 1 up to the
        rounding of the scales.  Each perturbed product differs from its
        unperturbed one by at most phi(1) - phi(0) <= phi'(1) for
        phi(t) = (m S + t e_a)^j (T + t e_b)^k, with m >= max(1, |z_s|),
        e_a >= ||e_s|| and e_b >= ||f_s|| (``slips``): expand the
        products, all coefficients are positive and phi is convex.  By
        Minkowski the arguments S' = m S + e_a and T' = T + e_b of phi(1) lie in
        the quarter disk of radius R_s = m kappa / sqrt(2) + sqrt(e_a^2 + e_b^2),
        and phi'(1) = S'^(j-1) T'^(k-1) (j e_a T' + k e_b S') with Cauchy-Schwarz
        on the last factor gives phi'(1) <= R_s^(n-1) sqrt(j^2 e_a^2 + k^2 e_b^2)
        c_(j-1, k-1) for j, k >= 1, and j e_a R_s^(j-1) at k = 0.  So

            sup |sum_s g(gamma_s^T x)| <= |w| beta (|lambda_j| kappa^n + sum_s sqrt(2) (sqrt(2) R_s)^(n-1) E_s)

        with E_s = sqrt(j^2 e_a^2 + k^2 e_b^2) c_(j-1, k-1) / c_(j, k) (j e_a at
        k = 0).  Round-off (Higham, ch. 3): z_s^j from j - 1 complex products is
        within gamma_(3j) |z_s|^j, and summing r terms adds gamma_r, so
        |lambda_j| <= |fl(lambda_j)| + gamma_(3j + r) r m^j.  beta <=
        (1 + gamma_2)^n, and one factor 1 + gamma_(8 n + 2 d + r + 32) covers
        it, the logarithms and powers of c, kappa and R_s, the relative error of
        every norm and the arithmetic that sums the terms, the sum over s in
        any order.

        sup |g| = |w| (``FormProduct.sup``).  The mean square, the integral of g^2 against the normalized
        measure on the sphere, is |w|^2 j! k! / (2 c_(j, k)^2 (d/2)_n), taken in logarithms: q is harmonic
        with Fischer norm^2 mu_a^(2j) mu_b^(2k) j! k!, so its L^2 norm^2 is that over 2^n (d/2)_n (Stein &
        Weiss, ch. IV), and q^2 has weight 2j != 0 on the plane, so its integral is 0 and
        g^2 = (|w|^2 |q|^2 + Re(conj(w)^2 q^2)) / 2 integrates to |w|^2 / 2 times |q|'s; at d = 2 it is |w|^2 / 2.
        """
        d, r, root, half = self.mats.shape[-1], len(self.mats), math.sqrt(2.0), math.lgamma(self.mats.shape[-1] / 2)
        slips, radii, turn = self.slips.tolist(), [row.tolist() for row in self.radii], float(self.turn)
        def degree(lam, j, k):
            n, peak = j + k, _log_peak(j, k)
            step = math.exp(_log_peak(j - 1, k - 1) - peak) if k else 1.0  # c_(j-1, k-1) / c_(j, k)
            summed = root * sum(top ** (n - 1) * (math.hypot(j * a, k * b) * step) for top, (a, b) in zip(radii[k > 0], slips))
            lam += _gamma(3 * j + r) * r * self.modulus**j  # the bound on the exact |lambda_j|
            total = (1.0 + _gamma(8 * n + 2 * d + r + 32)) * (lam * self.spread[k > 0] ** n + summed)
            sup = math.hypot(math.cos(j * turn), math.sin(j * turn))
            mean = math.exp(math.lgamma(j + 1) + math.lgamma(k + 1) - math.lgamma(n + d / 2) - 2.0 * peak + half)
            return sup, total, 0.5 * sup**2 * mean

        return [degree(*row) for row in zip(moduli[j].tolist(), j.tolist(), (n - j).tolist())]
