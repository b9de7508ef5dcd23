"""Gegenbauer polynomials, harmonic-space dimensions, and sphere measure facts.

Degree-n spherical harmonics on the unit sphere in R^d are handled through
their zonal representatives t -> P_n(t), the orthogonal polynomials on
[-1, 1] for the projection weight rho(t) = sigma_{d-1} (1 - t^2)^{(d-3)/2},
normalized so that P_n(1) = 1.  For d = 3 these are the Legendre polynomials;
for d = 2 the normalized limit family is the Chebyshev one, cos(n arccos t).

The zonal function with pole v is x -> P_n(v . x); the exact inner product of
two zonal functions in L^2 of the sphere is

    <P_n(u . ), P_n(v . )> = (sigma_d / N_n) * P_n(u . v),

with N_n the dimension of the degree-n harmonic space.  Everything downstream
(operator matrices, norms, certificates) reduces to these closed forms.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import InputDomainError, _check_count

__all__ = [
    "GegenbauerTable",
    "dim_harmonic",
    "sphere_area",
    "zonal_inner_product",
]

UNIT_TOL = 1e-9


def dim_harmonic(d: int, n: int) -> int:
    """Dimension N_n of the space of degree-n spherical harmonics on S^{d-1}.

    N_n = C(d+n-1, n) - C(d+n-3, n-2), with the second term taken as 0 for
    n in {0, 1}.  Closed forms: 2n+1 for d = 3, and 2 for d = 2, n >= 1.
    """
    _check_count("d", d, 2)
    _check_count("n", n, 0)
    first = math.comb(d + n - 1, n)
    second = math.comb(d + n - 3, n - 2) if n >= 2 else 0
    return first - second


def sphere_area(d: int) -> float:
    """Total measure sigma_d = 2 pi^{d/2} / Gamma(d/2) of the unit sphere in R^d, for an integer d >= 2."""
    _check_count("d", d, 2)
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


class GegenbauerTable:
    """Evaluator for the normalized Gegenbauer family of a fixed dimension.

    Holds the three-term recurrence coefficients for degrees up to ``n_max``:

        P_0 = 1,  P_1 = t,  P_n(t) = a_n * t * P_{n-1}(t) - b_n * P_{n-2}(t),

    with a_n = 2(n + lam - 1)/(n + 2 lam - 1), b_n = (n - 1)/(n + 2 lam - 1)
    for lam = (d - 2)/2.  The d = 2 case (lam = 0) is degenerate and uses the
    Chebyshev recurrence a_n = 2, b_n = 1 instead, which is the normalized
    lam -> 0 limit.  Both choices give P_n(1) = 1 identically.

    Instances are immutable after construction and safe to share.
    """

    def __init__(self, d: int, n_max: int):
        _check_count("d", d, 2)
        _check_count("n_max", n_max, 0)
        self.d = int(d)
        self.n_max = int(n_max)
        a = np.zeros(n_max + 1)
        b = np.zeros(n_max + 1)
        if n_max >= 1:
            a[1] = 1.0
        if d == 2:
            a[2:] = 2.0
            b[2:] = 1.0
        else:
            lam = (d - 2) / 2.0
            for n in range(2, n_max + 1):
                a[n] = 2.0 * (n + lam - 1.0) / (n + 2.0 * lam - 1.0)
                b[n] = (n - 1.0) / (n + 2.0 * lam - 1.0)
        a.setflags(write=False)
        b.setflags(write=False)
        self.coeff_a = a
        self.coeff_b = b

    def eval(self, n: int, t):
        """Evaluate P_n at t (scalar or array); t must already lie in [-1, 1]."""
        if not 0 <= n <= self.n_max:
            raise InputDomainError(
                f"degree {n} outside table range 0..{self.n_max} (d={self.d})"
            )
        arr = np.asarray(t, dtype=float)
        prev = np.ones_like(arr)
        if n == 0:
            return prev if arr.ndim else 1.0
        cur = arr.copy()
        for k in range(2, n + 1):
            cur, prev = self.coeff_a[k] * arr * cur - self.coeff_b[k] * prev, cur
        return cur if arr.ndim else float(cur)


@lru_cache(maxsize=128)
def _table(d: int, n_max: int) -> GegenbauerTable:
    return GegenbauerTable(d, n_max)


def _unit_vector(v, name: str) -> np.ndarray:
    """Validate that v is a unit vector within UNIT_TOL and return it renormalized."""
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1:
        raise InputDomainError(f"{name} must be one-dimensional, got shape {arr.shape}")
    norm = float(np.linalg.norm(arr))
    if abs(norm - 1.0) > UNIT_TOL:
        raise InputDomainError(f"{name} has norm {norm}, not a unit vector within {UNIT_TOL}")
    return arr / norm


def zonal_inner_product(d: int, n: int, u, v) -> float:
    """Exact inner product of two zonal harmonics: (sigma_d / N_n) * P_n(u . v)."""
    uu = _unit_vector(u, "u")
    vv = _unit_vector(v, "v")
    if uu.shape != vv.shape or uu.shape[0] != d:
        raise InputDomainError(
            f"u and v must both have dimension d={d}, got {uu.shape[0]} and {vv.shape[0]}"
        )
    dot = min(1.0, max(-1.0, float(uu @ vv)))
    return sphere_area(d) / dim_harmonic(d, n) * _table(d, n).eval(n, dot)
