"""Explicit divisible families: planar sectors, the odd-d four-rotation family,
and the fully analytic circle (d = 2) machinery.

* ``planar_division``: r rotations of the (x_1, x_2) coordinate plane by
  2 pi m / r together with the indicator of an angular sector of width
  2 pi / r; the rotated copies of the indicator partition the sphere off a
  measure-zero boundary set.

* ``odd_d4_tuple``: for odd d, three fixed diagonal rotations summing to -I
  extend ANY first rotation to a divisible 4-tuple; the witness is the
  linear harmonic x -> u . x built on a fixed point u of the free rotation.

* circle analysis: on S^1 the degree-n harmonic space is 2-dimensional and
  the rotation by phi acts on the (cos n., sin n.) basis as the 2x2 rotation
  by n phi, that is as the complex number e^{i n phi}.  With r - 1 angles
  psi_s held fixed, their sum acts as k = sum_s e^{i n psi_s}, and the
  remaining rotation makes the summed operator singular iff
  e^{i n phi} = -k: n angles when |k| = 1 and none otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .divisibility import DEFAULT_SING_TOL, HarmonicFunction, _check_budget
from .errors import InputDomainError, _check_count
from .fischer import fischer_frame
from .rotations import Rotation, RotationTuple, _check_rotations, fixed_point, planar_rotation

__all__ = [
    "CircleAnalysis",
    "PlanarDivision",
    "analyze_circle",
    "circle_bad_angles",
    "circle_sum_matrix",
    "odd_d4_suffix",
    "odd_d4_tuple",
    "planar_division",
]

BOUNDARY_TOL = 1e-12
# bytes a d2-analyze report holds per bad angle: the array, its list of Python
# floats and the JSON text (2 * 10^6 angles added 321 MB to the CLI's peak RSS)
_ANGLE_BYTES = 160


@dataclass(frozen=True)
class PlanarDivision:
    """Sector indicator whose rotated copies tile the sphere.

    ``indicator`` is 1 on points whose (x_1, x_2) angle lies in
    [0, 2 pi / r) and 0 elsewhere; ``near_boundary`` marks points within
    BOUNDARY_TOL of the sector endpoints or of the degenerate x_1 = x_2 = 0
    fiber, where almost-everywhere equality makes no claim.
    """

    d: int
    r: int
    rotations: RotationTuple
    sector_width: float

    def _angles(self, pts: np.ndarray) -> np.ndarray:
        return np.mod(np.arctan2(pts[:, 1], pts[:, 0]), 2.0 * math.pi)

    def indicator(self, x):
        arr = np.asarray(x, dtype=float)
        single = arr.ndim == 1
        pts = np.atleast_2d(arr)
        inside = self._angles(pts) < self.sector_width
        vals = inside.astype(float)
        return float(vals[0]) if single else vals

    def near_boundary(self, x):
        arr = np.asarray(x, dtype=float)
        single = arr.ndim == 1
        pts = np.atleast_2d(arr)
        radial = np.hypot(pts[:, 0], pts[:, 1]) <= BOUNDARY_TOL
        theta = self._angles(pts)
        # circular distance to the nearest sector endpoint {2 pi k / r}
        width = self.sector_width
        dist = np.abs(np.mod(theta + width / 2.0, width) - width / 2.0)
        mask = radial | (dist <= BOUNDARY_TOL)
        return bool(mask[0]) if single else mask


def planar_division(d: int, r: int) -> PlanarDivision:
    """The r-fold division of S^{d-1} by (x_1, x_2)-plane rotations."""
    _check_count("d", d, 2)
    _check_count("r", r, 2)
    _check_budget(8 * d * d * r, f"planar_division(d={d}, r={r})", "d or r")
    rots = RotationTuple(
        tuple(planar_rotation(d, 1, 2, 2.0 * math.pi * m / r) for m in range(r))
    )
    return PlanarDivision(d=d, r=r, rotations=rots, sector_width=2.0 * math.pi / r)


def odd_d4_suffix(d: int) -> tuple:
    """The three fixed diagonal rotations of the odd-d four-tuple family.

    For d = 2m + 1 the diagonals are sign patterns
    ((-1)^(2m-1), -1, 1), ((-1)^(2m-1), 1, -1), ((1)^(2m-1), -1, -1);
    each has determinant 1 and the three matrices sum to -I.
    """
    _check_count("d", d, 3)
    if d % 2 == 0:
        raise InputDomainError(f"the diagonal family needs odd d >= 3, got d={d}")
    # the suffix and the free rotation: four d x d matrices
    _check_budget(8 * d * d * 4, f"the odd-d four-tuple in d={d}", "d")
    m = (d - 1) // 2
    patterns = [
        [-1.0] * (2 * m - 1) + [-1.0, 1.0],
        [-1.0] * (2 * m - 1) + [1.0, -1.0],
        [1.0] * (2 * m - 1) + [-1.0, -1.0],
    ]
    return tuple(Rotation(np.diag(p)) for p in patterns)


def odd_d4_tuple(d: int, gamma1: Rotation):
    """Extend gamma1 by the diagonal family; returns (tuple, kernel witness).

    The witness g(x) = u . x with u a fixed point of gamma1 satisfies
    gamma1.g = g while the diagonal suffix sends g to -g, so the four
    translates of g sum to zero identically.
    """
    suffix = odd_d4_suffix(d)
    _check_rotations("gamma1", [gamma1], d)
    u = fixed_point(gamma1)
    witness = HarmonicFunction(fischer_frame(d, 1), u)
    return RotationTuple((gamma1,) + suffix), witness


def circle_sum_matrix(n: int, fixed_angles) -> np.ndarray:
    """Summed action of the fixed rotations on degree-n circle harmonics; the angles must be finite."""
    _check_count("n", n, 1)
    angles = np.atleast_1d(np.asarray(fixed_angles, dtype=float))
    if angles.size < 1:
        raise InputDomainError("at least one fixed angle is required")
    if not np.all(np.isfinite(angles)):
        raise InputDomainError(f"fixed angles must be finite, got {angles.tolist()}")
    out = np.zeros((2, 2))
    for phi in angles.tolist():
        c, s = math.cos(n * phi), math.sin(n * phi)
        out += np.array([[c, -s], [s, c]])
    return out


def circle_bad_angles(n: int, fixed_angles) -> np.ndarray:
    """All phi in [0, 2 pi) making the full circle tuple singular at degree n, sorted.

    Rotation blocks are complex numbers: the block by theta acts as
    e^{i theta}, so the fixed rotations act at degree n as
    k = sum_s e^{i n psi_s} = K_00 + i K_10 (``circle_sum_matrix``) and the
    free rotation by phi adds e^{i n phi}.  The 2x2 operator is then
    multiplication by e^{i n phi} + k, singular iff e^{i n phi} = -k.  That
    needs |k| = 1, judged by the trigger of ``divisibility_test``: at the
    best phi the operator has sigma_min = ||k| - 1| and sigma_max = 1 + |k|,
    so no angle is returned unless their ratio is below DEFAULT_SING_TOL.
    Otherwise the n angles are (arg(-k) + 2 pi j) / n; n angles whose
    report would pass COST_BUDGET_BYTES raise InputDomainError.
    """
    kmat = circle_sum_matrix(n, fixed_angles)
    k = complex(kmat[0, 0], kmat[1, 0])
    if abs(abs(k) - 1.0) >= DEFAULT_SING_TOL * (1.0 + abs(k)):
        return np.empty(0)
    _check_budget(_ANGLE_BYTES * n, f"{n} bad angles", "n")
    phi = np.mod((math.atan2(-k.imag, -k.real) + 2.0 * math.pi * np.arange(n)) / n, 2.0 * math.pi)
    # np.mod rounds an angle just below 0 up to 2 pi itself, which is 0 on the circle
    phi[phi == 2.0 * math.pi] = 0.0
    return np.sort(phi)


@dataclass(frozen=True)
class CircleAnalysis:
    """Degree-n singular-angle analysis for a circle tuple with fixed suffix."""

    n: int
    fixed_angles: np.ndarray
    sum_matrix: np.ndarray
    bad_angles: np.ndarray

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "fixed_angles": [float(a) for a in self.fixed_angles],
            "sum_matrix": [list(map(float, row)) for row in self.sum_matrix],
            "bad_angles": [float(a) for a in self.bad_angles],
        }


def analyze_circle(n: int, fixed_angles) -> CircleAnalysis:
    angles = np.atleast_1d(np.asarray(fixed_angles, dtype=float))
    return CircleAnalysis(
        n=n,
        fixed_angles=angles,
        sum_matrix=circle_sum_matrix(n, angles),
        bad_angles=circle_bad_angles(n, angles),
    )
