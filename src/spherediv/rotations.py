"""Elements and tuples of the d-dimensional rotation group.

Rotations are plain dense matrices validated (and, for mildly inaccurate
input, repaired) on construction.  The group acts on sphere points by matrix
product and on sphere functions by composition with the inverse:

    (g . f)(x) = f(g^T x),  on rows of points: f(points @ g.matrix).

Haar sampling uses sign-fixed QR of a Gaussian matrix, restricted to the
special orthogonal component by negating the last column when needed; a
stack of Gaussian matrices becomes a stack of rotations in one QR.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import InputDomainError, NoFixedPointError, _check_count
from .sampling import as_rng

__all__ = [
    "Rotation",
    "RotationTuple",
    "fixed_point",
    "haar_from_gaussian",
    "haar_sample",
    "planar_rotation",
]

ORTHO_TOL = 1e-9
REPAIR_TOL = 1e-4
DET_TOL = 1e-9
# fixed_point: singular values of g - I up to this span the fixed space, and
# the returned u must have |g u - u| up to the residual tolerance
_FIXED_SINGULAR_TOL = 1e-6
_FIXED_RESIDUAL_TOL = 1e-8


@dataclass(frozen=True)
class Rotation:
    """A validated element of SO(d), stored as a read-only d x d matrix.

    Matrices violating orthogonality by more than 1e-9 but less than 1e-4
    are replaced by their nearest orthogonal matrix (polar factor) and
    flagged ``repaired``; anything worse is rejected.  A determinant of -1
    is always rejected: reflections are not repairable into SO(d).  So is a
    NaN or infinite entry, which every tolerance comparison would let pass.
    """

    matrix: np.ndarray
    repaired: bool = field(init=False, default=False)

    def __post_init__(self):
        try:
            m = np.array(self.matrix, dtype=float)
        except (TypeError, ValueError) as exc:
            raise InputDomainError(f"rotation matrix must be numeric: {exc}") from exc
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InputDomainError(f"rotation matrix must be square, got shape {m.shape}")
        if m.shape[0] < 2:
            raise InputDomainError(f"rotation dimension must be >= 2, got {m.shape[0]}")
        if not np.all(np.isfinite(m)):
            raise InputDomainError("rotation matrix has a NaN or infinite entry")
        err = float(np.max(np.abs(m.T @ m - np.eye(m.shape[0]))))
        if err > REPAIR_TOL:
            raise InputDomainError(
                f"matrix violates the orthogonality invariant: max |g^T g - I| = {err:.3e}"
            )
        if err > ORTHO_TOL:
            u, _, vt = np.linalg.svd(m)
            m = u @ vt
            object.__setattr__(self, "repaired", True)
            warnings.warn(
                f"rotation input off orthogonal by {err:.3e}; repaired by polar projection",
                stacklevel=2,
            )
        det = float(np.linalg.det(m))
        if abs(det - 1.0) > DET_TOL:
            raise InputDomainError(
                f"matrix violates the determinant-one invariant: det = {det:.12g}"
            )
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def d(self) -> int:
        return self.matrix.shape[0]

    def to_json_obj(self) -> dict:
        return {"d": self.d, "rows": [list(map(float, row)) for row in self.matrix]}

    @classmethod
    def from_json_obj(cls, obj) -> "Rotation":
        if not isinstance(obj, dict) or "d" not in obj or "rows" not in obj:
            raise InputDomainError('rotation JSON must be an object with keys "d" and "rows"')
        d = obj["d"]
        rows = obj["rows"]
        if not isinstance(d, int) or not isinstance(rows, list) or len(rows) != d:
            raise InputDomainError(f'rotation JSON "rows" must be a list of {d} rows')
        return cls(rows)  # a row that is not d numbers makes the matrix non-numeric or not square


def _check_rotations(name: str, values, d=None) -> tuple:
    """``values`` as a tuple of Rotations of one dimension (``d`` where given); else InputDomainError naming ``name``."""
    try:
        values = tuple(values)
    except TypeError:
        raise InputDomainError(f"{name} must be a sequence of Rotation, got {type(values).__name__}") from None
    if not all(isinstance(g, Rotation) for g in values):
        raise InputDomainError(f"{name} must be of type Rotation, got {[type(g).__name__ for g in values]}")
    dims = sorted({g.d for g in values} | ({d} - {None}))
    if len(dims) > 1:
        raise InputDomainError(f"{name} must share one dimension, got {dims}")
    return values


@dataclass(frozen=True)
class RotationTuple:
    """An ordered tuple of r >= 2 rotations sharing one dimension; each entry must be a Rotation."""

    rotations: tuple

    def __post_init__(self):
        rots = _check_rotations("rotations", self.rotations)
        if len(rots) < 2:
            raise InputDomainError(f"a rotation tuple needs r >= 2 entries, got {len(rots)}")
        object.__setattr__(self, "rotations", rots)

    @property
    def d(self) -> int:
        return self.rotations[0].d

    @property
    def r(self) -> int:
        return len(self.rotations)

    def __iter__(self):
        return iter(self.rotations)

    def __len__(self):
        return len(self.rotations)

    def __getitem__(self, i):
        return self.rotations[i]

    def to_json_obj(self) -> list:
        return [g.to_json_obj() for g in self.rotations]

    @classmethod
    def from_json_obj(cls, obj) -> "RotationTuple":
        if not isinstance(obj, list):
            raise InputDomainError("rotation tuple JSON must be an array of rotation objects")
        return cls(tuple(Rotation.from_json_obj(item) for item in obj))


def _sign_fixed_qr(z: np.ndarray):
    """Q of a QR of ``z`` with the R-diagonal signs made positive, moved into SO(d); and det of the sign-fixed Q."""
    q, r = np.linalg.qr(z)
    signs = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    signs[signs == 0] = 1.0
    q = q * signs[..., None, :]
    det = np.linalg.det(q)
    q[..., -1] *= np.where(det < 0, -1.0, 1.0)[..., None]
    return q, det


def haar_from_gaussian(z) -> np.ndarray:
    """Haar-distributed elements of SO(d) from standard Gaussian matrices.

    ``z`` is one (d, d) draw or a stack (..., d, d); the result has the same
    shape.  QR of a standard Gaussian matrix with the R-diagonal signs fixed
    positive gives Haar measure on O(d) (Mezzadri, Notices AMS 2007); a
    negative-determinant draw is mapped into SO(d) by negating the last
    column (right translation by a reflection, which preserves Haar
    measure).  One stacked QR serves the whole stack, and the stack is
    validated in one pass against ORTHO_TOL and DET_TOL.
    """
    z = np.asarray(z, dtype=float)
    if z.ndim < 2 or z.shape[-1] != z.shape[-2] or z.shape[-1] < 2:
        raise InputDomainError(f"Haar draws need square (..., d, d) input with d >= 2, got {z.shape}")
    q, det = _sign_fixed_qr(z)
    # the column flip leaves det(q) = |det|
    err = float(np.max(np.abs(np.swapaxes(q, -1, -2) @ q - np.eye(z.shape[-1]))))
    det_err = float(np.max(np.abs(np.abs(det) - 1.0)))
    if err > ORTHO_TOL or det_err > DET_TOL:
        raise InputDomainError(
            f"Haar draw off SO(d): max |g^T g - I| = {err:.3e}, max |det - 1| = {det_err:.3e}"
        )
    return q


def haar_sample(d: int, rng) -> Rotation:
    """Haar-distributed element of SO(d), equal to ``haar_from_gaussian`` of one (d, d) draw.

    The draw is validated once, by ``Rotation``.
    """
    _check_count("d", d, 2)
    q, _ = _sign_fixed_qr(as_rng(rng).standard_normal((d, d)))
    return Rotation(q)


def planar_rotation(d: int, i: int, j: int, angle: float) -> Rotation:
    """Rotation by ``angle`` in the (x_i, x_j) coordinate plane (1-based axes).

    Fixes every other basis vector; maps e_i toward e_j for positive angles.
    """
    _check_count("d", d, 2)
    _check_count("i", i, 1)
    _check_count("j", j, 1)
    if not (i < j <= d):
        raise InputDomainError(f"axis indices must satisfy 1 <= i < j <= d, got i={i}, j={j}, d={d}")
    m = np.eye(d)
    c, s = np.cos(angle), np.sin(angle)
    m[i - 1, i - 1] = c
    m[j - 1, j - 1] = c
    m[i - 1, j - 1] = -s
    m[j - 1, i - 1] = s
    return Rotation(m)


def fixed_point(rotation: Rotation) -> np.ndarray:
    """A unit vector u with g u = u, via the null space of (g - I).

    Always exists for odd d (an SO(d) matrix then has eigenvalue 1); for even
    d the call succeeds only when an eigenvalue-1 eigenvector exists
    numerically, and raises NoFixedPointError otherwise.  Deterministic
    choice: the null-space direction nearest the lowest-index coordinate
    axis, with the first nonzero coordinate made positive.
    """
    d = rotation.d
    _, svals, vt = np.linalg.svd(rotation.matrix - np.eye(d))
    if svals[-1] > _FIXED_SINGULAR_TOL:
        raise NoFixedPointError(
            f"smallest singular value of (g - I) is {svals[-1]:.3e} > {_FIXED_SINGULAR_TOL}; "
            "no fixed point (dimension must be even)"
        )
    null_rows = vt[svals <= _FIXED_SINGULAR_TOL]
    # columns of null_rows give the coordinates of each axis in the null space
    col_norms = np.linalg.norm(null_rows, axis=0)
    candidates = np.nonzero(col_norms >= 0.5 / np.sqrt(d))[0]
    k = int(candidates[0]) if candidates.size else int(np.argmax(col_norms))
    u = null_rows.T @ null_rows[:, k]
    u = u / np.linalg.norm(u)
    nz = np.nonzero(np.abs(u) > 1e-9)[0]
    if nz.size and u[nz[0]] < 0:
        u = -u
    residual = float(np.linalg.norm(rotation.matrix @ u - u))
    if residual > _FIXED_RESIDUAL_TOL:
        raise NoFixedPointError(f"candidate fixed point has residual {residual:.3e} > {_FIXED_RESIDUAL_TOL}")
    return u
