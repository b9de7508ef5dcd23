"""The Fischer frame: an exact orthonormal frame of every degree-n harmonic space.

Let P_n be the homogeneous polynomials of degree n in d variables with the
Fischer (Bombieri) inner product <x^a, x^b> = a! delta_ab.  It is
O(d)-invariant, so in the orthonormal monomial basis x^a / sqrt(a!) each
rotation g acts by composition p -> p(g^T .) as an orthogonal matrix, the
symmetric power Sym^n(g).  Multiplication by |x|^2 is the adjoint of the
Laplacian, so P_n = H_n + |x|^2 P_(n-2) is an orthogonal sum and the
harmonics are H_n = ker(Laplacian) (Axler, Bourdon & Ramey, Harmonic
Function Theory, ch. 5; Stein & Weiss, Fourier Analysis on Euclidean
Spaces, ch. IV).  In that basis the Laplacian has the entries
sqrt(a_i (a_i - 1)); complete QRs of its transpose, one per parity class of
the exponents, give U, an orthonormal basis of H_n with N_n columns.

The Laplacian keeps the parity pattern a mod 2, so U is block diagonal over
the parity classes: a monomial and a frame column meet only inside one
class.  A frame keeps those QR blocks, stacked by shape (at d = 8, n = 6 the
127 classes come in 4 shapes and hold 42 252 of U's 2 378 376 entries), and
applies U through a few stacked products per shape.  Only a frame with at
most DENSE_MAX_SIZE monomials, where one dense product is cheaper, also
keeps the dense U.

The summed-translate operator of a tuple restricted to H_n is then
M = U^T (sum_s Sym^n(g_s)) U in exactly orthonormal coordinates.  H_n is
irreducible, so every invariant inner product on it is a multiple of the L^2
one and M has the operator's L^2 singular values.  ``summed_powers`` gives
every S_n = sum_s Sym^n(g_s) up to n_max in one pass of a recurrence, with
the large steps run in column slabs of at most BLOCK_BYTES.  The top degree
of a single tuple is not summed where the r copies of Sym^(n-1) it is built
from are the smaller representation, r P_(n-1)^2 < P_n^2 (at d = 8, n = 6
that is r <= 4): a ``_StreamedSum`` keeps those copies, the frame takes
S_n's column slabs one at a time into U^T S_n, and every other use of S_n
is a product with a vector through the copies.  So the top degree of a
Haar triple in SO(8) at n_max = 6 never holds S_6 (23.6 MB).  Larger r,
stacks of tuples and the small steps keep a dense S_n.  A tuple translated
to h_1 = I (``divisibility``) runs the recurrence on its other rotations
only, and every sum carries the free term Sym^n(I) = I.  Nothing is drawn
at random: frames and index tables are deterministic and built once per
(d, n) per process.

Monomials of each degree are listed in descending lexicographic order of
their exponents, so degree one is x_1, ..., x_d and Sym^1(g) = g.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import InputDomainError

__all__ = ["BLOCK_BYTES", "FischerFrame", "fischer_frame", "summed_powers"]

# byte budget of one stacked temporary: a Sym^n step treats every rotation
# in one call while d P_n^2 doubles per rotation fit, and goes through column
# slabs of at most this many bytes of parent columns otherwise; the block
# operator gathers rows and columns of this many bytes at a time, and studies size
# trial blocks by it
BLOCK_BYTES = 1 << 20

# frames with at most this many monomials keep a dense U: below it one dense
# U^T S U beats the stacked block products.  One BLAS thread on a 2-core Xeon:
# dense 24 us vs blocks 100 us at P_n = 70; about even at P_n = 120 (63 vs
# 89 us at d = 4, 175 vs 161 us at d = 8); blocks 2.6x faster at P_n = 330,
# 5.2x at 792 and 6.1x at 1716
DENSE_MAX_SIZE = 120


def _gamma(k) -> float:
    """gamma_k = k u / (1 - k u) with u = 2^-53, which bounds k relative roundings in every round-off bound of the package.

    Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., Lemma 3.1.
    """
    return k * 2.0**-53 / (1.0 - k * 2.0**-53)


def _choose(m: np.ndarray, k: int) -> np.ndarray:
    """Binomial coefficients C(m, k) of an integer array m >= 0, exactly, from a ``math.comb`` table indexed by m.

    A running int64 product C(m, t + 1) = C(m, t) (m - t) / (t + 1)
    overflows in its numerator long before the result does: from d = 62 the
    monomial tables lost rows.
    """
    table = np.array([math.comb(t, k) for t in range(int(m.max(initial=0)) + 1)], dtype=np.int64)
    return table[m]


def _index(rows: np.ndarray) -> np.ndarray:
    """Position of each exponent row among all rows of its degree in descending lexicographic order.

    The rows sharing its first i entries and larger at entry i number
    C(t + d - i - 2, d - i - 1), t the sum of its entries after i.
    """
    d = rows.shape[1]
    tail = np.cumsum(rows[:, ::-1], axis=1)[:, ::-1]
    out = np.zeros(len(rows), dtype=np.int64)
    for i in range(d - 1):
        out += _choose(tail[:, i + 1] + d - i - 2, d - i - 1)
    return out


@lru_cache(maxsize=None)
def _exponents(d: int, n: int) -> np.ndarray:
    """Exponent rows of the degree-n monomials, descending lexicographic, shape (P_n, d)."""
    if n == 0:
        return np.zeros((1, d), dtype=np.int64)
    raised = (_exponents(d, n - 1)[:, None, :] + np.eye(d, dtype=np.int64)).reshape(-1, d)
    pos = _index(raised)
    rows = np.empty((pos.max() + 1, d), dtype=np.int64)
    rows[pos] = raised
    rows.setflags(write=False)
    return rows


@lru_cache(maxsize=None)
def _torus_weights(d: int, n: int) -> tuple:
    """The weights of the maximal torus on H_n(S^(d-1)): (weights (K, m), multiplicities (K,)).

    The torus rotates the planes (x_1, x_2), (x_3, x_4), ... of the m = d // 2
    pairs of coordinates by angles theta_1..theta_m.  In z_j = x_(2j-1) + i x_(2j)
    and its conjugate, a monomial of P_n has the weight
    k = (a_1 - a_2, a_3 - a_4, ...), so counting the exponent rows of
    ``_exponents`` counts P_n's weights.  H_n = P_n - |x|^2 P_(n-2) and |x|^2
    has weight 0, so H_n's weights are those of P_n less those of P_(n-2), as
    multisets; each distinct k with positive multiplicity is kept.  At d = 2
    that leaves k = +-n; at d >= 3 it is every k with |k|_1 <= n, with
    |k|_1 = n mod 2 for even d (Broecker & tom Dieck, Representations of
    Compact Lie Groups, GTM 98, ch. VI).
    """
    m = d // 2
    parts = [_exponents(d, k) for k in (n, n - 2) if k >= 0]
    rows = np.concatenate([e[:, 0:2 * m:2] - e[:, 1:2 * m:2] for e in parts])
    signs = np.concatenate([np.full(len(e), sign) for e, sign in zip(parts, (1, -1))])
    found, inverse = np.unique(rows, axis=0, return_inverse=True)
    count = np.zeros(len(found), dtype=np.int64)
    np.add.at(count, inverse.ravel(), signs)
    kept = count > 0
    out = (found[kept], count[kept])
    for part in out:
        part.setflags(write=False)
    return out


@dataclass(frozen=True)
class _Step:
    """Index tables of the step from degree n - 1 to degree n.

    Column a of Sym^n(g) is the image of x^a = x_i x^(a - e_i), i = ``lead[a]``
    the first variable of x^a, so it is (g_i . x) / sqrt(a_i) times column
    ``parent[a]`` of Sym^(n-1)(g), moved up by one degree; ``root_lead`` is
    sqrt(a_i).  Multiplying by x_j moves row c to row ``up[j, c]`` (the
    index of c + e_j) with weight ``up_root[j, c]`` = sqrt(c_j + 1).  In
    descending lexicographic order the columns with lead i are one block,
    and their parents are the last columns of degree n - 1 in order:
    ``blocks`` holds (first column, end column, first parent) per lead.
    """

    parent: np.ndarray
    lead: np.ndarray
    root_lead: np.ndarray
    up: np.ndarray
    up_root: np.ndarray
    blocks: tuple


@lru_cache(maxsize=None)
def _step(d: int, n: int) -> _Step:
    exps, prev = _exponents(d, n), _exponents(d, n - 1)
    lead = np.argmax(exps > 0, axis=1)
    every = np.arange(len(exps))
    lowered = exps.copy()
    lowered[every, lead] -= 1
    raised = (prev[:, None, :] + np.eye(d, dtype=np.int64)).reshape(-1, d)
    parent = _index(lowered)
    bounds = np.searchsorted(lead, np.arange(d + 1))
    return _Step(
        parent=parent,
        lead=lead,
        root_lead=np.sqrt(exps[every, lead]),
        up=np.ascontiguousarray(_index(raised).reshape(len(prev), d).T),
        up_root=np.sqrt(prev.T + 1.0),
        blocks=tuple((int(bounds[i]), int(bounds[i + 1]), int(parent[bounds[i]])) for i in range(d)),
    )


@lru_cache(maxsize=None)
def _moves(d: int, n: int) -> np.ndarray:
    """The moves of ``_step`` as d dense P_n x P_(n-1) matrices, flattened to (d, P_n P_(n-1)).

    Built only where they are small.  Row i of g^T times this array is
    (g_i . x) = sum_j g[j, i] x_j as a map from degree n - 1 to degree n.
    """
    step = _step(d, n)
    out = np.zeros((d, len(step.lead), step.up.shape[1]))
    shift, row = np.indices(step.up.shape)
    out[shift, step.up, row] = step.up_root
    return out.reshape(d, -1)


@dataclass(frozen=True)
class _Group:
    """The K parity classes of one frame that share a shape P_c x N_c.

    ``monomials`` (K, P_c) lists each class's monomials, ``columns``
    (K, N_c) its frame columns, and ``basis`` (K, P_c, N_c) its QR block:
    U restricted to those rows and columns.  U is zero off the blocks.
    """

    monomials: np.ndarray
    columns: np.ndarray
    basis: np.ndarray


@dataclass(frozen=True)
class FischerFrame:
    """The exact orthonormal frame of the degree-n harmonics on S^(d-1).

    ``exponents`` lists the P_n monomials x^a of degree n.  U, P_n x N_n
    with orthonormal columns spanning the harmonics in the orthonormal
    monomial basis x^a / sqrt(a!), is block diagonal over the parity
    classes of the exponents: ``groups`` holds its QR blocks, stacked by
    shape (at d = 8, n = 6 its 127 classes fall into 4 shapes and hold
    42 252 of U's 2 378 376 entries).  ``basis`` is the dense U while
    P_n <= DENSE_MAX_SIZE, where one dense product beats a few stacked ones,
    and None above it; ``operator`` uses it where it is kept.  A harmonic
    with frame coordinates y is the polynomial with monomial coefficients
    U y / sqrt(a!).  ``defect`` bounds how far the stored U's projection,
    computed as ``_lift(_project(x))``, may be from the exact harmonic
    projection P_H x, relative to ||x|| (``_frame_defect``).  Build frames
    through the cached ``fischer_frame``.
    """

    d: int
    n: int
    exponents: np.ndarray
    groups: tuple
    basis: Optional[np.ndarray]
    defect: float

    @property
    def size(self) -> int:
        """P_n, the number of monomials: the coefficient count of a HarmonicFunction."""
        return len(self.exponents)

    @property
    def dim(self) -> int:
        """N_n, the number of frame columns."""
        return sum(g.columns.size for g in self.groups)

    def operator(self, sums) -> np.ndarray:
        """M = U^T S U for S = sum_s Sym^n(g_s), for a stack (..., P_n, P_n) of such sums, or for a ``_StreamedSum``.

        A streamed S reaches U^T S one column slab at a time, so S is never whole.
        """
        if isinstance(sums, _StreamedSum):
            half = np.empty((self.dim, self.size))
            for a, b, slab in sums.slabs():
                half[:, a:b] = self._project(slab)
        elif self.basis is not None:
            return self.basis.T @ sums @ self.basis
        else:
            half = self._project(sums)
        # U^T S U = (U^T (U^T S)^T)^T
        return np.swapaxes(self._project(np.swapaxes(half, -1, -2)), -1, -2)

    def _project(self, rows: np.ndarray) -> np.ndarray:
        """U^T X for X of shape (..., P_n, k), through the parity blocks a chunk of classes at a time."""
        lead, width = rows.shape[:-2], rows.shape[-1]
        out = np.empty(lead + (self.dim, width))
        for g, part in self._chunks(math.prod(lead) * width):
            # rows of K classes, (..., K, P_c, k), projected by their blocks
            out[..., g.columns[part], :] = np.swapaxes(g.basis[part], -1, -2) @ rows[..., g.monomials[part], :]
        return out

    def _chunks(self, width: int):
        """(group, slice of its classes) whose P_c rows of ``width`` doubles each fit in BLOCK_BYTES.

        Gathering a whole shape at once holds up to P_n^2 more: on a Haar
        triple in SO(8) up to n = 6 that raised peak RSS from 115 to 139 MB.
        """
        for g in self.groups:
            step = max(1, BLOCK_BYTES // (8 * g.basis.shape[1] * width))
            for lo in range(0, len(g.basis), step):
                yield g, slice(lo, lo + step)

    def _lift(self, coords: np.ndarray) -> np.ndarray:
        """U y: the orthonormal-monomial coordinates of frame coordinates ``coords``."""
        vals = np.empty(self.size)
        for g in self.groups:
            vals[g.monomials] = (g.basis @ coords[g.columns][..., None])[..., 0]
        return vals

    def apply(self, sums, coords: np.ndarray) -> np.ndarray:
        """M y = U^T (S (U y)) for one vector y, through the parity blocks, without forming M (or a streamed S)."""
        return self._project((sums @ self._lift(coords))[:, None])[:, 0]

    def coefficients(self, coords: np.ndarray) -> np.ndarray:
        """Monomial coefficients of the harmonic with frame coordinates ``coords``."""
        return self._lift(coords) * np.exp(-0.5 * _log_factorials(self.exponents))

    def scaled_coordinates(self, coeffs: np.ndarray):
        """(v', J): v' = sqrt(a!) c / sqrt(n!) for the coefficients c, computed within gamma_J of it entrywise.

        No factorial is formed, so nothing overflows; ``residual_bound``
        derives J.
        """
        log_n = math.lgamma(self.n + 1)
        coords = coeffs * np.exp(0.5 * (_log_factorials(self.exponents) - log_n))
        return coords, math.ceil((self.d + 16) * 0.5 * log_n) + 9

    def mean_square(self, coeffs: np.ndarray) -> float:
        """The integral of g^2 against the normalized measure on the sphere, for the harmonic g with coefficients c.

        ||g||^2 = sum_a a! c_a^2 / (2^n (d/2)_n) (Stein & Weiss, ch. IV), that is
        ||v'||^2 n! / (2^n (d/2)_n) for v' of ``scaled_coordinates``, taken in logarithms.
        """
        d, n = self.d, self.n
        log_ratio = math.lgamma(n + 1) - n * math.log(2.0) - math.lgamma(n + d / 2) + math.lgamma(d / 2)
        return float(np.sum(self.scaled_coordinates(coeffs)[0] ** 2)) * math.exp(log_ratio)

    def residual_bound(self, sums, coeffs: np.ndarray, mats: np.ndarray) -> float:
        """A bound on max_{|x| = 1} |sum_s p(g_s^T x)| for p = sum_k coeffs[k] x^exponents[k].

        ``sums`` is S = sum_s Sym^n(g_s) as ``summed_powers`` computed it for
        the stack ``mats`` (r, d, d), dense or streamed.  The bound holds
        for every p in P_n, harmonic or not, so round-off that moves p or
        its residual out of the harmonics does not void it.

        Exact part.  p has orthonormal-monomial coordinates v = sqrt(a!) c
        and q = sum_s p(g_s^T .) has R = S v.  For |y| = 1,
        q(y) = <q, (y . x)^n / n!>_F and ||(y . x)^n||_F^2 = n!, so
        |q(y)| <= ||R|| / sqrt(n!) by Cauchy-Schwarz; x_1^n attains it.

        Round-off (Higham, Accuracy and Stability of Numerical Algorithms,
        2nd ed., ch. 3), with u = 2^-53 and gamma_k = k u / (1 - k u).  The
        recurrence reaches an entry of Sym^m from Sym^(m-1) through at most
        P_(m-1) + d + 5 roundings (a sum of at most P_(m-1) products or d
        shifts, the square-root weights and one division) and the sum over
        the rotations adds at most r d (an identity term in ``mats``, added
        exactly as I, counts as one of the r), so with
        k = C(n + d - 1, d) + n (d + 5) + r d the computed S' satisfies
        |S' - S| <= gamma_k sum_s Sym^n(|g_s|) entrywise: every step only
        adds products with positive weights.  Sym^n(G) is G^(tensor n) on
        the symmetric tensors, so ||Sym^n(|g|)|| <= || |g| ||^n, and
        || |g| || <= sqrt(||g||_1 ||g||_inf) (Schur); let
        A = sum_s (||g_s||_1 ||g_s||_inf)^(n/2).  The product S' v' adds at most
        gamma_(P_n) A ||v'||.  Everything is scaled by 1 / sqrt(n!) up front,
        so no factorial is formed and nothing overflows: v' = exp((L_a -
        log n!) / 2) c with L_a = sum_i lgamma(a_i + 1) <= log n! = 2 Y.
        Allowing 4 ulps (8 u relative) per lgamma value and one rounding per
        addition and for the difference, the exponent is off by at most
        (d + 16) Y u; allowing 4 ulps for exp and one rounding for the
        product, v' is within gamma_J of v / sqrt(n!) entrywise for
        J = ceil((d + 16) Y) + 9.  A streamed S (``_StreamedSum``) is never
        formed: S v' comes from the r copies of Sym^(n-1), each within
        gamma_(k') Sym^(n-1)(|g_s|) for k' = C(n + d - 2, d) + (n - 1)(d + 5),
        through at most 2 roundings of v'_a / sqrt(a_i), a sum of at most
        P_(n-1) products per lead block, r for the sum over s weighted by
        g_s[j, i] (with an identity term, r - 1 and one addition of v'
        itself), d for the sum over lead blocks, 2 for the weight
        sqrt(c_j + 1) and d for the scatters.  With absolute values
        throughout these terms sum to sum_s Sym^n(|g_s|) |v'|, and
        k' + P_(n-1) + r + 2 d + 4 <= k, since k = k' + P_(n-1) + d + 5 + r d
        and r + d <= r d + 1: the dense count k + P_n covers both orders of
        evaluation.  So ||R' - R / sqrt(n!)|| <= gamma_K A ||v'|| (1 + O(gamma_K))
        for K = k + P_n + J.  The allowance delta = 3 gamma_K A ||v'|| covers
        that, the second-order terms, and the roundings of the norm and the
        final sum, each at most gamma_K (||R'|| + delta) <= gamma_K A ||v'||
        (1 + O(gamma_K)).  Returns ||R'|| + delta.
        """
        d, n, r = self.d, self.n, len(mats)
        coords, scaling = self.scaled_coordinates(coeffs)
        residual = float(np.linalg.norm(sums @ coords))
        k = math.comb(n + d - 1, d) + n * (d + 5) + r * d + self.size + scaling
        absolute = np.abs(mats)
        schur = absolute.sum(axis=-2).max(axis=-1) * absolute.sum(axis=-1).max(axis=-1)
        growth = float(np.sum(schur ** (n / 2)))
        delta = 3.0 * _gamma(k) * growth * float(np.linalg.norm(coords))
        return residual + delta

    def terms(self, x: np.ndarray) -> np.ndarray:
        """Values x^a of every monomial at the points ``x`` (m, d), shape (m, P_n)."""
        vals = np.ones((len(x), 1))
        for k in range(1, self.n + 1):
            step = _step(self.d, k)
            # in place: each step holds two arrays of values at a time, not four
            vals = vals[:, step.parent]
            vals *= x[:, step.lead]
        return vals

    def function_json(self, coeffs: np.ndarray) -> dict:
        """Versioned JSON of the polynomial sum_k coeffs[k] x^exponents[k]."""
        return {
            "format": "monomial-v1",
            "d": self.d,
            "n": self.n,
            "exponents": self.exponents.tolist(),
            "coeffs": [float(c) for c in coeffs],
        }


def _log_factorials(exps: np.ndarray) -> np.ndarray:
    """log(a!) = sum_i lgamma(a_i + 1) of every exponent row a: no factorial is formed, none overflows."""
    table = np.array([math.lgamma(m + 1.0) for m in range(int(exps.max(initial=0)) + 1)])
    return table[exps].sum(axis=1)


def _frame_defect(d: int, n: int, lap: np.ndarray, kernel: np.ndarray) -> float:
    """A bound D_c >= ||fl(K fl(K^T x)) - P_H x|| / ||x|| for every x of one parity class, at degree n >= 2.

    ``lap`` is the class's Laplacian rows L (R_c x P_c) as computed and
    ``kernel`` its stored frame block K (P_c x N_c).  U and P_H are both
    block diagonal over the classes, so the frame's ``defect`` D, the
    largest D_c, bounds ||fl(U fl(U^T x)) - P_H x|| / ||x|| for every x.

    Exact part.  Let E = K^T K - I, eps >= ||E||, and eta >= ||(I - P_H) K||.
    I - P_H is the projector onto the row space of L, so
    ||(I - P_H) K|| <= ||L K|| / sigma_min(L).  Write K = A + B with A = P_H K
    and ||B|| <= eta.  A maps R^N into H_c, of the same dimension N (L is
    onto), so A A^T on H_c has the eigenvalues of A^T A = I + E - B^T B and
    ||A A^T - P_H|| = ||A^T A - I|| <= eps + eta^2; with ||A|| <= sqrt(1 + eps),
    ||K K^T - P_H|| <= eps + 2 sqrt(1 + eps) eta + 2 eta^2.  In the orthonormal
    monomial basis the Laplacian's adjoint is multiplication by |x|^2, and
    on |x|^(2j) h with h harmonic of degree m, 2j + m = n - 2,
    Delta |x|^2 acts as (2j + 2)(2j + 2m + d), so sigma_min(L)^2 = 2 (2n + d - 4)
    (j = 0), for the whole Laplacian and so for each class block.

    Round-off (Higham, Accuracy and Stability of Numerical Algorithms, 2nd
    ed., ch. 3), u = 2^-53, gamma_k = k u / (1 - k u), and
    g = gamma_(P_c N_c + P_c + 4), which covers the relative error of every
    norm and product of nonnegative numbers here.  s = (1 + g) ||fl(|K|^T |K|)||_F
    bounds || |K| ||^2, since a product of nonnegative numbers is computed
    within g of itself.  fl(K^T K) is within gamma_(P_c) |K|^T |K| of K^T K,
    so eps = (1 + g) (e + gamma_(P_c) s), e the computed ||fl(K^T K) - I||_F.
    The computed L has the entries sqrt(a_i (a_i - 1)) within u relative,
    so ||L K|| <= (1 + g) (f + gamma_(P_c + 1) ||fl(|L| |K|)||_F), f the
    computed ||fl(L K)||_F; sqrt(2 (2n + d - 4)) is rounded once and taken
    (1 - 2u) lower.  Applying the frame, fl(U^T x) and then fl(U y), adds at
    most gamma_(P_c + N_c) |K| |K|^T |x|, of norm at most
    gamma_(P_c + N_c) s ||x||.  The sum is taken (1 + gamma_10) higher for
    the arithmetic that forms it.  A frame of degree 1 is the identity,
    exactly, with D = 0.
    """
    sigma = math.sqrt(2.0 * (2 * n + d - 4)) * (1.0 - 2.0 * 2.0**-53)
    size, dim = kernel.shape
    rel = 1.0 + _gamma(size * dim + size + 4)
    spread = np.abs(kernel)
    square = rel * float(np.linalg.norm(spread.T @ spread))
    gram = kernel.T @ kernel
    gram[np.diag_indices(dim)] -= 1.0
    eps = rel * (float(np.linalg.norm(gram)) + _gamma(size) * square)
    leak = float(np.linalg.norm(lap @ kernel)) + _gamma(size + 1) * float(np.linalg.norm(np.abs(lap) @ spread))
    eta = rel * leak / sigma
    return (eps + 2.0 * math.sqrt(1.0 + eps) * eta + 2.0 * eta * eta + _gamma(size + dim) * square) * (1.0 + _gamma(10))


@lru_cache(maxsize=None)
def fischer_frame(d: int, n: int) -> FischerFrame:
    """The Fischer frame of degree n >= 1 in dimension d >= 2, built once per process."""
    if d < 2 or n < 1:
        raise InputDomainError(f"Fischer frames need d >= 2 and n >= 1, got d={d}, n={n}")
    exps = _exponents(d, n)
    size = len(exps)
    defect = 0.0
    if n < 2:
        every = np.arange(size)
        groups = (_Group(every[:, None], every[:, None], np.ones((size, 1, 1))),)
    else:
        lower = _exponents(d, n - 2)
        lap = np.zeros((len(lower), size))
        for i in range(d):
            hit = np.nonzero(exps[:, i] >= 2)[0]
            rows = exps[hit].copy()
            rows[:, i] -= 2
            a = exps[hit, i]
            lap[_index(rows), hit] = np.sqrt(a * (a - 1.0))
        # the Laplacian keeps the parity pattern a mod 2, so it is block
        # diagonal over patterns and one small QR per pattern spans its kernel;
        # a pattern p is keyed by its rank among all exponents of degree <= |p|
        parity = np.concatenate([exps, lower]) % 2
        key = _index(parity) + _choose(parity.sum(axis=1) + d - 1, d)
        _, pattern = np.unique(key, return_inverse=True)
        cols_of, rows_of = pattern[:size], pattern[size:]
        shapes = {}
        filled = 0
        for c in range(pattern.max() + 1):
            cols, rows = np.nonzero(cols_of == c)[0], np.nonzero(rows_of == c)[0]
            part = lap[np.ix_(rows, cols)]
            q, _ = np.linalg.qr(part.T, mode="complete")
            kept = len(cols) - len(rows)
            block = (cols, np.arange(filled, filled + kept), q[:, len(rows):])
            shapes.setdefault((len(cols), kept), []).append(block)
            defect = max(defect, _frame_defect(d, n, part, block[2]))
            filled += kept
        groups = tuple(_Group(*(np.stack(part) for part in zip(*members))) for members in shapes.values())
    basis = None
    if size <= DENSE_MAX_SIZE:
        basis = np.zeros((size, sum(g.columns.size for g in groups)))
        for g in groups:
            basis[g.monomials[:, :, None], g.columns[:, None, :]] = g.basis
        basis.setflags(write=False)
    for g in groups:
        for part in (g.monomials, g.columns, g.basis):
            part.setflags(write=False)
    return FischerFrame(d=d, n=n, exponents=exps, groups=groups, basis=basis, defect=defect)


def _runs(step: _Step, parents: int):
    """(i, a, b): runs of columns a:b of lead block i whose parent columns, ``parents`` doubles each, fit in BLOCK_BYTES."""
    width = max(1, BLOCK_BYTES // (8 * parents))
    for i, (lo, hi, _) in enumerate(step.blocks):
        for a in range(lo, hi, width):
            yield i, a, min(a + width, hi)


def _scatter(flat: np.ndarray, sym: np.ndarray, step: _Step, run: tuple, group: Optional[int], target: np.ndarray):
    """Add columns a:b of degree n, ``run`` = (i, a, b), built from the stack ``sym`` of degree n - 1, to ``target``.

    ``flat`` (count, d, d) holds the rotations and ``sym`` (count, P_(n-1),
    P_(n-1)) their Sym^(n-1).  The columns of lead block i have a
    contiguous run of degree n - 1 as parents, and the term g[j, i] x_j of
    the form g_i scatters their rows.  With ``group`` None ``target``
    (count, P_n, b - a) takes every rotation's Sym^n; with ``group`` r each
    run of r rotations, one tuple, is summed before the scatter, and
    ``target`` (count // r, P_n, b - a) takes each tuple's S_n.
    """
    i, a, b = run
    first = step.parent[a]
    src = sym[:, :, first:first + b - a] / step.root_lead[a:b]
    for j in range(flat.shape[-1]):
        if group is None:
            part = src * (flat[:, j, i, None, None] * step.up_root[j][:, None])
        else:
            part = flat[:, j, i].reshape(-1, 1, group) @ src.reshape(len(target), group, -1)
            part = part.reshape(len(target), src.shape[1], b - a) * step.up_root[j][:, None]
        target[:, step.up[j]] += part


class _StreamedSum:
    """S_n = sum_s Sym^n(g_s) of one r-tuple, held as the r copies of Sym^(n-1) it is built from, plus I if ``identity``.

    ``summed_powers`` hands one back at the top degree of a single tuple
    where those copies take fewer entries than S_n, r P_(n-1)^2 < P_n^2.
    S_n is never formed whole: ``slabs`` yields its column slabs, the last
    step of the recurrence (``_scatter``), and ``@`` applies it to a vector or
    a block (P_n, k) of columns through the copies.  Column a of Sym^n(g) is
    (g_i . x) / sqrt(a_i) times column ``parent[a]`` of Sym^(n-1)(g), so per
    lead block i one product of each Sym^(n-1)(g_s) with the block's rows
    of the operand, weighted by g_s[j, i] and summed over s and i, leaves d
    runs of degree n - 1 rows, and d weighted row scatters (one per shift
    x_j) give S_n x.  The identity term adds to each slab its diagonal
    entries and to S_n x the operand itself.
    """

    def __init__(self, mats: np.ndarray, stack: np.ndarray, n: int, identity: bool):
        self.mats, self.stack, self.n, self.identity = mats, stack, n, identity
        size = len(_exponents(mats.shape[-1], n))
        self.shape = (size, size)

    def slabs(self):
        """(a, b, S_n[:, a:b]) for runs of columns whose parents, for every rotation, fit in BLOCK_BYTES."""
        step = _step(self.mats.shape[-1], self.n)
        for run in _runs(step, self.stack.shape[0] * self.stack.shape[-1]):
            slab = np.zeros((1, self.shape[0], run[2] - run[1]))
            _scatter(self.mats, self.stack, step, run, len(self.mats), slab)
            if self.identity:
                cols = np.arange(run[2] - run[1])
                slab[0, run[1] + cols, cols] += 1.0
            yield run[1], run[2], slab[0]

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        d, x = self.mats.shape[-1], np.asarray(x, dtype=float)
        step = _step(d, self.n)
        block = x.reshape(len(x), -1)
        runs = np.zeros((d, self.stack.shape[-1], block.shape[1]))
        for i, (lo, hi, tail) in enumerate(step.blocks):
            parts = self.stack[:, :, tail:tail + hi - lo] @ (block[lo:hi] / step.root_lead[lo:hi, None])
            runs += np.tensordot(self.mats[:, :, i], parts, axes=(0, 0))
        out = np.zeros(block.shape)
        for j in range(d):
            out[step.up[j]] += runs[j] * step.up_root[j][:, None]
        if self.identity:
            out += block
        return out.reshape(x.shape)


def _lie_action(ys: np.ndarray, w: np.ndarray, n: int) -> np.ndarray:
    """dSym^n(Y) w = d/dt Sym^n(e^(tY)) w at t = 0 for a stack ``ys`` (..., d, d) and one w (P_n,): shape (..., P_n).

    p(x) -> p(e^(tY)^T x) differentiates to sum_(k,l) Y_kl x_k d_l, and in the orthonormal monomial basis
    d_l is the adjoint of multiplication by x_l: one gather through ``_step``'s ``up`` and ``up_root``
    gives the d_l w, a product with Y mixes them, and d weighted scatters multiply by the x_k.
    """
    step = _step(ys.shape[-1], n)
    moved = ys @ (step.up_root * w[step.up])  # (..., d, P_(n-1)): row k is sum_l Y_kl d_l w
    out = np.zeros(ys.shape[:-2] + w.shape)
    for k, (rows, roots) in enumerate(zip(step.up, step.up_root)):
        out[..., rows] += moved[..., k, :] * roots
    return out


def summed_powers(mats, n_max: int, identity: bool = False):
    """Yield (n, sum_s Sym^n(g_s)) for n = 1 .. n_max in one pass of the recurrence, plus I in every sum if ``identity``.

    ``mats`` is a stack (..., r, d, d) of rotation tuples; each sum has shape
    (..., P_n, P_n) in the orthonormal monomial basis.
    Sym^n(g) is built from Sym^(n-1)(g) by one multiplication by a linear
    form per column: degree n costs d maps of P_n x P_(n-1) per rotation and
    no Gegenbauer evaluation.  While the d maps of every rotation fit in
    BLOCK_BYTES, one product with ``_moves`` gives them all and one stacked
    product per lead block applies them.  Otherwise the columns go in
    slabs (``_runs``, ``_scatter``), and the last degree, which keeps only
    the sums, adds a tuple's r rotations before scattering.  There, for a
    single tuple (``mats`` of shape (r, d, d)) whose r copies of
    Sym^(n_max - 1) take fewer entries than S_(n_max),
    r P_(n-1)^2 < P_n^2, the top degree is not summed at all: it is a
    ``_StreamedSum`` of those copies, which ``FischerFrame.operator`` takes
    slab by slab and which applies S_n to vectors through them.  Larger r,
    stacks of tuples and the small steps keep a dense S_n.
    With ``identity`` every sum also holds Sym^n(I) = I, the term of the
    Gram route's h_1 (``divisibility``), added exactly and with no step.
    """
    mats = np.asarray(mats, dtype=float)
    lead_shape, r, d = mats.shape[:-3], mats.shape[-3], mats.shape[-1]
    flat = mats.reshape(-1, d, d)
    sym, count = flat, len(flat)  # Sym^1(g) = g

    def total(sums):
        if identity:
            diagonal = np.arange(sums.shape[-1])
            sums[..., diagonal, diagonal] += 1.0
        return sums

    forms = flat.transpose(0, 2, 1).reshape(-1, d)  # row (k, i): the linear form g_i of rotation k
    yield 1, total(mats.sum(axis=-3))
    for n in range(2, n_max + 1):
        step = _step(d, n)
        size, prev = len(step.lead), sym.shape[-1]
        if count * d * size * size * 8 <= BLOCK_BYTES:
            # lifts[k, i] multiplies degree n - 1 by the linear form (g_i . x)
            lifts = (forms @ _moves(d, n)).reshape(count, d, size, -1)
            below, sym = sym, np.empty((count, size, size))
            for i, (lo, hi, tail) in enumerate(step.blocks):
                np.matmul(lifts[:, i], below[:, :, tail:], out=sym[:, :, lo:hi])
            sym /= step.root_lead
        elif n < n_max:
            out = np.zeros((count, size, size))
            for run in _runs(step, count * prev):
                _scatter(flat, sym, step, run, None, out[:, :, run[1]:run[2]])
            sym = out
        elif not lead_shape and r * prev * prev < size * size:
            yield n, _StreamedSum(flat, sym, n, identity)
            return
        else:
            out = np.zeros((count // r, size, size))
            for run in _runs(step, count * prev):
                _scatter(flat, sym, step, run, r, out[:, :, run[1]:run[2]])
            sym = out  # the stack goes before the operator is built
            yield n, total(out.reshape(lead_shape + (size, size)))
            return
        # no name may keep this degree's stack alive while the next one is
        # built: at the last degree it would hold r P_(n-1)^2 through the
        # frame, the operator and the spectral step
        if r == 1 and not identity:
            yield n, sym.reshape(lead_shape + (size, size))
        else:  # a copy: the identity must not reach the Sym^n the next degree is built from
            yield n, total(sym.reshape(lead_shape + (r, size, size)).sum(axis=-3))
