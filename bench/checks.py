"""Output checks computed apart from spherediv.

Every check takes a program output plus the inputs that produced it and
returns a list of problems (empty when the output is correct).  Nothing here
imports spherediv: the reference values come from closed forms (harmonic
dimensions), from the low-degree pictures of the harmonic spaces (degree 1:
linear forms, degree 2: traceless symmetric matrices), from exact polynomial
algebra, or from evaluating the program's divisor at points the benchmark
draws itself.  Outputs are read through their report fields only.
"""

from __future__ import annotations

import math

import numpy as np

RATIO_RTOL = 1e-8
SUM_TOL = 1e-8
RESIDUAL_TOL = 1e-8
SO_TOL = 1e-9


def dim_harmonic(d: int, n: int) -> int:
    """N_n = C(d+n-1, n) - C(d+n-3, n-2), the second term 0 for n < 2."""
    return math.comb(d + n - 1, n) - (math.comb(d + n - 3, n - 2) if n >= 2 else 0)


def sphere_points(d: int, size: int, gen: np.random.Generator) -> np.ndarray:
    pts = gen.standard_normal((size, d))
    return pts / np.linalg.norm(pts, axis=1)[:, None]


def traceless_symmetric_basis(d: int) -> np.ndarray:
    """Frobenius-orthonormal basis of the traceless symmetric d x d matrices.

    These are the degree-2 harmonics x -> x^T A x; on them the L^2 inner
    product is a fixed multiple of the Frobenius one.  Shape (d(d+1)/2 - 1, d, d).
    """
    basis = []
    for i in range(d):
        for j in range(i + 1, d):
            m = np.zeros((d, d))
            m[i, j] = m[j, i] = 1.0 / math.sqrt(2.0)
            basis.append(m)
    for k in range(1, d):
        # Helmert rows: orthonormal in the trace-zero part of the diagonal
        diag = np.zeros(d)
        diag[:k] = 1.0
        diag[k] = -float(k)
        basis.append(np.diag(diag / math.sqrt(k * (k + 1))))
    return np.array(basis)


def degree2_operator(mats) -> np.ndarray:
    """Matrix of A -> sum_s g_s A g_s^T in the Frobenius-orthonormal basis."""
    basis = traceless_symmetric_basis(mats[0].shape[0])
    images = sum(np.einsum("ij,bjk,lk->bil", g, basis, g) for g in mats)
    return np.einsum("aij,bij->ab", basis, images)


def sigma_ratio(matrix: np.ndarray) -> float:
    svals = np.linalg.svd(matrix, compute_uv=False)
    return float(svals[-1] / svals[0])


def reference_ratios(mats) -> dict:
    """sigma_min / sigma_max of the summed-translate operator at degrees 1 and 2.

    Degree-1 harmonics are the linear forms x -> w . x, on which the operator
    acts as w -> (sum_s g_s) w.
    """
    return {1: sigma_ratio(sum(mats)), 2: sigma_ratio(degree2_operator(mats))}


def _relative_gap(value: float, reference: float) -> float:
    return abs(value - reference) / abs(reference)


def check_decide(mats, report, n_max: int) -> list:
    """A Haar-generic tuple: every degree invertible, dimensions and ratios exact."""
    problems = []
    d = mats[0].shape[0]
    if [rec.n for rec in report.degrees] != list(range(1, n_max + 1)):
        return [f"degrees {[rec.n for rec in report.degrees]}, expected 1..{n_max}"]
    refs = reference_ratios(mats)
    for rec in report.degrees:
        if rec.verdict != "invertible":
            problems.append(f"degree {rec.n} verdict {rec.verdict!r}, expected 'invertible'")
        if rec.dim != dim_harmonic(d, rec.n):
            problems.append(f"degree {rec.n} N_n={rec.dim}, expected {dim_harmonic(d, rec.n)}")
        if rec.n in refs:
            gap = _relative_gap(rec.sigma_min_rel, refs[rec.n])
            if not gap <= RATIO_RTOL:
                problems.append(
                    f"degree {rec.n} sigma_min_rel {rec.sigma_min_rel!r} vs reference "
                    f"{refs[rec.n]!r} (relative gap {gap:.2e} > {RATIO_RTOL:.0e})"
                )
    if report.divisor is not None:
        problems.append("a generic tuple came back with a divisor")
    return problems


def _poly_mul_linear(poly: dict, c1: complex, c3: complex) -> dict:
    out: dict = {}
    for (a, b), coeff in poly.items():
        out[(a + 1, b)] = out.get((a + 1, b), 0) + coeff * c1
        out[(a, b + 1)] = out.get((a, b + 1), 0) + coeff * c3
    return out


def _laplacian(poly: dict) -> dict:
    out: dict = {}
    for (a, b), coeff in poly.items():
        if a >= 2:
            out[(a - 2, b)] = out.get((a - 2, b), 0) + coeff * a * (a - 1)
        if b >= 2:
            out[(a, b - 2)] = out.get((a, b - 2), 0) + coeff * b * (b - 1)
    return out


def half_turn_singular_degrees(n_max: int) -> list:
    """Degrees at which {I, R} is singular, R = diag(-1, -1, 1, ...), by exact algebra.

    For each n, Re and Im of (x_1 + i x_3)^n are polynomials in x_1, x_3 with
    integer coefficients.  A part that is nonzero, harmonic (its Laplacian
    vanishes term by term) and odd in x_1 (so R negates it) lies in the
    kernel of g -> g + g o R, which makes degree n singular.
    """
    singular = []
    poly = {(0, 0): 1}
    for n in range(1, n_max + 1):
        poly = _poly_mul_linear(poly, 1, 1j)
        for part in (
            {k: int(round(c.real)) for k, c in poly.items()},
            {k: int(round(c.imag)) for k, c in poly.items()},
        ):
            part = {k: c for k, c in part.items() if c}
            harmonic = not any(_laplacian(part).values())
            negated = all(a % 2 == 1 for a, _ in part)
            if part and harmonic and negated:
                singular.append(n)
                break
    return singular


def check_divisor(mats, divisor, gen: np.random.Generator, samples: int = 4000) -> list:
    """Translates sum to 1 on fresh points; the divisor is nonconstant and in (0, 1)."""
    pts = sphere_points(mats[0].shape[0], samples, gen)
    total = sum(np.asarray(divisor(pts @ g), dtype=float) for g in mats)
    values = np.asarray(divisor(pts), dtype=float)
    problems = []
    worst = float(np.max(np.abs(total - 1.0)))
    if not worst <= SUM_TOL:
        problems.append(f"divisor translates miss 1 by {worst:.3e} > {SUM_TOL:.0e}")
    if not (values.min() > 0.0 and values.max() < 1.0):
        problems.append(f"divisor range [{values.min():.3e}, {values.max():.3e}] not inside (0, 1)")
    if not values.max() - values.min() > 1e-6:
        problems.append("divisor is constant on the sample")
    return problems


def check_certify(mats, report, n_max: int, expected: list, gen: np.random.Generator) -> list:
    """A conjugated half-turn pair: every degree singular and certified."""
    found = [rec.n for rec in report.degrees if rec.verdict == "singular"]
    problems = []
    if found != expected:
        problems.append(f"singular degrees {found}, expected {expected}")
    ver = report.verification
    if ver is None or report.divisor is None:
        return problems + ["no certified divisor in the report"]
    if not ver.passed or not ver.max_residual <= RESIDUAL_TOL:
        problems.append(f"verification passed={ver.passed} max_residual={ver.max_residual:.3e}")
    return problems + check_divisor(mats, report.divisor, gen)


def check_genericity(result, trials: int, n_max: int) -> list:
    """No trial fails and none is singular; every trial has n_max ratios in (0, 1]."""
    problems = []
    if result.n_failed != 0 or result.n_singular != 0:
        problems.append(f"n_failed={result.n_failed} n_singular={result.n_singular}, expected 0 and 0")
    if len(result.records) != trials:
        problems.append(f"{len(result.records)} trial records, expected {trials}")
    for rec in result.records:
        if rec.failed or rec.singular:
            problems.append(f"trial {rec.trial} failed={rec.failed} singular={rec.singular}")
        if [row[0] for row in rec.degrees] != list(range(1, n_max + 1)):
            problems.append(f"trial {rec.trial} has degree rows {[row[0] for row in rec.degrees]}")
        bad = [row for row in rec.degrees if not 0.0 < row[1] <= 1.0]
        if bad:
            problems.append(f"trial {rec.trial} ratios outside (0, 1]: {bad}")
    return problems[:10]


def degree2_divisor(mats):
    """f(x) = 1/r + c x^T A0 x, with A0 spanning the kernel of A -> sum_s g_s A g_s^T."""
    r = len(mats)
    _, _, vt = np.linalg.svd(degree2_operator(mats))
    a0 = np.einsum("b,bij->ij", vt[-1], traceless_symmetric_basis(mats[0].shape[0]))
    scale = 0.5 / (r * np.linalg.norm(a0, 2))

    def divisor(x):
        return 1.0 / r + scale * np.einsum("mi,ij,mj->m", x, a0, x)

    return divisor


def check_search(run, gen: np.random.Generator) -> list:
    """A certified degree-2 search result: SO(3) matrices and an independent divisor."""
    problems = []
    if not run.certified:
        problems.append(f"search not certified (best objective {run.best_ratio:.3e})")
    mats = [np.asarray(g.matrix, dtype=float) for g in run.best_tuple]
    for s, g in enumerate(mats):
        ortho = float(np.max(np.abs(g.T @ g - np.eye(g.shape[0]))))
        det = float(np.linalg.det(g))
        if not (ortho <= SO_TOL and abs(det - 1.0) <= SO_TOL):
            problems.append(f"rotation {s} off SO(d): |g^T g - I| = {ortho:.3e}, det = {det!r}")
    return problems + check_divisor(mats, degree2_divisor(mats), gen)
