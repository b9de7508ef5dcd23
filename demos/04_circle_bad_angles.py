#!/usr/bin/env python3
"""The circle is fully analytic: finitely many singular angles per degree.

Fix all rotations of a circle tuple but one.  At degree n each rotation acts
as a complex number, the fixed ones as k = sum_s e^{i n psi_s}, and the
remaining angle phi makes the summed operator singular exactly when
e^{i n phi} = -k: the n angles (arg(-k) + 2 pi j) / n when |k| = 1, and none
otherwise.
The demo prints the analytic bad angles and scans the numeric singular-value
profile across them.
"""

import math

import numpy as np

from spherediv import (
    analyze_circle,
    build_zonal_basis,
    operator_matrix,
    planar_rotation,
    weighted_singular_values,
)

n = 2
fixed = [0.9]
analysis = analyze_circle(n, fixed)
print(f"degree n={n}, fixed angles {fixed}")
print("fixed-sum matrix:\n", np.array2string(analysis.sum_matrix, precision=6))
print("bad angles:", [round(a, 6) for a in analysis.bad_angles])

basis = build_zonal_basis(2, n, rng=5, cond_threshold=1e3)


def smin(phi):
    tup = [planar_rotation(2, 1, 2, float(phi))] + [planar_rotation(2, 1, 2, a) for a in fixed]
    svals = weighted_singular_values(operator_matrix(basis, tup))
    return float(svals[-1])


print("\nprofile of the operator's smallest singular value:")
for phi in np.linspace(0, 2 * math.pi, 25, endpoint=False):
    bar = "#" * max(1, int(25 * smin(phi)))
    print(f"  phi={phi:5.2f}  smin={smin(phi):.3e}  {bar}")
print("\nat the analytic bad angles:")
for phi in analysis.bad_angles:
    print(f"  phi={phi:.12f}  smin={smin(phi):.3e}")

# a cancelling pair of fixed rotations leaves no singular angle at all
empty = analyze_circle(1, [math.pi / 2, 3 * math.pi / 2])
print("\nfixed angles pi/2, 3pi/2 at n=1: bad angles =", list(empty.bad_angles))
