#!/usr/bin/env python3
"""Deciding and certifying fractional divisibility of a rotation tuple.

Two classic divisible tuples: the opposite pair on the circle, and the
odd-dimension four-tuple whose diagonal suffix sums to -I.  In both cases the
per-degree operator test finds a singular degree, extracts a kernel witness
g, and turns it into an explicit divisor f = 1/r + c*g with rotated copies
summing to 1 everywhere.
"""

import math

import numpy as np

from spherediv import (
    RotationTuple,
    divisibility_test,
    fixed_point,
    haar_sample,
    odd_d4_tuple,
    planar_rotation,
    uniform_sphere,
)

# --- the opposite pair on the circle --------------------------------------
pair = RotationTuple((planar_rotation(2, 1, 2, 0.0), planar_rotation(2, 1, 2, math.pi)))
report = divisibility_test(pair, n_max=4, rng=7)
print("opposite pair on S^1:", report.overall)
for rec in report.degrees:
    print(f"  n={rec.n}  N_n={rec.dim}  sigma_min_rel={rec.sigma_min_rel:.2e}  {rec.verdict}")
print("  witness degree:", report.witness.basis.n,
      " divisor residual:", report.verification.max_residual)
# every odd degree is singular: odd-degree zonal functions are odd, so the
# half-turn translate cancels them exactly

# --- the odd-d four-tuple ---------------------------------------------------
gamma1 = haar_sample(3, 42)
tup, witness = odd_d4_tuple(3, gamma1)
print("\nodd-d family, d=3, free rotation from Haar measure")
print("  suffix diagonals:", [[int(c) for c in np.diag(g.matrix)] for g in tup[1:]])
report = divisibility_test(tup, n_max=2, rng=11)
print("  verdicts:", [(rec.n, rec.verdict) for rec in report.degrees])

# the witness is the linear function x -> u . x for the free rotation's axis
pole = report.witness.degree_one_pole()
axis = fixed_point(gamma1)
print("  recovered witness pole vs rotation axis, |cos| =", abs(float(pole @ axis)))

# the divisor stays strictly inside (0, 1) and its copies sum to 1
f = report.divisor
vals = f(uniform_sphere(3, 100_000, 13))
print(f"  divisor range over 1e5 samples: [{vals.min():.4f}, {vals.max():.4f}],"
      f" mean {vals.mean():.4f} (target 1/4)")
print("  whole-sphere bound on |sum of translates - 1|:", report.verification.max_residual)
