#!/usr/bin/env python3
"""Gauss-Newton search for divisible tuples, including an open-case candidate.

The search drives the degree-n operator toward singularity over rotation
tuples.  Left and right translations change no singular value, so each
restart keeps the first rotation of its base tuple and moves the others in
Cayley charts around theirs.  In that chart it takes Gauss-Newton steps on
the kernel equation M(x) v = 0, |v| = 1, which is smooth where sigma_min is
not, so it converges quadratically near a singular tuple.  It then
re-verifies any optimizer minimum through the witness/divisor residual
pipeline.  Certificates, never raw minima.  In the circle warm-up the first
angle therefore stays at its base value, 0.3.

The second part reproduces a find from this package's own genericity runs: a
Haar-random d=3, r=3 tuple that happened to pass within ~2e-7 of the degree-3
singular variety.  Descending from that neighborhood produces a tuple whose
degree-3 operator is singular to machine precision (two Gauss-Newton
iterations from the Haar draw), i.e. a numerically
certified fractionally-3-dividing tuple of the 2-sphere.  (A candidate: the
certificate bounds the divisor's residual by 1e-8 over the whole sphere from
the Fischer frame, with explicit round-off; it is not a symbolic proof.)
"""

import math

import numpy as np

from spherediv import (
    RotationTuple,
    SearchSettings,
    divisibility_test,
    haar_sample,
    planar_rotation,
    search_divisible,
)
from spherediv.sampling import derive_rng

# --- warm-up: recover the opposite pair on the circle -----------------------
base = RotationTuple((planar_rotation(2, 1, 2, 0.3), planar_rotation(2, 1, 2, math.pi - 0.25)))
settings = SearchSettings(restarts=2, max_iter=400, base_tuple=base)
run = search_divisible(2, 2, 1, settings, rng=9)
print("circle pair search: objective", f"{run.best_ratio:.2e}",
      "certified:", run.certified, "residual:", run.residual_max)
angles = [math.atan2(g.matrix[1, 0], g.matrix[0, 0]) for g in run.best_tuple]
print("  found angles:", [round(a, 6) for a in angles],
      " difference mod 2pi:", round((angles[0] - angles[1]) % (2 * math.pi), 6), "(pi)")

# --- an open-case candidate: d=3, r=3 ---------------------------------------
suffix_rng = np.random.default_rng(859)
suffix = (haar_sample(3, suffix_rng), haar_sample(3, suffix_rng))
free = haar_sample(3, derive_rng(863, 1, 556))  # the near-miss trial's draw
near = RotationTuple((free,) + suffix)

# a search stops once its objective is below target_ratio; machine precision needs a smaller one
settings = SearchSettings(restarts=1, max_iter=20, target_ratio=1e-15, base_tuple=near)
run = search_divisible(3, 3, 3, settings, rng=12)
print("\nd=3, r=3 search at degree 3:")
print("  best objective:", f"{run.best_ratio:.2e}", " certified:", run.certified,
      " operator assemblies:", len(run.trace))

report = divisibility_test(run.best_tuple, 4, rng=77)
print("  independent re-test:", report.overall, "singular degrees", report.singular_degrees())
print("  divisor residual bound over the sphere:", report.verification.max_residual)
moved = max(float(np.max(np.abs(a.matrix - b.matrix))) for a, b in zip(run.best_tuple, near))
print("  distance moved from the Haar draw (max entry):", f"{moved:.2e}")
