#!/usr/bin/env python3
"""Haar-random genericity: divisible tuples form null sections.

Freeze a suffix of rotations and draw the free ones from Haar measure.  With
a generic suffix no trial is ever certified singular; with the odd-d diagonal
suffix every single trial is (the designed exception: that section is the
whole group).
"""

from spherediv import GenericityStudy, haar_sample, odd_d4_suffix, run_genericity
from spherediv.experiments import trial_csv_text

# generic suffix: two Haar rotations, one free
suffix = (haar_sample(3, 1), haar_sample(3, 2))
study = GenericityStudy(d=3, r=3, suffix=suffix, trials=200, n_max=4, seed=3, ell=1)
result = run_genericity(study)
qmin, q25, q50, q75, qmax = result.ratio_quartiles
print("generic suffix, d=3, r=3, 200 trials, degrees 1..4")
print(f"  certified singular: {result.n_singular}, failed: {result.n_failed}")
print(f"  per-trial min singular-value ratio: min {qmin:.3e}, "
      f"quartiles {q25:.3e} / {q50:.3e} / {q75:.3e}, max {qmax:.3e}")

# adversarial suffix: the odd-d diagonal family
study = GenericityStudy(d=3, r=4, suffix=odd_d4_suffix(3), trials=50, n_max=1, seed=5, ell=1)
result = run_genericity(study)
print("\ndiagonal suffix, d=3, r=4, 50 trials, degree 1")
print(f"  certified singular: {result.n_singular} of {study.trials} "
      "(every free rotation extends to a divisible tuple)")

print("\nfirst CSV rows of the trial log:")
for line in trial_csv_text(result).splitlines()[:4]:
    print("  " + line)
