"""The four workloads: how each run's inputs are made, called and checked.

A run makes a fixed list of calls.  Its length is the run length divided by
the workload's nominal seconds per call (measured with one BLAS thread on the
2-core reference machine), so every run of a given length makes the same
number of calls.  Call k draws its tuples from a generator seeded by
(workload tag, seed, k).  Where the work a call does depends on the ``rng=``
seed that drives the program's own basis draws (decide_d8 and certify_d8: 6
to 9 pole-set attempts per call), that seed is the fixed value
``FIXED_RNG + k``, so every run does the same basis work on its fresh tuples.

Only these spherediv names are used, and always through the package
namespace so that a traced run sees the entry-point calls: divisibility_test,
GenericityStudy, run_genericity, SearchSettings, search_divisible,
RotationTuple, Rotation, haar_sample and planar_rotation.
"""

from __future__ import annotations

import math

import numpy as np

import checks
import spherediv

FIXED_RNG = 7000
# call index of the warm-up inputs, outside any run's list of calls
WARM_UP = 999_999


def call_generator(tag: int, seed: int, k: int, *extra: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([tag, seed, k, *extra]))


class Workload:
    name = ""
    tag = 0
    nominal_s = 1.0

    def calls(self, seed: int, seconds: float) -> list:
        count = max(1, round(seconds / self.nominal_s))
        return [self.make_call(seed, k) for k in range(count)]

    def make_call(self, seed: int, k: int) -> dict:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def run(self, call: dict):
        raise NotImplementedError

    def check(self, call: dict, out) -> list:
        raise NotImplementedError


class DecideD8(Workload):
    """divisibility_test on a Haar triple in SO(8), n_max=6 (N_6 = 1386)."""

    name = "decide_d8"
    tag = 1
    nominal_s = 4.45
    d, r, n_max = 8, 3, 6

    def triple(self, gen):
        return spherediv.RotationTuple(tuple(spherediv.haar_sample(self.d, gen) for _ in range(self.r)))

    def make_call(self, seed, k):
        return {"k": k, "tuple": self.triple(call_generator(self.tag, seed, k)), "rng": FIXED_RNG + k}

    def warm_up(self):
        spherediv.divisibility_test(self.triple(call_generator(self.tag, 0, WARM_UP)), 2, rng=0)

    def run(self, call):
        return spherediv.divisibility_test(call["tuple"], self.n_max, rng=call["rng"])

    def check(self, call, out):
        return checks.check_decide([g.matrix for g in call["tuple"]], out, self.n_max)


class CertifyD8(Workload):
    """divisibility_test on {I, R}, R a half-turn in one plane, conjugated by Haar; d=8, n_max=5."""

    name = "certify_d8"
    tag = 2
    nominal_s = 3.35
    d, n_max = 8, 5

    def __init__(self):
        self.half_turn = spherediv.planar_rotation(self.d, 1, 2, math.pi).matrix
        self.expected = checks.half_turn_singular_degrees(self.n_max)

    def pair(self, gen):
        h = spherediv.haar_sample(self.d, gen).matrix
        return spherediv.RotationTuple(
            (spherediv.Rotation(np.eye(self.d)), spherediv.Rotation(h @ self.half_turn @ h.T))
        )

    def make_call(self, seed, k):
        gen = call_generator(self.tag, seed, k)
        return {"k": k, "seed": seed, "tuple": self.pair(gen), "rng": FIXED_RNG + k}

    def warm_up(self):
        spherediv.divisibility_test(self.pair(call_generator(self.tag, 0, WARM_UP)), 1, rng=0)

    def run(self, call):
        return spherediv.divisibility_test(call["tuple"], self.n_max, rng=call["rng"])

    def check(self, call, out):
        gen = call_generator(self.tag, call["seed"], call["k"], 1)
        mats = [g.matrix for g in call["tuple"]]
        return checks.check_certify(mats, out, self.n_max, self.expected, gen)


class GenericityD3(Workload):
    """Acceptance criterion 8's study: d=3, r=3, ell=1, n_max=5, 1000 trials, Haar suffix."""

    name = "genericity_d3"
    tag = 3
    nominal_s = 1.75
    d, r, ell, n_max, trials = 3, 3, 1, 5, 1000

    def study(self, gen, trials):
        suffix = tuple(spherediv.haar_sample(self.d, gen) for _ in range(self.r - self.ell))
        return spherediv.GenericityStudy(
            d=self.d, r=self.r, suffix=suffix, trials=trials, n_max=self.n_max,
            seed=int(gen.integers(0, 2**63)), ell=self.ell,
        )

    def make_call(self, seed, k):
        return {"k": k, "study": self.study(call_generator(self.tag, seed, k), self.trials)}

    def warm_up(self):
        spherediv.run_genericity(self.study(call_generator(self.tag, 0, WARM_UP), 20))

    def run(self, call):
        return spherediv.run_genericity(call["study"])

    def check(self, call, out):
        return checks.check_genericity(out, self.trials, self.n_max)


class SearchD3(Workload):
    """search_divisible(3, 3, 2) with default SearchSettings and a fresh seed per call."""

    name = "search_d3"
    tag = 4
    nominal_s = 0.27
    d, r, n = 3, 3, 2

    def make_call(self, seed, k):
        gen = call_generator(self.tag, seed, k)
        return {"k": k, "seed": seed, "rng": int(gen.integers(0, 2**63))}

    def warm_up(self):
        settings = spherediv.SearchSettings(restarts=1, max_iter=40)
        spherediv.search_divisible(self.d, self.r, self.n, settings, rng=0)

    def run(self, call):
        return spherediv.search_divisible(self.d, self.r, self.n, spherediv.SearchSettings(), rng=call["rng"])

    def check(self, call, out):
        return checks.check_search(out, call_generator(self.tag, call["seed"], call["k"], 1))


WORKLOADS = {wl.name: wl for wl in (DecideD8, CertifyD8, GenericityD3, SearchD3)}
