"""Certificates rest on the whole-sphere bound alone: these tests sample what the decision path no longer does.

Every fired degree is certified as divisibility_test certifies it, through its route's
``degree(n)``: ``divisibility._certify`` for a witness in a Fischer frame, the closed form of
``circle.Witness.numbers`` on the circle route; its divisor's sampled residual must stay under the
bound, and its exact variance, read from the witness's frame, must match a sampled one.
"""

import math

import numpy as np
import pytest

from spherediv import (
    dim_harmonic,
    divisibility_test,
    haar_sample,
    odd_d4_tuple,
    planar_division,
    sampling,
    search_divisible,
    verify_divisor,
)
from spherediv import Rotation, RotationTuple, SearchSettings, circle, divisibility, experiments, planar_rotation
from circle_parity import cases, conjugated, planted
from verdict_panel import _conjugated_half_turn_pair, _d3_family, _two_half_turn_pairs


CASES = {
    "circle planar d=8 r=3": (lambda: planar_division(8, 3).rotations, 6),
    "pair half-turn d=3": (lambda: _conjugated_half_turn_pair(3, 5, False), 5),
    "circle half-turn d=6": (lambda: _conjugated_half_turn_pair(6, 7, False), 4),
    "gram two half-turn pairs d=8": (_two_half_turn_pairs, 3),
    "gram odd-d four-tuple d=5": (lambda: odd_d4_tuple(5, haar_sample(5, 305))[0], 3),
}
# the cases whose witnesses live in a Fischer frame
FISCHER = ("pair half-turn d=3", "gram two half-turn pairs d=8", "gram odd-d four-tuple d=5")


def certificates(tup, n_max):
    """(n, witness, divisor, certificate) of every fired degree, each certified as divisibility_test certifies it."""
    mats = np.array([g.matrix for g in tup])
    plane = circle.detect(mats)
    kind = divisibility._CircleRoute if plane is not None else divisibility._PairRoute if tup.r == 2 else divisibility._GramRoute
    route = kind(mats, plane, n_max, divisibility.DEFAULT_SING_TOL)
    out = []
    for n in range(1, n_max + 1):
        certificate = route.degree(n)[3]
        if certificate is not None:  # (residual bound, passed, make): make() builds from those numbers
            out.append((n, *certificate[2]()))
    return out


def _planar_pair(m):
    """The planar pair (1.2, 1.2 + pi / m) in SO(2): lambda_n = 0 at the odd multiples of m alone."""
    return RotationTuple((planar_rotation(2, 1, 2, 1.2), planar_rotation(2, 1, 2, 1.2 + math.pi / m)))


# 20 of the parity tuples at sing_tol 0.3, up to degree 24, and 10 tuples whose fired degrees lie on
# both sides of circle._DIRECT_MAX_DEGREE (2048), above which the witness is evaluated through logarithms
CIRCLE_BOUNDS = [(name, lambda b=build: (b()[0], min(b()[1], 24)), 0.3) for name, build in cases()[::2]] + [
    (f"planar pair m={m}", lambda m=m: (_planar_pair(m), m), 1e-10) for m in (2047, 2049, 2051)
] + [
    (f"pair d={d} pi/{m}", lambda d=d, m=m: (conjugated(d, [0.0, math.pi / m], 970 + d), m + 7), 1e-10)
    for d, m in ((4, 2045), (6, 2045), (8, 2043), (7, 2049))
] + [
    ("rebuilt pair d=4 pi/2047", lambda: (conjugated(4, [0.0, math.pi / 2047], 980, shift=1e-13), 2052), 1e-10),
    ("planted d=5 r=3 j=2047", lambda: (conjugated(5, planted(981, 3, 2047), 982), 2050), 1e-10),
    ("planted d=2 r=3 j=2049", lambda: (conjugated(2, planted(983, 3, 2049), 984), 2049), 1e-10),
]


@pytest.mark.parametrize("name, build, sing_tol", CIRCLE_BOUNDS, ids=[case[0] for case in CIRCLE_BOUNDS])
def test_circle_bound_covers_sampled_residual_at_every_fired_degree(name, build, sing_tol):
    # every fired degree's recorded bound, the array pass's, covers the sampled residual of the
    # divisor its route builds from that degree's j, weight and numbers
    tup, n_max = build()
    mats = np.array([g.matrix for g in tup])
    report = divisibility_test(tup, n_max, sing_tol, rng=1)
    route = divisibility._CircleRoute(mats, circle.detect(mats), n_max, sing_tol)
    fired = [rec for rec in report.degrees if rec.residual_bound is not None]
    assert fired
    for rec in fired:
        _, divisor, ver = route.degree(rec.n)[3][2]()
        assert ver.residual_bound == rec.residual_bound
        assert divisor.scale == divisibility.make_divisor(divisor.witness, tup.r).scale
        sampled = verify_divisor(tup, divisor, 2000, rec.n).max_residual
        assert sampled <= rec.residual_bound, (rec.n, sampled, rec.residual_bound)
    if n_max > circle._DIRECT_MAX_DEGREE:  # the planar pair m = 2047 fires below it, the rest straddle it or lie above
        assert all(abs(rec.n - circle._DIRECT_MAX_DEGREE) <= 8 for rec in fired)


def search_certificates(monkeypatch, seeds, settings=lambda seed: None):
    """(tuple, witness, divisor, certificate) of every search_divisible(3, 3, 2) certificate at ``seeds``, with ``settings(seed)``."""
    made, out = [], []
    original = experiments._certify

    def recorded(witness, bound, r):
        result = original(witness, bound, r)
        made.append(result[2]())
        return result

    monkeypatch.setattr(experiments, "_certify", recorded)
    for seed in seeds:
        run = search_divisible(3, 3, 2, settings(seed), rng=seed)
        assert run.certified and len(made) == 1, seed
        out.append((run.best_tuple, *made.pop()))
    return out


@pytest.mark.parametrize("name", CASES)
def test_bound_covers_sampled_residual_at_every_fired_degree(name):
    build, n_max = CASES[name]
    tup = build()
    made = certificates(tup, n_max)
    assert made
    # the bound holds whatever the coefficients, so it covers a degree that fires and fails too
    for n, _, divisor, ver in made:
        assert ver.max_residual == ver.residual_bound and ver.n_samples == 0, n
        assert verify_divisor(tup, divisor, 20_000, 100 + n).max_residual <= ver.residual_bound, n


def test_bound_covers_sampled_residual_of_search_certificates(monkeypatch):
    made = search_certificates(monkeypatch, range(4))
    assert len(made) == 4
    for tup, _, divisor, ver in made:
        assert ver.passed and ver.n_samples == 0
        assert verify_divisor(tup, divisor, 20_000, 3).max_residual <= ver.residual_bound


def _stretched(mats):
    """The tuple with gamma_1 <- gamma_1 diag(1 + 4e-10, 1, ..., 1): max |g^T g - I| = 8e-10, which Rotation keeps as it is."""
    mats = [np.array(m, dtype=float) for m in mats]
    mats[0][:, 0] *= 1.0 + 4e-10
    rotations = tuple(Rotation(m) for m in mats)
    assert not any(g.repaired for g in rotations)
    return RotationTuple(rotations)


def _conjugated_by(tup, c):
    return [c.matrix @ g.matrix @ c.matrix.T for g in tup]


# Gram-route tuples whose gamma_1 is orthogonal only within Rotation's ORTHO_TOL: the planar tuple in
# SO(4) is pushed off the circle by the stretch
NEAR_ORTHOGONAL = {
    "two half-turn pairs d=8": (lambda: [g.matrix for g in _two_half_turn_pairs()], 4),
    "odd-d four-tuple d=5": (lambda: [g.matrix for g in odd_d4_tuple(5, haar_sample(5, 9))[0]], 1),
    "planar d=3 r=3": (lambda: _conjugated_by(planar_division(3, 3).rotations, haar_sample(3, 11)), 3),
    "planar d=4 r=3": (lambda: _conjugated_by(planar_division(4, 3).rotations, haar_sample(4, 12)), 3),
}


@pytest.mark.parametrize("name", NEAR_ORTHOGONAL)
def test_near_orthogonal_input_certifies_within_its_bound(name):
    # sum_s p(gamma_s^T x) = q(gamma_1^-1 x) for q = sum_s p(H_s^T .), H_s = gamma_1^T gamma_s: the bound
    # carries ||gamma_1^T gamma_1 - I|| into the slack and the radius of gamma_1^-1 x
    build, n_max = NEAR_ORTHOGONAL[name]
    tup = _stretched(build())
    report = divisibility_test(tup, n_max, rng=1)
    assert report.divisible and report.verification.passed
    assert verify_divisor(tup, report.divisor, 20_000, 3).max_residual <= report.verification.residual_bound


def test_near_orthogonal_search_certifies_within_its_bound(monkeypatch):
    def settings(seed):
        return SearchSettings(restarts=1, base_tuple=_stretched([haar_sample(3, 10 * seed + k).matrix for k in range(3)]))

    for tup, _, divisor, ver in search_certificates(monkeypatch, range(4), settings):
        assert verify_divisor(tup, divisor, 20_000, 3).max_residual <= ver.residual_bound


@pytest.mark.parametrize("name", FISCHER)
def test_fischer_variance_matches_samples(name):
    build, n_max = CASES[name]
    tup = build()
    for n, witness, divisor, ver in certificates(tup, n_max):
        assert witness.basis.n == n and hasattr(witness.basis, "exponents")
        sampled = verify_divisor(tup, divisor, 200_000, 200 + n).function_variance
        assert ver.function_variance > 0.0
        assert math.isclose(ver.function_variance, sampled, rel_tol=0.03), (n, ver.function_variance, sampled)


def test_search_variance_matches_samples(monkeypatch):
    for tup, _, divisor, ver in search_certificates(monkeypatch, range(2)):
        sampled = verify_divisor(tup, divisor, 200_000, 5).function_variance
        assert math.isclose(ver.function_variance, sampled, rel_tol=0.03), (ver.function_variance, sampled)


@pytest.mark.parametrize("d", [4, 6, 8])
def test_circle_variance_matches_samples(d):
    # the closed-form certificates of witnesses with both forms, j, k >= 1, at every such weight of degrees 2 .. 5
    tup = planar_division(d, 3).rotations
    mats = np.array([g.matrix for g in tup])
    plane = circle.detect(mats)
    witnesses = circle.Witness(plane, mats)
    moduli = circle.spectrum(plane, d, 5)[3]
    degrees, weights = np.array([(n, j) for n in range(2, 6) for j in range(1, n)]).T
    for n, j, (sup, total, mean) in zip(degrees.tolist(), weights.tolist(), witnesses.numbers(moduli, degrees, weights)):
        witness = divisibility.HarmonicFunction(*witnesses(n, j))
        numbers = divisibility._numbers(sup, sup * total, mean, tup.r, dim_harmonic(d, n))
        _, divisor, ver = divisibility._certificate(witness, tup.r, numbers)
        # the bound of a witness with weight w is |w| total
        assert sup == witness.sup_bound() and ver.residual_bound == divisor.scale * (math.hypot(*witness.coeffs) * total)
        sampled = verify_divisor(tup, divisor, 200_000, 10 * n + j).function_variance
        assert math.isclose(ver.function_variance, sampled, rel_tol=0.03), (n, j, ver.function_variance, sampled)


def test_decision_path_draws_no_sphere_point(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("a sphere point was drawn")

    for module in (divisibility, sampling):
        monkeypatch.setattr(module, "uniform_sphere", refused)
    monkeypatch.setattr(divisibility, "verify_divisor", refused)
    for tup, n_max, singular in [
        (planar_division(8, 3).rotations, 4, [1, 2, 3, 4]),
        (_conjugated_half_turn_pair(3, 5, False), 3, [1, 2, 3]),
        (_two_half_turn_pairs(), 3, [2, 3]),
    ]:
        report = divisibility_test(tup, n_max, rng=1)
        assert report.singular_degrees() == singular
        assert report.verification.passed and report.verification.n_samples == 0
    assert search_divisible(3, 3, 2, rng=0).certified


@pytest.mark.parametrize("build, n_max", [CASES[name] for name in ("circle planar d=8 r=3", "pair half-turn d=3", "gram two half-turn pairs d=8")])
def test_reports_do_not_depend_on_the_seed(build, n_max):
    tup = build()
    first, second = (divisibility_test(tup, n_max, rng=seed).to_json_obj() for seed in (1, 2))
    assert first.pop("seed") == 1 and second.pop("seed") == 2
    assert first == second


KEPT = {
    "circle planar d=8 r=3": CASES["circle planar d=8 r=3"],
    "pair half-turn d=3": CASES["pair half-turn d=3"],
    "pair d=3 family n0=5": (lambda: _d3_family(5), 7),
    "gram two half-turn pairs d=8": CASES["gram two half-turn pairs d=8"],
}


@pytest.mark.parametrize("name", KEPT)
def test_kept_degree_built_from_the_numbers_that_decided_it(monkeypatch, name):
    # every fired degree's numbers are computed once, in degree order, and the kept degree's
    # record, divisor and certificate carry them bit for bit: no route certifies a degree twice
    build, n_max = KEPT[name]
    computed = []
    numbers = divisibility._numbers

    def recorded(*args):
        computed.append(numbers(*args))
        return computed[-1]

    monkeypatch.setattr(divisibility, "_numbers", recorded)
    report = divisibility_test(build(), n_max, rng=1)
    fired = [rec for rec in report.degrees if rec.residual_bound is not None]
    assert len(computed) == len(fired) and report.divisible
    assert [rec.residual_bound for rec in fired] == [residual for _, residual, _, _ in computed]
    kept = next(k for k, rec in enumerate(fired) if rec.verdict == "singular")
    scale, residual, variance, passed = computed[kept]
    ver = report.verification
    assert fired[kept].residual_bound == ver.residual_bound == ver.max_residual == residual
    assert report.divisor.scale == scale and ver.function_variance == variance and ver.passed == passed
    assert report.divisor.witness is report.witness
