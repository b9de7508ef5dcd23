"""Tuples that rotate one plane: the circle route against the pair and Gram routes, its witnesses and certificates."""

import cmath
import json
import logging
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spherediv import (
    GenericityStudy,
    InputDomainError,
    Rotation,
    RotationTuple,
    divisibility_test,
    haar_sample,
    planar_division,
    planar_rotation,
    run_genericity,
    search_divisible,
    uniform_sphere,
    verify_divisor,
)
from spherediv import circle, divisibility

DIMENSIONS = (2, 4, 5, 6, 7, 8)
FAMILIES = ("generic", "sector", "planted")


def conjugated(d, angles, seed, shift=0.0, axes=(3, 4)):
    """(gamma_1, gamma_1 h_2, ...) with h_s = c R_12(theta_s) c^T, gamma_1 and c Haar draws from ``seed``.

    ``shift`` moves every h_s (s >= 2) off the plane by a turn of that angle in the plane
    of ``axes``, conjugated by c like the rest: in (x_3, x_4) each h_s turns two planes, in
    (x_1, x_3) one plane each, but no longer the same one.
    """
    rng = np.random.default_rng(seed)
    first, c = haar_sample(d, rng).matrix, haar_sample(d, rng).matrix
    off = planar_rotation(d, *axes, shift).matrix if shift else np.eye(d)
    turns = [np.eye(d)] + [c @ planar_rotation(d, 1, 2, t).matrix @ off @ c.T for t in angles[1:]]
    return RotationTuple(tuple(Rotation(first @ h) for h in turns))


@st.composite
def plane_tuples(draw):
    """(d, angles, seed, n_max): r = 2..6 angles theta_1 = 0, ..., theta_r of one family."""
    d = draw(st.sampled_from(DIMENSIONS))
    r = draw(st.integers(2, 6))
    n_max = draw(st.integers(1, 5))
    family = draw(st.sampled_from(FAMILIES))
    if family == "generic":
        angles = [0.0] + [draw(st.floats(0.0, 2.0 * math.pi)) for _ in range(r - 1)]
    elif family == "sector":
        angles = [2.0 * math.pi * draw(st.integers(0, r - 1)) / r for _ in range(r)]
        angles[0] = 0.0
    else:  # lambda_j = sum_s e^(i j theta_s) = 0 at a planted j <= n_max
        j = draw(st.integers(1, n_max))
        angles = [0.0] + [draw(st.floats(0.0, 2.0 * math.pi)) for _ in range(r - 3)]
        rest = -sum(cmath.exp(1j * j * t) for t in angles)
        if r == 2:
            angles.append(math.pi / j)
        else:  # two unit vectors summing to rest, which needs |rest| <= 2
            assume(abs(rest) <= 2.0)
            spread = math.acos(abs(rest) / 2.0)
            angles += [(cmath.phase(rest) + spread) / j, (cmath.phase(rest) - spread) / j]
    return d, angles, draw(st.integers(0, 2**32 - 1)), n_max


def matrices(tup):
    return np.array([g.matrix for g in tup])


def routed(tup, n_max, **kwargs):
    """(report, the path of every degree from the "spherediv" debug lines) of divisibility_test."""
    lines = []
    handler = logging.Handler()
    handler.emit = lambda record: record.getMessage().startswith("degree ") and lines.append(record.getMessage().split(", ")[1])
    logger = logging.getLogger("spherediv")
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        return divisibility_test(tup, n_max, rng=5, **kwargs), lines
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def reference(tup, n_max, sing_tol=divisibility.DEFAULT_SING_TOL):
    """The report of today's pair or Gram route, with the circle route's detection turned off."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(circle, "detect", lambda *_: None)
        return divisibility_test(tup, n_max, sing_tol, rng=5)


def sampled_residual(tup, report, n, samples=2000):
    """max |sum_s f(gamma_s^T x) - 1| of degree n's divisor, rebuilt from the circle route, on fresh points."""
    mats = matrices(tup)
    route = divisibility._CircleRoute(mats, circle.detect(mats), n, report.sing_tol)
    bound, _, make = route.degree(n)[3]
    witness, divisor, ver = make()
    # one closed form: the certificate reads the array pass's numbers, and the bound of a witness with
    # weight w is |w| times Witness.numbers' total
    j = route.table[2][n:n + 1]
    total = route.witnesses.numbers(route.table[3], np.array([n]), j)[0][1]
    assert ver.residual_bound == ver.max_residual == bound == divisor.scale * (math.hypot(*witness.coeffs) * total)
    return verify_divisor(tup, divisor, samples, 7 * n).max_residual, bound


@settings(max_examples=60, deadline=None)
@given(case=plane_tuples())
def test_circle_route_matches_todays_routes(case):
    d, angles, seed, n_max = case
    tup = conjugated(d, angles, seed)
    assert circle.detect(matrices(tup)) is not None
    report, paths = routed(tup, n_max)
    assert set(paths) <= {"circle", "circle→witness"}
    old = reference(tup, n_max)
    for new, ref in zip(report.degrees, old.degrees):
        assert (new.n, new.dim, new.verdict) == (ref.n, ref.dim, ref.verdict), (new, ref)
        assert (new.residual_bound is None) == (ref.residual_bound is None), (new, ref)
        if new.residual_bound is not None:  # fired: both ratios below sing_tol, and the certificate passes
            assert new.sigma_min_rel < report.sing_tol and ref.sigma_min_rel < report.sing_tol
            assert new.residual_bound <= 1e-8
            # every fired degree, the kept one included, records the array pass's bound
            sampled, bound = sampled_residual(tup, report, new.n)
            assert sampled <= bound == new.residual_bound
        else:
            assert math.isclose(new.sigma_min_rel, ref.sigma_min_rel, rel_tol=1e-11), (new, ref)
    assert report.singular_degrees() == old.singular_degrees()


@settings(max_examples=30, deadline=None)
@given(case=plane_tuples())
def test_off_the_plane_takes_todays_route(case):
    d, angles, seed, n_max = case
    assume(d >= 4 and any(1e-3 < t % (2.0 * math.pi) < 2.0 * math.pi - 1e-3 for t in angles))
    tup = conjugated(d, angles, seed, shift=1e-8)
    assert circle.detect(matrices(tup)) is None
    _, paths = routed(tup, min(n_max, 3))
    assert len(paths) == min(n_max, 3) and not {"circle", "circle→witness"} & set(paths)


@pytest.mark.parametrize("d", [4, 6, 8])
def test_slips_below_the_threshold_are_bounded(d):
    # moved off the plane by 1e-13, under the detection threshold of 1e3 d u: the route is still
    # taken, and the distance of gamma_s a from z_s gamma_1 a, not lambda_j, dominates the certificate,
    # which must still cover the sampled residual
    tup = conjugated(d, [0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0], 900 + d, shift=1e-13, axes=(1, 3))
    plane = circle.detect(matrices(tup))
    assert plane is not None and circle.Witness(plane, matrices(tup)).slips[:, 0].max() > 1e-14
    report = divisibility_test(tup, 5, rng=5)
    assert report.singular_degrees() == [1, 2, 3, 4, 5]
    for n in range(1, 6):
        sampled, bound = sampled_residual(tup, report, n)
        assert 1e-15 < sampled <= bound <= 1e-8, (n, sampled, bound)


@pytest.mark.parametrize("n0", [7, 12])
def test_large_sing_tol_bound_is_tight(n0):
    # at sing_tol 0.99 the planar pair's degrees fire with |lambda_n| far from 0: the bound is
    # |lambda_n| / (2 r) up to round-off, and on the circle the sampled residual attains it
    tup = RotationTuple((planar_rotation(2, 1, 2, 1.2), planar_rotation(2, 1, 2, 1.2 + math.pi / n0)))
    report = divisibility_test(tup, n0 - 1, sing_tol=0.99, rng=3)
    fired = [rec for rec in report.degrees if rec.residual_bound is not None]
    assert fired and not report.divisible
    for rec in fired:
        sampled, bound = sampled_residual(tup, report, rec.n, samples=20_000)
        assert sampled <= bound <= 1.01 * sampled, (rec.n, sampled, bound)
        assert math.isclose(bound, abs(2.0 * math.cos(rec.n * math.pi / (2 * n0))) / 4.0, rel_tol=1e-9)


def form_product_value(obj, x):
    """g(x) from a form-product-v1 witness's JSON alone: Re(conj(w) prod_i (scales[i] forms[i] . x)^powers[i])."""
    value = complex(obj["weight"]["re"], -obj["weight"]["im"])
    for form, scale, power in zip(obj["forms"], obj["scales"], obj["powers"]):
        vector = np.array(form["re"]) + 1j * np.array(form["im"])
        value = value * (scale * (x @ vector)) ** power
    return value.real


@pytest.mark.parametrize("d, r, n", [(2, 3, 4), (4, 2, 3), (6, 3, 5), (8, 2, 5), (7, 4, 6)])
def test_witness_json_and_peak(d, r, n):
    # the JSON alone evaluates the witness; its weight is not real off d = 2; its maximum 1 sits where the
    # docstring puts it; and its divisor lies in (0, 1), non-constant, with translates summing to 1
    angles = [2.0 * math.pi * m / r for m in range(r)]
    tup = conjugated(d, angles, 40 + d)
    report = divisibility_test(tup, n, rng=11)
    assert report.singular_degrees() == [m for m in range(1, n + 1) if d > 2 or m % r]
    obj = json.loads(json.dumps(report.witness.to_json_obj()))
    assert obj["format"] == "form-product-v1" and obj["d"] == d
    pts = uniform_sphere(d, 500, 13)
    values = report.witness(pts)
    assert np.allclose(values, [form_product_value(obj, x) for x in pts], rtol=0.0, atol=1e-13)
    basis = report.witness.basis
    assert report.witness.sup_bound() == math.hypot(*report.witness.coeffs) == pytest.approx(1.0, abs=1e-15)
    a, b = basis.forms
    j, k = basis.powers
    axis = int(np.argmax(np.abs(a)))
    if d > 2:
        assert abs(obj["weight"]["im"]) > 1e-3
    # the unit projection of that axis on the plane, and Re(b) sqrt(2), a unit vector of F
    toward = math.sqrt(2.0) * np.real(a * a[axis].conjugate()) / abs(a[axis])
    peak = math.sqrt(j / (j + k)) * toward + math.sqrt(k / (j + k)) * math.sqrt(2.0) * b.real
    assert math.isclose(np.linalg.norm(peak), 1.0, rel_tol=1e-12)
    assert math.isclose(report.witness(peak), 1.0, rel_tol=1e-12)
    assert np.all(report.witness(pts) <= 1.0 + 1e-12)
    divisor = report.divisor(pts)
    assert np.all((0.0 < divisor) & (divisor < 1.0)) and np.ptp(divisor) > 1e-6
    total = sum(report.divisor(pts @ g.matrix) for g in tup)
    assert np.max(np.abs(total - 1.0)) <= 1e-12


def test_open_defect_repro_no_longer_divisible():
    # the planar pair (1.2, 1.2 + pi / 50) in SO(2): sigma = 2 |cos(n pi / 100)| is zero first at n = 50,
    # but at sing_tol 0.3 degrees 47-49 fired on a dead operator and certified a divisor of variance
    # 6.3e-30, scaled by sum |c|; the circle witness's exact sup scales its divisor to 1/r +- 1/(2r)
    pair = RotationTuple((planar_rotation(2, 1, 2, 1.2), planar_rotation(2, 1, 2, 1.2 + math.pi / 50)))
    report = divisibility_test(pair, 49, sing_tol=0.3, rng=1)
    assert not report.divisible
    assert [rec.verdict for rec in report.degrees[46:]] == ["borderline"] * 3
    assert all(rec.residual_bound > 1e-8 for rec in report.degrees[46:])
    report = divisibility_test(pair, 50, sing_tol=0.3, rng=1)
    assert report.singular_degrees() == [50]
    assert report.verification.passed and report.verification.function_variance >= 1e-6 / pair.r**2


@pytest.mark.parametrize("r", [3, 4, 5, 6])
def test_planar_division_certified_to_degree_sixty(r):
    report = divisibility_test(planar_division(8, r).rotations, 60, rng=r)
    assert report.singular_degrees() == list(range(1, 61))
    assert all(rec.residual_bound <= 1e-8 for rec in report.degrees)
    assert report.verification.passed


def test_circle_runs_priced_on_their_route():
    # a circle tuple runs past the d = 2 cap and past the Fischer budget of d = 8, and the budget
    # of its own route refuses an n_max whose records would not fit, before anything is built
    pair = RotationTuple((Rotation(np.eye(2)), Rotation(-np.eye(2))))
    assert divisibility_test(pair, 200, rng=1).singular_degrees() == list(range(1, 201, 2))
    tup = planar_division(8, 3).rotations
    assert divisibility_test(tup, 12, rng=1).singular_degrees() == list(range(1, 13))
    for big in (10**7, 10**12):
        with pytest.raises(InputDomainError, match="budget"):
            divisibility_test(tup, big, rng=1)
    # off the circle the Fischer frame's estimate still refuses d = 8 at degree 8, and sums
    # no cache over 10^12 degrees to do so
    with pytest.raises(InputDomainError, match="budget"):
        divisibility_test(RotationTuple(tuple(haar_sample(8, 61 + k) for k in range(2))), 10**12, rng=1)


def test_haar_triple_pays_one_small_svd(monkeypatch):
    shapes = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    assert circle.detect(matrices(RotationTuple(tuple(haar_sample(8, 70 + k) for k in range(3))))) is None
    assert shapes == [(16, 8)]
    shapes.clear()
    # d = 3 never takes the route, and pays nothing for it
    assert circle.detect(matrices(planar_division(3, 3).rotations)) is None
    assert shapes == []


def test_studies_and_searches_never_reach_the_route(monkeypatch):
    def refused(mats):
        raise AssertionError("a batched study trial or a search reached circle.detect")

    monkeypatch.setattr(circle, "detect", refused)
    study = GenericityStudy(d=4, r=3, suffix=tuple(haar_sample(4, 80 + k) for k in range(2)), trials=20, n_max=3, seed=81)
    assert run_genericity(study).n_singular == 0
    from spherediv import SearchSettings

    search_divisible(3, 3, 2, SearchSettings(restarts=1, max_iter=4), rng=82)


def test_two_planes_turned_alike_are_no_circle():
    # h turns (x_1, x_2) and (x_3, x_4) by exactly pi / 2, so the SVD's plane can mix the two and
    # h a is then orthogonal to a: detection refuses the tuple without dividing by that zero
    h = np.eye(8)
    h[:4, :4] = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert circle.detect(np.array([np.eye(8), h])) is None
        report = divisibility_test(RotationTuple((Rotation(np.eye(8)), Rotation(h))), 3, rng=1)
    # the pair route: e^(i pi (k_1 + k_2) / 2) = -1 first at the weight (1, 1) of degree 2
    assert report.singular_degrees() == [2, 3]


def test_witness_above_the_direct_degree_evaluates_through_logarithms(monkeypatch):
    # the planar pair (1.2, 1.2 + pi / 2500) is singular first at n = 2500, whose witness (a . x)^2500
    # is evaluated from logarithms; they agree with the complex powers wherever both are finite
    pair = RotationTuple((planar_rotation(2, 1, 2, 1.2), planar_rotation(2, 1, 2, 1.2 + math.pi / 2500)))
    report = divisibility_test(pair, 2500, rng=1)
    assert report.singular_degrees() == [2500] and report.verification.passed
    assert verify_divisor(pair, report.divisor, 10_000, 1).passed
    # its variance, taken in logarithms too, is finite: scale^2 |w|^2 / 2 = 1 / (8 r^2)
    assert math.isclose(report.verification.function_variance, 1.0 / 32.0, rel_tol=1e-9)
    mats = matrices(planar_division(8, 3).rotations)
    plane = circle.detect(mats)
    witness = divisibility.HarmonicFunction(*circle.Witness(plane, mats)(7, 4))
    pts = uniform_sphere(8, 300, 17)
    direct = witness(pts)
    monkeypatch.setattr(circle, "_DIRECT_MAX_DEGREE", 0)
    assert np.allclose(witness(pts), direct, rtol=0.0, atol=1e-13)
