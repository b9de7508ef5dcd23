"""The witness of a fired pair degree and its certificate, built in closed form from the torus frame of h = g_1^T g_2."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spherediv import Rotation, RotationTuple, dim_harmonic, divisibility_test, haar_sample, planar_rotation
from spherediv import divisibility, fischer
from spherediv.fischer import FischerFrame, fischer_frame, summed_powers

# the reference run assembles M and runs two LU solves per fired degree, so its degrees are
# kept to operators of at most this many harmonics (every (d, n) with d <= 8, n <= 6 but (8, 6))
REFERENCE_MAX_DIM = 1000
FAMILIES = ("half-turn", "planar", "planted", "minus-identity", "one-angle-planes", "pi-planes", "filler")


def torus_rotation(d, angles):
    """The rotation by angles[j] in the plane (x_(2j+1), x_(2j+2)) for each j."""
    out = np.eye(d)
    for j, angle in enumerate(angles):
        out = out @ planar_rotation(d, 2 * j + 1, 2 * j + 2, angle).matrix
    return out


def pair_with_h(d, h_angles, rng, haar_first):
    """(g_1, g_2) with h = g_1^T g_2 of the given rotation angles, conjugated by a Haar rotation."""
    c = haar_sample(d, rng).matrix
    first = haar_sample(d, rng).matrix if haar_first else np.eye(d)
    h = c @ torus_rotation(d, h_angles) @ c.T
    return RotationTuple((Rotation(first), Rotation(first @ h)))


@st.composite
def fired_pairs(draw):
    """(pair, n_max): a pair that fires at some degree n <= n_max <= 6, from each family below."""
    family = draw(st.sampled_from(FAMILIES))
    d = draw(st.sampled_from([2, 4]) if family == "minus-identity" else st.integers(2, 8))
    if family == "one-angle-planes":
        d = max(d, 4)
    if family == "filler":
        d = max(d, 3)
    degrees = [n for n in range(1, 7) if dim_harmonic(d, n) <= REFERENCE_MAX_DIM]
    n_max = draw(st.sampled_from(degrees[2:] if family == "filler" else degrees))
    n0 = draw(st.integers(1, n_max - 2 if family == "filler" else n_max))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    haar_first = draw(st.booleans())
    m = d // 2
    if family == "half-turn":  # singular at every degree
        angles = [math.pi] + [0.0] * (m - 1)
    elif family == "planar":  # the planar pair a, a + pi / n0: singular at the odd multiples of n0
        a = draw(st.floats(0.0, 2.0 * math.pi))
        tup = RotationTuple((planar_rotation(d, 1, 2, a), planar_rotation(d, 1, 2, a + math.pi / n0)))
        return tup, n_max
    elif family == "planted":  # Haar angles, one of them solving k . theta = pi for a weight k of H_(n0)
        weights, _ = fischer._torus_weights(d, n0)
        k = weights[draw(st.integers(0, len(weights) - 1))]
        if not np.any(k):
            k = weights[-1]
        angles = rng.uniform(0.0, math.pi, m)
        j = int(np.flatnonzero(k)[0])
        angles[j] = (math.pi - (k @ angles - k[j] * angles[j])) / k[j]
    elif family == "minus-identity":  # {I, -I}: M = 0 at every odd degree
        return RotationTuple((Rotation(np.eye(d)), Rotation(-np.eye(d)))), n_max
    elif family == "one-angle-planes":  # two or more planes at one angle pi / n0
        angles = [math.pi / n0] * draw(st.integers(2, m)) + [0.0] * m
    elif family == "pi-planes":  # several half-turn planes: h has a -1 eigenspace of dimension 2, 4, ...
        planes = draw(st.integers(1, m))
        if not haar_first:  # h exactly diagonal up to an axis permutation, so eig's -1 and +1 are real
            h = np.diag([-1.0] * (2 * planes) + [1.0] * (d - 2 * planes))[np.ix_(*[rng.permutation(d)] * 2)]
            return RotationTuple((Rotation(np.eye(d)), Rotation(h))), n_max
        angles = [math.pi] * planes + [0.0] * m
    else:  # one plane at pi / n0 and Haar angles: above n0 its weight takes a filler of weight 0,
        # the fixed axis at odd d and a_1 conj(a_1) at even d
        angles = [math.pi / n0] + list(rng.uniform(0.0, math.pi, m - 1))
    return pair_with_h(d, angles[:m], rng, haar_first), n_max


def reference_witness(tup):
    """The pair witness and certificate of the old route: ``_kernel_vector`` of the assembled M, bounded through S_n."""
    mats = np.array([g.matrix for g in tup])

    def witness(torus, frame, mats_):
        *_, (_, sums) = summed_powers(mats, frame.n)
        sigma_max = divisibility._pair_spectrum(mats, frame.n)[0]
        vector = divisibility._kernel_vector(frame.operator(sums), sigma_max, tup.r)
        return vector, functools.partial(frame.residual_bound, sums, mats=mats)

    return witness


def rows(report):
    """(n, N_n, verdict, sigma_min_rel, residual bound within 1e-8 or None) of every degree."""
    return [
        (rec.n, rec.dim, rec.verdict, rec.sigma_min_rel, None if rec.residual_bound is None else rec.residual_bound <= 1e-8)
        for rec in report.degrees
    ]


def fired_degrees(mats, n_max):
    return [
        n for n in range(1, n_max + 1)
        if divisibility._near_singular(divisibility._pair_spectrum(mats, n), 2, divisibility.DEFAULT_SING_TOL)[1]
    ]


@settings(max_examples=150, deadline=None)
@given(case=fired_pairs())
def test_fired_pair_witnesses(case):
    tup, n_max = case
    mats = np.array([g.matrix for g in tup])
    made = []
    witness = divisibility._pair_witness

    def recorded(torus, frame, mats_):
        made.append((frame.n, *witness(torus, frame, mats_)))
        return made[-1][1:]

    def refused(*args):
        raise AssertionError("a pair degree assembled M, ran _kernel_vector or ran the recurrence")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(divisibility, "_pair_witness", recorded)
        patch.setattr(divisibility, "_kernel_vector", refused)
        patch.setattr(divisibility, "summed_powers", refused)
        patch.setattr(FischerFrame, "operator", refused)
        report = divisibility_test(tup, n_max, rng=5)
    fired = fired_degrees(mats, n_max)
    assert fired and [n for n, *_ in made] == fired
    sums = dict(summed_powers(mats, n_max))
    for n, vector, bound in made:
        frame = fischer_frame(tup.d, n)
        assert math.isclose(np.linalg.norm(vector), 1.0, rel_tol=1e-12)
        assert np.linalg.norm(frame.apply(sums[n], vector)) <= 1e-12 * tup.r, n
        assert divisibility._certify(frame, vector, bound, tup, None)[2].passed, n
    assert report.singular_degrees() == fired
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(divisibility, "_pair_witness", reference_witness(tup))
        reference = divisibility_test(tup, n_max, rng=5)
    assert rows(report) == rows(reference)


def perturbed(torus, rng, size=1e-10):
    """The torus frame with every form moved by a complex vector of entries about ``size``."""
    forms, angles, axis = torus
    step = rng.standard_normal(forms.shape) + 1j * rng.standard_normal(forms.shape)
    return forms + size * step, angles, axis


def dense_residual(frame, sums, coeffs):
    """||S_n w|| / sqrt(n!) for w = sqrt(a!) c, with S_n from the recurrence: the residual's Fischer-norm bound."""
    logs = np.array([sum(math.lgamma(a + 1) for a in row) for row in frame.exponents])
    return np.linalg.norm(sums @ (coeffs * np.exp(0.5 * (logs - math.lgamma(frame.n + 1)))))


@settings(max_examples=100, deadline=None)
@given(case=fired_pairs(), shaken=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_product_bound_against_the_dense_bound(case, shaken, seed):
    # at every fired degree the bound from the products of forms covers the dense residual,
    # stays within 10x of the recurrence's bound and passes wherever that one passes, also
    # with the torus forms moved off h's eigenvectors by 1e-10
    tup, n_max = case
    mats = np.array([g.matrix for g in tup])
    torus = divisibility._torus_frame(mats)
    if shaken:
        torus = perturbed(torus, np.random.default_rng(seed))
    sums = dict(summed_powers(mats, n_max))
    for n in fired_degrees(mats, n_max):
        frame = fischer_frame(tup.d, n)
        vector, bound = divisibility._pair_witness(torus, frame, mats)
        witness = divisibility._witness(frame, vector)
        scale = divisibility.make_divisor(witness, tup.r).scale
        new, old = bound(witness.coeffs), frame.residual_bound(sums[n], witness.coeffs, mats)
        assert dense_residual(frame, sums[n], witness.coeffs) <= new <= 10.0 * old, n
        if scale * old <= divisibility.RESIDUAL_TOL:
            assert scale * new <= divisibility.RESIDUAL_TOL, n


@settings(max_examples=60, deadline=None)
@given(case=fired_pairs())
def test_foreign_vector_refused(case):
    # M's top right singular vector v has ||M v|| = sigma_max, so its divisor misses 1 by far; it
    # is not the product's projection and meets the product's bound only through r ||e||, which
    # must refuse it.  Degrees where M = 0, and every vector is a witness, are left out
    tup, n_max = case
    mats = np.array([g.matrix for g in tup])
    torus = divisibility._torus_frame(mats)
    sums = dict(summed_powers(mats, n_max))
    for n in fired_degrees(mats, n_max):
        if divisibility._pair_spectrum(mats, n)[0] < 1e-6:
            continue
        frame = fischer_frame(tup.d, n)
        top = np.linalg.svd(frame.operator(sums[n]))[2][0]
        _, bound = divisibility._pair_witness(torus, frame, mats)
        _, _, ver = divisibility._certify(frame, top, bound, tup, None)
        assert not ver.passed and ver.residual_bound > 1e-6, n


@pytest.mark.parametrize("d, n", [(2, 7), (3, 4), (5, 3), (8, 2)])
def test_translated_product_is_the_symmetric_power(d, n):
    # rho(g) prod_j (a_j . x) = prod_j ((g a_j) . x): the identity the product bound rests on
    rng = np.random.default_rng(10 * d + n)
    forms = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    g = haar_sample(d, rng).matrix
    *_, (_, power) = summed_powers(g[None], n)
    moved = divisibility._form_products(forms @ g.T, d)
    assert np.allclose(moved, power @ divisibility._form_products(forms, d), atol=1e-13)


@pytest.mark.parametrize("d", range(2, 9))
def test_frame_of_a_half_turn_in_every_plane(d):
    # h = -I (and -I on the first d - 1 axes at odd d): eig's eigenvalues are exactly real and its
    # eigenvectors the axes, which are paired into isotropic forms at the angle pi
    h = np.diag([-1.0] * (d - d % 2) + [1.0] * (d % 2))
    forms, angles, axis = divisibility._torus_frame(np.array([np.eye(d), h]))
    assert forms.shape == (d // 2, d) and np.all(angles == math.pi)
    assert np.max(np.abs(forms @ forms.T)) <= 1e-15
    assert np.allclose(forms @ forms.conj().T, np.eye(d // 2), atol=1e-15)
    assert (axis is None) == (d % 2 == 0)
