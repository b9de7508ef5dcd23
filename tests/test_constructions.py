import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spherediv import (
    InputDomainError,
    NotSingularError,
    Rotation,
    RotationTuple,
    analyze_circle,
    build_zonal_basis,
    circle_bad_angles,
    circle_sum_matrix,
    divisibility_test,
    haar_sample,
    kernel_witness,
    odd_d4_suffix,
    odd_d4_tuple,
    operator_matrix,
    planar_division,
    planar_rotation,
    uniform_sphere,
    verify_divisor,
)


class TestPlanarDivision:
    @pytest.mark.parametrize("d,r", [(2, 2), (2, 3), (3, 3), (3, 4), (4, 5)])
    def test_translates_tile(self, d, r):
        division = planar_division(d, r)
        pts = uniform_sphere(d, 20_000, 251)
        keep = ~division.near_boundary(pts)
        total = np.zeros(keep.sum())
        for g in division.rotations:
            total += division.indicator(pts[keep] @ g.matrix)
        assert np.all(total == 1.0)

    def test_rotation_angles(self):
        division = planar_division(3, 4)
        for m, g in enumerate(division.rotations):
            expected = planar_rotation(3, 1, 2, 2 * math.pi * m / 4).matrix
            assert np.allclose(g.matrix, expected)

    def test_indicator_is_binary(self):
        division = planar_division(3, 3)
        vals = division.indicator(uniform_sphere(3, 5_000, 257))
        assert set(np.unique(vals)) <= {0.0, 1.0}

    def test_verify_with_boundary_skip(self):
        division = planar_division(2, 2)
        result = verify_divisor(
            division.rotations, division.indicator, 50_000, 263, skip=division.near_boundary
        )
        assert result.passed and result.max_residual == 0.0

    def test_divisibility_test_agrees(self):
        # the indicator is its own certificate; the spectral test also finds
        # a singular degree for the circle case
        division = planar_division(2, 3)
        report = divisibility_test(division.rotations, 3, rng=269)
        assert report.divisible

    def test_rejects_bad_params(self):
        with pytest.raises(InputDomainError):
            planar_division(1, 3)
        with pytest.raises(InputDomainError):
            planar_division(3, 1)


class TestOddD4Family:
    def test_d3_suffix_matrices(self):
        mats = [g.matrix for g in odd_d4_suffix(3)]
        assert np.array_equal(mats[0], np.diag([-1.0, -1.0, 1.0]))
        assert np.array_equal(mats[1], np.diag([-1.0, 1.0, -1.0]))
        assert np.array_equal(mats[2], np.diag([1.0, -1.0, -1.0]))

    def test_d5_sign_patterns(self):
        patterns = [np.diag(g.matrix) for g in odd_d4_suffix(5)]
        assert np.array_equal(patterns[0], [-1, -1, -1, -1, 1])
        assert np.array_equal(patterns[1], [-1, -1, -1, 1, -1])
        assert np.array_equal(patterns[2], [1, 1, 1, -1, -1])

    @pytest.mark.parametrize("d", [3, 5, 7, 9])
    def test_suffix_sums_to_minus_identity(self, d):
        suffix = odd_d4_suffix(d)
        assert len(suffix) == 3
        assert np.array_equal(sum(g.matrix for g in suffix), -np.eye(d))
        for g in suffix:
            assert np.linalg.det(g.matrix) == 1.0

    def test_identity_free_rotation(self):
        tup, witness = odd_d4_tuple(3, Rotation(np.eye(3)))
        assert np.allclose(witness.degree_one_pole(), [1.0, 0.0, 0.0])
        pts = uniform_sphere(3, 2_000, 271)
        total = sum(witness(pts @ g.matrix) for g in tup)
        assert np.max(np.abs(total)) <= 1e-12

    @pytest.mark.parametrize("d", [3, 5])
    def test_random_free_rotation_residual(self, d):
        rng = np.random.default_rng(277)
        tup, witness = odd_d4_tuple(d, haar_sample(d, rng))
        pts = uniform_sphere(d, 10_000, rng)
        total = sum(witness(pts @ g.matrix) for g in tup)
        assert np.max(np.abs(total)) <= 1e-10

    def test_rejects_even_dimension(self):
        with pytest.raises(InputDomainError):
            odd_d4_suffix(4)
        with pytest.raises(InputDomainError):
            odd_d4_tuple(4, Rotation(np.eye(4)))


class TestCircleMatrices:
    def test_half_turn_block(self):
        k = circle_sum_matrix(2, [math.pi / 2])
        assert np.allclose(k, -np.eye(2), atol=1e-15)

    def test_conjugate_angles_cancel_sines(self):
        psi = 0.61
        k = circle_sum_matrix(3, [psi, -psi])
        assert np.allclose(k, 2 * math.cos(3 * psi) * np.eye(2), atol=1e-14)

    @pytest.mark.parametrize("angles", [[math.nan, 1.0], [math.inf], [0.5, -math.inf]])
    def test_non_finite_angles_rejected(self, angles):
        for call in (circle_sum_matrix, circle_bad_angles, analyze_circle):
            with pytest.raises(InputDomainError, match="finite"):
                call(2, angles)

    def test_rotation_block_structure(self):
        rng = np.random.default_rng(281)
        for _ in range(20):
            angles = rng.uniform(0, 2 * math.pi, size=rng.integers(1, 5))
            k = circle_sum_matrix(2, angles)
            assert math.isclose(k[0, 0], k[1, 1], abs_tol=1e-14)
            assert math.isclose(k[0, 1], -k[1, 0], abs_tol=1e-14)


class TestCircleActionModel:
    def test_rotation_moves_cosine_harmonic(self):
        # the rotation by phi sends cos(n.) to cos(n phi) cos(n.) + sin(n phi) sin(n.)
        rng = np.random.default_rng(311)
        for n in (1, 2, 4):
            phi = float(rng.uniform(0, 2 * math.pi))
            cos_h = lambda x, n=n: np.cos(n * np.arctan2(np.atleast_2d(x)[:, 1], np.atleast_2d(x)[:, 0]))
            sin_h = lambda x, n=n: np.sin(n * np.arctan2(np.atleast_2d(x)[:, 1], np.atleast_2d(x)[:, 0]))
            g = planar_rotation(2, 1, 2, phi)
            pts = uniform_sphere(2, 500, rng)
            expected = math.cos(n * phi) * cos_h(pts) + math.sin(n * phi) * sin_h(pts)
            assert np.max(np.abs(cos_h(pts @ g.matrix) - expected)) <= 1e-10


class TestCircleBadAngles:
    def test_single_half_turn(self):
        assert np.allclose(circle_bad_angles(1, [math.pi]), [0.0])

    def test_cancelling_pair_is_empty(self):
        assert circle_bad_angles(1, [math.pi / 2, 3 * math.pi / 2]).size == 0

    def test_single_fixed_angle_all_degrees(self):
        # one fixed angle psi admits exactly n bad angles psi + (pi + 2 pi k)/n
        for n in (1, 2, 3, 4):
            psi = 0.93
            bad = circle_bad_angles(n, [psi])
            assert len(bad) == n
            expected = sorted((psi + (math.pi + 2 * math.pi * k) / n) % (2 * math.pi) for k in range(n))
            assert np.allclose(bad, expected, atol=1e-9)

    def test_bad_angles_certify_spectrally(self):
        rng = np.random.default_rng(293)
        for n in (1, 2, 3):
            fixed = [float(rng.uniform(0, 2 * math.pi))]
            for phi in circle_bad_angles(n, fixed):
                tup = RotationTuple(
                    (planar_rotation(2, 1, 2, float(phi)), planar_rotation(2, 1, 2, fixed[0]))
                )
                basis = build_zonal_basis(2, n, rng=rng, cond_threshold=1e3)
                witness = kernel_witness(basis, operator_matrix(basis, tup), tup.r)
                pts = uniform_sphere(2, 5_000, rng)
                total = sum(witness(pts @ g.matrix) for g in tup)
                assert np.max(np.abs(total)) <= 1e-8

    def test_far_angles_not_singular(self):
        rng = np.random.default_rng(307)
        n = 2
        fixed = [1.234]
        bad = circle_bad_angles(n, fixed)
        basis = build_zonal_basis(2, n, rng=rng, cond_threshold=1e3)
        for phi in np.linspace(0, 2 * math.pi, 40, endpoint=False):
            if min(abs(phi - b) for b in bad) < 1e-2:
                continue
            tup = RotationTuple(
                (planar_rotation(2, 1, 2, float(phi)), planar_rotation(2, 1, 2, fixed[0]))
            )
            with pytest.raises(NotSingularError):
                kernel_witness(basis, operator_matrix(basis, tup), tup.r, sing_tol=1e-8)

    def test_analysis_bundle(self):
        analysis = analyze_circle(1, [math.pi])
        assert analysis.n == 1
        assert np.allclose(analysis.sum_matrix, -np.eye(2), atol=1e-15)
        assert np.allclose(analysis.bad_angles, [0.0])
        obj = analysis.to_json_obj()
        assert obj["bad_angles"] == [0.0]

    def test_single_angle_regressions(self):
        # the squared-quadratic form lost these roots (first) and split one
        # root in two (second); one fixed angle always leaves n angles
        assert len(circle_bad_angles(4, [1.1765425947969412])) == 4
        assert len(circle_bad_angles(1, [4.719616265218331])) == 1

    @pytest.mark.parametrize("n", [1, 3])
    def test_angle_near_zero_stays_exact(self, n):
        # arg(-k) near pi: reading it off cos(n phi) loses half the digits
        # (an error of 1e-9 here), enough to leave the tuple borderline
        bad = circle_bad_angles(n, [1e-9])
        assert len(bad) == n
        assert all(circle_singular_at(n, phi, [1e-9]) for phi in bad)


def circle_singular_at(n, phi, fixed):
    """Whether divisibility_test marks degree n of the planar tuple (phi, *fixed) singular."""
    tup = RotationTuple(tuple(planar_rotation(2, 1, 2, float(a)) for a in [phi, *fixed]))
    return divisibility_test(tup, n, rng=1).degrees[n - 1].verdict == "singular"


@st.composite
def circle_configs(draw):
    """(n, kind, fixed angles, probe angle) for one of three kinds of fixed set."""
    angle = st.floats(0.0, 2 * math.pi)
    n = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["one", "pair", "random"]))
    psi = draw(angle)
    if kind == "one":
        fixed = [psi]
    elif kind == "pair":
        # |1 + e^{-2 pi i / 3}| = 1, so the pair acts at degree n like one rotation
        fixed = [psi, psi - 2 * math.pi / (3 * n)]
    else:
        fixed = draw(st.lists(angle, min_size=2, max_size=4))
    return n, kind, fixed, draw(angle)


class TestSizeGuards:
    # refused with InputDomainError before anything d x d or n long is allocated
    @pytest.mark.parametrize("d, r", [(100_000, 2), (3, 100_000_000)])
    def test_planar_division(self, d, r):
        with pytest.raises(InputDomainError, match="budget"):
            planar_division(d, r)

    def test_odd_d4_suffix(self):
        with pytest.raises(InputDomainError, match="budget"):
            odd_d4_suffix(100_001)

    def test_circle_bad_angles(self):
        with pytest.raises(InputDomainError, match="budget"):
            circle_bad_angles(10_000_000, [1.0])
        assert len(circle_bad_angles(1000, [1.0])) == 1000


class TestCircleClosedForm:
    @settings(max_examples=60, deadline=None)
    @given(config=circle_configs())
    def test_bad_angles_are_the_roots_of_minus_k(self, config):
        n, kind, fixed, probe = config
        kmat = circle_sum_matrix(n, fixed)
        k = complex(kmat[0, 0], kmat[1, 0])
        # the 2x2 operator is multiplication by e^{i n phi} + k
        direct = np.linalg.det(circle_sum_matrix(n, [probe]) + kmat)
        assert abs(direct - abs(cmath.exp(1j * n * probe) + k) ** 2) <= 1e-12 * (1 + abs(k)) ** 2
        bad = circle_bad_angles(n, fixed)
        if kind != "random":
            assert len(bad) == n
        elif abs(abs(k) - 1.0) > 1e-6:
            assert len(bad) == 0
        assert np.all((bad >= 0.0) & (bad < 2 * math.pi))
        assert np.all(np.diff(bad) > 0.0)
        for phi in bad:
            assert circle_singular_at(n, phi, fixed)
