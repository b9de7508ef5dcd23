import math

import numpy as np
import pytest

from spherediv import (
    InputDomainError,
    NotSingularError,
    RotationTuple,
    analyze_circle,
    build_zonal_basis,
    circle_bad_angles,
    circle_det,
    circle_rotation_block,
    circle_sum_matrix,
    divisibility_test,
    haar_sample,
    identity_rotation,
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
        family = odd_d4_suffix(3)
        mats = [g.matrix for g in family.suffix]
        assert np.array_equal(mats[0], np.diag([-1.0, -1.0, 1.0]))
        assert np.array_equal(mats[1], np.diag([-1.0, 1.0, -1.0]))
        assert np.array_equal(mats[2], np.diag([1.0, -1.0, -1.0]))

    def test_d5_sign_patterns(self):
        family = odd_d4_suffix(5)
        patterns = [np.diag(g.matrix) for g in family.suffix]
        assert np.array_equal(patterns[0], [-1, -1, -1, -1, 1])
        assert np.array_equal(patterns[1], [-1, -1, -1, 1, -1])
        assert np.array_equal(patterns[2], [1, 1, 1, -1, -1])

    @pytest.mark.parametrize("d", [3, 5, 7, 9])
    def test_suffix_sums_to_minus_identity(self, d):
        family = odd_d4_suffix(d)
        assert np.array_equal(family.suffix_sum(), -np.eye(d))
        for g in family.suffix:
            assert np.linalg.det(g.matrix) == 1.0

    def test_identity_free_rotation(self):
        tup, witness = odd_d4_tuple(3, identity_rotation(3))
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
            odd_d4_tuple(4, identity_rotation(4))


class TestCircleMatrices:
    def test_half_turn_block(self):
        k = circle_sum_matrix(2, [math.pi / 2])
        assert np.allclose(k, -np.eye(2), atol=1e-15)

    def test_conjugate_angles_cancel_sines(self):
        psi = 0.61
        k = circle_sum_matrix(3, [psi, -psi])
        assert np.allclose(k, 2 * math.cos(3 * psi) * np.eye(2), atol=1e-14)

    def test_rotation_block_structure(self):
        rng = np.random.default_rng(281)
        for _ in range(20):
            angles = rng.uniform(0, 2 * math.pi, size=rng.integers(1, 5))
            k = circle_sum_matrix(2, angles)
            assert math.isclose(k[0, 0], k[1, 1], abs_tol=1e-14)
            assert math.isclose(k[0, 1], -k[1, 0], abs_tol=1e-14)

    def test_det_with_zero_sum(self):
        k = np.zeros((2, 2))
        for x in np.linspace(-1, 1, 11):
            assert math.isclose(circle_det(x, +1, k), 1.0, abs_tol=1e-15)

    def test_det_vanishes_at_aligned_angle(self):
        assert abs(circle_det(1.0, +1, -np.eye(2))) <= 1e-15

    def test_det_matches_direct_determinant(self):
        rng = np.random.default_rng(283)
        k = circle_sum_matrix(2, rng.uniform(0, 2 * math.pi, size=3))
        for phi in rng.uniform(0, 2 * math.pi, size=1000):
            block = circle_rotation_block(2, phi)
            direct = np.linalg.det(block + k)
            sign = 1 if math.sin(2 * phi) >= 0 else -1
            assert abs(circle_det(math.cos(2 * phi), sign, k) - direct) <= 1e-12

    def test_det_domain_error(self):
        with pytest.raises(InputDomainError):
            circle_det(1.5, 1, np.zeros((2, 2)))


class TestCircleActionModel:
    def test_rotation_moves_cosine_harmonic(self):
        # the rotation by phi sends cos(n.) to cos(n phi) cos(n.) + sin(n phi) sin(n.)
        from spherediv import act_function

        rng = np.random.default_rng(311)
        for n in (1, 2, 4):
            phi = float(rng.uniform(0, 2 * math.pi))
            cos_h = lambda x, n=n: np.cos(n * np.arctan2(np.atleast_2d(x)[:, 1], np.atleast_2d(x)[:, 0]))
            sin_h = lambda x, n=n: np.sin(n * np.arctan2(np.atleast_2d(x)[:, 1], np.atleast_2d(x)[:, 0]))
            moved = act_function(planar_rotation(2, 1, 2, phi), cos_h)
            pts = uniform_sphere(2, 500, rng)
            expected = math.cos(n * phi) * cos_h(pts) + math.sin(n * phi) * sin_h(pts)
            assert np.max(np.abs(moved(pts) - expected)) <= 1e-10


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
