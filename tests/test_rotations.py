import math

import numpy as np
import pytest
from scipy import stats

from spherediv import (
    GegenbauerTable,
    InputDomainError,
    NoFixedPointError,
    Rotation,
    RotationTuple,
    fixed_point,
    haar_sample,
    planar_rotation,
    uniform_sphere,
)
from spherediv.rotations import haar_from_gaussian


class TestRotationValidation:
    def test_accepts_exact(self):
        g = Rotation(np.eye(3))
        assert g.d == 3 and not g.repaired

    def test_repairs_small_defect(self):
        rng = np.random.default_rng(0)
        base = haar_sample(4, rng).matrix
        noisy = base + 1e-6 * rng.standard_normal((4, 4))
        with pytest.warns(UserWarning):
            g = Rotation(noisy)
        assert g.repaired
        assert np.max(np.abs(g.matrix.T @ g.matrix - np.eye(4))) <= 1e-12

    def test_rejects_large_defect(self):
        rng = np.random.default_rng(1)
        noisy = haar_sample(3, rng).matrix + 1e-2 * rng.standard_normal((3, 3))
        with pytest.raises(InputDomainError, match="orthogonality"):
            Rotation(noisy)

    def test_rejects_reflection(self):
        with pytest.raises(InputDomainError, match="determinant"):
            Rotation(np.diag([1.0, 1.0, -1.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_entries(self, bad):
        # every tolerance check reads False on NaN, so without this one a NaN would pass them all
        m = np.eye(3)
        m[1, 2] = bad
        with pytest.raises(InputDomainError, match="NaN or infinite"):
            Rotation(m)

    def test_json_rejects_non_finite_rows(self):
        # Python's json reads a bare NaN, so a tuple file can carry one
        obj = RotationTuple((haar_sample(3, 13), Rotation(np.eye(3)))).to_json_obj()
        obj[1]["rows"][0][0] = math.nan
        with pytest.raises(InputDomainError, match="NaN or infinite"):
            RotationTuple.from_json_obj(obj)

    def test_json_round_trip(self):
        g = haar_sample(3, 11)
        back = Rotation.from_json_obj(g.to_json_obj())
        assert np.allclose(back.matrix, g.matrix)
        tup = RotationTuple((g, Rotation(np.eye(3))))
        back_tup = RotationTuple.from_json_obj(tup.to_json_obj())
        assert back_tup.r == 2 and back_tup.d == 3

    def test_tuple_invariants(self):
        with pytest.raises(InputDomainError):
            RotationTuple((Rotation(np.eye(3)),))
        with pytest.raises(InputDomainError):
            RotationTuple((Rotation(np.eye(3)), Rotation(np.eye(4))))


class TestActions:
    # the group acts on functions by f -> f(g^T .), on rows of points as points @ g.matrix
    def test_quarter_turn(self):
        g = planar_rotation(2, 1, 2, math.pi / 2)
        assert np.allclose(g.matrix @ [1.0, 0.0], [0.0, 1.0], atol=1e-15)

    def test_action_preserves_l2_monte_carlo(self):
        rng = np.random.default_rng(19)
        table = GegenbauerTable(3, 2)
        v = uniform_sphere(3, 1, rng)[0]
        f = lambda x: table.eval(2, x @ v)
        g = haar_sample(3, rng)
        pts = uniform_sphere(3, 100_000, rng)
        orig = np.mean(f(pts) ** 2)
        moved = np.mean(f(pts @ g.matrix) ** 2)
        assert abs(orig - moved) <= 6 * np.std(f(pts) ** 2) / math.sqrt(len(pts))


class TestHaarSampling:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_invariants(self, d):
        rng = np.random.default_rng(23)
        for _ in range(20):
            g = haar_sample(d, rng)
            assert np.max(np.abs(g.matrix.T @ g.matrix - np.eye(d))) <= 1e-9
            assert abs(np.linalg.det(g.matrix) - 1.0) <= 1e-9

    def test_entry_mean_is_zero(self):
        # sign symmetry of Haar measure forces zero-mean entries
        rng = np.random.default_rng(29)
        m = 20_000
        # one stacked draw reads the same stream as m haar_sample calls
        vals = haar_from_gaussian(rng.standard_normal((m, 3, 3)))[:, 0, 0]
        se = vals.std(ddof=1) / math.sqrt(m)
        assert abs(vals.mean()) <= 5 * se

    def test_circle_angles_uniform(self):
        rng = np.random.default_rng(31)
        m = 100_000
        mats = haar_from_gaussian(rng.standard_normal((m, 2, 2)))
        angles = np.arctan2(mats[:, 1, 0], mats[:, 0, 0]) % (2 * math.pi)
        stat, pvalue = stats.kstest(angles / (2 * math.pi), "uniform")
        assert pvalue > 0.01

    def test_determinism(self):
        a = haar_sample(4, 99).matrix
        b = haar_sample(4, 99).matrix
        assert np.array_equal(a, b)


class TestPlanarRotation:
    def test_zero_angle(self):
        assert np.allclose(planar_rotation(3, 1, 2, 0.0).matrix, np.eye(3))

    def test_half_turn(self):
        assert np.allclose(planar_rotation(2, 1, 2, math.pi).matrix, np.diag([-1.0, -1.0]), atol=1e-15)

    def test_order_three(self):
        g = planar_rotation(5, 1, 2, 2 * math.pi / 3)
        cubed = np.linalg.matrix_power(g.matrix, 3)
        assert np.max(np.abs(cubed - np.eye(5))) <= 1e-12

    def test_other_axes(self):
        g = planar_rotation(4, 2, 4, math.pi / 2)
        assert np.allclose(g.matrix @ [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0], atol=1e-15)

    def test_index_errors(self):
        for i, j in [(0, 2), (2, 2), (2, 1), (1, 4)]:
            with pytest.raises(InputDomainError):
                planar_rotation(3, i, j, 0.1)


class TestFixedPoint:
    def test_identity_choice(self):
        assert np.allclose(fixed_point(Rotation(np.eye(3))), [1.0, 0.0, 0.0])

    def test_planar_axis(self):
        u = fixed_point(planar_rotation(3, 1, 2, 0.8))
        assert np.allclose(np.abs(u), [0.0, 0.0, 1.0], atol=1e-12)
        assert u[2] > 0  # sign convention

    def test_random_so3(self):
        rng = np.random.default_rng(37)
        for _ in range(25):
            g = haar_sample(3, rng)
            u = fixed_point(g)
            assert np.linalg.norm(g.matrix @ u - u) <= 1e-8
            assert math.isclose(np.linalg.norm(u), 1.0, abs_tol=1e-12)

    def test_even_dimension_generic_fails(self):
        rng = np.random.default_rng(41)
        g = haar_sample(4, rng)
        with pytest.raises(NoFixedPointError):
            fixed_point(g)

    def test_even_dimension_with_fixed_subspace(self):
        g = planar_rotation(4, 1, 2, 1.1)
        u = fixed_point(g)
        assert np.linalg.norm(g.matrix @ u - u) <= 1e-10


class TestUniformSphere:
    @pytest.mark.parametrize("d", [2, 3, 8, 64])
    def test_points_are_unit_and_match_the_norm_formula(self, d):
        # the row norms come from one einsum; each point is unit to 4u and within 2 ulps of 1
        # (4u) of the point that np.linalg.norm's row norms give from the same draw
        unit = 2.0**-53
        pts = uniform_sphere(d, 20_000, 43)
        draw = np.random.default_rng(43).standard_normal((20_000, d))
        old = draw / np.linalg.norm(draw, axis=1)[:, None]
        assert np.max(np.abs(np.linalg.norm(pts, axis=1) - 1.0)) <= 4 * unit
        assert np.max(np.abs(pts - old)) <= 4 * unit
