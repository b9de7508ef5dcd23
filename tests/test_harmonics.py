import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from gegenbauer_oracle import eval_exact, gegenbauer_coefficients
from spherediv import (
    GegenbauerTable,
    InputDomainError,
    dim_harmonic,
    sphere_area,
    uniform_sphere,
    zonal_inner_product,
)


# Gauss-Legendre rules are expensive to build; share them across tests
GAUSS_2048 = leggauss(2048)
GAUSS_4096 = leggauss(4096)


def projection_density(d, t):
    """Density sigma_{d-1} (1 - t^2)^{(d-3)/2} of one coordinate of a uniform point, for |t| < 1."""
    # sigma_1 = 2 counts the two points of S^0
    return (sphere_area(d - 1) if d > 2 else 2.0) * (1.0 - t**2) ** ((d - 3) / 2.0)


class TestDimension:
    @pytest.mark.parametrize(
        "d,n,expected", [(5, 0, 1), (3, 4, 9), (2, 3, 2), (2, 0, 1), (4, 2, 9)]
    )
    def test_values(self, d, n, expected):
        assert dim_harmonic(d, n) == expected

    def test_closed_forms(self):
        for n in range(51):
            assert dim_harmonic(3, n) == 2 * n + 1
        for n in range(1, 51):
            assert dim_harmonic(2, n) == 2

    def test_alternate_binomial_route(self):
        # dimension of degree-n homogeneous polynomials minus degree-(n-2)
        for d in range(2, 9):
            for n in range(2, 31):
                homo = math.comb(n + d - 1, d - 1) - math.comb(n + d - 3, d - 1)
                assert dim_harmonic(d, n) == homo

    def test_rejects_bad_input(self):
        with pytest.raises(InputDomainError):
            dim_harmonic(1, 3)
        with pytest.raises(InputDomainError):
            dim_harmonic(3, -1)


class TestSphereArea:
    def test_known_values(self):
        assert math.isclose(sphere_area(2), 2 * math.pi, rel_tol=1e-14)
        assert math.isclose(sphere_area(3), 4 * math.pi, rel_tol=1e-14)
        assert math.isclose(sphere_area(4), 2 * math.pi**2, rel_tol=1e-14)

    def test_rejects_low_dimension(self):
        with pytest.raises(InputDomainError):
            sphere_area(1)


class TestProjectionDensity:
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_total_mass(self, d):
        # substitute t = cos(theta): the integrand becomes smooth
        nodes, weights = GAUSS_2048
        theta = (nodes + 1.0) * math.pi / 2.0
        vals = projection_density(d, np.cos(theta)) * np.sin(theta)
        total = float(vals @ weights) * math.pi / 2.0
        assert math.isclose(total, sphere_area(d), rel_tol=1e-10)


class TestGegenbauer:
    def test_degree_zero_is_one(self):
        table = GegenbauerTable(4, 5)
        assert table.eval(0, 0.37) == 1.0

    def test_legendre_value(self):
        table = GegenbauerTable(3, 5)
        assert math.isclose(table.eval(2, 0.0), -0.5, abs_tol=1e-15)

    def test_chebyshev_limit(self):
        table = GegenbauerTable(2, 8)
        for theta in np.linspace(0.1, 3.0, 17):
            assert math.isclose(
                table.eval(4, math.cos(theta)), math.cos(4 * theta), abs_tol=1e-12
            )

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 7])
    def test_normalization_at_one(self, d):
        table = GegenbauerTable(d, 20)
        for n in range(21):
            assert abs(table.eval(n, 1.0) - 1.0) <= 1e-12

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_bounded_on_interval(self, d):
        table = GegenbauerTable(d, 12)
        grid = np.linspace(-1.0, 1.0, 10_001)
        for n in range(13):
            assert np.max(np.abs(table.eval(n, grid))) <= 1.0 + 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_matches_exact_gram_schmidt(self, d):
        table = GegenbauerTable(d, 10)
        exact = gegenbauer_coefficients(d, 10)
        grid = np.linspace(-1.0, 1.0, 257)
        for n in range(11):
            expected = np.array([eval_exact(exact[n], t) for t in grid])
            assert np.max(np.abs(table.eval(n, grid) - expected)) <= 1e-12

    def test_leading_coefficient_nonzero(self):
        exact = gegenbauer_coefficients(4, 8)
        for n, coeffs in enumerate(exact):
            assert len(coeffs) == n + 1
            assert coeffs[-1] != 0

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_orthogonality_quadrature(self, d):
        # theta substitution keeps the d=2 endpoint singularity out of the rule
        table = GegenbauerTable(d, 8)
        nodes, weights = GAUSS_4096
        theta = (nodes + 1.0) * math.pi / 2.0
        tt = np.cos(theta)
        dens = projection_density(d, tt) * np.sin(theta) * math.pi / 2.0
        vals = [table.eval(n, tt) for n in range(9)]
        for n in range(9):
            norm = float((vals[n] * vals[n] * dens) @ weights)
            for m in range(n):
                cross = float((vals[m] * vals[n] * dens) @ weights)
                assert abs(cross) <= 1e-8 * norm

    def test_domain_errors(self):
        table = GegenbauerTable(3, 4)
        with pytest.raises(InputDomainError):
            table.eval(5, 0.5)


class TestZonal:
    def test_orthogonal_direction(self):
        assert abs(zonal_inner_product(3, 1, [1, 0, 0], [0, 1, 0])) <= 1e-15
        x = np.array([0.5, math.sqrt(3) / 2, 0.0])
        scale = 4 * math.pi / 5
        assert math.isclose(zonal_inner_product(3, 2, [1, 0, 0], x) / scale, -1.0 / 8.0, abs_tol=1e-14)

    def test_rejects_non_unit(self):
        with pytest.raises(InputDomainError):
            zonal_inner_product(3, 1, [1.0, 1.0, 0.0], [1.0, 0.0, 0.0])

    def test_inner_product_values(self):
        u = np.array([0.0, 0.0, 1.0])
        assert math.isclose(zonal_inner_product(3, 1, u, u), 4 * math.pi / 3, rel_tol=1e-14)
        v = np.array([1.0, 0.0, 0.0])
        assert math.isclose(
            zonal_inner_product(3, 2, u, v), (4 * math.pi / 5) * (-0.5), rel_tol=1e-14
        )

    def test_inner_product_normalized(self):
        rng = np.random.default_rng(60)
        for d in (2, 3, 5):
            u = uniform_sphere(d, 1, rng)[0]
            for n in (1, 3):
                scale = sphere_area(d) / dim_harmonic(d, n)
                assert math.isclose(zonal_inner_product(d, n, u, u) / scale, 1.0, rel_tol=1e-12)

    def test_funk_hecke_monte_carlo(self):
        rng = np.random.default_rng(1234)
        table_cache = {}
        for _ in range(3):
            d = int(rng.integers(2, 6))
            n = int(rng.integers(1, 7))
            u, v = uniform_sphere(d, 2, rng)
            pts = uniform_sphere(d, 200_000, rng)
            table = table_cache.setdefault(d, GegenbauerTable(d, 6))
            prods = table.eval(n, pts @ u) * table.eval(n, pts @ v)
            est = sphere_area(d) * prods.mean()
            se = sphere_area(d) * prods.std(ddof=1) / math.sqrt(len(pts))
            exact = zonal_inner_product(d, n, u, v)
            assert abs(est - exact) <= 5 * se + 1e-12
