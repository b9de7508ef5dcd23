import functools
import json
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spherediv import (
    BasisConstructionError,
    HarmonicFunction,
    InputDomainError,
    NotSingularError,
    Rotation,
    RotationTuple,
    build_zonal_basis,
    divisibility_test,
    dim_harmonic,
    fixed_point,
    haar_sample,
    kernel_witness,
    make_divisor,
    odd_d4_tuple,
    operator_gram,
    operator_matrix,
    planar_division,
    planar_rotation,
    sphere_area,
    uniform_sphere,
    verify_divisor,
    weighted_singular_values,
    zonal_inner_product,
)
from spherediv import divisibility, fischer
from spherediv.fischer import fischer_frame, summed_powers


def circle_tuple(*angles):
    return RotationTuple(tuple(planar_rotation(2, 1, 2, a) for a in angles))


def identity_tuple(d, r):
    return RotationTuple(tuple(Rotation(np.eye(d)) for _ in range(r)))


def half_turn_pair(d, seed):
    """{I, R} with R a half-turn in one plane conjugated by a Haar rotation: singular at every degree."""
    half_turn = planar_rotation(d, 1, 2, math.pi).matrix
    h = haar_sample(d, seed).matrix
    return RotationTuple((Rotation(np.eye(d)), Rotation(h @ half_turn @ h.T)))


class TestZonalBasis:
    @pytest.mark.parametrize("d,n", [(2, 1), (2, 4), (3, 1), (3, 3), (4, 2)])
    def test_admission_invariants(self, d, n):
        basis = build_zonal_basis(d, n, rng=51)
        size = dim_harmonic(d, n)
        assert basis.points.shape == (size, d)
        assert np.max(np.abs(np.diag(basis.gram) - 1.0 / size)) <= 1e-12
        w = np.linalg.eigvalsh(basis.gram)
        assert w[0] > 0
        assert basis.cond < 1e8
        assert math.isclose(basis.cond, w[-1] / w[0], rel_tol=1e-9)
        whitened = basis.frame @ basis.gram @ basis.frame.T
        assert np.max(np.abs(whitened - np.eye(size))) <= 1e-9

    def test_circle_degree_one_gram(self):
        basis = build_zonal_basis(2, 1, rng=53)
        a1 = math.atan2(basis.points[0, 1], basis.points[0, 0])
        a2 = math.atan2(basis.points[1, 1], basis.points[1, 0])
        assert math.isclose(basis.gram[0, 1], math.cos(a1 - a2) / 2.0, abs_tol=1e-12)

    def test_sphere_degree_one_gram(self):
        basis = build_zonal_basis(3, 1, rng=57)
        assert np.allclose(basis.gram, basis.points @ basis.points.T / 3.0, atol=1e-12)

    def test_construction_failure_reports_best(self):
        with pytest.raises(BasisConstructionError) as err:
            build_zonal_basis(3, 2, rng=59, cond_threshold=1.0)
        assert err.value.best_condition is not None and err.value.best_condition > 1.0

    def test_rejects_degree_zero(self):
        with pytest.raises(InputDomainError):
            build_zonal_basis(3, 0, rng=61)


class TestOperatorMatrices:
    def test_identity_tuple_gram(self):
        basis = build_zonal_basis(3, 2, rng=63)
        lmat = operator_gram(basis, identity_tuple(3, 4))
        assert np.max(np.abs(lmat - 4.0 * basis.gram)) <= 1e-12

    def test_opposite_circle_rotations_vanish(self):
        basis = build_zonal_basis(2, 1, rng=67)
        lmat = operator_gram(basis, circle_tuple(0.0, math.pi))
        assert np.max(np.abs(lmat)) <= 1e-12

    def test_single_rotation_matches_zonal_inner_product(self):
        rng = np.random.default_rng(71)
        basis = build_zonal_basis(3, 2, rng=rng)
        g = haar_sample(3, rng)
        lmat = operator_gram(basis, [g])
        sigma = sphere_area(3)
        for i in range(basis.dim):
            for j in range(basis.dim):
                expected = zonal_inner_product(3, 2, g.matrix @ basis.points[j], basis.points[i]) / sigma
                assert abs(lmat[i, j] - expected) <= 1e-12

    def test_adjoint_consistency_random_tuple(self):
        rng = np.random.default_rng(73)
        basis = build_zonal_basis(3, 2, rng=rng)
        tup = RotationTuple(tuple(haar_sample(3, rng) for _ in range(3)))
        lmat = operator_gram(basis, tup)
        sigma = sphere_area(3)
        rebuilt = np.zeros_like(lmat)
        for s, g in enumerate(tup):
            for i in range(basis.dim):
                for j in range(basis.dim):
                    rebuilt[i, j] += (
                        zonal_inner_product(3, 2, basis.points[i], g.matrix @ basis.points[j])
                        / sigma
                    )
        assert np.max(np.abs(lmat - rebuilt)) <= 1e-10

    def test_identity_tuple_operator(self):
        basis = build_zonal_basis(4, 2, rng=79)
        amat = operator_matrix(basis, identity_tuple(4, 3))
        assert np.max(np.abs(amat - 3.0 * np.eye(basis.dim))) <= 1e-10

    def test_opposite_rotations_operator_zero(self):
        basis = build_zonal_basis(2, 1, rng=83)
        amat = operator_matrix(basis, circle_tuple(0.0, math.pi))
        assert np.max(np.abs(amat)) <= 1e-10

    def test_repeated_rotation_weighted_values(self):
        # r copies of one rotation: the operator is r times an isometry, so
        # all weighted singular values equal r
        rng = np.random.default_rng(89)
        g = haar_sample(3, rng)
        basis = build_zonal_basis(3, 2, rng=rng)
        amat = operator_matrix(basis, RotationTuple((g, g, g)))
        w = weighted_singular_values(amat)
        assert np.max(np.abs(w - 3.0)) <= 1e-9

    def test_triangle_inequality_bound(self):
        # gamma_1 = ... = gamma_{ell+1} forces weighted sigma_min >= 2 ell + 2 - r
        rng = np.random.default_rng(97)
        for r, n in [(2, 1), (3, 2), (4, 2), (5, 3)]:
            ell = r // 2
            g = haar_sample(3, rng)
            rest = [haar_sample(3, rng) for _ in range(r - ell - 1)]
            tup = RotationTuple(tuple([g] * (ell + 1) + rest))
            basis = build_zonal_basis(3, n, rng=rng)
            w = weighted_singular_values(operator_matrix(basis, tup))
            assert w[-1] >= (2 * ell + 2 - r) - 1e-6


class TestKernelWitness:
    def test_opposite_rotations_residual(self):
        tup = circle_tuple(0.0, math.pi)
        basis = build_zonal_basis(2, 1, rng=101)
        g = kernel_witness(basis, operator_matrix(basis, tup), tup.r)
        pts = uniform_sphere(2, 10_000, 107)
        total = g(pts @ tup[0].matrix) + g(pts @ tup[1].matrix)
        assert np.max(np.abs(total)) <= 1e-10
        assert math.isclose(np.sum(np.abs(g.coeffs)), 1.0, rel_tol=1e-12)

    def test_not_singular_raises(self):
        basis = build_zonal_basis(3, 1, rng=109)
        with pytest.raises(NotSingularError):
            kernel_witness(basis, operator_matrix(basis, identity_tuple(3, 2)), 2)

    def test_proposition_pole_recovery(self):
        rng = np.random.default_rng(127)
        gamma1 = haar_sample(3, rng)
        tup, _ = odd_d4_tuple(3, gamma1)
        basis = build_zonal_basis(3, 1, rng=rng)
        g = kernel_witness(basis, operator_matrix(basis, tup), tup.r)
        pole = g.degree_one_pole()
        u = fixed_point(gamma1)
        assert abs(pole @ u) >= 1.0 - 1e-6


class TestDivisor:
    def _witness(self):
        tup = circle_tuple(0.0, math.pi)
        basis = build_zonal_basis(2, 1, rng=131)
        return tup, kernel_witness(basis, operator_matrix(basis, tup), tup.r)

    def test_scale_arithmetic(self):
        _, g = self._witness()
        f = make_divisor(g, 4)
        assert math.isclose(f.scale, 0.5 / 4.0 / g.sup_bound(), rel_tol=1e-12)
        spread = f.scale * g.sup_bound()
        assert math.isclose(1.0 / f.r - spread, 0.25 - 0.125, rel_tol=1e-12)
        assert math.isclose(1.0 / f.r + spread, 0.25 + 0.125, rel_tol=1e-12)

    def test_values_inside_unit_interval(self):
        tup, g = self._witness()
        f = make_divisor(g, tup.r)
        vals = f(uniform_sphere(2, 20_000, 139))
        assert np.all(vals > 0.0) and np.all(vals < 1.0)

    def test_mean_matches_uniform_share(self):
        # the witness integrates to zero, so the divisor averages to 1/r
        tup, g = self._witness()
        f = make_divisor(g, tup.r)
        vals = f(uniform_sphere(2, 100_000, 149))
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - 1.0 / tup.r) <= 5 * se

    def test_zero_witness_rejected(self):
        zero = HarmonicFunction(fischer_frame(3, 1), np.zeros(3))
        with pytest.raises(InputDomainError):
            make_divisor(zero, 3)


class TestVerifyDivisor:
    def test_constant_function_fails_nonconstancy(self):
        tup = circle_tuple(0.0, math.pi)
        result = verify_divisor(tup, lambda x: np.full(len(np.atleast_2d(x)), 0.5), 5_000, 151)
        assert result.max_residual <= 1e-12
        assert result.function_variance == 0.0
        assert not result.passed

    def test_certified_divisor_passes(self):
        tup = circle_tuple(0.0, math.pi)
        basis = build_zonal_basis(2, 1, rng=157)
        f = make_divisor(kernel_witness(basis, operator_matrix(basis, tup), tup.r), tup.r)
        result = verify_divisor(tup, f, 20_000, 167)
        assert result.passed and result.max_residual <= 1e-8
        assert result.function_variance > 0

    @pytest.mark.parametrize("samples", [0, -5])
    def test_nonpositive_samples_rejected(self, samples):
        tup = circle_tuple(0.0, math.pi)
        with pytest.raises(InputDomainError, match="samples must be >= 1"):
            verify_divisor(tup, lambda x: np.full(len(np.atleast_2d(x)), 0.5), samples, 151)

    @pytest.mark.parametrize("whole", [False, True])
    def test_one_evaluation_per_translate(self, whole, monkeypatch):
        # f is evaluated at r points per sample, the translates gamma_s^T x, and no more: the
        # nonconstancy evidence is the variance of the first translate's values f(gamma_1^T x)
        tup = RotationTuple(tuple(haar_sample(4, 271 + k) for k in range(3)))
        mats = np.array([g.matrix for g in tup])
        if whole:  # one block, so each translate is one product and every statistic is exact
            monkeypatch.setattr(fischer, "BLOCK_BYTES", 1 << 30)
        evaluated = []

        def f(x):
            evaluated.append(len(x))
            return x[:, 0] ** 2 + x[:, 1]

        result = verify_divisor(tup, f, 5_000, 167)
        assert sum(evaluated) == 3 * 5_000 and result.n_samples == 5_000
        pts = uniform_sphere(4, 5_000, 167)
        first = f(pts @ mats[0])
        residuals = np.abs(first + f(pts @ mats[1]) + f(pts @ mats[2]) - 1.0)
        if whole:
            assert result.function_variance == float(first.var())
            assert result.max_residual == float(residuals.max())
            assert result.mean_residual == float(residuals.mean())
        else:
            assert math.isclose(result.function_variance, float(first.var()), rel_tol=1e-14)
            assert math.isclose(result.max_residual, float(residuals.max()), rel_tol=1e-14)

    def test_blocks_match_one_block(self, monkeypatch):
        tup = half_turn_pair(4, 149)
        report = divisibility_test(tup, 3, rng=163)
        monkeypatch.setattr(fischer, "BLOCK_BYTES", 1 << 30)
        whole = verify_divisor(tup, report.divisor, 5_000, 167)
        monkeypatch.setattr(fischer, "BLOCK_BYTES", 4096)  # 256 points per block of the witness's 2 values
        blocks = verify_divisor(tup, report.divisor, 5_000, 167)
        assert blocks.max_residual == whole.max_residual
        assert math.isclose(blocks.mean_residual, whole.mean_residual, rel_tol=1e-14)
        assert math.isclose(blocks.function_variance, whole.function_variance, rel_tol=1e-14)
        assert blocks.n_samples == whole.n_samples == 5_000


class TestResidualBound:
    @settings(max_examples=40, deadline=None)
    @given(
        d=st.integers(2, 6),
        n=st.integers(1, 5),
        r=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bound_covers_sampled_residual(self, d, n, r, seed):
        # sound for any harmonic, not only kernel witnesses
        rng = np.random.default_rng(seed)
        mats = np.array([haar_sample(d, rng).matrix for _ in range(r)])
        for _, sums in summed_powers(mats, n):
            pass
        frame = fischer_frame(d, n)
        h = HarmonicFunction(frame, frame.coefficients(rng.standard_normal(frame.dim)))
        pts = uniform_sphere(d, 2_000, rng)
        sampled = np.max(np.abs(sum(h(pts @ g) for g in mats)))
        assert sampled <= frame.residual_bound(sums, h.coeffs, mats)

    @pytest.mark.parametrize("d, n", [(2, 1), (3, 4), (8, 3)])
    def test_bound_is_attained(self, d, n):
        # x_1^n reaches 1 at the first axis, and its bound is 1 up to the round-off allowance
        frame = fischer_frame(d, n)
        coeffs = np.zeros(frame.size)
        coeffs[0] = 1.0  # exponents are listed in descending order: x_1^n first
        mats = np.eye(d)[None]
        for _, sums in summed_powers(mats, n):
            pass
        assert 1.0 <= frame.residual_bound(sums, coeffs, mats) <= 1.0 + 1e-10

    def test_top_singular_vector_rejected(self, monkeypatch):
        # the top singular vector, injected into the pair path, is refused by the bound of the
        # pair's products of forms that comes with it; at d = 3 no pair takes the circle route
        tup = half_turn_pair(3, 263)
        mats = np.array([g.matrix for g in tup])
        for _, sums in summed_powers(mats, 1):
            pass
        frame = fischer_frame(3, 1)
        top = np.linalg.svd(frame.operator(sums))[2][0]
        witness = divisibility._pair_witness
        bound = divisibility._PairRoute(mats, None, 1, divisibility.DEFAULT_SING_TOL).witness(1)[1]

        def foreign(torus, frame, mats, k):
            return top, witness(torus, frame, mats, k)[1]

        monkeypatch.setattr(divisibility, "_pair_witness", foreign)
        residual, passed, make = divisibility._certify(divisibility._witness(frame, top), bound, tup.r)
        ver = make()[2]
        assert not passed and not ver.passed and ver.n_samples == 0
        assert residual == ver.residual_bound > 1e-2
        report = divisibility_test(tup, 1, rng=283)
        assert report.degrees[0].verdict == "borderline"
        assert report.degrees[0].residual_bound == residual
        assert not report.divisible and report.verification is None


def full_svd_vector(matrix):
    """The reference witness coordinates: the last right-singular vector of a full SVD."""
    return np.linalg.svd(matrix)[2][-1]


def svd_pair_witness(tup):
    """A stand-in for divisibility._pair_witness on ``tup``: the full SVD's witness of the degree's M, bounded through S_n."""
    mats = np.array([g.matrix for g in tup])

    def witness(torus, frame, mats_, k):
        *_, (_, sums) = summed_powers(mats, frame.n)
        return full_svd_vector(frame.operator(sums)), functools.partial(frame.residual_bound, sums, mats=mats)

    return witness


def degree_operators(tup, n_max):
    """(frame, S_n, M) in the Fischer frame for n = 1 .. n_max."""
    for n, sums in summed_powers(np.array([g.matrix for g in tup]), n_max):
        frame = fischer_frame(tup.d, n)
        yield frame, sums, frame.operator(sums)


def counted_solves(patch):
    """Patch np.linalg.solve to count its calls; returns the list the calls append to."""
    calls = []
    original = np.linalg.solve

    def counted(a, b):
        calls.append(np.shape(a))
        return original(a, b)

    patch.setattr(np.linalg, "solve", counted)
    return calls


class TestKernelVector:
    def assert_certified(self, tup, frame, sums, matrix):
        # kernel_witness's divisor misses 1 by at most 1e-10 over the whole sphere
        witness = kernel_witness(frame, matrix, tup.r)
        assert np.all(np.isfinite(witness.coeffs)) and math.isclose(witness.sup_bound(), 1.0, rel_tol=1e-12)
        scale = make_divisor(witness, tup.r).scale
        mats = np.array([g.matrix for g in tup])
        assert scale * frame.residual_bound(sums, witness.coeffs, mats) <= 1e-10

    def test_fired_pair_degrees_take_one_step(self, monkeypatch):
        # every degree of a half-turn pair fires, and divisibility_test takes the pair's
        # witnesses from the torus frame, with no solve
        tup = half_turn_pair(6, 887)
        calls = counted_solves(monkeypatch)
        report = divisibility_test(tup, 4, rng=881)
        assert report.singular_degrees() == [1, 2, 3, 4]
        assert calls == []

    def test_exactly_zero_operator(self):
        # the {0, pi} circle pair, with the half-turn written as -I, cancels exactly at odd
        # degrees: M is 0 there and every vector is a witness
        tup = RotationTuple((Rotation(np.eye(2)), Rotation(-np.eye(2))))
        for frame, sums, matrix in degree_operators(tup, 5):
            if frame.n % 2:
                assert not np.any(matrix)
                self.assert_certified(tup, frame, sums, matrix)
        assert divisibility_test(tup, 5, rng=317).singular_degrees() == [1, 3, 5]

    def test_search_tuple_without_zero_pivot(self):
        # demo 06's near tuple: at n = 3 the LU of M + 2^-52 max(sigma_max, r) I meets an exact
        # zero pivot; the search's certificate and kernel_witness take the SVD's vector instead
        from spherediv import SearchSettings, derive_rng, search_divisible

        suffix_rng = np.random.default_rng(859)
        suffix = (haar_sample(3, suffix_rng), haar_sample(3, suffix_rng))
        near = RotationTuple((haar_sample(3, derive_rng(863, 1, 556)),) + suffix)
        settings = SearchSettings(restarts=1, max_iter=4000, base_tuple=near)
        run = search_divisible(3, 3, 3, settings, rng=12)
        assert run.certified
        *_, (frame, sums, matrix) = degree_operators(run.best_tuple, 3)
        self.assert_certified(run.best_tuple, frame, sums, matrix)
        report = divisibility_test(run.best_tuple, 3, rng=77)
        assert 3 in report.singular_degrees()
        assert report.degrees[2].residual_bound <= 1e-10

    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(3, 7), n_max=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_half_turn_pairs_match_full_svd_witness(self, d, n_max, seed):
        tup = half_turn_pair(d, seed)
        report = divisibility_test(tup, n_max, rng=seed)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(divisibility, "_pair_witness", svd_pair_witness(tup))
            reference = divisibility_test(tup, n_max, rng=seed)
        assert [rec.verdict for rec in report.degrees] == [rec.verdict for rec in reference.degrees]
        assert report.singular_degrees() == reference.singular_degrees() == list(range(1, n_max + 1))
        assert all(rec.residual_bound <= 1e-10 for rec in report.degrees)


class TestDivisibilityTest:
    def test_identity_tuple_invertible(self):
        report = divisibility_test(identity_tuple(3, 3), 4, rng=173)
        assert not report.divisible
        assert all(rec.verdict == "invertible" for rec in report.degrees)
        assert report.overall.startswith("no divisibility witness")

    def test_opposite_circle_rotations(self):
        report = divisibility_test(circle_tuple(0.0, math.pi), 2, rng=179)
        assert report.divisible
        assert report.degrees[0].verdict == "singular"
        assert report.degrees[1].verdict == "invertible"
        assert report.witness is not None and report.verification.passed

    def test_zero_operator_ratio_is_zero(self):
        # the {0, pi} pair cancels exactly at n = 1: the guard reports 0, not noise/noise
        report = divisibility_test(circle_tuple(0.0, math.pi), 1, rng=83)
        assert report.degrees[0].sigma_min_rel == 0.0

    def test_one_assembly_per_basis(self, monkeypatch, caplog):
        # every degree of a larger tuple builds M once, for its Gram matrix, and takes its
        # witness from the solve with G that decided it, with no second M and no SVD
        from spherediv import SearchSettings, experiments, search_divisible
        from spherediv.fischer import FischerFrame

        calls, vectors = [], []
        operator, svd_witness = FischerFrame.operator, divisibility._svd_witness

        def counted(frame, sums):
            calls.append(frame.n)
            return operator(frame, sums)

        def counted_vector(matrix):
            vectors.append(len(matrix))
            return svd_witness(matrix)

        monkeypatch.setattr(FischerFrame, "operator", counted)
        monkeypatch.setattr(divisibility, "_svd_witness", counted_vector)
        monkeypatch.setattr(experiments, "_svd_witness", counted_vector)
        report = divisibility_test(planar_division(3, 3).rotations, 3, rng=179)
        assert report.singular_degrees() == [1, 2, 3]
        assert calls == [1, 2, 3] and vectors == []
        calls.clear()
        # planar_division(6, 3) rotates one plane: the circle route assembles nothing
        report = divisibility_test(planar_division(6, 3).rotations, 3, rng=179)
        assert report.singular_degrees() == [1, 2, 3]
        assert calls == [] and vectors == []
        generic = RotationTuple(tuple(haar_sample(6, 181 + k) for k in range(3)))
        report = divisibility_test(generic, 3, rng=179)
        assert [rec.verdict for rec in report.degrees] == ["invertible"] * 3
        assert calls == [1, 2, 3] and vectors == []
        calls.clear()
        # a pair takes its fired degrees' witnesses from the torus frame of h, and a circle pair
        # from the weight sums of its plane: no M at all
        report = divisibility_test(half_turn_pair(3, 263), 3, rng=179)
        assert report.singular_degrees() == [1, 2, 3]
        assert calls == [] and vectors == []
        report = divisibility_test(half_turn_pair(6, 263), 3, rng=179)
        assert report.singular_degrees() == [1, 2, 3]
        assert calls == [] and vectors == []
        # a generic triple fires at sing_tol 0.99 on the Gram step's known sigma_min and
        # certifies the vector of that step's solve (tests/test_gram_step.py's large sing_tol)
        rng = np.random.default_rng(611)
        triple = RotationTuple(tuple(haar_sample(3, rng) for _ in range(3)))
        report = divisibility_test(triple, 2, sing_tol=0.99, rng=613)
        assert [rec.verdict for rec in report.degrees] == ["borderline"] * 2
        assert calls == [1, 2] and vectors == []
        calls.clear()
        # a search builds M once per assembly in its trace, and certifies the best iterate from the
        # vector of the SVD that iterate already took: every assembly is an iterate's or a
        # line-search trial's, each with one SVD, and a Jacobian assembles nothing
        for d, r, n, size in [(2, 2, 1, 2), (3, 3, 2, 5)]:
            calls.clear()
            vectors.clear()
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="spherediv"):
                run = search_divisible(d, r, n, SearchSettings(restarts=2, max_iter=100), rng=499)
            assert run.certified
            assert calls == [n] * len(run.trace)
            lines = [rec.getMessage() for rec in caplog.records if rec.getMessage().startswith("restart ")]
            iterations = sum(int(line.split(", ")[3].split()[0]) for line in lines)
            assert iterations and vectors == [size] * len(calls)

    def test_no_sampled_check_per_report(self, monkeypatch):
        calls = []
        original = divisibility.verify_divisor

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(divisibility, "verify_divisor", counted)
        report = divisibility_test(half_turn_pair(6, 263), 4, rng=281)
        assert len(calls) == 0
        assert report.singular_degrees() == [1, 2, 3, 4]
        assert all(rec.residual_bound <= 1e-8 for rec in report.degrees)
        assert report.verification.residual_bound == report.degrees[0].residual_bound
        assert report.verification.n_samples == 0

    def test_one_values_only_svd_per_degree(self, monkeypatch):
        # every degree of this triple fires on its witness's bound, so none takes an SVD; at d = 3
        # no tuple takes the circle route, whose detection takes one
        tup = planar_division(3, 3).rotations
        calls = []
        original = np.linalg.svd

        def counted(a, full_matrices=True, compute_uv=True, hermitian=False):
            calls.append(compute_uv)
            return original(a, full_matrices, compute_uv, hermitian)

        monkeypatch.setattr(np.linalg, "svd", counted)
        report = divisibility_test(tup, 4, rng=281)
        assert report.singular_degrees() == [1, 2, 3, 4]
        assert calls == []

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf, 1.0, 2.0])
    def test_rejects_tolerance_outside_unit_interval(self, tol):
        # 0, -1 and NaN would report every degree invertible, 2 every degree borderline
        tup = RotationTuple(tuple(haar_sample(3, 311 + k) for k in range(3)))
        with pytest.raises(InputDomainError, match="sing_tol"):
            divisibility_test(tup, 2, sing_tol=tol, rng=313)

    def test_cost_guard_refuses_before_allocating(self):
        budget = divisibility.COST_BUDGET_BYTES
        # the benchmark's runs and d = 8 at n_max = 6 fit; d = 8 at n_max = 10 does not
        for d, r, n in [(8, 3, 6), (8, 2, 5), (3, 3, 5), (3, 3, 2)]:
            assert divisibility._peak_bytes(d, r, n) <= budget
        assert divisibility._peak_bytes(8, 2, 10) > budget
        # the admitted edges the comments over COST_BUDGET_BYTES and _STABLE_MAX_DEGREE state
        for d, r, n_max in [(8, 7, 7), (8, 8, 6), (4, 2, 31), (4, 3, 29), (4, 4, 28), (4, 8, 25)]:
            assert divisibility._peak_bytes(d, r, n_max) <= budget, (d, r, n_max)
            assert divisibility._peak_bytes(d, r, n_max + 1) > budget, (d, r, n_max)
        with pytest.raises(InputDomainError, match="budget"):
            divisibility_test(RotationTuple(tuple(haar_sample(8, 293 + k) for k in range(2))), 10, rng=1)

    def test_cost_estimate_covers_the_step_below(self):
        # at d <= 4 and large n the step to degree n - 1, which holds r copies
        # of both Sym^(n-2) and Sym^(n-1), is the peak of the recurrence
        for d in (2, 3, 4):
            sizes = [math.comb(m + d - 1, d - 1) for m in range(41)]
            for r in (2, 8):
                for n in range(2, 41):
                    step = 8 * r * (sizes[n - 1] ** 2 + sizes[n - 2] ** 2)
                    assert divisibility._peak_bytes(d, r, n) >= step, (d, r, n)

    def test_proposition_tuple_singular_degree_one(self):
        rng = np.random.default_rng(181)
        tup, _ = odd_d4_tuple(3, haar_sample(3, rng))
        report = divisibility_test(tup, 2, rng=rng)
        assert report.singular_degrees() == [1]
        assert report.verification.max_residual <= 1e-8

    def test_witness_iff_singular(self):
        invert = divisibility_test(identity_tuple(3, 2), 2, rng=191)
        assert invert.witness is None and invert.divisor is None
        tup, _ = odd_d4_tuple(5, haar_sample(5, 193))
        singular = divisibility_test(tup, 1, rng=197)
        assert singular.witness is not None and singular.divisor is not None

    def test_basis_independence_of_certificate(self):
        # a certified singular verdict never flips under basis resampling
        tup, _ = odd_d4_tuple(3, haar_sample(3, 199))
        for seed in (211, 223, 227):
            report = divisibility_test(tup, 1, rng=seed)
            assert report.divisible

    def test_seed_determinism(self):
        tup = circle_tuple(0.3, 1.1, 2.9)
        a = divisibility_test(tup, 3, rng=229)
        b = divisibility_test(tup, 3, rng=229)
        assert [rec.sigma_min_rel for rec in a.degrees] == [rec.sigma_min_rel for rec in b.degrees]

    def test_rejects_bad_degree_cutoff(self):
        with pytest.raises(InputDomainError):
            divisibility_test(identity_tuple(3, 2), 0, rng=233)

    def test_json_schema_round_trip(self):
        tup, _ = odd_d4_tuple(3, haar_sample(3, 239))
        report = divisibility_test(tup, 2, rng=241)
        obj = json.loads(json.dumps(report.to_json_obj()))
        assert set(obj) >= {"d", "r", "n_max", "degrees", "overall"}
        for rec in obj["degrees"]:
            assert set(rec) >= {"n", "N_n", "sigma_min_rel", "verdict"}
            assert rec["verdict"] in {"invertible", "singular", "borderline"}
        assert obj["witness"]["n"] == 1
        assert len(obj["witness"]["coeffs"]) == dim_harmonic(3, 1)
        assert obj["residual_max"] <= 1e-8
        assert obj["degrees"][0]["residual_bound"] <= 1e-8
        assert obj["degrees"][1]["residual_bound"] is None
        assert obj["verification"]["residual_bound"] == obj["degrees"][0]["residual_bound"]
        # the versioned witness is sum_k coeffs[k] prod_i x_i^exponents[k][i]
        assert obj["witness"]["format"] == "monomial-v1"
        pts = uniform_sphere(3, 50, 243)
        exps = np.array(obj["witness"]["exponents"])
        values = np.prod(pts[:, None, :] ** exps[None], axis=2) @ np.array(obj["witness"]["coeffs"])
        assert np.max(np.abs(values - report.witness(pts))) <= 1e-15


class TestFischerFrame:
    def test_single_rotation_is_orthogonal(self):
        # Sym^n(g) restricted to the harmonics is orthogonal: every singular value is 1
        g = haar_sample(8, 251).matrix
        for n, sums in summed_powers(g[None], 6):
            pass
        svals = weighted_singular_values(fischer_frame(8, 6).operator(sums))
        assert svals.shape == (dim_harmonic(8, 6),)
        assert np.max(np.abs(svals - 1.0)) <= 1e-13

    @pytest.mark.parametrize("d, n_max", [(3, 5), (4, 3), (5, 4), (8, 3)])
    def test_matches_zonal_reference(self, d, n_max):
        rng = np.random.default_rng(257 + d)
        tup = RotationTuple(tuple(haar_sample(d, rng) for _ in range(3)))
        for n, sums in summed_powers(np.array([g.matrix for g in tup]), n_max):
            frame = fischer_frame(d, n)
            assert np.max(np.abs(frame.basis.T @ frame.basis - np.eye(frame.dim))) <= 1e-14
            fischer = weighted_singular_values(frame.operator(sums))
            zonal = weighted_singular_values(operator_matrix(build_zonal_basis(d, n, rng=rng), tup))
            assert np.max(np.abs(fischer - zonal)) <= 1e-9 * fischer[0], (d, n)

    def test_verdicts_ignore_rng(self):
        pair = half_turn_pair(6, 263)
        triple = RotationTuple(tuple(haar_sample(4, 269 + k) for k in range(3)))
        for tup, n_max in [(triple, 4), (pair, 3)]:
            rows = [
                [(rec.n, rec.dim, rec.sigma_min_rel, rec.verdict) for rec in report.degrees]
                for report in (divisibility_test(tup, n_max, rng=seed) for seed in (271, 277))
            ]
            assert rows[0] == rows[1]
        assert [verdict for *_, verdict in rows[0]] == ["singular", "singular", "singular"]


class TestSeedAndDegreeDomain:
    """Seeds and degrees given through the API are refused with InputDomainError, not read loosely or left to numpy."""

    def pair(self):
        # degree 1 fires, so the report derives its sampling stream from the seed
        return RotationTuple((planar_rotation(3, 1, 2, 0.0), planar_rotation(3, 1, 2, math.pi)))

    @pytest.mark.parametrize("rng", [-5, 1.5, True, False, "7", np.float64(2.0)])
    def test_divisibility_test_refuses_a_seed(self, rng):
        # -5 died in numpy's SeedSequence, and int() read 1.5 and True as 1
        with pytest.raises(InputDomainError, match="seed"):
            divisibility_test(self.pair(), 2, rng=rng)

    @pytest.mark.parametrize("n_max", [2.5, True, 0, -1, "3", None])
    def test_divisibility_test_refuses_a_degree(self, n_max):
        # 2.5 raised TypeError in range(), and True ran as n_max = 1
        with pytest.raises(InputDomainError, match="n_max"):
            divisibility_test(self.pair(), n_max, rng=1)

    def test_integer_seeds_of_any_kind_pass(self):
        rows = [divisibility_test(self.pair(), 2, rng=rng).verification.max_residual for rng in (7, np.int64(7))]
        assert rows[0] == rows[1]
        assert divisibility_test(self.pair(), np.int64(2), rng=0).singular_degrees() == [1, 2]

    def test_search_and_study_refuse_a_negative_seed(self):
        from spherediv import GenericityStudy, SearchSettings, run_genericity, search_divisible

        with pytest.raises(InputDomainError, match="seed"):
            search_divisible(3, 3, 2, SearchSettings(restarts=1, max_iter=2), rng=-3)
        with pytest.raises(InputDomainError, match="seed"):
            run_genericity(GenericityStudy(d=3, r=3, suffix=(haar_sample(3, 1), haar_sample(3, 2)), trials=2, n_max=2, seed=-1))
        with pytest.raises(InputDomainError, match="seed"):
            haar_sample(3, 1.5)
