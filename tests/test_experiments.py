import logging
import math
import os
import subprocess
import sys
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spherediv
from spherediv import (
    GenericityStudy,
    InputDomainError,
    RotationTuple,
    SearchSettings,
    cayley_rotation,
    default_free_count,
    derive_rng,
    divisibility_test,
    haar_sample,
    odd_d4_suffix,
    planar_division,
    planar_rotation,
    run_genericity,
    search_divisible,
    weighted_singular_values,
)
from spherediv import divisibility, experiments
from spherediv.divisibility import DEFAULT_SING_TOL
from spherediv.experiments import search_csv_text, trial_csv_text
from spherediv.fischer import fischer_frame, summed_powers
from spherediv.rotations import haar_from_gaussian


class TestCayleyChart:
    def test_zero_parameters_give_base(self):
        base = haar_sample(4, 311).matrix
        assert np.allclose(cayley_rotation(base, np.zeros(6)), base)

    def test_output_is_special_orthogonal(self):
        rng = np.random.default_rng(313)
        bases, theta = [], []
        for _ in range(10):
            bases.append(haar_sample(3, rng).matrix)
            theta.append(rng.uniform(-1, 1, size=3))
        stacked = cayley_rotation(np.array(bases), np.array(theta))
        for base, params, mat in zip(bases, theta, stacked):
            # one stacked solve agrees with the per-rotation solve
            assert np.max(np.abs(mat - cayley_rotation(base, params))) <= 1e-14
            assert np.max(np.abs(mat.T @ mat - np.eye(3))) <= 1e-12
            assert math.isclose(np.linalg.det(mat), 1.0, abs_tol=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 8])
    def test_matches_fresh_reference(self, d):
        # cached chart constants change no operation: equal, not merely close
        def reference(base, theta):
            s = np.zeros(theta.shape[:-1] + (d, d))
            iu = np.triu_indices(d, k=1)
            s[..., iu[0], iu[1]] = theta
            s = s - np.swapaxes(s, -1, -2)
            eye = np.eye(d)
            return base @ np.swapaxes(np.linalg.solve(eye - s, eye + s), -1, -2)

        rng = np.random.default_rng(331 + d)
        n_params = d * (d - 1) // 2
        base = haar_sample(d, rng).matrix
        theta = rng.uniform(-1, 1, size=n_params)
        assert np.array_equal(cayley_rotation(base, theta), reference(base, theta))
        bases = np.array([haar_sample(d, rng).matrix for _ in range(4)])
        thetas = rng.uniform(-1, 1, size=(4, n_params))
        assert np.array_equal(cayley_rotation(bases, thetas), reference(bases, thetas))

    def test_chart_constants_are_read_only(self):
        for arr in experiments._chart_constants(4):
            with pytest.raises(ValueError):
                arr[0] = 0

    @pytest.mark.parametrize("d, shape", [(3, (2,)), (3, (4,)), (3, (1,)), (3, (2, 4)), (2, ())])
    def test_rejects_wrong_parameter_count(self, d, shape):
        base = haar_sample(d, 337).matrix
        with pytest.raises(InputDomainError, match=f"expected last axis d\\(d-1\\)/2 = {d * (d - 1) // 2}"):
            cayley_rotation(base, np.zeros(shape))

    def test_one_search_builds_the_chart_indices_once(self, monkeypatch):
        calls = []
        triu_indices = np.triu_indices

        def counted(*args, **kwargs):
            calls.append(args)
            return triu_indices(*args, **kwargs)

        experiments._chart_constants.cache_clear()
        monkeypatch.setattr(np, "triu_indices", counted)
        search_divisible(3, 3, 2, SearchSettings(restarts=1, max_iter=60), rng=347)
        assert len(calls) <= 1


class TestGenericity:
    def test_default_free_count(self):
        assert default_free_count(3, 4) == 2
        assert default_free_count(3, 5) == 2
        assert default_free_count(2, 6) == 1

    def test_diagonal_suffix_always_singular(self):
        # the designed counterexample: every free rotation extends to a
        # divisible 4-tuple over the odd-d diagonal suffix
        study = GenericityStudy(
            d=3, r=4, suffix=odd_d4_suffix(3), trials=5, n_max=1, seed=317, ell=1
        )
        result = run_genericity(study)
        assert result.n_singular == 5
        assert result.n_failed == 0
        for rec in result.records:
            assert rec.degrees[0][2] == "singular"

    def test_haar_suffix_never_singular(self):
        rng = np.random.default_rng(331)
        suffix = tuple(haar_sample(3, rng) for _ in range(2))
        study = GenericityStudy(d=3, r=3, suffix=suffix, trials=20, n_max=3, seed=337, ell=1)
        result = run_genericity(study)
        assert result.n_singular == 0
        assert result.ratio_quartiles[0] > 1e-6

    def test_determinism(self):
        suffix = (haar_sample(3, 347), haar_sample(3, 349))
        study = GenericityStudy(d=3, r=3, suffix=suffix, trials=6, n_max=2, seed=353, ell=1)
        a = run_genericity(study)
        b = run_genericity(study)
        assert a.ratio_quartiles == b.ratio_quartiles
        assert trial_csv_text(a) == trial_csv_text(b)

    @pytest.mark.parametrize("trials", [1, 2, 3, 4, 5, 999, 1000, 20_000])
    def test_quartiles_are_numpys_percentiles(self, trials):
        # bit for bit, over spread magnitudes, ties and zeros; a ratio is never -0.0, whose
        # place among equal zeros np.sort and np.percentile's partition may choose differently
        rng = np.random.default_rng(trials)
        spread = 10.0 ** rng.uniform(-12, 0, size=trials)
        zeroed = np.where(rng.random(trials) < 0.3, 0.0, spread)
        samples = [
            spread,
            zeroed,
            np.round(spread, 2),
            rng.choice([0.0, 1e-12, 0.5, 1.0], size=trials),
        ]
        for values in samples:
            ratios = values.tolist()
            want = np.percentile(ratios, [0, 25, 50, 75, 100])
            assert np.array(experiments._quartiles(ratios)).tobytes() == want.tobytes()

    def test_study_quartiles_are_numpys_percentiles(self):
        # Haar trials, and singular ones whose ratios tie at the bottom
        suffix = (haar_sample(3, 347), haar_sample(3, 349))
        haar = GenericityStudy(d=3, r=3, suffix=suffix, trials=20, n_max=2, seed=353, ell=1)
        diagonal = GenericityStudy(d=3, r=4, suffix=odd_d4_suffix(3), trials=5, n_max=1, seed=317, ell=1)
        for study in (haar, diagonal):
            result = run_genericity(study)
            want = np.percentile([rec.min_ratio for rec in result.records], [0, 25, 50, 75, 100])
            assert np.array(result.ratio_quartiles).tobytes() == want.tobytes()
            assert all(type(q) is float for q in result.ratio_quartiles)

    def test_trial_rows_shape(self):
        suffix = (haar_sample(2, 359),)
        study = GenericityStudy(d=2, r=2, suffix=suffix, trials=3, n_max=2, seed=367, ell=1)
        result = run_genericity(study)
        rows = result.trial_rows()
        assert len(rows) == 3 * 2
        header_free = trial_csv_text(result).splitlines()
        assert header_free[0] == "trial,n,sigma_min_rel,verdict"

    def test_config_validation(self):
        with pytest.raises(InputDomainError):
            GenericityStudy(d=3, r=3, suffix=(), trials=2, n_max=2, seed=1, ell=1)
        with pytest.raises(InputDomainError):
            GenericityStudy(
                d=3, r=3, suffix=(haar_sample(4, 1), haar_sample(4, 2)), trials=2, n_max=2, seed=1, ell=1
            )
        with pytest.raises(InputDomainError):
            GenericityStudy(
                d=3, r=3, suffix=(haar_sample(3, 1), haar_sample(3, 2)), trials=2, n_max=0, seed=1, ell=1
            )
        with pytest.raises(InputDomainError, match="budget"):
            GenericityStudy(d=8, r=2, suffix=(haar_sample(8, 1),), trials=2, n_max=10, seed=1, ell=1)

    def test_study_over_memory_budget_refused(self):
        suffix = (haar_sample(3, 1),)
        with pytest.raises(InputDomainError, match="trials=1000000000 .* budget"):
            GenericityStudy(d=3, r=2, suffix=suffix, trials=10**9, n_max=5, seed=1, ell=1)
        # acceptance criterion 8's study is admitted
        GenericityStudy(d=3, r=3, suffix=suffix * 2, trials=1000, n_max=5, seed=1, ell=1)

    @pytest.mark.parametrize("d, r, ell, n_max", [(2, 3, 1, 6), (4, 2, 1, 4)])
    def test_price_bounds_the_peak(self, d, r, ell, n_max, monkeypatch):
        # the bytes a study is priced at bound tracemalloc's peak of running it, less a 1-trial
        # study's peak: the streams' state table and the records included, at 20 000 trials
        prices = []
        monkeypatch.setattr(experiments, "_check_budget", lambda need, *args: prices.append(need))
        rng = np.random.default_rng(5)
        suffix = tuple(haar_sample(d, rng) for _ in range(r - ell))
        studies = [GenericityStudy(d=d, r=r, suffix=suffix, trials=t, n_max=n_max, seed=7, ell=ell) for t in (1, 20_000)]
        run_genericity(studies[0])  # fills the caches of frames and tables before anything is traced
        peaks = []
        for study in studies:
            tracemalloc.start()
            try:
                run_genericity(study)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= prices[1] - prices[0]

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf, 1.0, 2.0])
    def test_rejects_tolerance_outside_unit_interval(self, tol):
        suffix = (haar_sample(3, 1), haar_sample(3, 2))
        with pytest.raises(InputDomainError, match="sing_tol"):
            GenericityStudy(d=3, r=3, suffix=suffix, trials=2, n_max=2, seed=1, ell=1, sing_tol=tol)

    @pytest.mark.parametrize(
        "d, r, ell, trials, n_max, seed",
        [(3, 3, 1, 40, 4, 443), (4, 4, 2, 12, 3, 449), (3, 2, 2, 10, 3, 461), (4, 3, 3, 8, 3, 463)],
    )
    def test_batched_matches_per_trial_test(self, d, r, ell, trials, n_max, seed):
        # each trial's tuple and seed come from derive_rng(seed, 1, k); the
        # batched study must reach the standalone verdicts and ratios, which
        # differ only by round-off (a stacked SVD against the Gram step);
        # ell == r leaves an empty suffix, on the pair route and on the Gram route
        rng = np.random.default_rng(seed)
        suffix = tuple(haar_sample(d, rng) for _ in range(r - ell))
        study = GenericityStudy(d=d, r=r, suffix=suffix, trials=trials, n_max=n_max, seed=seed, ell=ell)
        result = run_genericity(study)
        for k, rec in enumerate(result.records):
            trial_rng = derive_rng(seed, 1, k)
            free = tuple(haar_sample(d, trial_rng) for _ in range(ell))
            report = divisibility_test(
                RotationTuple(free + suffix), n_max, rng=int(trial_rng.integers(0, 2**63))
            )
            expected = [(deg.n, deg.sigma_min_rel, deg.verdict) for deg in report.degrees]
            assert [(n, v) for n, _, v in rec.degrees] == [(n, v) for n, _, v in expected]
            for (_, got, _), (_, want, _) in zip(rec.degrees, expected):
                assert math.isclose(got, want, rel_tol=0.0, abs_tol=1e-13)

    @pytest.mark.parametrize("sing_tol", [DEFAULT_SING_TOL, 0.05])
    def test_circle_study_above_the_old_cap_matches_per_trial_test(self, sing_tol):
        # every d = 2 trial takes the circle route, so n_max may pass the recurrence's cap of 50; the
        # rows equal a standalone run's exactly, re-run trials (a tolerance of 0.05 gives some) included
        suffix = (haar_sample(2, 1), haar_sample(2, 2))
        study = GenericityStudy(d=2, r=3, suffix=suffix, trials=5, n_max=51, seed=1, ell=1, sing_tol=sing_tol)
        result = run_genericity(study)
        verdicts = set()
        for k, rec in enumerate(result.records):
            trial_rng = derive_rng(1, 1, k)
            free = (haar_sample(2, trial_rng),)
            report = divisibility_test(RotationTuple(free + suffix), 51, sing_tol, rng=int(trial_rng.integers(0, 2**63)))
            assert rec.degrees == tuple((deg.n, deg.sigma_min_rel, deg.verdict) for deg in report.degrees), k
            verdicts |= {deg.verdict for deg in report.degrees}
        assert verdicts == ({"invertible"} if sing_tol == DEFAULT_SING_TOL else {"invertible", "borderline"})

    def test_circle_study_is_priced_by_its_tables(self):
        # the recurrence's cap does not apply at d = 2, and a study past the circle route's budget is refused
        suffix = (haar_sample(2, 1), haar_sample(2, 2))
        GenericityStudy(d=2, r=3, suffix=suffix, trials=2, n_max=10**4, seed=1, ell=1)
        with pytest.raises(InputDomainError, match="circle route"):
            GenericityStudy(d=2, r=3, suffix=suffix, trials=2, n_max=10**9, seed=1, ell=1)

    def test_stacked_haar_equals_haar_sample(self):
        d, ell, trials = 3, 2, 25
        stacked = haar_from_gaussian(np.random.default_rng(457).standard_normal((trials, ell, d, d)))
        rng = np.random.default_rng(457)
        single = np.array([[haar_sample(d, rng).matrix for _ in range(ell)] for _ in range(trials)])
        assert np.array_equal(stacked, single)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(d=st.integers(2, 5), r=st.integers(2, 5), n_max=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_study_rows_equal_standalone_rows(d, r, n_max, seed):
    # every trial's row is a standalone divisibility_test's of the same tuple and seed: bit for bit on
    # the circle route (d = 2), and up to round-off on the pair route and the Gram batch, relative to the
    # ratio and, for a ratio near 0 (a Haar trial at d = 5, r = 4 read 4.6e-6, 1.2e-16 apart), to sigma_max
    rng = np.random.default_rng(seed)
    suffix = tuple(haar_sample(d, rng) for _ in range(r - 1))
    study = GenericityStudy(d=d, r=r, suffix=suffix, trials=4, n_max=n_max, seed=seed % 997, ell=1)
    rtol = 1e-14 if r == 2 else 1e-11
    for k, rec in enumerate(run_genericity(study).records):
        trial_rng = derive_rng(study.seed, 1, k)
        free = (haar_sample(d, trial_rng),)
        report = divisibility_test(RotationTuple(free + suffix), n_max, rng=int(trial_rng.integers(0, 2**63)))
        assert [(n, verdict) for n, _, verdict in rec.degrees] == [(deg.n, deg.verdict) for deg in report.degrees]
        for (n, ratio, _), deg in zip(rec.degrees, report.degrees):
            if d == 2:
                assert ratio == deg.sigma_min_rel, (k, n)
            else:
                assert math.isclose(ratio, deg.sigma_min_rel, rel_tol=rtol, abs_tol=1e-15), (k, n)


class TestCounts:
    """Every public count is an integer of at least its minimum: a bool, a float or a smaller value is refused."""

    @pytest.mark.parametrize("value", [True, 2.5, 0, -1])
    @pytest.mark.parametrize(
        "call",
        [
            lambda v: divisibility_test(RotationTuple((haar_sample(3, 1), haar_sample(3, 2))), v, rng=1),
            lambda v: GenericityStudy(d=3, r=3, suffix=(haar_sample(3, 1),), trials=2, n_max=v, seed=1, ell=2),
            lambda v: GenericityStudy(d=3, r=3, suffix=(haar_sample(3, 1),), trials=v, n_max=2, seed=1, ell=2),
            lambda v: GenericityStudy(d=3, r=3, suffix=(), trials=2, n_max=2, seed=1, ell=v),
            lambda v: search_divisible(3, 3, v, rng=1),
            lambda v: search_divisible(3, v, 2, rng=1),
            lambda v: SearchSettings(restarts=v),
            lambda v: SearchSettings(max_iter=v),
        ],
        ids=["test-n_max", "study-n_max", "study-trials", "study-ell", "search-n", "search-r", "restarts", "max_iter"],
    )
    def test_refused(self, call, value):
        with pytest.raises(InputDomainError, match="and an integer"):
            call(value)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: haar_sample(2.5, 0),
            lambda: planar_division(3, 2.5),
            lambda: odd_d4_suffix(5.0),
            lambda: spherediv.GegenbauerTable(3, 2.5),
            lambda: spherediv.build_zonal_basis(3, 2.5, 1),
            lambda: spherediv.verify_divisor(planar_division(3, 2).rotations, lambda x: x[:, 0], 2.5, 1),
            lambda: derive_rng(1, -1),
            lambda: spherediv.circle_bad_angles(True, [0.5]),
            lambda: spherediv.circle_bad_angles(2.5, [0.5]),
            lambda: spherediv.analyze_circle(2.5, [0.5]),
        ],
        ids=[
            "haar_sample-d", "planar_division-r", "odd_d4_suffix-d", "gegenbauer-n_max", "zonal_basis-n",
            "verify-samples", "derive_rng-key", "bad_angles-bool", "bad_angles-float", "analyze_circle-float",
        ],
    )
    def test_other_public_counts_refused(self, call):
        with pytest.raises(InputDomainError, match="and an integer"):
            call()

    @pytest.mark.parametrize(
        "call, name",
        [
            (lambda: study(3, 1, (), ell=1), "r"),
            (lambda: study(3, 1, ()), "r"),
            (lambda: study(3, True, (), ell=1), "r"),
            (lambda: study(3, 2.0, (), ell=2), "r"),
            (lambda: study(2.5, 3, (haar_sample(3, 1),), ell=2), "d"),
            (lambda: study(1, 3, (haar_sample(3, 1),), ell=2), "d"),
            (lambda: study(3, 3, (haar_sample(3, 1).matrix,), ell=2), "suffix"),
            (lambda: search_divisible(2.5, 3, 2, rng=1), "d"),
            (lambda: search_divisible(3.0, 3, 1, rng=1), "d"),
            (lambda: SearchSettings(base_tuple=[haar_sample(3, 1), haar_sample(3, 2).matrix]), "base_tuple"),
            (lambda: RotationTuple((haar_sample(3, 1).matrix, haar_sample(3, 2).matrix)), "rotations"),
            (lambda: divisibility_test([haar_sample(3, 1).matrix, haar_sample(3, 2).matrix], 2, rng=1), "rotations"),
            (lambda: spherediv.odd_d4_tuple(3, haar_sample(3, 1).matrix), "gamma1"),
            (lambda: spherediv.Rotation([["a", "b"], ["c", "d"]]), "matrix"),
            (lambda: spherediv.kernel_witness(fischer_frame(3, 1), np.zeros((3, 3)), r=True), "r"),
            (lambda: spherediv.make_divisor(linear_witness(), 2.5), "r"),
            (lambda: planar_rotation(3, True, 2, 0.1), "i"),
            (lambda: planar_rotation(2.5, 1, 2, 0.1), "d"),
            (lambda: spherediv.dim_harmonic(3, 2.5), "n"),
            # each of these raised TypeError (not iterable) or returned a value
            (lambda: RotationTuple(5), "rotations"),
            (lambda: SearchSettings(base_tuple=5), "base_tuple"),
            (lambda: GenericityStudy(d=3, r=3, suffix=None, trials=5, n_max=2, seed=1), "suffix"),
            (lambda: default_free_count(3, 1), "r"),
            (lambda: default_free_count(2.5, 3), "d"),
            (lambda: spherediv.sphere_area(2.5), "d"),
        ],
        ids=[
            "study-r1-ell", "study-r1", "study-r-bool", "study-r-float", "study-d-float", "study-d1",
            "study-suffix-array", "search-d-float", "search-d-float-n1", "base_tuple-array",
            "tuple-arrays", "test-arrays", "odd_d4-gamma1-array", "rotation-strings",
            "kernel_witness-r-bool", "make_divisor-r-float", "planar_rotation-i-bool",
            "planar_rotation-d-float", "dim_harmonic-n-float", "tuple-int", "base_tuple-int",
            "study-suffix-none", "free_count-r1", "free_count-d-float", "sphere_area-d-float",
        ],
    )
    def test_bad_counts_and_non_rotations_name_the_argument(self, call, name):
        with pytest.raises(InputDomainError, match=rf"\b{name} must"):
            call()

    def test_base_tuple_of_rotations_is_a_tuple(self):
        # a list of Rotation entries becomes a RotationTuple, so the search can read it
        tup = [haar_sample(3, 1), haar_sample(3, 2), haar_sample(3, 1)]
        settings = SearchSettings(restarts=1, max_iter=4, base_tuple=tup)
        assert isinstance(settings.base_tuple, RotationTuple) and settings.base_tuple.rotations == tuple(tup)
        assert search_divisible(3, 3, 1, settings, rng=1).restart_ratios


def study(d, r, suffix, ell=None):
    return GenericityStudy(d=d, r=r, suffix=suffix, trials=2, n_max=2, seed=1, ell=ell)


def linear_witness():
    """The degree-1 harmonic x_1, in the Fischer frame of S^2."""
    return spherediv.HarmonicFunction(fischer_frame(3, 1), np.array([1.0, 0.0, 0.0]))


class TestSearch:
    def test_circle_pair_converges_and_certifies(self):
        base = RotationTuple(
            (planar_rotation(2, 1, 2, 0.15), planar_rotation(2, 1, 2, math.pi - 0.2))
        )
        settings = SearchSettings(restarts=2, max_iter=400, base_tuple=base)
        run = search_divisible(2, 2, 1, settings, rng=373)
        assert run.certified
        assert run.best_ratio < settings.target_ratio
        assert run.residual_max <= 1e-8

    def test_trace_nonincreasing_and_nonnegative(self):
        base = RotationTuple(
            (planar_rotation(2, 1, 2, 0.4), planar_rotation(2, 1, 2, 2.0))
        )
        settings = SearchSettings(restarts=1, max_iter=120, base_tuple=base)
        run = search_divisible(2, 2, 1, settings, rng=379)
        assert all(val >= 0.0 for val in run.trace)
        assert all(a >= b for a, b in zip(run.trace, run.trace[1:]))

    def test_recovers_diagonal_family_neighborhood(self):
        # perturb the odd-d 4-tuple and let Gauss-Newton walk back to zero
        rng = np.random.default_rng(383)
        mats = [haar_sample(3, rng).matrix] + [g.matrix for g in odd_d4_suffix(3)]
        from spherediv import Rotation

        perturbed = tuple(
            Rotation(m @ cayley_rotation(np.eye(3), 0.04 * rng.standard_normal(3)))
            for m in mats
        )
        settings = SearchSettings(
            restarts=1, max_iter=20, base_tuple=RotationTuple(perturbed)
        )
        run = search_divisible(3, 4, 1, settings, rng=389)
        assert run.certified
        assert run.best_ratio < settings.target_ratio
        assert run.residual_max <= 1e-8

    def test_budget_exhaustion_returns_best(self):
        # two Gauss-Newton iterations, within 8 assemblies, leave this restart short of the target
        settings = SearchSettings(restarts=1, max_iter=2)
        run = search_divisible(3, 3, 1, settings, rng=397)
        assert not run.certified
        assert run.best_tuple.r == 3
        assert run.best_ratio >= 0.0
        assert len(run.trace) <= 4 * settings.max_iter

    def test_seed_determinism(self):
        settings = SearchSettings(restarts=1, max_iter=40)
        a = search_divisible(2, 2, 1, settings, rng=401)
        b = search_divisible(2, 2, 1, settings, rng=401)
        assert a.best_ratio == b.best_ratio
        assert search_csv_text(a) == search_csv_text(b)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf, 1.0, 2.0])
    def test_rejects_target_outside_unit_interval(self, tol):
        with pytest.raises(InputDomainError, match="target_ratio"):
            SearchSettings(target_ratio=tol)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("restarts", 0),
            ("restarts", -1),
            ("max_iter", 0),
            ("max_iter", -5),
            ("target_ratio", 0.0),
            ("target_ratio", -0.35),
            ("target_ratio", math.nan),
            ("target_ratio", math.inf),
            ("target_ratio", -math.inf),
        ],
    )
    def test_rejects_unrunnable_budget(self, field, value):
        with pytest.raises(InputDomainError, match=field):
            SearchSettings(**{field: value})

    @pytest.mark.parametrize("restarts, max_iter", [(10**12, 1), (1, 10**9), (10**4, 10**4)])
    def test_rejects_a_trace_over_the_memory_budget(self, restarts, max_iter):
        # the trace keeps one value per evaluation, up to 4 max_iter of them per restart
        with pytest.raises(InputDomainError, match=f"restarts={restarts}, max_iter={max_iter} .* budget"):
            SearchSettings(restarts=restarts, max_iter=max_iter)
        SearchSettings(restarts=4, max_iter=10**5)

    def test_rejects_a_chart_over_the_memory_budget(self):
        # at d = 300 the quotient chart's SVD is of a 44850 x 44850 matrix: refused before it allocates
        tracemalloc.start()
        try:
            with pytest.raises(InputDomainError, match="a search chart at d=300 would need .* budget"):
                search_divisible(300, 3, 1, rng=431)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_debug_line_per_restart(self, caplog):
        # two iterations per restart, too few to meet the target, so both restarts run
        settings = SearchSettings(restarts=2, max_iter=2)
        with caplog.at_level(logging.DEBUG, logger="spherediv"):
            run = search_divisible(3, 3, 1, settings, rng=421)
        lines = [rec.getMessage() for rec in caplog.records if rec.name == "spherediv"]
        lines = [line for line in lines if line.startswith("restart ")]
        assert [line.split(":")[0] for line in lines] == ["restart 0", "restart 1"]
        counts = [int(line.split(", ")[0].split()[-2]) for line in lines]
        assert sum(counts) == len(run.trace)
        ratios = [float(line.split(", ")[1].split()[-1]) for line in lines]
        assert ratios == [float(f"{ratio:.3e}") for ratio in run.restart_ratios]
        # the Gauss-Newton iteration count follows the existing fields; each restart assembles
        # its base tuple and, per iteration, 1 to 7 line-search trials within its budget of 8
        iterations = [int(line.split(", ")[3].split()[0]) for line in lines]
        assert iterations == [2, 2]
        assert all(1 + 2 <= count <= 8 for count in counts), counts

    @pytest.mark.parametrize("d, n", [(3, 2), (8, 3)])
    def test_max_iter_bounds_iterations(self, d, n, caplog):
        # max_iter = 1 takes exactly one Gauss-Newton iteration per restart: a Jacobian costs no
        # assembly, so the budget of 4 assemblies always leaves room for it
        with caplog.at_level(logging.DEBUG, logger="spherediv"):
            search_divisible(d, 3, n, SearchSettings(restarts=2, max_iter=1, target_ratio=1e-15), rng=3)
        lines = [rec.getMessage() for rec in caplog.records if rec.getMessage().startswith("restart ")]
        assert [int(line.split(", ")[3].split()[0]) for line in lines] == [1, 1], lines

    def test_assemblies_are_iterates_and_trials(self, monkeypatch, caplog):
        # every assembly is an iterate's or a line-search trial's, and every Jacobian is read from
        # its iterate's assembly once, with no operator of its own
        from spherediv.fischer import FischerFrame

        assemble, operator = experiments._assemble, FischerFrame.operator
        assemblies, jacobians, operators = [], [], []

        def counted(*args):
            *assembly, jacobian = assemble(*args)
            assemblies.append(args[-1])
            return (*assembly, lambda v: jacobians.append(v) or jacobian(v))

        def counted_operator(frame, sums):
            operators.append(frame.n)
            return operator(frame, sums)

        monkeypatch.setattr(experiments, "_assemble", counted)
        monkeypatch.setattr(FischerFrame, "operator", counted_operator)
        with caplog.at_level(logging.DEBUG, logger="spherediv"):
            run = search_divisible(4, 3, 3, SearchSettings(restarts=2, max_iter=6, target_ratio=1e-300), rng=5)
        lines = [rec.getMessage() for rec in caplog.records if rec.getMessage().startswith("restart ")]
        iterations = sum(int(line.split(", ")[3].split()[0]) for line in lines)
        assert len(assemblies) == len(operators) == len(run.trace)
        assert len(jacobians) == iterations >= 2
        # per restart: the base tuple at x = 0, then each iteration's trials
        assert sum(not np.any(x) for x in assemblies) == len(lines) == 2

    def test_default_search_stops_at_the_target(self):
        # the search stops at the first iterate that meets target_ratio: the last assembly
        target = SearchSettings().target_ratio
        run = search_divisible(3, 3, 2, rng=509)
        assert run.certified
        assert run.best_ratio < target
        first = next(k for k, val in enumerate(run.trace) if val < target)
        assert first == len(run.trace) - 1, (first, len(run.trace))
        assert run.trace[-1] == run.best_ratio

    def test_smaller_target_reaches_a_deeper_minimum(self):
        run = search_divisible(3, 3, 2, SearchSettings(target_ratio=1e-15), rng=509)
        assert run.certified
        assert run.best_ratio < 1e-15

    @pytest.mark.parametrize("target", [1e-4, 1e-6])
    def test_large_target_still_certifies(self, target):
        # a tuple's certificate residual is a fraction of its ratio, so a search stopped just
        # under 1e-4 would fail RESIDUAL_TOL = 1e-8; it refines on to the default tolerance
        run = search_divisible(3, 3, 2, SearchSettings(target_ratio=target), rng=509)
        assert run.certified
        assert run.best_ratio < SearchSettings().target_ratio
        assert run.residual_max <= 1e-8

    def test_rejects_bad_degree(self):
        with pytest.raises(InputDomainError):
            search_divisible(2, 2, 0, SearchSettings(), rng=409)
        with pytest.raises(InputDomainError, match="budget"):
            search_divisible(8, 2, 10, SearchSettings(), rng=409)

    @pytest.mark.parametrize("r", [-1, 0, 1])
    def test_rejects_fewer_than_two_rotations_before_searching(self, r, monkeypatch):
        def refused(*args):
            raise AssertionError("the Gauss-Newton iterations ran")

        monkeypatch.setattr(experiments, "_gauss_newton", refused)
        with pytest.raises(InputDomainError, match=f"r must be >= 2 and an integer, got {r}"):
            search_divisible(3, r, 2, SearchSettings(), rng=409)


def degree_singular_values(mats, n):
    """The singular values of the degree-n operator of the tuple ``mats`` (r, d, d)."""
    *_, (_, sums) = summed_powers(mats, n)
    return weighted_singular_values(fischer_frame(mats.shape[-1], n).operator(sums))


def recorded_search(monkeypatch, *args, **kwargs):
    """Run search_divisible; return it with its events: ("base", bases) per restart and ("eval", tuple) per assembly."""
    events = []
    chart, assemble = experiments._quotient_chart, experiments._assemble

    def charted(bases):
        events.append(("base", bases.copy()))
        return chart(bases)

    def evaluated(*args):
        assembly = assemble(*args)
        events.append(("eval", assembly[0].copy()))
        return assembly

    monkeypatch.setattr(experiments, "_quotient_chart", charted)
    monkeypatch.setattr(experiments, "_assemble", evaluated)
    return search_divisible(*args, **kwargs), events


class TestTranslatedSearch:
    """The search decides the translated tuple h_s = gamma_1^T gamma_s, as divisibility_test's Gram route does."""

    def test_recurrence_runs_on_r_minus_one_rotations(self, monkeypatch):
        # h_1 = I is free: every assembly hands h_2 .. h_r to summed_powers once, as r - 1
        # one-rotation tuples, and adds I to their sum itself; a Jacobian hands over nothing
        handed = []
        powers = experiments.summed_powers

        def recorded(mats, n_max, **options):
            handed.append((np.shape(mats), options))
            return powers(mats, n_max, **options)

        monkeypatch.setattr(experiments, "summed_powers", recorded)
        for d, r, n in [(3, 3, 2), (4, 4, 1)]:
            handed.clear()
            run = search_divisible(d, r, n, SearchSettings(restarts=1, max_iter=6), rng=563)
            assert handed == [((r - 1, 1, d, d), {})] * len(run.trace)

    def test_formed_products_join_the_bound(self, monkeypatch):
        # were the formed h_s off by as much as the residual allows, the certificate could not pass:
        # the search's bound carries _formed_slack
        assert search_divisible(3, 3, 2, rng=1).certified
        monkeypatch.setattr(divisibility, "_formed_slack", lambda d, r, n: 0.5)
        run = search_divisible(3, 3, 2, rng=1)
        assert run.best_ratio < DEFAULT_SING_TOL
        assert not run.certified and run.residual_max > 1e-8


class TestQuotientChart:
    """The search moves gamma_1 not at all and gamma_2 only along the maximal torus of h_2 = g_1^T g_2."""

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(2, 6), r=st.integers(2, 4), n=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_translations_keep_the_singular_values(self, d, r, n, seed):
        # the quotient rests on this: sum_s rho(k gamma_s l) = rho(k) (sum_s rho(gamma_s)) rho(l)
        rng = np.random.default_rng(seed)
        mats = np.array([haar_sample(d, rng).matrix for _ in range(r)])
        k, l = haar_sample(d, rng).matrix, haar_sample(d, rng).matrix
        moved = degree_singular_values(k @ mats @ l, n)
        assert np.max(np.abs(moved - degree_singular_values(mats, n))) <= 1e-12 * r

    @pytest.mark.parametrize("d, r", [(2, 2), (2, 4), (3, 2), (3, 3), (4, 3), (5, 4)])
    def test_simplex_dimension(self, d, r, monkeypatch):
        # the chart's dimension, once the simplex's, is each Gauss-Newton step's Jacobian column
        # count: at n = 1, M is d x d, so each bordered system [J M; 0 v^T] is (d + 1) x (dim + d)
        shapes = []
        lstsq = np.linalg.lstsq

        def recorded(a, *args, **kwargs):
            shapes.append(a.shape)
            return lstsq(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", recorded)
        search_divisible(d, r, 1, SearchSettings(restarts=2, max_iter=8), rng=521)
        dim = d // 2 + (r - 2) * d * (d - 1) // 2
        assert shapes and set(shapes) == {(d + 1, dim + d)}, shapes

    @pytest.mark.parametrize("d, r, n", [(3, 3, 2), (4, 3, 1), (5, 2, 2)])
    def test_every_evaluation_stays_in_the_chart(self, d, r, n, monkeypatch):
        run, events = recorded_search(monkeypatch, d, r, n, SearchSettings(restarts=2, max_iter=60), rng=523)
        evaluations = 0
        for kind, mats in events:
            if kind == "base":
                base, h = mats, mats[0].T @ mats[1]
                continue
            evaluations += 1
            assert mats[0].tobytes() == base[0].tobytes()
            moved = base[0].T @ mats[1]
            assert np.max(np.abs(moved @ h - h @ moved)) <= 1e-12
        assert evaluations == len(run.trace)  # the certificate reuses the best iterate's assembly

    def test_base_tuple_is_evaluated_first(self, monkeypatch):
        base = RotationTuple(tuple(haar_sample(3, 541 + s) for s in range(3)))
        _, events = recorded_search(monkeypatch, 3, 3, 2, SearchSettings(restarts=1, max_iter=5, base_tuple=base), rng=547)
        kind, first = events[1]
        assert kind == "eval" and first.tobytes() == np.array([g.matrix for g in base]).tobytes()

    def test_default_search_certifies_over_40_seeds(self):
        evaluations = []
        for seed in range(40):
            run = search_divisible(3, 3, 2, rng=seed)
            assert run.certified, seed
            evaluations.append(len(run.trace))
        assert np.median(evaluations) <= 40, evaluations

    @pytest.mark.parametrize("r, n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (3, 4)])
    def test_circle_searches_certify_over_20_seeds(self, r, n):
        # at d = 2 the degree-n operator is a complex scalar, so its zero set has codimension 2:
        # sigma_min alone cannot be driven to zero by a scalar Newton step, the bordered system can
        for seed in range(20):
            run = search_divisible(2, r, n, rng=seed)
            assert run.certified, seed
            assert run.residual_max <= 1e-8, seed


def complex_scalar(a, b):
    """The 2 x 2 real form of a + ib: both singular values are |a + ib|, so M v = 0 is a = b = 0."""
    return np.array([[a, -b], [b, a]])


def rosenbrock(x):
    # sigma_min^2 is Rosenbrock's function 100 (x_1 - x_0^2)^2 + (1 - x_0)^2, zero at (1, 1)
    return complex_scalar(10.0 * (x[1] - x[0] ** 2), 1.0 - x[0])


def spike(x):
    # 1 + x_0 near the origin, so the step from 0 is -e_1, but 2 for x_0 <= -0.02: the trials
    # t = 1, 1/2, ..., 1/32 fail and t = 1/64 lowers sigma_min to 1 - 1/64
    return np.array([[1.0 + x[0] if x[0] > -0.02 else 2.0]])


def plateau(x):
    # a bowl in quarter steps: ties between the iterate and its trial points
    return np.array([[math.floor(4.0 * float((x - 0.5) @ (x - 0.5))) / 4.0]])


def quadratic(dim, seed, size=3):
    """A seeded family M(x) = A + sum_k x_k B_k + sum_k x_k^2 C_k of size x size Gaussian matrices."""
    rng = np.random.default_rng(seed)
    a, (b, c) = rng.standard_normal((size, size)), rng.standard_normal((2, dim, size, size))
    return lambda x: a + np.tensordot(x, b, 1) + np.tensordot(x * x, c, 1)


def forward_jacobian(func, point, v, step=1e-7):
    """d(M v)/dx at ``point`` by forward differences: the harness's stand-in for a search's exact Jacobian."""
    base = func(point) @ v
    return np.stack([(func(point + step * e) @ v - base) / step for e in np.eye(len(point))], axis=1)


def restart(func, x0, max_iter=20000, max_evals=40000, stop=-math.inf):
    """``_gauss_newton`` on M = func(x0 + x) with r = 1: (ratio, point, evals, iterations, recorded values).

    Each assembly's ``jacobian`` differences ``func`` itself, outside the assemblies, as a
    search's exact Jacobian costs none.
    """
    x0 = np.asarray(x0, dtype=float)
    recorded = []
    ratio, (point, _, _), _, evals, iterations = experiments._gauss_newton(
        lambda x: (x0 + x, None, func(x0 + x), partial(forward_jacobian, func, x0 + x)),
        len(x0), 1, stop, max_iter, max_evals, recorded.append,
    )
    return ratio, point, evals, iterations, recorded


class TestNelderMead:
    """The restart's optimizer on problems with a known answer.

    The class and its cases keep the names they had when the optimizer was a
    Nelder-Mead simplex; they now check ``_gauss_newton``, which replaced it.
    """

    def test_converges_on_rosenbrock(self):
        ratio, x, evals, iterations, _ = restart(rosenbrock, [-1.2, 1.0])
        assert evals < 40000 and iterations < 20000  # no step lowered sigma_min, not the budget
        assert np.max(np.abs(x - 1.0)) <= 1e-12
        assert ratio <= 1e-12

    def test_converges_on_a_shallow_cone(self):
        # slope 0.03: sigma_min is a cone at (0.3, 0.3), but M(x) is linear, so the step lands on it
        def cone(x):
            return complex_scalar(*(0.03 * (x - 0.3)))

        ratio, x, evals, _, _ = restart(cone, np.zeros(2))
        assert evals < 40
        assert np.max(np.abs(x - 0.3)) <= 1e-13
        assert ratio <= 1e-15

    def test_stops_at_max_iter(self):
        ratio, _, evals, iterations, recorded = restart(rosenbrock, [-1.2, 1.0], max_iter=2)
        assert iterations == 2 and evals == len(recorded)
        assert ratio > restart(rosenbrock, [-1.2, 1.0])[0]

    def test_budget_below_initial_simplex(self):
        # the iterate's own assembly spends a budget of one, so no iteration starts
        ratio, x, evals, iterations, recorded = restart(rosenbrock, [-1.2, 1.0], max_evals=1)
        assert (evals, iterations) == (1, 0)
        assert recorded == [ratio] and x.tolist() == [-1.2, 1.0]

    @pytest.mark.parametrize("max_evals", [1 + 6, 1 + 6 + 1])
    def test_budget_ends_inside_a_shrink(self, max_evals):
        # the iterate takes 1 assembly and its Jacobian none, so the budget runs out after the
        # line search's sixth trial, or lets its seventh (t = 1/64) lower sigma_min
        ratio, x, evals, iterations, recorded = restart(spike, np.zeros(3), 100, max_evals)
        assert evals == max_evals == len(recorded) and iterations == 1
        if max_evals == 7:
            assert ratio == 1.0 and not np.any(x)
        else:
            assert ratio == pytest.approx(1 - 1 / 64, abs=1e-8) and x[0] == pytest.approx(-1 / 64, abs=1e-8)

    @pytest.mark.parametrize("max_evals", [6, 2000])
    @pytest.mark.parametrize("dim, x0", [(3, 0.0), (20, 0.0), (20, 0.3)])
    def test_plateau_ties(self, dim, x0, max_evals):
        # a trial that ties with the iterate is no descent, so the restart ends after a line search
        # of ten ties; 6 assemblies run out inside such a line search
        ratio, _, evals, iterations, recorded = restart(plateau, np.full(dim, x0), 300, max_evals)
        assert evals == len(recorded) <= max_evals
        assert ratio == min(recorded)
        if max_evals == 2000:
            assert recorded[-10:] == [ratio] * 10
        else:
            assert evals == 6 and iterations >= 1 and recorded[-4:] == [ratio] * 4

    @pytest.mark.parametrize("dim", [4, 8])
    def test_stop_met_mid_run(self, dim):
        func = quadratic(dim, 0)
        ratio, _, evals, iterations, _ = restart(func, np.zeros(dim), stop=1e-3)
        full_ratio, _, full_evals, _, _ = restart(func, np.zeros(dim))
        assert ratio < 1e-3 and iterations >= 2
        assert restart(func, np.zeros(dim), max_iter=iterations - 1, stop=1e-3)[0] >= 1e-3  # the first iterate below
        assert evals < full_evals and full_ratio < ratio

    def test_stop_met_by_the_initial_simplex(self):
        # the stop is checked before each iteration, the first included
        stop = 1.0 + float(np.linalg.svd(rosenbrock(np.array([-1.2, 1.0])), compute_uv=False)[-1])
        ratio, _, evals, iterations, recorded = restart(rosenbrock, [-1.2, 1.0], stop=stop)
        assert (evals, iterations) == (1, 0) and recorded == [ratio] and ratio < stop

    @pytest.mark.parametrize("func", [rosenbrock, plateau])
    def test_stop_never_met(self, func):
        # sigma_min >= 0 and the stop is strict, so a stop at 0 changes nothing:
        # the run equals one with no stop
        ratio, x, evals, iterations, recorded = restart(func, np.full(2, 0.3), stop=0.0)
        free_ratio, free_x, free_evals, free_iterations, free_recorded = restart(func, np.full(2, 0.3))
        assert (ratio, evals, iterations, recorded) == (free_ratio, free_evals, free_iterations, free_recorded)
        assert x.tobytes() == free_x.tobytes()


def test_hot_paths_skip_zonal_machinery(monkeypatch):
    # deciding, certifying, studying and searching all run in the Fischer frame
    import spherediv.divisibility as div
    import spherediv.experiments as exp

    def forbidden(*args, **kwargs):
        raise AssertionError("zonal machinery on a hot path")

    monkeypatch.setattr(div, "build_zonal_basis", forbidden)
    monkeypatch.setattr(exp, "build_zonal_basis", forbidden, raising=False)
    monkeypatch.setattr(spherediv.GegenbauerTable, "eval", forbidden)
    generic = RotationTuple(tuple(haar_sample(4, 461 + k) for k in range(3)))
    assert not divisibility_test(generic, 3, rng=463).divisible
    certified = divisibility_test(RotationTuple(odd_d4_suffix(3) + (haar_sample(3, 467),)), 2, rng=479)
    assert certified.singular_degrees() == [1]
    study = GenericityStudy(d=3, r=3, suffix=(haar_sample(3, 487),), trials=30, n_max=3, seed=491, ell=2)
    assert run_genericity(study).n_singular == 0
    base = RotationTuple((planar_rotation(2, 1, 2, 0.15), planar_rotation(2, 1, 2, math.pi - 0.2)))
    run = search_divisible(2, 2, 1, SearchSettings(restarts=1, base_tuple=base), rng=499)
    assert run.certified


def test_search_loads_no_scipy():
    # the package and a whole search run on numpy alone; scipy is a test dependency only
    src = str(Path(spherediv.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = """
import sys, spherediv
from spherediv import SearchSettings, search_divisible
search_divisible(2, 2, 1, SearchSettings(restarts=1, max_iter=40), rng=499)
loaded = sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy."))
assert not loaded, loaded
"""
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
