import logging
import math
import os
import subprocess
import sys
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
    planar_rotation,
    run_genericity,
    search_divisible,
    weighted_singular_values,
)
from spherediv import experiments
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

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf, 1.0, 2.0])
    def test_rejects_tolerance_outside_unit_interval(self, tol):
        suffix = (haar_sample(3, 1), haar_sample(3, 2))
        with pytest.raises(InputDomainError, match="sing_tol"):
            GenericityStudy(d=3, r=3, suffix=suffix, trials=2, n_max=2, seed=1, ell=1, sing_tol=tol)

    @pytest.mark.parametrize(
        "d, r, ell, trials, n_max, seed",
        [(3, 3, 1, 40, 4, 443), (4, 4, 2, 12, 3, 449), (3, 2, 2, 10, 3, 461)],
    )
    def test_batched_matches_per_trial_test(self, d, r, ell, trials, n_max, seed):
        # each trial's tuple and seed come from derive_rng(seed, 1, k); the
        # batched study must reach the standalone verdicts and ratios, which
        # differ only by round-off (a stacked SVD against the Gram step);
        # ell == r leaves an empty suffix
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

    def test_stacked_haar_equals_haar_sample(self):
        d, ell, trials = 3, 2, 25
        stacked = haar_from_gaussian(np.random.default_rng(457).standard_normal((trials, ell, d, d)))
        rng = np.random.default_rng(457)
        single = np.array([[haar_sample(d, rng).matrix for _ in range(ell)] for _ in range(trials)])
        assert np.array_equal(stacked, single)


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
        # perturb the odd-d 4-tuple and let the simplex walk back to zero
        rng = np.random.default_rng(383)
        mats = [haar_sample(3, rng).matrix] + [g.matrix for g in odd_d4_suffix(3)]
        from spherediv import Rotation

        perturbed = tuple(
            Rotation(m @ cayley_rotation(np.eye(3), 0.04 * rng.standard_normal(3)))
            for m in mats
        )
        settings = SearchSettings(
            restarts=1, max_iter=3000, base_tuple=RotationTuple(perturbed)
        )
        run = search_divisible(3, 4, 1, settings, rng=389)
        assert run.certified
        assert run.residual_max <= 1e-8

    def test_budget_exhaustion_returns_best(self):
        settings = SearchSettings(restarts=1, max_iter=5)
        run = search_divisible(3, 3, 1, settings, rng=397)
        assert not run.certified
        assert run.best_tuple.r == 3
        assert run.best_ratio >= 0.0

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
            ("simplex_scale", 0.0),
            ("simplex_scale", -0.35),
            ("simplex_scale", math.nan),
            ("simplex_scale", math.inf),
            ("simplex_scale", -math.inf),
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

    def test_debug_line_per_restart(self, caplog):
        settings = SearchSettings(restarts=2, max_iter=30)
        with caplog.at_level(logging.DEBUG, logger="spherediv"):
            run = search_divisible(3, 3, 1, settings, rng=421)
        lines = [rec.getMessage() for rec in caplog.records if rec.name == "spherediv"]
        lines = [line for line in lines if line.startswith("restart ")]
        assert [line.split(":")[0] for line in lines] == ["restart 0", "restart 1"]
        counts = [int(line.split(", ")[0].split()[-2]) for line in lines]
        assert sum(counts) == len(run.trace)
        ratios = [float(line.split(", ")[1].split()[-1]) for line in lines]
        assert ratios == [float(f"{ratio:.3e}") for ratio in run.restart_ratios]

    def test_default_search_stops_at_the_target(self):
        # the simplex stops at the end of the iteration whose best vertex meets target_ratio:
        # a reflection, a contraction and a shrink of dim vertices at most, with the quotient
        # chart's dim = floor(d/2) + (r - 2) d(d-1)/2
        target = SearchSettings().target_ratio
        run = search_divisible(3, 3, 2, rng=509)
        assert run.certified
        assert run.best_ratio < target
        dim = 3 // 2 + (3 - 2) * 3
        first = next(k for k, val in enumerate(run.trace) if val < target)
        assert first >= len(run.trace) - (dim + 2), (first, len(run.trace))

    def test_smaller_target_reaches_a_deeper_minimum(self):
        run = search_divisible(3, 3, 2, SearchSettings(target_ratio=1e-15), rng=509)
        assert run.certified
        assert run.best_ratio < 1e-15

    @pytest.mark.parametrize("target", [1e-4, 1e-6])
    def test_large_target_still_certifies(self, target):
        # a tuple's certificate residual is a fraction of its ratio, so a simplex stopped just
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
            raise AssertionError("the simplex ran")

        monkeypatch.setattr(experiments, "_nelder_mead", refused)
        with pytest.raises(InputDomainError, match=f"r >= 2 rotations, got r={r}"):
            search_divisible(3, r, 2, SearchSettings(), rng=409)


def degree_singular_values(mats, n):
    """The singular values of the degree-n operator of the tuple ``mats`` (r, d, d)."""
    *_, (_, sums) = summed_powers(mats, n)
    return weighted_singular_values(fischer_frame(mats.shape[-1], n).operator(sums))


def recorded_search(monkeypatch, *args, **kwargs):
    """Run search_divisible; return it with its events: ("base", bases) per restart and ("eval", tuple) per evaluation."""
    events = []
    chart, powers = experiments._quotient_chart, experiments.summed_powers

    def charted(bases):
        events.append(("base", bases.copy()))
        return chart(bases)

    def evaluated(mats, n):
        events.append(("eval", mats.copy()))
        return powers(mats, n)

    monkeypatch.setattr(experiments, "_quotient_chart", charted)
    monkeypatch.setattr(experiments, "summed_powers", evaluated)
    return search_divisible(*args, **kwargs), events


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
        shapes = []
        nelder_mead = experiments._nelder_mead

        def recorded(func, simplex, *args):
            shapes.append(simplex.shape)
            return nelder_mead(func, simplex, *args)

        monkeypatch.setattr(experiments, "_nelder_mead", recorded)
        search_divisible(d, r, 1, SearchSettings(restarts=2, max_iter=2), rng=521)
        dim = d // 2 + (r - 2) * d * (d - 1) // 2
        assert shapes == [(dim + 1, dim)] * 2

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
        assert evaluations == len(run.trace) + len(run.restart_ratios)  # and once more per restart for its best vertex

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
        assert np.median(evaluations) <= 250, evaluations


def scipy_nelder_mead(func, simplex, max_iter, max_evals, stop=-math.inf):
    """scipy's Nelder-Mead with the search's tolerances, in ``_nelder_mead``'s signature.

    scipy calls its callback after each iteration's sort; raising StopIteration there once the
    best value is below ``stop`` halts it where ``_nelder_mead`` stops.
    """
    from scipy.optimize import minimize

    def halt(intermediate_result):
        if intermediate_result.fun < stop:
            raise StopIteration

    options = {"initial_simplex": simplex, "xatol": 1e-13, "fatol": 1e-15, "maxiter": max_iter, "maxfev": max_evals}
    res = minimize(func, simplex[0], method="Nelder-Mead", callback=halt, options=options)
    return res.x, res.nfev


def rosenbrock(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


def spike(x):
    # from the simplex at the origin with scale 0.35: 0 at the origin, -1 at 0.175 e_1 and 1 elsewhere,
    # so the first reflection and contraction fail and the shrink's first new vertex beats the best
    if not np.any(x):
        return 0.0
    return -1.0 if x[0] == 0.175 and not np.any(x[1:]) else 1.0


def plateau(x):
    # a bowl in quarter steps: ties between vertices and between trial points
    return math.floor(4.0 * float((x - 0.5) @ (x - 0.5))) / 4.0


def simplex_at(x0, scale=0.35):
    return np.vstack([x0, x0 + scale * np.eye(len(x0))])


class TestNelderMead:
    """``_nelder_mead`` against scipy's Nelder-Mead: bitwise-equal best vertex and equal evaluation count."""

    def assert_matches_scipy(self, func, simplex, max_iter, max_evals, stop=-math.inf):
        x, evals = experiments._nelder_mead(func, simplex, max_iter, max_evals, stop)
        ref_x, ref_evals = scipy_nelder_mead(func, simplex, max_iter, max_evals, stop)
        assert evals == ref_evals
        assert x.tobytes() == ref_x.tobytes(), (x, ref_x)
        return x, evals

    def test_converges_on_rosenbrock(self):
        x, evals = self.assert_matches_scipy(rosenbrock, simplex_at(np.array([-1.2, 1.0, -0.5, 0.8])), 20000, 40000)
        assert evals < 40000  # the tolerances stopped it, not the budget
        assert np.max(np.abs(x - 1.0)) <= 1e-6

    def test_converges_on_a_shallow_cone(self):
        # slope 0.03: the simplex is within xatol before its values are within fatol
        def cone(x):
            return 0.03 * float(np.sum(np.abs(x - 0.3)))

        x, evals = self.assert_matches_scipy(cone, simplex_at(np.zeros(2)), 20000, 40000)
        assert evals < 40000
        assert np.max(np.abs(x - 0.3)) <= 1e-13

    def test_stops_at_max_iter(self):
        _, evals = self.assert_matches_scipy(rosenbrock, simplex_at(np.array([-1.2, 1.0, -0.5, 0.8])), 50, 40000)
        assert 5 + 49 <= evals < 40000  # 49 iterations of at least one evaluation each

    def test_budget_below_initial_simplex(self):
        # 4 evaluations for 10 vertices: six vertices keep f = inf
        _, evals = self.assert_matches_scipy(rosenbrock, simplex_at(np.linspace(-1.0, 1.0, 9)), 1, 4)
        assert evals == 4

    @pytest.mark.parametrize("max_evals", [4 + 2 + 1, 4 + 2 + 2])
    def test_budget_ends_inside_a_shrink(self, max_evals):
        # N = 3: the initial simplex takes 4 evaluations and the first iteration a reflection,
        # an inside contraction and a shrink of 3, so the budget runs out mid-shrink; the
        # simplex is sorted after the refusal, so the new vertex 0.175 e_1 is returned
        x, evals = self.assert_matches_scipy(spike, simplex_at(np.zeros(3)), 100, max_evals)
        assert evals == max_evals
        assert spike(x) == -1.0

    @pytest.mark.parametrize("max_evals", [6, 2000])
    @pytest.mark.parametrize("dim, x0", [(3, 0.0), (20, 0.0), (20, 0.3)])
    def test_plateau_ties(self, dim, x0, max_evals):
        # ties at every step; argsort is not stable, so with 21 vertices their order must
        # follow argsort then take; 6 evaluations stop inside the initial simplex
        self.assert_matches_scipy(plateau, simplex_at(np.full(dim, x0)), 300, max_evals)

    @pytest.mark.parametrize("dim", [4, 8])
    def test_stop_met_mid_run(self, dim):
        simplex = simplex_at(np.linspace(-1.2, 0.8, dim))
        x, evals = self.assert_matches_scipy(rosenbrock, simplex, 20000, 40000, stop=1e-3)
        _, full_evals = experiments._nelder_mead(rosenbrock, simplex, 20000, 40000)
        assert rosenbrock(x) < 1e-3
        assert evals < full_evals

    def test_stop_met_by_the_initial_simplex(self):
        # the check follows an iteration, never the initial simplex alone: one iteration runs,
        # of a reflection and at most an expansion, or a contraction and a shrink of 4
        simplex = simplex_at(np.array([-1.2, 1.0, -0.5, 0.8]))
        stop = 1.0 + max(rosenbrock(vertex) for vertex in simplex)
        _, evals = self.assert_matches_scipy(rosenbrock, simplex, 20000, 40000, stop=stop)
        assert 5 + 1 <= evals <= 5 + 1 + 1 + 4

    @pytest.mark.parametrize("func", [rosenbrock, plateau])
    def test_stop_never_met(self, func):
        # both functions are >= 0 and the stop is strict, so a stop at 0 changes nothing:
        # the run equals one with no stop
        simplex = simplex_at(np.full(5, 0.3))
        x, evals = self.assert_matches_scipy(func, simplex, 20000, 40000, stop=0.0)
        free_x, free_evals = experiments._nelder_mead(func, simplex, 20000, 40000)
        assert evals == free_evals
        assert x.tobytes() == free_x.tobytes()

    @pytest.mark.parametrize("max_iter", [1, 2, 7, 40, 400])
    def test_search_matches_scipy_driven_search(self, monkeypatch, max_iter):
        # max_iter=1 at d=3, r=3 gives 4 evaluations for the 5 vertices of the initial simplex
        settings = SearchSettings(restarts=2, max_iter=max_iter)
        run = search_divisible(3, 3, 2, settings, rng=503)
        monkeypatch.setattr(experiments, "_nelder_mead", scipy_nelder_mead)
        ref = search_divisible(3, 3, 2, settings, rng=503)
        assert run.trace == ref.trace
        assert run.restart_ratios == ref.restart_ratios
        assert (run.best_ratio, run.certified, run.residual_max) == (ref.best_ratio, ref.certified, ref.residual_max)
        for g, h in zip(run.best_tuple, ref.best_tuple):
            assert g.matrix.tobytes() == h.matrix.tobytes()
        if max_iter == 1:
            assert len(run.trace) == 2 * 4
        if max_iter == 400:  # the first restart meets the target and stops inside max_iter
            assert run.best_ratio < settings.target_ratio and len(run.restart_ratios) == 1


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
