"""Rotation pairs decided from torus weights: the weight sets, the closed form and the pair path."""

import itertools
import logging
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spherediv import (
    GenericityStudy,
    InputDomainError,
    Rotation,
    RotationTuple,
    dim_harmonic,
    divisibility_test,
    haar_sample,
    planar_rotation,
    run_genericity,
)
from spherediv import divisibility, experiments, fischer
from spherediv.fischer import fischer_frame, summed_powers
from test_divisibility import circle_tuple, half_turn_pair

# the SVD reference below is kept to operators of at most this many harmonics
REFERENCE_MAX_DIM = 700


def admitted_degrees(d):
    """Every n_max the cost guard and the degree cap admit for a pair in dimension d."""
    n = 1
    while True:
        try:
            divisibility._check_cost(d, 2, n)
        except InputDomainError:
            return range(1, n)
        n += 1


def haar_pair(d, seed):
    rng = np.random.default_rng(seed)
    return RotationTuple(tuple(haar_sample(d, rng) for _ in range(2)))


def matrices(tup):
    return np.array([g.matrix for g in tup])


def svd_spectra(mats, n_max):
    """Every degree's singular values, descending, from the values-only SVD of M = U^T S_n U."""
    d = mats.shape[-1]
    return [
        np.linalg.svd(fischer_frame(d, n).operator(sums), compute_uv=False) for n, sums in summed_powers(mats, n_max)
    ]


class TestTorusWeights:
    @pytest.mark.parametrize("d", range(2, 9))
    def test_multiplicities_sum_to_the_dimension(self, d):
        for n in admitted_degrees(d):
            weights, counts = fischer._torus_weights(d, n)
            assert weights.shape[1] == d // 2
            assert np.all(counts > 0)
            assert int(counts.sum()) == dim_harmonic(d, n), (d, n)

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 50])
    def test_circle_has_only_plus_minus_n(self, n):
        weights, counts = fischer._torus_weights(2, n)
        assert weights.tolist() == [[-n], [n]]
        assert counts.tolist() == [1, 1]

    @pytest.mark.parametrize("d, n", [(d, n) for d in range(3, 9) for n in range(1, 7)])
    def test_support_is_the_l1_ball(self, d, n):
        # d >= 3: every k with |k|_1 <= n, and |k|_1 = n mod 2 for even d
        m = d // 2
        rule = {
            k
            for k in itertools.product(range(-n, n + 1), repeat=m)
            if sum(map(abs, k)) <= n and (d % 2 or (sum(map(abs, k)) - n) % 2 == 0)
        }
        weights, _ = fischer._torus_weights(d, n)
        assert {tuple(k) for k in weights.tolist()} == rule


class TestClosedForm:
    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(2, 8), choice=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
    def test_haar_pairs_match_the_svd(self, d, choice, seed):
        degrees = [n for n in admitted_degrees(d) if dim_harmonic(d, n) <= REFERENCE_MAX_DIM]
        n_max = degrees[min(int(choice * len(degrees)), len(degrees) - 1)]
        tup = haar_pair(d, seed)
        mats = matrices(tup)
        report = divisibility_test(tup, n_max, rng=seed)
        angles = divisibility._torus_frame(*np.linalg.eig(mats[0].T @ mats[1]))[1]
        for n, svals in enumerate(svd_spectra(mats, n_max), 1):
            closed, _ = divisibility._pair_spectrum(angles, d, n)
            assert math.isclose(closed[0], svals[0], rel_tol=1e-10), (n, closed, svals[0])
            assert math.isclose(closed[1] / closed[0], svals[-1] / svals[0], rel_tol=1e-10), (n, closed, svals)
            # the verdict row the SVD would have given
            _, fired, near_band = divisibility._near_singular(svals, 2, divisibility.DEFAULT_SING_TOL)
            rec = report.degrees[n - 1]
            assert (rec.n, rec.dim) == (n, len(svals))
            assert (rec.verdict == "invertible") == (not (fired or near_band))
            assert math.isclose(rec.sigma_min_rel, svals[-1] / svals[0], rel_tol=1e-10)

    @pytest.mark.parametrize("d", range(3, 9))
    def test_half_turn_pairs_keep_their_singular_degrees(self, d):
        n_max = 4 if d <= 6 else 3
        tup = half_turn_pair(d, 709 + d)
        report = divisibility_test(tup, n_max, rng=719)
        fired = [
            n
            for n, svals in enumerate(svd_spectra(matrices(tup), n_max), 1)
            if divisibility._near_singular(svals, 2, divisibility.DEFAULT_SING_TOL)[1]
        ]
        assert report.singular_degrees() == fired == list(range(1, n_max + 1))
        assert all(rec.residual_bound <= 1e-8 for rec in report.degrees)
        assert report.verification.passed


class TestPairPath:
    def test_no_svd(self, monkeypatch):
        # every degree of this pair fires and is certified without any SVD
        calls = []
        original = np.linalg.svd

        def counted(*args, **kwargs):
            calls.append(np.shape(args[0]))
            return original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        # at d = 3, where no tuple takes the circle route and its detection's SVD
        report = divisibility_test(half_turn_pair(3, 263), 4, rng=281)
        assert report.singular_degrees() == [1, 2, 3, 4]
        assert calls == []

    def test_assembly_and_recurrence_only_up_to_fired_degrees(self, monkeypatch):
        from spherediv.fischer import FischerFrame

        assembled, stepped = [], []
        operator = FischerFrame.operator

        def counted_operator(frame, sums):
            assembled.append(frame.n)
            return operator(frame, sums)

        def counted_powers(mats, n_max):
            for n, sums in summed_powers(mats, n_max):
                stepped.append(n)
                yield n, sums

        monkeypatch.setattr(FischerFrame, "operator", counted_operator)
        monkeypatch.setattr(divisibility, "summed_powers", counted_powers)
        report = divisibility_test(circle_tuple(0.0, math.pi), 4, rng=179)
        assert report.singular_degrees() == [1, 3]
        # fired degrees take their witnesses and their certificates from products of linear forms,
        # a pair's from its torus frame and these circle tuples' from their plane: M is never
        # assembled and the recurrence never runs
        assert assembled == stepped == []
        report = divisibility_test(half_turn_pair(8, 263), 5, rng=179)
        assert report.singular_degrees() == [1, 2, 3, 4, 5]
        assert assembled == stepped == []
        report = divisibility_test(haar_pair(8, 727), 5, rng=733)
        assert [rec.verdict for rec in report.degrees] == ["invertible"] * 5
        assert assembled == stepped == []

    def test_angles_once_per_call_and_per_block(self, monkeypatch):
        # h is decomposed once per divisibility_test, firing or not: one eig gives every degree's
        # angles and the torus frame of every fired degree's witness, and a fired degree alone
        # builds its FischerFrame; a study solves h's eigenvalues, values only, once per block
        calls, frames, blocks = [], [], []
        for name in ("eig", "eigvals"):
            def counted(a, name=name, original=getattr(np.linalg, name)):
                calls.append((name, np.shape(a)))
                return original(a)

            monkeypatch.setattr(np.linalg, name, counted)
        frame = divisibility.fischer_frame

        def counted_frame(d, n):
            frames.append(n)
            return frame(d, n)

        angles = divisibility._torus_angles

        def counted_angles(values):
            blocks.append(values.shape)
            return angles(values)

        monkeypatch.setattr(divisibility, "fischer_frame", counted_frame)
        monkeypatch.setattr(divisibility, "_torus_angles", counted_angles)
        quarter_turn = RotationTuple((Rotation(np.eye(3)), planar_rotation(3, 1, 2, 0.5 * math.pi)))
        for tup, n_max, fired in (
            (haar_pair(4, 739), 5, []),
            (quarter_turn, 4, [2, 3, 4]),
            (half_turn_pair(3, 263), 3, [1, 2, 3]),
        ):
            calls.clear()
            frames.clear()
            blocks.clear()
            report = divisibility_test(tup, n_max, rng=743)
            assert report.singular_degrees() == fired
            assert calls == [("eig", (tup.d, tup.d))] and blocks == [(tup.d,)]
            assert sorted(set(frames)) == fired
        calls.clear()
        blocks.clear()
        study = GenericityStudy(d=4, r=2, suffix=(haar_sample(4, 751),), trials=50, n_max=4, seed=757, ell=1)
        run_genericity(study)
        assert blocks == [(50, 4)]
        assert calls == [("eigvals", (50, 4, 4))]

    def test_debug_line_names_the_pair_path(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="spherediv"):
            divisibility_test(haar_pair(4, 739), 3, rng=743)
            # the {0, pi} circle pair fires at odd degrees, whose witnesses come from the circle route
            divisibility_test(circle_tuple(0.0, math.pi), 3, rng=743)
        lines = [rec.getMessage() for rec in caplog.records if rec.name == "spherediv"]
        assert [line.split(", ")[:2] for line in lines] == [
            [f"degree {n}: N={dim_harmonic(4, n)}", "pair"] for n in (1, 2, 3)
        ] + [["circle pass: 3 degrees", "2 fired"]] + [
            [f"degree {n}: N={dim_harmonic(2, n)}", path]
            for n, path in ((1, "circle→witness"), (2, "circle"), (3, "circle→witness"))
        ]
        # each line ends in its wall time: a pair's degree with its witness, the circle's pass with its certificates
        assert all(re.fullmatch(r"\d+\.\d{4} s", line.split(", ")[2]) for line in lines)


def test_pair_study_matches_the_svd():
    suffix = (haar_sample(4, 751),)
    study = GenericityStudy(d=4, r=2, suffix=suffix, trials=50, n_max=4, seed=757, ell=1)
    result = run_genericity(study)
    free, _ = experiments._draw_trials(study)
    pairs = np.concatenate([free, np.broadcast_to(matrices(suffix), (50, 1, 4, 4))], axis=1)
    for rec, mats in zip(result.records, pairs):
        for (n, ratio, verdict), svals in zip(rec.degrees, svd_spectra(mats, 4)):
            assert verdict == "invertible"
            assert math.isclose(ratio, svals[-1] / svals[0], rel_tol=1e-10), (rec.trial, n)
