"""The Gram step of every degree, the degree cap of d <= 3 and the working-set estimate."""

import logging
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spherediv
from spherediv import (
    InputDomainError,
    Rotation,
    RotationTuple,
    divisibility_test,
    haar_sample,
    planar_division,
    planar_rotation,
)
from spherediv import circle, divisibility, fischer
from spherediv.fischer import FischerFrame, fischer_frame, summed_powers

SRC = str(Path(spherediv.__file__).resolve().parents[1])


def haar_tuple(d, r, seed):
    rng = np.random.default_rng(seed)
    return RotationTuple(tuple(haar_sample(d, rng) for _ in range(r)))


def counted_svds(patch):
    """Patch np.linalg.svd to record the shape of every call; returns the list of shapes."""
    shapes = []
    original = np.linalg.svd

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return original(a, *args, **kwargs)

    patch.setattr(np.linalg, "svd", counted)
    return shapes


def counted_assemblies(patch):
    """Patch FischerFrame.operator and _svd_witness to record their calls; returns (degrees, sizes)."""
    calls, vectors = [], []
    operator, svd_witness = FischerFrame.operator, divisibility._svd_witness

    def counted(frame, sums):
        calls.append(frame.n)
        return operator(frame, sums)

    def counted_vector(matrix):
        vectors.append(len(matrix))
        return svd_witness(matrix)

    patch.setattr(FischerFrame, "operator", counted)
    patch.setattr(divisibility, "_svd_witness", counted_vector)
    return calls, vectors


def translated_powers(mats, n_max):
    """(n, S_n) of the Gram route: S_n = I + sum_(s >= 2) Sym^n(h_s) for h_s = gamma_1^T gamma_s."""
    turns = mats[0].T @ mats
    return summed_powers(turns[1:], n_max, identity=True)


def svd_ratios(tup, n_max, powers=translated_powers, full=False):
    """sigma_min / sigma_max of every degree from a values-only SVD of the Gram route's M: the reference of the Gram step.

    With ``powers`` = summed_powers, M is the tuple's own U^T (sum_s Sym^n(gamma_s)) U instead;
    with ``full``, the SVD also gives both factors, as ``_svd_witness``'s does.
    """
    out = []
    for n, sums in powers(np.array([g.matrix for g in tup]), n_max):
        operator = fischer_frame(tup.d, n).operator(sums)
        svals = np.linalg.svd(operator)[1] if full else np.linalg.svd(operator, compute_uv=False)
        out.append(svals[-1] / svals[0])
    return out


@pytest.fixture
def gram_route(monkeypatch):
    """Send tuples that rotate one plane past the circle route, so the Gram step decides them as it does any other."""
    monkeypatch.setattr(circle, "detect", lambda *_: None)


def paths(caplog):
    """The spectral path of every degree, from the debug lines of the spherediv logger."""
    return [rec.getMessage().split(", ")[1] for rec in caplog.records if rec.name == "spherediv"]


class TestGramStep:
    @settings(max_examples=30, deadline=None)
    @given(
        d=st.integers(3, 8),
        r=st.integers(2, 4),
        n_max=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_haar_tuples_match_the_svd(self, d, r, n_max, seed):
        tup = haar_tuple(d, r, seed)
        report = divisibility_test(tup, n_max, rng=seed)
        # the translated operator has the tuple's singular values: compare with the untranslated SVD
        for rec, ratio in zip(report.degrees, svd_ratios(tup, n_max, summed_powers)):
            assert rec.verdict == "invertible"
            assert math.isclose(rec.sigma_min_rel, ratio, rel_tol=1e-10), (rec, ratio)

    def test_singular_triple_falls_back_and_certifies(self, caplog, gram_route):
        with caplog.at_level(logging.DEBUG, logger="spherediv"):
            report = divisibility_test(planar_division(6, 3).rotations, 3, rng=281)
        assert paths(caplog) == ["gram→witness"] * 3
        assert report.singular_degrees() == [1, 2, 3]
        assert all(rec.residual_bound <= 1e-8 for rec in report.degrees)
        assert report.verification.passed

    def test_singular_triple_takes_no_svd(self, monkeypatch, gram_route):
        # the witness's ||M v|| bounds sigma_min from above and decides each fired degree
        tup = planar_division(6, 3).rotations
        shapes = counted_svds(monkeypatch)
        report = divisibility_test(tup, 3, rng=281)
        assert shapes == []
        assert report.singular_degrees() == [1, 2, 3]
        assert all(ratio < report.sing_tol for ratio in svd_ratios(tup, 3))
        assert all(rec.sigma_min_rel < report.sing_tol for rec in report.degrees)
        assert all(rec.residual_bound <= 1e-8 for rec in report.degrees)

    def test_tiny_sing_tol_keeps_the_svd(self, caplog, gram_route):
        # a bound of about 1e-16 does not fire at sing_tol = 1e-20, so the SVD decides
        tup = planar_division(6, 3).rotations
        with caplog.at_level(logging.DEBUG, logger="spherediv"):
            report = divisibility_test(tup, 3, sing_tol=1e-20, rng=281)
        assert paths(caplog) == ["gram→svd"] * 3
        assert [rec.sigma_min_rel for rec in report.degrees] == svd_ratios(tup, 3)

    def test_unfired_witness_bound_takes_the_svd_at_a_streamed_degree(self, caplog, gram_route):
        # planar_division(8, 3)'s top degree 3 is streamed; its G-side bound does not fire at sing_tol = 1e-20
        tup = planar_division(8, 3).rotations
        with caplog.at_level(logging.DEBUG, logger="spherediv"):
            report = divisibility_test(tup, 3, sing_tol=1e-20, rng=281)
        assert paths(caplog) == ["gram→svd"] * 3
        assert [rec.sigma_min_rel for rec in report.degrees] == svd_ratios(tup, 3)

    def test_zero_pivot_falls_back_to_m(self, monkeypatch, caplog, gram_route):
        # an exact zero pivot in the solve with G assembles M again, and its SVD decides and gives the witness
        monkeypatch.setattr(divisibility, "_gram_refinement", lambda gram, shift: None)
        calls, vectors = counted_assemblies(monkeypatch)
        with caplog.at_level(logging.DEBUG, logger="spherediv"):
            report = divisibility_test(planar_division(6, 3).rotations, 3, rng=281)
        assert paths(caplog) == ["gram→svd"] * 3
        assert report.singular_degrees() == [1, 2, 3]
        assert calls == [1, 1, 2, 2, 3, 3]
        assert vectors == [rec.dim for rec in report.degrees]

    def test_planted_refinement_is_caught(self, monkeypatch, caplog):
        tup = haar_tuple(5, 3, 601)
        with caplog.at_level(logging.DEBUG, logger="spherediv"):
            honest = divisibility_test(tup, 3, rng=603)
        assert paths(caplog) == ["gram"] * 3
        caplog.clear()

        def planted(gram, shift):
            x = np.random.default_rng(607).standard_normal(len(gram))
            return x / np.linalg.norm(x)

        monkeypatch.setattr(divisibility, "_gram_refinement", planted)
        with caplog.at_level(logging.DEBUG, logger="spherediv"):
            caught = divisibility_test(tup, 3, rng=603)
        # the consistency check, not the round-off floor, sent every degree to the SVD; a failed
        # check keeps no vector, so the full SVD of _svd_witness decides and gives the witness
        assert paths(caplog) == ["gram→svd"] * 3
        reference = svd_ratios(tup, 3, full=True)
        assert [rec.sigma_min_rel for rec in caught.degrees] == reference
        for rec, ratio in zip(honest.degrees, reference):
            assert math.isclose(rec.sigma_min_rel, ratio, rel_tol=1e-10)

    def test_large_sing_tol_fires_from_the_gram_step(self, caplog):
        # a generic degree that fires only because sing_tol is large certifies the Gram step's vector
        tup = haar_tuple(3, 3, 611)
        with caplog.at_level(logging.DEBUG, logger="spherediv"):
            report = divisibility_test(tup, 2, sing_tol=0.99, rng=613)
        assert paths(caplog) == ["gram"] * 2
        assert all(rec.verdict == "borderline" for rec in report.degrees)
        assert all(rec.residual_bound > 1e-8 for rec in report.degrees)

    def test_gram_step_vector_certifies(self, monkeypatch):
        # the degree's witness is the unit vector whose ||M v|| the Gram step read as sigma_min:
        # one assembly of M per degree, and no solve with an N_n x N_n matrix other than G
        tup = haar_tuple(3, 3, 611)
        mats = np.array([g.matrix for g in tup])
        calls, _ = counted_assemblies(monkeypatch)
        certified, solved = [], []
        witness, solve = divisibility._witness, np.linalg.solve

        def recorded_witness(frame, vector):
            certified.append((frame.n, vector))
            return witness(frame, vector)

        def recorded_solve(a, b):
            solved.append(np.array(a))
            return solve(a, b)

        monkeypatch.setattr(divisibility, "_witness", recorded_witness)
        monkeypatch.setattr(np.linalg, "solve", recorded_solve)
        report = divisibility_test(tup, 2, sing_tol=0.99, rng=613)
        assert calls == [1, 2]
        assert [n for n, _ in certified] == [1, 2]
        assert all(rec.residual_bound is not None for rec in report.degrees)
        operators = {}
        for n, sums in translated_powers(mats, 2):
            frame = fischer_frame(3, n)
            operators[frame.dim] = frame.operator(sums)
            vector = dict(certified)[n]
            smax = np.linalg.svd(operators[frame.dim], compute_uv=False)[0]
            ratio = np.linalg.norm(frame.apply(sums, vector)) / smax
            assert math.isclose(ratio, report.degrees[n - 1].sigma_min_rel, rel_tol=1e-12), n
        assert solved
        for a in solved:
            matrix = operators[len(a)]
            off = ~np.eye(len(a), dtype=bool)
            assert np.allclose(a[off], (matrix.T @ matrix)[off], rtol=0.0, atol=1e-13), len(a)

    def test_one_debug_line_per_degree(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="spherediv"):
            divisibility_test(haar_tuple(4, 3, 617), 3, rng=619)
        lines = [rec.getMessage() for rec in caplog.records if rec.name == "spherediv"]
        assert len(lines) == 3
        for n, line in enumerate(lines, 1):
            head, path, seconds = line.split(", ")
            assert head == f"degree {n}: N={fischer_frame(4, n).dim}"
            assert path == "gram"
            assert seconds.endswith(" s") and float(seconds[:-2]) >= 0.0


def census(patch):
    """Count eigvalsh, solve, svd and FischerFrame.operator calls per _GramRoute.degree; returns one tuple per degree."""
    counts, per_degree = Counter(), []

    def counting(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        patch.setattr(owner, name, counted)

    for name in ("eigvalsh", "solve", "svd"):
        counting(np.linalg, name)
    counting(FischerFrame, "operator")
    degree = divisibility._GramRoute.degree

    def counted_degree(route, n):
        counts.clear()
        out = degree(route, n)
        per_degree.append(tuple(counts[name] for name in ("eigvalsh", "solve", "svd", "operator")))
        return out

    patch.setattr(divisibility._GramRoute, "degree", counted_degree)
    return per_degree


class TestFactorizationCensus:
    """Per Gram degree: one eigvalsh of G, one solve (two at an exact zero pivot), at most one SVD.

    Each tuple is (eigvalsh, solve, svd, FischerFrame.operator) within one _GramRoute.degree.
    """

    def run(self, monkeypatch, caplog, tup, n_max, **options):
        counts = census(monkeypatch)
        with caplog.at_level(logging.DEBUG, logger="spherediv"):
            report = divisibility_test(tup, n_max, rng=701, **options)
        return report, counts, paths(caplog)

    def test_gram(self, monkeypatch, caplog):
        report, counts, lines = self.run(monkeypatch, caplog, haar_tuple(5, 3, 601), 3)
        assert lines == ["gram"] * 3
        assert counts == [(1, 1, 0, 1)] * 3

    def test_gram_to_witness(self, monkeypatch, caplog):
        report, counts, lines = self.run(monkeypatch, caplog, planar_division(3, 3).rotations, 3)
        assert report.singular_degrees() == [1, 2, 3]
        assert lines == ["gram→witness"] * 3
        assert counts == [(1, 1, 0, 1)] * 3

    def test_zero_pivot_retry(self, monkeypatch, caplog):
        # this Haar triple's degree-1 G - w[0] I meets an exact zero pivot, so the shift moves once
        refinements, original = [], divisibility._gram_refinement

        def recorded(gram, shift):
            x = original(gram, shift)
            refinements.append(x is None)
            return x

        monkeypatch.setattr(divisibility, "_gram_refinement", recorded)
        report, counts, lines = self.run(monkeypatch, caplog, haar_tuple(4, 3, 0), 1)
        assert refinements == [True, False]
        assert lines == ["gram"]
        assert counts == [(1, 2, 0, 1)]
        assert report.degrees[0].verdict == "invertible"

    def test_unfired_bound(self, monkeypatch, caplog):
        report, counts, lines = self.run(monkeypatch, caplog, planar_division(3, 3).rotations, 3, sing_tol=1e-20)
        assert lines == ["gram→svd"] * 3
        assert counts == [(1, 1, 1, 2)] * 3

    def test_planted_zero_pivot(self, monkeypatch, caplog):
        monkeypatch.setattr(divisibility, "_gram_refinement", lambda gram, shift: None)
        report, counts, lines = self.run(monkeypatch, caplog, planar_division(3, 3).rotations, 3)
        assert report.singular_degrees() == [1, 2, 3]
        assert lines == ["gram→svd"] * 3
        assert counts == [(1, 0, 1, 2)] * 3

    def test_failed_check(self, monkeypatch, caplog):
        original = divisibility._gram_refinement

        def planted(gram, shift):
            original(gram, shift)
            x = np.random.default_rng(607).standard_normal(len(gram))
            return x / np.linalg.norm(x)

        monkeypatch.setattr(divisibility, "_gram_refinement", planted)
        report, counts, lines = self.run(monkeypatch, caplog, haar_tuple(5, 3, 601), 3)
        assert lines == ["gram→svd"] * 3
        assert counts == [(1, 1, 1, 2)] * 3

    def test_search_certificate_takes_no_svd(self, monkeypatch, caplog):
        # one SVD of M per assembly, each an iterate or a line-search trial; the exact Jacobian
        # takes none, and the certificate reuses the best iterate's vector
        from spherediv import SearchSettings, search_divisible

        shapes = counted_svds(monkeypatch)
        with caplog.at_level(logging.DEBUG, logger="spherediv"):
            run = search_divisible(3, 3, 2, SearchSettings(), rng=3)
        assert run.certified
        lines = [rec.getMessage() for rec in caplog.records if rec.getMessage().startswith("restart ")]
        dim = fischer_frame(3, 2).dim
        assert shapes.count((dim, dim)) == len(run.trace)
        assert shapes.count((3, 3)) == len(lines)  # the chart's SVD, one per restart


class TestTranslatedTuple:
    def test_recurrence_runs_on_r_minus_one_rotations(self, monkeypatch):
        # h_1 = gamma_1^T gamma_1 = I is free: summed_powers gets h_2 .. h_r and adds I to every S_n
        handed = []
        powers = divisibility.summed_powers

        def recorded(mats, n_max, **options):
            handed.append((np.array(mats), options))
            return powers(mats, n_max, **options)

        monkeypatch.setattr(divisibility, "summed_powers", recorded)
        tup = haar_tuple(5, 4, 691)
        mats = np.array([g.matrix for g in tup])
        report = divisibility_test(tup, 3, rng=693)
        [(stack, options)] = handed
        assert stack.shape == (3, 5, 5) and options == {"identity": True}
        assert np.max(np.abs(stack - mats[0].T @ mats[1:])) <= 1e-15
        for rec, ratio in zip(report.degrees, svd_ratios(tup, 3, summed_powers)):
            assert math.isclose(rec.sigma_min_rel, ratio, rel_tol=1e-10), (rec, ratio)

    def test_stacked_tuples_are_translated_alike(self):
        # a search's assembly runs the recurrence on h_2 .. h_r as a stack of one-rotation tuples:
        # its h_s bit for bit the Gram route's, its S_n up to the round-off of a sum in another order
        from spherediv import experiments

        bases = np.array([g.matrix for g in haar_tuple(4, 3, 701)])
        chart = experiments._quotient_chart(bases)
        x = np.random.default_rng(703).standard_normal(chart.shape[1]) / 4
        for n in (1, 3):
            mats, bound, matrix, _ = experiments._assemble(fischer_frame(4, n), bases, chart, x)
            route = divisibility._GramRoute(mats, None, n, divisibility.DEFAULT_SING_TOL)
            assert bound.args[2].tobytes() == route.turns.tobytes()
            *_, (m, sums) = route.powers
            assert m == n and np.max(np.abs(bound.args[1] - sums)) <= 1e-14, n
            assert np.max(np.abs(matrix - fischer_frame(4, n).operator(sums))) <= 1e-14, n

    def test_formed_products_are_within_delta(self):
        # the premise of _formed_slack: ||fl(gamma_1^T gamma_s) - gamma_1^T gamma_s||_F <= d gamma_d,
        # against the product in extended precision
        for d, seed in [(3, 695), (5, 696), (8, 697)]:
            mats = np.array([g.matrix for g in haar_tuple(d, 4, seed)])
            wide = mats.astype(np.longdouble)
            exact = np.swapaxes(wide[0], 0, 1) @ wide
            moved = np.linalg.norm((mats[0].T @ mats - exact).astype(float), axis=(1, 2))
            assert np.all(moved <= d * fischer._gamma(d)), (d, moved)

    def test_formed_products_join_the_bound(self, monkeypatch):
        # were the formed h_s off by as much as the singular values they decide, no degree could
        # certify: every fired degree's bound and near band carry _formed_slack
        tup = half_turn_pairs(5, haar_sample(5, 698).matrix, haar_sample(5, 699).matrix)
        assert divisibility_test(tup, 3, rng=701).singular_degrees() == [2, 3]
        monkeypatch.setattr(divisibility, "_formed_slack", lambda d, r, n: 0.5)
        report = divisibility_test(tup, 3, rng=701)
        assert [rec.verdict for rec in report.degrees] == ["borderline"] * 3
        assert all(rec.residual_bound > 1e-8 for rec in report.degrees[1:])


def half_turn_pairs(d, a, b):
    """{a, a H_1, b, b H_2}, H_1 and H_2 the half-turns in the (1, 2) and (3, 4) planes."""
    h1, h2 = planar_rotation(d, 1, 2, math.pi).matrix, planar_rotation(d, 3, 4, math.pi).matrix
    return RotationTuple(tuple(Rotation(m) for m in (a, a @ h1, b, b @ h2)))


class TestHalfTurnPairs:
    # h_2 .. h_4 do not commute and fix no common vector, so only the Gram route takes these tuples.
    # A harmonic odd under both H_i, such as Re z_1^k Re z_2^l for odd k, l (z_1 = x_1 + i x_2,
    # z_2 = x_3 + i x_4) times a harmonic in x_5 .., cancels: at d = 4 only even n >= 2 have one,
    # at d >= 5 every n >= 2
    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(
        d=st.integers(4, 8),
        first=st.sampled_from(["haar", "identity", "turned"]),
        n_max=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_singular_sets_certify(self, d, first, n_max, seed):
        n_max = min(n_max, 3) if d == 8 else n_max
        rng = np.random.default_rng(seed)
        a, b = haar_sample(d, rng).matrix, haar_sample(d, rng).matrix
        if first == "identity":  # gamma_1 = I, so every h_s is formed exactly
            a = np.eye(d)
        elif first == "turned":  # gamma_1 = a H_1: the same set with its first two rotations swapped
            a = a @ planar_rotation(d, 1, 2, math.pi).matrix
        report = divisibility_test(half_turn_pairs(d, a, b), n_max, rng=seed)
        expected = [n for n in range(2, n_max + 1) if d >= 5 or n % 2 == 0]
        assert report.singular_degrees() == expected
        assert [rec.verdict for rec in report.degrees if rec.n not in expected] == ["invertible"] * (n_max - len(expected))
        for rec in report.degrees:
            if rec.n in expected:
                assert rec.residual_bound <= 1e-8, rec
        if expected:
            assert report.verification.passed


def axis_rotation(axis, angle):
    """The rotation of R^3 by ``angle`` about ``axis`` (Rodrigues' formula)."""
    k = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
    cross = np.array([[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]], [-k[1], k[0], 0.0]])
    return Rotation(np.eye(3) + math.sin(angle) * cross + (1.0 - math.cos(angle)) * cross @ cross)


class TestSmallDegreeOracles:
    @pytest.mark.parametrize(
        "g, n_max",
        [(planar_rotation(2, 1, 2, 0.7).matrix, 5), (haar_sample(4, 671).matrix, 3)],
        ids=["d2", "d4"],
    )
    def test_exact_cancellation(self, g, n_max, caplog, gram_route):
        # rho_n(-h) = (-1)^n rho_n(h), so (I, -I, g, -g) sums to exactly 0 at odd n and to 2 (I + rho_n(g)) at even n
        d = len(g)
        tup = RotationTuple(tuple(Rotation(m) for m in (np.eye(d), -np.eye(d), g, -g)))
        with caplog.at_level(logging.DEBUG, logger="spherediv"):
            report = divisibility_test(tup, n_max, rng=673)
        assert len(paths(caplog)) == n_max
        for rec, path in zip(report.degrees, paths(caplog)):
            if rec.n % 2:
                assert (rec.verdict, rec.sigma_min_rel, path) == ("singular", 0.0, "gram→witness"), rec
                assert rec.residual_bound <= 1e-8
            else:
                assert (rec.verdict, path) == ("invertible", "gram"), rec

    def test_exact_cancellation_at_a_streamed_degree(self, caplog):
        # the same tuple in SO(8): its top degree 3 is streamed, G = 0 at odd n, and the
        # witness's shift keeps the solve with G clear of a zero pivot
        g = haar_sample(8, 683).matrix
        mats = np.array([np.eye(8), -np.eye(8), g, -g])
        *_, (_, top) = summed_powers(mats, 3)
        assert isinstance(top, fischer._StreamedSum)
        tup = RotationTuple(tuple(Rotation(m) for m in mats))
        with caplog.at_level(logging.DEBUG, logger="spherediv"):
            report = divisibility_test(tup, 3, rng=687)
        assert paths(caplog) == ["gram→witness", "gram", "gram→witness"]
        assert [rec.verdict for rec in report.degrees] == ["singular", "invertible", "singular"]
        assert report.degrees[0].sigma_min_rel == report.degrees[2].sigma_min_rel == 0.0
        assert report.degrees[2].residual_bound <= 1e-8

    def test_tetrahedral_family(self):
        # the rotations by arccos(-7/8) about the four vertices of a tetrahedron sum to -I,
        # so gamma_1 + that sum = gamma_1 - I kills gamma_1's axis at degree 1
        angle = math.acos(-7.0 / 8.0)
        axes = [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]
        suffix = tuple(axis_rotation(axis, angle) for axis in axes)
        assert np.max(np.abs(sum(g.matrix for g in suffix) + np.eye(3))) <= 1e-15
        rng = np.random.default_rng(677)
        for _ in range(5):
            report = divisibility_test(RotationTuple((haar_sample(3, rng),) + suffix), 1, rng=679)
            assert report.degrees[0].verdict == "singular"
            assert report.degrees[0].residual_bound <= 1e-8

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(d=st.integers(2, 5), r=st.integers(3, 6), data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_repeated_rotation_bound(self, d, r, data, seed):
        # criterion 7's bound: gamma counted ell + 1 times against r - ell - 1 isometries gives
        # sigma_min >= 2 ell + 2 - r >= 1 and sigma_max <= r at every degree
        ell = data.draw(st.integers(r // 2, r - 1), label="ell")
        n_max = data.draw(st.integers(1, 3), label="n_max")
        rng = np.random.default_rng(seed)
        gamma = haar_sample(d, rng)
        tup = RotationTuple((gamma,) * (ell + 1) + tuple(haar_sample(d, rng) for _ in range(r - ell - 1)))
        report = divisibility_test(tup, n_max, rng=seed)
        bound = (2 * ell + 2 - r) / r
        for rec in report.degrees:
            assert rec.verdict == "invertible", rec
            assert rec.sigma_min_rel >= bound - 1e-12, (rec, bound)


@pytest.fixture(scope="module")
def full_size():
    """A Haar triple in SO(8) decided up to n = 6, with the shapes of every np.linalg.svd call it made."""
    tup = haar_tuple(8, 3, 621)
    with pytest.MonkeyPatch.context() as patch:
        shapes = counted_svds(patch)
        report = divisibility_test(tup, 6, rng=623)
    return tup, report, shapes


class TestFullSize:
    def test_degree_six_matches_the_svd(self, full_size):
        tup, report, _ = full_size
        for n, sums in summed_powers(np.array([g.matrix for g in tup]), 6):
            pass
        svals = np.linalg.svd(fischer_frame(8, 6).operator(sums), compute_uv=False)
        assert report.degrees[5].dim == 1386
        assert report.degrees[5].verdict == "invertible"
        assert math.isclose(report.degrees[5].sigma_min_rel, svals[-1] / svals[0], rel_tol=1e-10)

    def test_degree_six_takes_no_svd(self, full_size):
        # the one SVD is the circle route's detection, of the stacked h_s - I, which finds no plane
        _, report, shapes = full_size
        assert [rec.verdict for rec in report.degrees] == ["invertible"] * 6
        assert shapes == [(16, 8)]

    def test_fired_degree_six_takes_no_svd(self, monkeypatch, gram_route):
        # the singular triple's degrees are decided by their witnesses' bounds, not by an SVD of M,
        # and each witness comes from G: one assembly of M per degree and no _svd_witness
        shapes = counted_svds(monkeypatch)
        calls, vectors = counted_assemblies(monkeypatch)
        report = divisibility_test(planar_division(8, 3).rotations, 6, rng=625)
        assert report.singular_degrees() == [1, 2, 3, 4, 5, 6]
        assert shapes == []
        assert calls == [1, 2, 3, 4, 5, 6] and vectors == []
        assert report.degrees[5].sigma_min_rel < report.sing_tol
        assert all(rec.residual_bound <= 1e-8 for rec in report.degrees)
        assert report.verification.passed


class TestDegreeCap:
    @pytest.mark.parametrize("n0", [61, 151])
    def test_planar_pairs_refused_or_singular(self, n0):
        # angles 1.2 and 1.2 + pi / n0 cancel exactly at degree n0; above the cap the
        # recurrence read them borderline (61, 101, 131) or invertible (151), and the
        # circle route, which no cap limits, reads them singular
        pair = RotationTuple((planar_rotation(2, 1, 2, 1.2), planar_rotation(2, 1, 2, 1.2 + math.pi / n0)))
        try:
            report = divisibility_test(pair, n0, rng=631)
        except InputDomainError as err:
            assert "orthogonality" in str(err)
        else:
            assert report.degrees[n0 - 1].verdict == "singular"

    def test_table_keeps_drift_below_1e12(self):
        # on 3 fixed Haar draws, every admitted degree keeps U^T Sym^n(g) U orthogonal to 1e-12
        for d, limit in divisibility._STABLE_MAX_DEGREE.items():
            for seed in (641, 643, 647):
                g = haar_sample(d, seed).matrix
                for n, sums in summed_powers(g[None], limit):
                    svals = np.linalg.svd(fischer_frame(d, n).operator(sums), compute_uv=False)
                    assert np.max(np.abs(svals - 1.0)) <= 1e-12, (d, n, seed)

    def test_cap_refuses_above_and_admits_at_the_limit(self):
        for d, limit in divisibility._STABLE_MAX_DEGREE.items():
            divisibility._check_cost(d, 3, limit)
            with pytest.raises(InputDomainError, match="orthogonality"):
                divisibility._check_cost(d, 3, limit + 1)
        # the {0, pi} pair at n_max = 175 once overflowed in sqrt(n!), then was refused by the
        # cap; the circle route runs no recurrence, and reads it singular at every odd degree
        report = divisibility_test(RotationTuple((Rotation(np.eye(2)), Rotation(-np.eye(2)))), 175, rng=1)
        assert report.singular_degrees() == list(range(1, 176, 2))

    def test_residual_bound_does_not_overflow(self):
        # x_1^n at n = 175, far above the cap: sqrt(175!) overflowed in factorial space
        frame = fischer_frame(2, 175)
        coeffs = np.zeros(frame.size)
        coeffs[0] = 1.0
        mats = np.eye(2)[None]
        for _, sums in summed_powers(mats, 175):
            pass
        assert 1.0 <= frame.residual_bound(sums, coeffs, mats) <= 1.0 + 1e-10
        assert np.all(np.isfinite(frame.coefficients(np.ones(frame.dim))))


def run_python(code):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", code], check=True, env=env, capture_output=True, text=True).stdout


@pytest.mark.parametrize("d, r, n", [(3, 8, 34), (8, 3, 6)])
def test_peak_within_estimate(d, r, n):
    # a fresh process, so that the frame and step caches are built inside the traced call
    code = f"""
import tracemalloc
import numpy as np
from spherediv import RotationTuple, divisibility, divisibility_test, haar_sample
rng = np.random.default_rng(653)
tup = RotationTuple(tuple(haar_sample({d}, rng) for _ in range({r})))
tracemalloc.start()
divisibility_test(tup, {n}, rng=659)
print(tracemalloc.get_traced_memory()[1], divisibility._peak_bytes({d}, {r}, {n}))
"""
    peak, estimate = map(int, run_python(code).split())
    assert peak <= estimate, (peak, estimate)


def test_peak_within_estimate_at_a_zero_pivot():
    # every degree of the singular triple forced onto the zero-pivot path, whose full SVD holds
    # LAPACK's buffers that tracemalloc does not see, so the growth of the peak RSS is measured:
    # about 129 MiB against an estimate of 175 MiB
    code = """
import logging, resource
from spherediv import divisibility, divisibility_test, planar_division
assert hasattr(divisibility, "_gram_refinement")
divisibility._gram_refinement = lambda gram, shift: None
from spherediv import circle
circle.detect = lambda *_: None  # the Gram step, not the circle route, decides the planar triple
lines = []
handler = logging.Handler()
handler.emit = lambda record: lines.append(record.getMessage().split(", ")[1])
logger = logging.getLogger("spherediv")
logger.addHandler(handler)
logger.setLevel(logging.DEBUG)
tup = planar_division(8, 3).rotations
base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
assert divisibility_test(tup, 6, rng=625).singular_degrees() == [1, 2, 3, 4, 5, 6]
assert lines == ["gram→svd"] * 6, lines
print(1024 * (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - base), divisibility._peak_bytes(8, 3, 6))
"""
    peak, estimate = map(int, run_python(code).split())
    assert peak <= estimate, (peak, estimate)


def test_warm_peak_of_a_haar_triple():
    # the top degree is streamed from the copies of Sym^5: with S_6 built whole the peak was
    # 57.5 MiB (d = 8, n = 6, N_6 = 1386), streamed from three copies 49.4 MiB, and from the
    # two of h_2, h_3 (the Gram route's h_1 = I is free) 44.6 MiB
    code = """
import tracemalloc
import numpy as np
from spherediv import RotationTuple, divisibility_test, haar_sample
rng = np.random.default_rng(653)
warm, tup = (RotationTuple(tuple(haar_sample(8, rng) for _ in range(3))) for _ in range(2))
divisibility_test(warm, 6, rng=659)
tracemalloc.start()
divisibility_test(tup, 6, rng=659)
print(tracemalloc.get_traced_memory()[1])
"""
    peak = int(run_python(code))
    assert peak <= 52 << 20, peak


def test_warm_peak_of_a_half_turn_pair():
    # every degree fires: with M assembled and a shifted copy of it for inverse iteration the peak
    # was 11.1 MiB (d = 8, n = 5, N_5 = 672), from the torus frame of h 3.3 MiB, the recurrence's two
    # copies of Sym^4 and the streamed top degree; the pair rotates one plane, and on the circle
    # route, with no frame, it was 1.6 MiB, a sampled check's points and sums, and with no sampled
    # check it is 11 kB
    code = """
import math, tracemalloc
import numpy as np
from spherediv import Rotation, RotationTuple, divisibility_test, haar_sample, planar_rotation
half_turn = planar_rotation(8, 1, 2, math.pi).matrix
def pair(seed):
    h = haar_sample(8, seed).matrix
    return RotationTuple((Rotation(np.eye(8)), Rotation(h @ half_turn @ h.T)))
warm, tup = pair(653), pair(654)
divisibility_test(warm, 5, rng=659)
tracemalloc.start()
assert divisibility_test(tup, 5, rng=659).singular_degrees() == [1, 2, 3, 4, 5]
print(tracemalloc.get_traced_memory()[1])
"""
    peak = int(run_python(code))
    assert peak <= 1 << 20, peak


def test_gram_step_imports_no_scipy():
    # importing scipy.optimize after spherediv adds about 44 MB of RSS and 0.33-0.42 s
    # (scipy 1.17, numpy 2.4, Python 3.11, 2-core Xeon); a generic triple
    # on the Gram step, a fired pair, a fired triple on gram→witness and a fired circle tuple
    # load none of it
    code = """
import logging, math, sys
import numpy as np
import spherediv
from spherediv import Rotation, RotationTuple, divisibility_test, haar_sample
from spherediv import planar_division, planar_rotation
lines = []
handler = logging.Handler()
handler.emit = lambda record: record.getMessage().startswith("degree ") and lines.append(record.getMessage().split(", ")[1])
logger = logging.getLogger("spherediv")
logger.addHandler(handler)
logger.setLevel(logging.DEBUG)
divisibility_test(RotationTuple(tuple(haar_sample(4, 661 + k) for k in range(3))), 3, rng=663)
assert lines == ["gram"] * 3, lines
lines.clear()
half_turn = planar_rotation(3, 1, 2, math.pi).matrix
pair = RotationTuple((Rotation(np.eye(3)), Rotation(half_turn)))
assert divisibility_test(pair, 3, rng=665).singular_degrees() == [1, 2, 3]
assert lines == ["pair→witness"] * 3, lines
lines.clear()
assert divisibility_test(planar_division(3, 3).rotations, 3, rng=667).singular_degrees() == [1, 2, 3]
assert lines == ["gram→witness"] * 3, lines
lines.clear()
assert divisibility_test(planar_division(5, 3).rotations, 3, rng=667).singular_degrees() == [1, 2, 3]
assert lines == ["circle→witness"] * 3, lines
loaded = sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy."))
assert not loaded, loaded
"""
    run_python(code)
