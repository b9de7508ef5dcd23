"""The parity-block Fischer frames and the column-slab recurrence against dense references."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spherediv import dim_harmonic, divisibility_test, haar_sample, planar_division
from spherediv import fischer
from spherediv.fischer import DENSE_MAX_SIZE, fischer_frame, summed_powers


def dense_basis(frame):
    """U as a dense P_n x N_n matrix, rebuilt from the frame's blocks."""
    basis = np.zeros((frame.size, frame.dim))
    for g in frame.groups:
        basis[g.monomials[:, :, None], g.columns[:, None, :]] = g.basis
    return basis


def haar_stack(d, shape, seed):
    gen = np.random.default_rng(seed)
    return np.array([haar_sample(d, gen).matrix for _ in range(int(np.prod(shape)))]).reshape(shape + (d, d))


def sums_at(mats, n):
    for k, sums in summed_powers(mats, n):
        if k == n:
            return sums


def dense(sums):
    """S_n as an array: a streamed top degree is applied to the identity, 256 columns at a time."""
    if isinstance(sums, np.ndarray):
        return sums
    eye = np.eye(sums.shape[0])
    return np.concatenate([sums @ eye[:, k:k + 256] for k in range(0, len(eye), 256)], axis=1)


class TestParityBlocks:
    def test_blocks_partition_monomials_and_columns(self):
        frame = fischer_frame(8, 6)
        assert [g.basis.shape for g in frame.groups] == [(1, 120, 84), (28, 36, 28), (70, 8, 7), (28, 1, 1)]
        assert sum(g.basis.size for g in frame.groups) == 42_252
        monomials = np.concatenate([g.monomials.ravel() for g in frame.groups])
        columns = np.concatenate([g.columns.ravel() for g in frame.groups])
        assert np.array_equal(np.sort(monomials), np.arange(frame.size))
        assert np.array_equal(np.sort(columns), np.arange(frame.dim))
        assert frame.dim == dim_harmonic(8, 6)

    def test_block_columns_orthonormal(self):
        frame = fischer_frame(8, 6)
        for g in frame.groups:
            gram = np.swapaxes(g.basis, -1, -2) @ g.basis
            assert np.max(np.abs(gram - np.eye(g.basis.shape[-1]))) <= 1e-14
        basis = dense_basis(frame)
        assert np.max(np.abs(basis.T @ basis - np.eye(frame.dim))) <= 1e-14

    @pytest.mark.parametrize("d, n", [(3, 4), (4, 3), (5, 4), (8, 3), (8, 4), (6, 5)])
    def test_dense_basis_kept_only_below_crossover(self, d, n):
        frame = fischer_frame(d, n)
        assert (frame.basis is not None) == (frame.size <= DENSE_MAX_SIZE)
        if frame.basis is not None:
            assert np.array_equal(frame.basis, dense_basis(frame))

    # (5, 4) has P_n = 70, below the crossover, and (6, 4) has P_n = 126, above it
    @pytest.mark.parametrize("d, n", [(8, 4), (8, 5), (8, 6), (5, 4), (6, 4)])
    def test_block_operator_matches_dense(self, d, n):
        r = 3
        frame = replace(fischer_frame(d, n), basis=None)  # the block path at every size
        basis = dense_basis(frame)
        one = sums_at(haar_stack(d, (r,), 401 + n), n)
        stack = sums_at(haar_stack(d, (2, r), 409 + n), n)
        for sums in (one, stack):
            reference = basis.T @ dense(sums) @ basis
            assert frame.operator(sums).shape == reference.shape
            assert np.max(np.abs(frame.operator(sums) - reference)) <= 1e-13 * r, (d, n, sums.shape)

    @pytest.mark.parametrize("d, n", [(8, 5), (5, 4)])
    def test_block_coefficients_match_dense(self, d, n):
        frame = fischer_frame(d, n)
        coords = np.random.default_rng(419).standard_normal(frame.dim)
        dense = dense_basis(frame) @ coords * np.exp(-0.5 * fischer._log_factorials(frame.exponents))
        assert np.max(np.abs(frame.coefficients(coords) - dense)) <= 1e-15


def laplacian(d, n):
    """The Laplacian P_n -> P_(n-2) in the orthonormal monomial bases, entries sqrt(a_i (a_i - 1))."""
    exps, lower = fischer._exponents(d, n), fischer._exponents(d, n - 2)
    lap = np.zeros((len(lower), len(exps)))
    for row, b in enumerate(lower):
        for i in range(d):
            a = b.copy()
            a[i] += 2
            lap[row, fischer._index(a[None])[0]] = math.sqrt(a[i] * (a[i] - 1.0))
    return lap


class TestFrameDefect:
    @pytest.mark.parametrize("d, n", [(2, 2), (2, 9), (3, 2), (3, 7), (5, 4), (8, 3)])
    def test_smallest_singular_value_of_the_laplacian(self, d, n):
        # Delta |x|^2 on |x|^(2j) h_m is (2j + 2)(2j + 2m + d), least at j = 0, m = n - 2
        smallest = np.linalg.svd(laplacian(d, n), compute_uv=False)[-1]
        assert math.isclose(smallest**2, 2 * (2 * n + d - 4), rel_tol=1e-12)

    @pytest.mark.parametrize("d, n", [(2, 1), (2, 50), (3, 34), (4, 6), (7, 4), (8, 5)])
    def test_defect_covers_the_computed_projection(self, d, n):
        frame = fischer_frame(d, n)
        if n < 2:
            assert frame.defect == 0.0
            return
        _, _, vt = np.linalg.svd(laplacian(d, n))
        rows = vt[: fischer._exponents(d, n - 2).shape[0]]
        exact = np.eye(frame.size) - rows.T @ rows
        basis = dense_basis(frame)
        assert np.linalg.norm(basis @ basis.T - exact, 2) <= frame.defect <= 1e-11
        for x in np.random.default_rng(10 * d + n).standard_normal((4, frame.size)):
            computed = frame._lift(frame._project(x[:, None])[:, 0])
            assert np.linalg.norm(computed - exact @ x) <= frame.defect * np.linalg.norm(x)


class TestSlabRecurrence:
    # budget 1 makes one-column slabs; 1 << 14 makes slabs of a few columns,
    # several to a lead block, with a short last slab
    @pytest.mark.parametrize("budget", [1, 1 << 14])
    @pytest.mark.parametrize("d", [3, 4, 5])
    @pytest.mark.parametrize("r", [1, 3])
    @pytest.mark.parametrize("lead", [(), (2,)])
    def test_slabs_match_vectorised(self, monkeypatch, budget, d, r, lead):
        mats = haar_stack(d, lead + (r,), 421 + 10 * d + r)
        monkeypatch.setattr(fischer, "BLOCK_BYTES", 1 << 40)  # the vectorised branch at every degree
        whole = list(summed_powers(mats, 5))
        monkeypatch.setattr(fischer, "BLOCK_BYTES", budget)
        slabs = list(summed_powers(mats, 5))
        assert [n for n, _ in slabs] == [n for n, _ in whole] == [1, 2, 3, 4, 5]
        for (n, a), (_, b) in zip(whole, slabs):
            b = dense(b)
            assert a.shape == b.shape == lead + (len(fischer._exponents(d, n)),) * 2
            assert np.max(np.abs(a - b)) <= 1e-14 * r, (d, r, lead, n)


class TestStreamedTopDegree:
    # the top degree of one tuple is streamed from its r copies of Sym^(n-1) on the
    # slab branch (d r P_n^2 doubles over the budget) where r P_(n-1)^2 < P_n^2
    @pytest.mark.parametrize("budget", [1, 1 << 14])
    @settings(max_examples=12, deadline=None)
    @given(d=st.integers(3, 8), r=st.integers(1, 4), n=st.integers(2, 5), seed=st.integers(0, 2**32 - 1))
    def test_streamed_matches_dense(self, budget, d, r, n, seed):
        mats = haar_stack(d, (r,), seed)
        size, prev = (math.comb(m + d - 1, d - 1) for m in (n, n - 1))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fischer, "BLOCK_BYTES", 1 << 40)  # a dense S_n
            whole = sums_at(mats, n)
            patch.setattr(fischer, "BLOCK_BYTES", budget)
            streamed = sums_at(mats, n)
            streams = 8 * r * d * size * size > budget and r * prev * prev < size * size
            assert isinstance(streamed, fischer._StreamedSum) == streams
            frame = fischer_frame(d, n)
            gen = np.random.default_rng(seed)
            block = gen.standard_normal((size, 3))
            block /= np.linalg.norm(block, axis=0)
            coords = gen.standard_normal(frame.dim)
            coords /= np.linalg.norm(coords)
            coeffs = frame.coefficients(coords)
            tol = 1e-13 * r
            assert np.max(np.abs(frame.operator(streamed) - frame.operator(whole))) <= tol
            assert np.max(np.abs(streamed @ block[:, 0] - whole @ block[:, 0])) <= tol
            assert np.max(np.abs(streamed @ block - whole @ block)) <= tol
            assert np.max(np.abs(frame.apply(streamed, coords) - frame.apply(whole, coords))) <= tol
            bounds = [frame.residual_bound(sums, coeffs, mats) for sums in (streamed, whole)]
            assert abs(bounds[0] - bounds[1]) <= tol * max(1.0, bounds[1])

    def test_size_rule(self):
        # a Haar triple in SO(8) streams its top degree 6, an 8-tuple keeps a dense S_6
        for r, streams in [(3, True), (4, True), (5, False), (8, False)]:
            assert isinstance(sums_at(haar_stack(8, (r,), 431), 6), fischer._StreamedSum) == streams
        # and so does a stack of triples
        assert isinstance(sums_at(haar_stack(8, (2, 3), 433), 5), np.ndarray)


class TestMonomialTables:
    @pytest.mark.parametrize("d", [60, 62, 64, 100])
    def test_row_counts(self, d):
        # a running int64 product overflowed in C(m, k): at d = 62 there were 1853 rows, not 1953
        rows = fischer._exponents(d, 2)
        assert len(rows) == math.comb(d + 1, 2)
        assert len(np.unique(rows, axis=0)) == len(rows)

    @pytest.mark.parametrize("d, n", [(2, 5), (3, 4), (4, 3), (5, 3), (6, 2)])
    def test_matches_enumeration(self, d, n):
        every = [a for a in itertools.product(range(n, -1, -1), repeat=d) if sum(a) == n]
        assert fischer._exponents(d, n).tolist() == [list(a) for a in every]

    def test_d62_planar_pair(self):
        assert divisibility_test(planar_division(62, 2).rotations, 2, rng=1).singular_degrees() == [1, 2]
