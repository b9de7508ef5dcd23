"""The parity-block Fischer frames and the column-slab recurrence against dense references."""

from dataclasses import replace

import numpy as np
import pytest

from spherediv import dim_harmonic, haar_sample
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
            reference = basis.T @ sums @ basis
            assert frame.operator(sums).shape == reference.shape
            assert np.max(np.abs(frame.operator(sums) - reference)) <= 1e-13 * r, (d, n, sums.shape)

    @pytest.mark.parametrize("d, n", [(8, 5), (5, 4)])
    def test_block_coefficients_match_dense(self, d, n):
        frame = fischer_frame(d, n)
        coords = np.random.default_rng(419).standard_normal(frame.dim)
        dense = dense_basis(frame) @ coords * np.exp(-0.5 * fischer._log_factorials(frame.exponents))
        assert np.max(np.abs(frame.coefficients(coords) - dense)) <= 1e-15


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
            assert a.shape == b.shape == lead + (len(fischer._exponents(d, n)),) * 2
            assert np.max(np.abs(a - b)) <= 1e-14 * r, (d, r, lead, n)
