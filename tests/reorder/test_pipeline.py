"""Tests for the reordering pipelines (Section 5.3)."""

import numpy as np
import pytest

from repro.core.csrv import CSRVMatrix
from repro.core.gcm import GrammarCompressedMatrix
from repro.errors import MatrixFormatError
from repro.reorder.pipeline import (
    REORDER_METHODS,
    compress_with_reordering,
    reorder_columns,
)
from repro.serve.executor import BlockExecutor


def _scattered_matrix(rng, n=300, n_groups=4, copies=4):
    """Correlated column groups interleaved so reordering has work to do."""
    latent = rng.integers(0, 6, size=(n, n_groups))
    cols = []
    for g in range(n_groups):
        mapping = np.round(rng.uniform(1, 9, size=6), 1)
        for _ in range(copies):
            cols.append(mapping[latent[:, g]])
    matrix = np.column_stack(cols)
    perm = rng.permutation(matrix.shape[1])
    return matrix[:, perm]


class TestReorderColumns:
    @pytest.mark.parametrize("method", REORDER_METHODS)
    def test_returns_permutation(self, method, rng):
        matrix = _scattered_matrix(rng)
        order = reorder_columns(matrix, method=method, k=4)
        assert sorted(order.tolist()) == list(range(matrix.shape[1]))

    def test_unknown_method_rejected(self, rng):
        with pytest.raises(MatrixFormatError):
            reorder_columns(_scattered_matrix(rng), method="magic")

    def test_unknown_pruning_rejected(self, rng):
        with pytest.raises(MatrixFormatError):
            reorder_columns(_scattered_matrix(rng), pruning="fancy")

    @pytest.mark.parametrize("pruning", ["none", "local", "global"])
    def test_pruning_modes(self, pruning, rng):
        matrix = _scattered_matrix(rng)
        order = reorder_columns(matrix, method="pathcover", k=4, pruning=pruning)
        assert sorted(order.tolist()) == list(range(matrix.shape[1]))

    def test_reordering_improves_grammar_compression(self, rng):
        # The headline claim of Section 5: scattered correlated columns
        # compress better after reordering.
        matrix = _scattered_matrix(rng, n=400)
        base = GrammarCompressedMatrix.compress(matrix, variant="re_32")
        order = reorder_columns(matrix, method="pathcover", k=8)
        reordered = GrammarCompressedMatrix.compress(
            CSRVMatrix.from_dense(matrix, column_order=order), variant="re_32"
        )
        assert reordered.size_bytes() < base.size_bytes()

    def test_reordered_matrix_still_correct(self, rng):
        matrix = _scattered_matrix(rng)
        order = reorder_columns(matrix, method="mwm", k=4)
        gm = GrammarCompressedMatrix.compress(
            CSRVMatrix.from_dense(matrix, column_order=order)
        )
        x = rng.standard_normal(matrix.shape[1])
        assert np.allclose(gm.right_multiply(x), matrix @ x)


class TestCompressWithReordering:
    def test_winner_reported(self, rng):
        matrix = _scattered_matrix(rng)
        result = compress_with_reordering(matrix, variant="re_32", n_blocks=4)
        assert result.method in ("pathcover", "mwm")
        assert set(result.sizes_by_method) == {"pathcover", "mwm"}

    def test_winner_is_smallest(self, rng):
        matrix = _scattered_matrix(rng)
        result = compress_with_reordering(matrix, variant="re_32", n_blocks=4)
        assert result.sizes_by_method[result.method] == min(
            result.sizes_by_method.values()
        )

    def test_result_matrix_correct(self, rng):
        matrix = _scattered_matrix(rng)
        result = compress_with_reordering(matrix, variant="re_iv", n_blocks=4)
        x = rng.standard_normal(matrix.shape[1])
        y = rng.standard_normal(matrix.shape[0])
        with BlockExecutor(2) as ex:
            assert np.allclose(result.matrix.right_multiply(x, executor=ex), matrix @ x)
            assert np.allclose(result.matrix.left_multiply(y, executor=ex), y @ matrix)

    def test_per_block_orders_returned(self, rng):
        matrix = _scattered_matrix(rng)
        result = compress_with_reordering(matrix, n_blocks=4, variant="re_32")
        assert len(result.orders) == 4
        for order in result.orders:
            assert sorted(order.tolist()) == list(range(matrix.shape[1]))

    def test_custom_method_list(self, rng):
        matrix = _scattered_matrix(rng)
        result = compress_with_reordering(
            matrix, variant="re_32", n_blocks=2, methods=("lkh",)
        )
        assert result.method == "lkh"

    def test_empty_methods_rejected(self, rng):
        with pytest.raises(MatrixFormatError):
            compress_with_reordering(_scattered_matrix(rng), methods=())

    def test_lossless(self, rng):
        matrix = _scattered_matrix(rng)
        result = compress_with_reordering(matrix, variant="re_ans", n_blocks=3)
        assert np.allclose(result.matrix.to_dense(), matrix)

    def test_intra_row_candidates(self, rng):
        matrix = _scattered_matrix(rng)
        result = compress_with_reordering(
            matrix,
            variant="re_ans",
            n_blocks=3,
            methods=("pathcover", "intra-freq", "intra-code"),
        )
        assert set(result.sizes_by_method) == {
            "pathcover",
            "intra-freq",
            "intra-code",
        }
        assert result.sizes_by_method[result.method] == min(
            result.sizes_by_method.values()
        )
        x = rng.standard_normal(matrix.shape[1])
        with BlockExecutor(2) as ex:
            assert np.allclose(result.matrix.right_multiply(x, executor=ex), matrix @ x)

    def test_intra_only_skips_similarity(self, rng):
        # With only intra-row candidates no CSM should be needed; this
        # must work on a matrix whose similarity computation would be
        # comparatively expensive.
        matrix = _scattered_matrix(rng)
        result = compress_with_reordering(
            matrix, variant="re_32", n_blocks=2, methods=("intra-freq",)
        )
        assert result.method == "intra-freq"
        assert result.orders == []
        assert np.allclose(result.matrix.to_dense(), matrix)

    def test_intra_freq_wins_on_row_permuted_data(self, rng):
        # Rows share value sets but in shuffled per-row layouts: no
        # single column permutation can align them, intra-row can.
        base = np.array([1.5, 2.5, 3.5, 4.5, 5.5, 6.5, 7.5, 8.5])
        rows = [base[rng.permutation(8)] for _ in range(240)]
        matrix = np.array(rows)
        result = compress_with_reordering(
            matrix,
            variant="re_32",
            n_blocks=2,
            methods=("pathcover", "intra-code"),
        )
        assert result.method == "intra-code"
