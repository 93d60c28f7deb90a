"""Tests for BlockedMatrix (Section 4.1 multithreading)."""

import numpy as np
import pytest

from repro.core.blocked import BLOCK_FORMATS, BlockedMatrix
from repro.core.csrv import CSRVMatrix
from repro.core.gcm import GrammarCompressedMatrix
from repro.errors import MatrixFormatError
from repro.serve.executor import BlockExecutor


@pytest.fixture(params=list(BLOCK_FORMATS))
def block_format(request):
    return request.param


class TestConstruction:
    def test_lossless(self, structured_matrix, block_format):
        bm = BlockedMatrix.compress(structured_matrix, variant=block_format, n_blocks=4)
        assert np.array_equal(bm.to_dense(), structured_matrix)

    def test_block_count(self, structured_matrix):
        bm = BlockedMatrix.compress(structured_matrix, n_blocks=5)
        assert bm.n_blocks == 5

    def test_blocks_cover_consecutive_rows(self, structured_matrix):
        bm = BlockedMatrix.compress(structured_matrix, variant="csrv", n_blocks=3)
        rows = [b.shape[0] for b in bm.blocks]
        assert sum(rows) == structured_matrix.shape[0]

    def test_more_blocks_than_rows_clamped(self):
        matrix = np.eye(3)
        bm = BlockedMatrix.compress(matrix, n_blocks=3)
        assert bm.n_blocks == 3

    def test_unknown_format_rejected(self, paper_matrix):
        with pytest.raises(MatrixFormatError):
            BlockedMatrix.compress(paper_matrix, variant="zstd")

    def test_csrv_input_accepted(self, structured_matrix):
        csrv = CSRVMatrix.from_dense(structured_matrix)
        bm = BlockedMatrix.compress(csrv, variant="re_iv", n_blocks=2)
        assert np.array_equal(bm.to_dense(), structured_matrix)

    def test_shared_values_across_blocks(self, structured_matrix):
        bm = BlockedMatrix.compress(structured_matrix, variant="re_32", n_blocks=3)
        first = bm.blocks[0].values
        for block in bm.blocks[1:]:
            assert np.shares_memory(first, block.values)

    def test_empty_block_list_rejected(self):
        with pytest.raises(MatrixFormatError):
            BlockedMatrix([], (0, 0))

    def test_row_coverage_validated(self, structured_matrix):
        blocks = CSRVMatrix.from_dense(structured_matrix).split_rows(2)
        with pytest.raises(MatrixFormatError):
            BlockedMatrix(blocks, (structured_matrix.shape[0] + 1, structured_matrix.shape[1]))


class TestMultiplication:
    @pytest.mark.parametrize("threads", [1, 2, 4, 8])
    def test_right_any_thread_count(self, structured_matrix, threads, rng):
        bm = BlockedMatrix.compress(structured_matrix, variant="re_32", n_blocks=4)
        x = rng.standard_normal(structured_matrix.shape[1])
        with BlockExecutor(threads) as ex:
            assert np.allclose(
                bm.right_multiply(x, executor=ex), structured_matrix @ x
            )

    @pytest.mark.parametrize("threads", [1, 2, 4, 8])
    def test_left_any_thread_count(self, structured_matrix, threads, rng):
        bm = BlockedMatrix.compress(structured_matrix, variant="re_32", n_blocks=4)
        y = rng.standard_normal(structured_matrix.shape[0])
        with BlockExecutor(threads) as ex:
            assert np.allclose(
                bm.left_multiply(y, executor=ex), y @ structured_matrix
            )

    def test_all_formats_agree(self, structured_matrix, rng):
        x = rng.standard_normal(structured_matrix.shape[1])
        with BlockExecutor(2) as ex:
            results = [
                BlockedMatrix.compress(
                    structured_matrix, variant=v, n_blocks=3
                ).right_multiply(x, executor=ex)
                for v in BLOCK_FORMATS
            ]
        for r in results[1:]:
            assert np.allclose(r, results[0])

    def test_threaded_equals_sequential(self, structured_matrix, rng):
        bm = BlockedMatrix.compress(structured_matrix, variant="re_ans", n_blocks=4)
        y = rng.standard_normal(structured_matrix.shape[0])
        with BlockExecutor(4) as ex:
            assert np.allclose(bm.left_multiply(y, executor=ex), bm.left_multiply(y))

    def test_wrong_vector_length(self, paper_matrix):
        bm = BlockedMatrix.compress(paper_matrix, n_blocks=2)
        with pytest.raises(MatrixFormatError):
            bm.right_multiply(np.ones(2))
        with pytest.raises(MatrixFormatError):
            bm.left_multiply(np.ones(2))


class TestPerBlockReordering:
    def test_column_orders_applied_per_block(self, structured_matrix, rng):
        m = structured_matrix.shape[1]
        orders = [rng.permutation(m) for _ in range(3)]
        bm = BlockedMatrix.compress(
            structured_matrix, variant="re_32", n_blocks=3, column_orders=orders
        )
        assert np.array_equal(bm.to_dense(), structured_matrix)
        x = rng.standard_normal(m)
        assert np.allclose(bm.right_multiply(x), structured_matrix @ x)

    def test_order_count_mismatch_rejected(self, structured_matrix):
        with pytest.raises(MatrixFormatError):
            BlockedMatrix.compress(
                structured_matrix,
                n_blocks=3,
                column_orders=[np.arange(structured_matrix.shape[1])] * 2,
            )

    def test_reordered_blocks_share_global_values(self, structured_matrix, rng):
        # Section 4.1: the value array V is global even when each block
        # is reordered with its own permutation.  Per-block V arrays
        # would shrink the code space and fake extra compression.
        m = structured_matrix.shape[1]
        orders = [rng.permutation(m) for _ in range(3)]
        bm = BlockedMatrix.compress(
            structured_matrix, variant="re_iv", n_blocks=3, column_orders=orders
        )
        global_v = CSRVMatrix.from_dense(structured_matrix).values
        for block in bm.blocks:
            assert np.array_equal(block.values, global_v)

    def test_identity_orders_match_plain_blocked_size(self, structured_matrix):
        # With identity permutations the reordered path must produce
        # exactly the plain blocked compression (same S per block).
        m = structured_matrix.shape[1]
        orders = [np.arange(m)] * 4
        reordered = BlockedMatrix.compress(
            structured_matrix, variant="re_iv", n_blocks=4, column_orders=orders
        )
        plain = BlockedMatrix.compress(
            structured_matrix, variant="re_iv", n_blocks=4
        )
        assert reordered.size_bytes() == plain.size_bytes()

    def test_orders_require_dense_source(self, structured_matrix):
        csrv = CSRVMatrix.from_dense(structured_matrix)
        with pytest.raises(MatrixFormatError):
            BlockedMatrix.compress(
                csrv,
                n_blocks=2,
                column_orders=[np.arange(structured_matrix.shape[1])] * 2,
            )


class TestAccounting:
    def test_shared_values_counted_once(self, structured_matrix):
        bm = BlockedMatrix.compress(structured_matrix, variant="re_32", n_blocks=4)
        per_block_cr = sum(
            b.size_breakdown()["C"] + b.size_breakdown()["R"] for b in bm.blocks
        )
        v_bytes = 8 * bm.blocks[0].values.size
        assert bm.size_bytes() == per_block_cr + v_bytes

    def test_csrv_blocks_accounting(self, structured_matrix):
        bm = BlockedMatrix.compress(structured_matrix, variant="csrv", n_blocks=2)
        s_bytes = sum(4 * b.s.size for b in bm.blocks)
        v_bytes = 8 * bm.blocks[0].values.size
        assert bm.size_bytes() == s_bytes + v_bytes

    def test_repr(self, structured_matrix):
        bm = BlockedMatrix.compress(structured_matrix, variant="re_iv", n_blocks=2)
        assert "n_blocks=2" in repr(bm)
        assert "GrammarCompressedMatrix" in repr(bm)
