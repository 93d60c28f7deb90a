"""Tests for the extension features: multi-vector MVM, auto per-block
format selection (Section 4.2 avenue), scipy interop."""

import numpy as np
import pytest
from scipy import sparse

from repro.core.blocked import BlockedMatrix
from repro.core.csrv import CSRVMatrix
from repro.core.gcm import GrammarCompressedMatrix
from repro.errors import MatrixFormatError
from repro.serve.executor import BlockExecutor
from tests.conftest import make_structured


class TestMultiVector:
    def test_gcm_right_multiply_matrix(self, structured_matrix, rng):
        gm = GrammarCompressedMatrix.compress(structured_matrix)
        x_block = rng.standard_normal((structured_matrix.shape[1], 5))
        assert np.allclose(
            gm.right_multiply_matrix(x_block), structured_matrix @ x_block
        )

    @pytest.mark.parametrize("variant", ["re_32", "re_iv", "re_ans"])
    def test_all_variants(self, structured_matrix, rng, variant):
        gm = GrammarCompressedMatrix.compress(structured_matrix, variant=variant)
        x_block = rng.standard_normal((structured_matrix.shape[1], 3))
        assert np.allclose(
            gm.right_multiply_matrix(x_block), structured_matrix @ x_block
        )

    def test_single_column_block_matches_vector_path(self, structured_matrix, rng):
        gm = GrammarCompressedMatrix.compress(structured_matrix)
        x = rng.standard_normal(structured_matrix.shape[1])
        batched = gm.right_multiply_matrix(x[:, None]).ravel()
        assert np.allclose(batched, gm.right_multiply(x))

    def test_1d_input_promoted(self, structured_matrix):
        gm = GrammarCompressedMatrix.compress(structured_matrix)
        out = gm.right_multiply_matrix(np.ones(structured_matrix.shape[1]))
        assert out.shape == (structured_matrix.shape[0], 1)

    def test_csrv_right_multiply_matrix(self, structured_matrix, rng):
        csrv = CSRVMatrix.from_dense(structured_matrix)
        x_block = rng.standard_normal((structured_matrix.shape[1], 4))
        assert np.allclose(
            csrv.right_multiply_matrix(x_block), structured_matrix @ x_block
        )

    def test_blocked_right_multiply_matrix(self, structured_matrix, rng):
        bm = BlockedMatrix.compress(structured_matrix, variant="re_iv", n_blocks=3)
        x_block = rng.standard_normal((structured_matrix.shape[1], 4))
        with BlockExecutor(2) as ex:
            assert np.allclose(
                bm.right_multiply_matrix(x_block, executor=ex),
                structured_matrix @ x_block,
            )

    def test_wrong_shape_rejected(self, structured_matrix):
        gm = GrammarCompressedMatrix.compress(structured_matrix)
        with pytest.raises(MatrixFormatError):
            gm.right_multiply_matrix(np.ones((3, 2)))
        with pytest.raises(MatrixFormatError):
            gm.left_multiply_matrix(np.ones((3, 2)))

    @pytest.mark.parametrize("variant", ["re_32", "re_iv", "re_ans"])
    def test_left_multiply_matrix(self, structured_matrix, rng, variant):
        gm = GrammarCompressedMatrix.compress(structured_matrix, variant=variant)
        y_block = rng.standard_normal((structured_matrix.shape[0], 4))
        assert np.allclose(
            gm.left_multiply_matrix(y_block), structured_matrix.T @ y_block
        )

    def test_left_multiply_matrix_matches_vector_path(self, structured_matrix, rng):
        gm = GrammarCompressedMatrix.compress(structured_matrix)
        y = rng.standard_normal(structured_matrix.shape[0])
        batched = gm.left_multiply_matrix(y[:, None]).ravel()
        assert np.allclose(batched, gm.left_multiply(y))

    def test_csrv_left_multiply_matrix(self, structured_matrix, rng):
        csrv = CSRVMatrix.from_dense(structured_matrix)
        y_block = rng.standard_normal((structured_matrix.shape[0], 3))
        assert np.allclose(
            csrv.left_multiply_matrix(y_block), structured_matrix.T @ y_block
        )

    def test_blocked_left_multiply_matrix(self, structured_matrix, rng):
        bm = BlockedMatrix.compress(structured_matrix, variant="re_ans", n_blocks=3)
        y_block = rng.standard_normal((structured_matrix.shape[0], 3))
        with BlockExecutor(2) as ex:
            assert np.allclose(
                bm.left_multiply_matrix(y_block, executor=ex),
                structured_matrix.T @ y_block,
            )

    def test_zero_rule_grammar(self, rng):
        matrix = rng.standard_normal((5, 4))  # unique values, no rules
        gm = GrammarCompressedMatrix.compress(matrix)
        x_block = rng.standard_normal((4, 2))
        assert np.allclose(gm.right_multiply_matrix(x_block), matrix @ x_block)


class TestAutoBlocks:
    def test_auto_never_larger_than_fixed_variants(self, rng):
        matrix = make_structured(rng, n=120, m=10)
        auto = BlockedMatrix.compress(matrix, variant="auto", n_blocks=3)
        for variant in ("csrv", "re_32", "re_iv", "re_ans"):
            fixed = BlockedMatrix.compress(matrix, variant=variant, n_blocks=3)
            assert auto.size_bytes() <= fixed.size_bytes()

    def test_auto_is_lossless(self, rng):
        matrix = make_structured(rng, n=100, m=8)
        auto = BlockedMatrix.compress(matrix, variant="auto", n_blocks=4)
        assert np.array_equal(auto.to_dense(), matrix)

    def test_auto_multiplication(self, rng):
        matrix = make_structured(rng, n=100, m=8)
        auto = BlockedMatrix.compress(matrix, variant="auto", n_blocks=4)
        x = rng.standard_normal(8)
        y = rng.standard_normal(100)
        with BlockExecutor(2) as ex:
            assert np.allclose(auto.right_multiply(x, executor=ex), matrix @ x)
            assert np.allclose(auto.left_multiply(y, executor=ex), y @ matrix)

    def test_incompressible_block_stays_rule_free(self, rng):
        # Near-unique floats: no rules to find.  Bit packing still wins
        # over the 32-bit CSRV layout (csrv's edge is speed, not size),
        # so the blocks are rule-free grammar encodings.
        matrix = rng.standard_normal((60, 8))
        auto = BlockedMatrix.compress(matrix, variant="auto", n_blocks=2)
        for block in auto.blocks:
            assert isinstance(block, GrammarCompressedMatrix)
            assert block.n_rules <= 2
        csrv = BlockedMatrix.compress(matrix, variant="csrv", n_blocks=2)
        assert auto.size_bytes() <= csrv.size_bytes()

    def test_compressible_block_uses_grammar(self, rng):
        matrix = np.tile(rng.integers(1, 4, size=(5, 8)).astype(float), (40, 1))
        auto = BlockedMatrix.compress(matrix, variant="auto", n_blocks=2)
        assert all(
            isinstance(b, GrammarCompressedMatrix) for b in auto.blocks
        )
        assert all(b.n_rules > 0 for b in auto.blocks)

    def test_csrv_fallback_when_packing_cannot_help(self, rng):
        # Force 32-bit-wide symbols by injecting a block whose grammar
        # storage cannot undercut CSRV: verified through the selection
        # rule directly — auto must never exceed the csrv layout.
        matrix = rng.standard_normal((40, 6))
        auto = BlockedMatrix.compress(matrix, variant="auto", n_blocks=4)
        csrv = BlockedMatrix.compress(matrix, variant="csrv", n_blocks=4)
        assert auto.size_bytes() <= csrv.size_bytes()
        assert np.array_equal(auto.to_dense(), matrix)


class TestScipyInterop:
    def test_from_scipy_csr(self, structured_matrix):
        sp = sparse.csr_matrix(structured_matrix)
        csrv = CSRVMatrix.from_scipy(sp)
        assert np.array_equal(csrv.to_dense(), structured_matrix)

    def test_from_scipy_coo(self, structured_matrix):
        sp = sparse.coo_matrix(structured_matrix)
        csrv = CSRVMatrix.from_scipy(sp)
        assert csrv == CSRVMatrix.from_dense(structured_matrix)

    def test_from_scipy_then_compress(self, structured_matrix, rng):
        sp = sparse.csc_matrix(structured_matrix)
        gm = GrammarCompressedMatrix.compress(CSRVMatrix.from_scipy(sp))
        x = rng.standard_normal(structured_matrix.shape[1])
        assert np.allclose(gm.right_multiply(x), structured_matrix @ x)
