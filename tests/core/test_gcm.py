"""Tests for GrammarCompressedMatrix and its three physical variants."""

import numpy as np
import pytest

from repro.core.csrv import CSRVMatrix
from repro.core.gcm import VARIANTS, GrammarCompressedMatrix
from repro.errors import MatrixFormatError

ALL_VARIANTS = list(VARIANTS)


@pytest.fixture(params=ALL_VARIANTS)
def variant(request):
    return request.param


class TestCompression:
    def test_lossless_roundtrip(self, structured_matrix, variant):
        gm = GrammarCompressedMatrix.compress(structured_matrix, variant=variant)
        assert np.array_equal(gm.to_dense(), structured_matrix)

    def test_decompress_matches_csrv(self, structured_matrix, variant):
        csrv = CSRVMatrix.from_dense(structured_matrix)
        gm = GrammarCompressedMatrix.compress(csrv, variant=variant)
        assert gm.decompress() == csrv

    def test_accepts_dense_or_csrv(self, paper_matrix):
        a = GrammarCompressedMatrix.compress(paper_matrix)
        b = GrammarCompressedMatrix.compress(CSRVMatrix.from_dense(paper_matrix))
        assert np.array_equal(a.to_dense(), b.to_dense())

    def test_unknown_variant_rejected(self, paper_matrix):
        with pytest.raises(MatrixFormatError):
            GrammarCompressedMatrix.compress(paper_matrix, variant="re_99")

    def test_grammar_decoded_identically_across_variants(self, structured_matrix):
        grammars = [
            GrammarCompressedMatrix.compress(
                structured_matrix, variant=v
            ).decode_grammar()
            for v in ALL_VARIANTS
        ]
        for g in grammars[1:]:
            assert np.array_equal(g.rules, grammars[0].rules)
            assert np.array_equal(g.final, grammars[0].final)

    def test_max_rules_forwarded(self, structured_matrix):
        gm = GrammarCompressedMatrix.compress(structured_matrix, max_rules=2)
        assert gm.n_rules <= 2
        assert np.array_equal(gm.to_dense(), structured_matrix)

    def test_re_ans_final_string_past_2_16_distinct_symbols(self, rng):
        """``optical`` at 5000 rows: batch RePair leaves 77,775 distinct
        symbols in a ``C`` of 452,652, more than a model of one
        frequency per symbol can quantise; the folded coder stores it."""
        from repro.datasets import get_dataset

        dense = get_dataset("optical", n_rows=5000).matrix
        gm = GrammarCompressedMatrix.compress(dense, variant="re_ans", strategy="batch")
        final = gm.decode_grammar().final
        assert np.unique(final).size > 1 << 16
        x = rng.standard_normal(dense.shape[1])
        y = rng.standard_normal(dense.shape[0])
        assert np.allclose(gm.right_multiply(x), dense @ x)
        assert np.allclose(gm.left_multiply(y), y @ dense)


class TestMultiplication:
    def test_right_matches_dense(self, structured_matrix, variant, rng):
        gm = GrammarCompressedMatrix.compress(structured_matrix, variant=variant)
        x = rng.standard_normal(structured_matrix.shape[1])
        assert np.allclose(gm.right_multiply(x), structured_matrix @ x)

    def test_left_matches_dense(self, structured_matrix, variant, rng):
        gm = GrammarCompressedMatrix.compress(structured_matrix, variant=variant)
        y = rng.standard_normal(structured_matrix.shape[0])
        assert np.allclose(gm.left_multiply(y), y @ structured_matrix)

    def test_repeated_multiplications_consistent(self, paper_matrix, variant):
        gm = GrammarCompressedMatrix.compress(paper_matrix, variant=variant)
        x = np.ones(5)
        first = gm.right_multiply(x)
        for _ in range(3):
            assert np.array_equal(gm.right_multiply(x), first)

    def test_all_variants_agree(self, structured_matrix, rng):
        x = rng.standard_normal(structured_matrix.shape[1])
        results = [
            GrammarCompressedMatrix.compress(
                structured_matrix, variant=v
            ).right_multiply(x)
            for v in ALL_VARIANTS
        ]
        for r in results[1:]:
            assert np.allclose(r, results[0])


class TestSizeAccounting:
    def test_breakdown_keys(self, paper_matrix, variant):
        gm = GrammarCompressedMatrix.compress(paper_matrix, variant=variant)
        assert set(gm.size_breakdown()) == {"C", "R", "V"}
        assert gm.size_bytes() == sum(gm.size_breakdown().values())

    def test_re32_formula(self, structured_matrix):
        gm = GrammarCompressedMatrix.compress(structured_matrix, variant="re_32")
        parts = gm.size_breakdown()
        assert parts["C"] == 4 * gm.c_length
        assert parts["R"] == 8 * gm.n_rules
        assert parts["V"] == 8 * gm.values.size

    def test_size_ordering_on_compressible_input(self, rng):
        # Highly repetitive input: re_ans <= re_iv <= re_32 (paper's
        # Table 1 ordering).
        matrix = np.tile(rng.integers(1, 4, size=(4, 12)).astype(float), (50, 1))
        sizes = {
            v: GrammarCompressedMatrix.compress(matrix, variant=v).size_bytes()
            for v in ALL_VARIANTS
        }
        assert sizes["re_iv"] <= sizes["re_32"]
        assert sizes["re_ans"] <= sizes["re_32"]

    def test_grammar_smaller_than_csrv_on_repetitive_input(self, rng):
        matrix = np.tile(rng.integers(1, 5, size=(6, 10)).astype(float), (40, 1))
        csrv = CSRVMatrix.from_dense(matrix)
        gm = GrammarCompressedMatrix.compress(csrv, variant="re_32")
        assert gm.size_bytes() < csrv.size_bytes()


class TestEngineCaching:
    def test_re32_caches_engine(self, paper_matrix):
        gm = GrammarCompressedMatrix.compress(paper_matrix, variant="re_32")
        assert gm._get_engine() is gm._get_engine()

    def test_re_iv_rebuilds_engine(self, paper_matrix):
        gm = GrammarCompressedMatrix.compress(paper_matrix, variant="re_iv")
        assert gm._get_engine() is not gm._get_engine()

    def test_re_ans_rebuilds_engine(self, paper_matrix):
        gm = GrammarCompressedMatrix.compress(paper_matrix, variant="re_ans")
        assert gm._get_engine() is not gm._get_engine()


class TestEdgeCases:
    def test_all_zero_matrix(self, variant):
        matrix = np.zeros((5, 4))
        gm = GrammarCompressedMatrix.compress(matrix, variant=variant)
        assert np.array_equal(gm.to_dense(), matrix)
        assert np.array_equal(gm.right_multiply(np.ones(4)), np.zeros(5))

    def test_single_row(self, variant):
        matrix = np.array([[1.0, 0.0, 2.0]])
        gm = GrammarCompressedMatrix.compress(matrix, variant=variant)
        assert np.allclose(gm.right_multiply(np.ones(3)), [3.0])

    def test_single_column(self, variant):
        matrix = np.array([[1.0], [2.0], [1.0], [2.0]])
        gm = GrammarCompressedMatrix.compress(matrix, variant=variant)
        y = np.ones(4)
        assert np.allclose(gm.left_multiply(y), [6.0])

    def test_repr_mentions_variant(self, paper_matrix, variant):
        gm = GrammarCompressedMatrix.compress(paper_matrix, variant=variant)
        assert variant in repr(gm)
