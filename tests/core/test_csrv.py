"""Tests for the CSRV representation (Section 2)."""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.csrv import ROW_SEPARATOR, CSRVMatrix
from repro.errors import MatrixFormatError


class TestConstruction:
    def test_paper_example_values_sorted(self, paper_matrix):
        csrv = CSRVMatrix.from_dense(paper_matrix)
        # Figure 1: V = [1.2, 1.7, 2.3, 3.4, 4.5, 5.6]
        assert np.allclose(csrv.values, [1.2, 1.7, 2.3, 3.4, 4.5, 5.6])

    def test_paper_example_sequence_length(self, paper_matrix):
        csrv = CSRVMatrix.from_dense(paper_matrix)
        # t = 23 non-zeros + 6 separators.
        assert csrv.s.size == 23 + 6
        assert csrv.nnz == 23

    def test_paper_example_first_row_codes(self, paper_matrix):
        csrv = CSRVMatrix.from_dense(paper_matrix)
        m = 5
        # Row 1 of Fig. 1: ⟨1,1⟩⟨4,2⟩⟨6,3⟩⟨3,5⟩$ in 1-based paper
        # notation = (ℓ,j) zero-based (0,0)(3,1)(5,2)(2,4).
        expected = [1 + 0 * m + 0, 1 + 3 * m + 1, 1 + 5 * m + 2, 1 + 2 * m + 4]
        assert csrv.s[:4].tolist() == expected
        assert csrv.s[4] == ROW_SEPARATOR

    def test_separator_count_equals_rows(self, structured_matrix):
        csrv = CSRVMatrix.from_dense(structured_matrix)
        n_sep = int(np.count_nonzero(csrv.s == ROW_SEPARATOR))
        assert n_sep == structured_matrix.shape[0]

    def test_roundtrip_dense(self, structured_matrix):
        csrv = CSRVMatrix.from_dense(structured_matrix)
        assert np.array_equal(csrv.to_dense(), structured_matrix)

    def test_all_zero_matrix(self):
        matrix = np.zeros((4, 3))
        csrv = CSRVMatrix.from_dense(matrix)
        assert csrv.nnz == 0
        assert csrv.s.tolist() == [0, 0, 0, 0]
        assert np.array_equal(csrv.to_dense(), matrix)

    def test_all_zero_rows_interleaved(self):
        matrix = np.array([[0.0, 1.0], [0.0, 0.0], [2.0, 0.0]])
        csrv = CSRVMatrix.from_dense(matrix)
        assert np.array_equal(csrv.to_dense(), matrix)

    def test_single_cell(self):
        matrix = np.array([[3.5]])
        csrv = CSRVMatrix.from_dense(matrix)
        assert csrv.s.tolist() == [1, 0]

    def test_rejects_1d(self):
        with pytest.raises(MatrixFormatError):
            CSRVMatrix.from_dense(np.ones(5))

    def test_from_arrays_matches_from_dense(self, structured_matrix):
        rows, cols = np.nonzero(structured_matrix)
        vals = structured_matrix[rows, cols]
        a = CSRVMatrix.from_arrays(rows, cols, vals, structured_matrix.shape)
        b = CSRVMatrix.from_dense(structured_matrix)
        assert a == b

    def test_from_arrays_drops_explicit_zeros(self):
        csrv = CSRVMatrix.from_arrays(
            np.array([0, 0]), np.array([0, 1]), np.array([1.0, 0.0]), (1, 2)
        )
        assert csrv.nnz == 1

    def test_from_arrays_validates_indices(self):
        with pytest.raises(MatrixFormatError):
            CSRVMatrix.from_arrays(
                np.array([5]), np.array([0]), np.array([1.0]), (2, 2)
            )
        with pytest.raises(MatrixFormatError):
            CSRVMatrix.from_arrays(
                np.array([0]), np.array([9]), np.array([1.0]), (2, 2)
            )

    def test_from_arrays_shape_mismatch(self):
        with pytest.raises(MatrixFormatError):
            CSRVMatrix.from_arrays(
                np.array([0, 1]), np.array([0]), np.array([1.0]), (2, 2)
            )

    def test_invariant_checked_on_raw_construction(self):
        with pytest.raises(MatrixFormatError):
            CSRVMatrix(np.array([0, 0]), np.array([1.0]), (3, 2))  # 2 seps, 3 rows
        with pytest.raises(MatrixFormatError):
            CSRVMatrix(np.array([99, 0]), np.array([1.0]), (1, 2))  # bad code


class TestColumnOrder:
    def test_reordering_preserves_decoded_matrix(self, paper_matrix):
        perm = np.array([4, 2, 0, 1, 3])
        csrv = CSRVMatrix.from_dense(paper_matrix, column_order=perm)
        assert np.array_equal(csrv.to_dense(), paper_matrix)

    def test_reordering_changes_layout_not_codes_domain(self, paper_matrix):
        base = CSRVMatrix.from_dense(paper_matrix)
        perm = np.array([4, 3, 2, 1, 0])
        reordered = CSRVMatrix.from_dense(paper_matrix, column_order=perm)
        # Same multiset of codes, different order.
        assert sorted(base.s.tolist()) == sorted(reordered.s.tolist())
        assert base.s.tolist() != reordered.s.tolist()

    def test_reordering_preserves_multiplication(self, paper_matrix, rng):
        perm = rng.permutation(5)
        csrv = CSRVMatrix.from_dense(paper_matrix, column_order=perm)
        x = rng.standard_normal(5)
        assert np.allclose(csrv.right_multiply(x), paper_matrix @ x)

    def test_invalid_permutation_rejected(self, paper_matrix):
        with pytest.raises(MatrixFormatError):
            CSRVMatrix.from_dense(paper_matrix, column_order=[0, 1, 2, 3, 3])
        with pytest.raises(MatrixFormatError):
            CSRVMatrix.from_dense(paper_matrix, column_order=[0, 1])


class TestMultiplication:
    def test_right_matches_numpy(self, structured_matrix, rng):
        csrv = CSRVMatrix.from_dense(structured_matrix)
        x = rng.standard_normal(structured_matrix.shape[1])
        assert np.allclose(csrv.right_multiply(x), structured_matrix @ x)

    def test_left_matches_numpy(self, structured_matrix, rng):
        csrv = CSRVMatrix.from_dense(structured_matrix)
        y = rng.standard_normal(structured_matrix.shape[0])
        assert np.allclose(csrv.left_multiply(y), y @ structured_matrix)

    def test_right_zero_vector(self, structured_matrix):
        csrv = CSRVMatrix.from_dense(structured_matrix)
        out = csrv.right_multiply(np.zeros(structured_matrix.shape[1]))
        assert np.array_equal(out, np.zeros(structured_matrix.shape[0]))

    def test_wrong_length_rejected(self, paper_matrix):
        csrv = CSRVMatrix.from_dense(paper_matrix)
        with pytest.raises(MatrixFormatError):
            csrv.right_multiply(np.ones(4))
        with pytest.raises(MatrixFormatError):
            csrv.left_multiply(np.ones(5))

    def test_integer_vector_coerced(self, paper_matrix):
        csrv = CSRVMatrix.from_dense(paper_matrix)
        out = csrv.right_multiply(np.ones(5, dtype=int))
        assert out.dtype == np.float64


class _PausingCache(dict):
    """A decode cache whose first store blocks until ``resume`` is set."""

    def __init__(self):
        super().__init__()
        self.stored = threading.Event()
        self.resume = threading.Event()

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        if not self.stored.is_set():
            self.stored.set()
            self.resume.wait(timeout=10)


class TestConcurrentDecode:
    def test_first_decode_is_published_whole(self, structured_matrix, rng):
        # Two passes decoding one fresh shard at once: the second must
        # never see a partly stored decode, whatever point the first
        # has reached.
        csrv = CSRVMatrix.from_dense(structured_matrix)
        cache = _PausingCache()
        csrv._cache = cache
        x = rng.standard_normal(structured_matrix.shape[1])
        results = {}

        def first():
            results["first"] = csrv.right_multiply(x)

        writer = threading.Thread(target=first)
        writer.start()
        assert cache.stored.wait(timeout=10)
        try:
            results["second"] = csrv.right_multiply(x)
        finally:
            cache.resume.set()
            writer.join(timeout=10)
        assert sorted(results) == ["first", "second"]
        for y in results.values():
            assert np.allclose(y, structured_matrix @ x)


class TestSplitRows:
    def test_blocks_cover_matrix(self, structured_matrix):
        csrv = CSRVMatrix.from_dense(structured_matrix)
        blocks = csrv.split_rows(4)
        stacked = np.vstack([b.to_dense() for b in blocks])
        assert np.array_equal(stacked, structured_matrix)

    def test_block_row_counts_follow_ceiling_rule(self):
        matrix = np.ones((10, 2))
        blocks = CSRVMatrix.from_dense(matrix).split_rows(3)
        assert [b.shape[0] for b in blocks] == [4, 4, 2]

    def test_blocks_share_values_array(self, structured_matrix):
        csrv = CSRVMatrix.from_dense(structured_matrix)
        blocks = csrv.split_rows(2)
        assert np.shares_memory(blocks[0].values, blocks[1].values)

    def test_single_block_is_whole_matrix(self, structured_matrix):
        csrv = CSRVMatrix.from_dense(structured_matrix)
        (block,) = csrv.split_rows(1)
        assert block == csrv

    def test_invalid_block_count(self, paper_matrix):
        csrv = CSRVMatrix.from_dense(paper_matrix)
        with pytest.raises(MatrixFormatError):
            csrv.split_rows(0)
        with pytest.raises(MatrixFormatError):
            csrv.split_rows(7)


class TestAccounting:
    def test_size_bytes_formula(self, paper_matrix):
        csrv = CSRVMatrix.from_dense(paper_matrix)
        assert csrv.size_bytes() == 4 * csrv.s.size + 8 * csrv.values.size

    def test_iter_rows(self, paper_matrix):
        csrv = CSRVMatrix.from_dense(paper_matrix)
        rows = list(csrv.iter_rows())
        assert len(rows) == 6
        cols0, vals0 = rows[0]
        assert cols0.tolist() == [0, 1, 2, 4]
        assert np.allclose(vals0, [1.2, 3.4, 5.6, 2.3])

    def test_views_are_readonly(self, paper_matrix):
        csrv = CSRVMatrix.from_dense(paper_matrix)
        with pytest.raises(ValueError):
            csrv.s[0] = 99
        with pytest.raises(ValueError):
            csrv.values[0] = 99.0

    def test_repr(self, paper_matrix):
        assert "nnz=23" in repr(CSRVMatrix.from_dense(paper_matrix))


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=20),
    m=st.integers(min_value=1, max_value=10),
    seed=st.integers(min_value=0, max_value=1000),
    density=st.floats(min_value=0.0, max_value=1.0),
)
def test_property_roundtrip_and_mvm(n, m, seed, density):
    rng = np.random.default_rng(seed)
    matrix = np.round(rng.uniform(-5, 5, size=(n, m)), 1)
    matrix[rng.random((n, m)) >= density] = 0.0
    csrv = CSRVMatrix.from_dense(matrix)
    assert np.array_equal(csrv.to_dense(), matrix)
    x = rng.standard_normal(m)
    y = rng.standard_normal(n)
    assert np.allclose(csrv.right_multiply(x), matrix @ x)
    assert np.allclose(csrv.left_multiply(y), y @ matrix)
