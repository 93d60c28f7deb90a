"""Tests for the benchmark harness, memory model and reporting."""

import numpy as np
import pytest

from repro.baselines import CSRMatrix, DenseMatrix, GzipMatrix
from repro.bench.harness import run_iterations
from repro.bench.memory import peak_mvm_bytes, peak_mvm_pct, representation_bytes
from repro.bench.reporting import format_table, ratio_pct
from repro.cla import CLAMatrix
from repro.core.blocked import BlockedMatrix
from repro.core.csrv import CSRVMatrix
from repro.core.gcm import GrammarCompressedMatrix
from repro.errors import MatrixFormatError


class TestMemoryModel:
    def test_dense(self, paper_matrix):
        dm = DenseMatrix(paper_matrix)
        n, m = paper_matrix.shape
        assert peak_mvm_bytes(dm) == n * m * 8 + 8 * (n + 2 * m)

    def test_gzip_includes_full_decompression(self, paper_matrix):
        gz = GzipMatrix(paper_matrix)
        n, m = paper_matrix.shape
        assert peak_mvm_bytes(gz) == gz.size_bytes() + 8 * n * m + 8 * (n + 2 * m)

    def test_grammar_includes_w_array(self, structured_matrix):
        gm = GrammarCompressedMatrix.compress(structured_matrix, variant="re_32")
        n, m = structured_matrix.shape
        expected = gm.size_bytes() + 8 * gm.n_rules + 8 * (n + 2 * m)
        assert peak_mvm_bytes(gm) == expected

    def test_variants_share_working_set_model(self, structured_matrix):
        # Same grammar -> same W array; the variants differ only in
        # their resident bytes (the paper's streaming-decode semantics).
        iv = GrammarCompressedMatrix.compress(structured_matrix, variant="re_iv")
        ans = GrammarCompressedMatrix.compress(structured_matrix, variant="re_ans")
        working_iv = peak_mvm_bytes(iv) - iv.size_bytes()
        working_ans = peak_mvm_bytes(ans) - ans.size_bytes()
        assert working_iv == working_ans == 8 * iv.n_rules + 8 * (
            structured_matrix.shape[0] + 2 * structured_matrix.shape[1]
        )

    def test_blocked_peak_grows_with_threads(self, structured_matrix):
        bm = BlockedMatrix.compress(structured_matrix, variant="re_ans", n_blocks=4)
        peaks = [peak_mvm_bytes(bm, threads=t) for t in (1, 2, 4)]
        assert peaks[0] <= peaks[1] <= peaks[2]

    def test_blocked_peak_saturates_at_block_count(self, structured_matrix):
        bm = BlockedMatrix.compress(structured_matrix, variant="re_ans", n_blocks=2)
        assert peak_mvm_bytes(bm, threads=2) == peak_mvm_bytes(bm, threads=16)

    def test_pct_relative_to_dense(self, paper_matrix):
        dm = DenseMatrix(paper_matrix)
        assert peak_mvm_pct(dm) > 100.0  # dense + vectors

    def test_csrv_and_cla_supported(self, structured_matrix):
        assert peak_mvm_bytes(CSRVMatrix.from_dense(structured_matrix)) > 0
        assert peak_mvm_bytes(CLAMatrix.compress(structured_matrix)) > 0
        assert peak_mvm_bytes(CSRMatrix(structured_matrix)) > 0

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            peak_mvm_bytes(object())

    def test_representation_bytes_delegates(self, paper_matrix):
        dm = DenseMatrix(paper_matrix)
        assert representation_bytes(dm) == dm.size_bytes()


class TestHarness:
    def test_runs_and_reports(self, structured_matrix):
        gm = GrammarCompressedMatrix.compress(structured_matrix)
        result = run_iterations(gm, iterations=3)
        assert result.iterations == 3
        assert result.seconds_per_iter > 0
        assert result.final_x.size == structured_matrix.shape[1]

    def test_reference_checking(self, structured_matrix):
        gm = GrammarCompressedMatrix.compress(structured_matrix)
        result = run_iterations(gm, iterations=3, reference=structured_matrix)
        assert result.max_error < 1e-8

    def test_no_reference_gives_nan_error(self, structured_matrix):
        result = run_iterations(DenseMatrix(structured_matrix), iterations=1)
        assert np.isnan(result.max_error)

    def test_iterates_identically_across_representations(self, structured_matrix):
        reps = [
            DenseMatrix(structured_matrix),
            CSRVMatrix.from_dense(structured_matrix),
            GrammarCompressedMatrix.compress(structured_matrix, variant="re_iv"),
            BlockedMatrix.compress(structured_matrix, variant="re_ans", n_blocks=3),
        ]
        finals = [run_iterations(r, iterations=4).final_x for r in reps]
        for f in finals[1:]:
            assert np.allclose(f, finals[0])

    def test_normalisation_keeps_inf_norm_one(self, structured_matrix):
        result = run_iterations(DenseMatrix(structured_matrix), iterations=5)
        assert np.max(np.abs(result.final_x)) == pytest.approx(1.0)

    def test_custom_x0(self, structured_matrix, rng):
        x0 = rng.standard_normal(structured_matrix.shape[1])
        result = run_iterations(DenseMatrix(structured_matrix), iterations=1, x0=x0)
        expected_z = (structured_matrix @ x0) @ structured_matrix
        assert np.allclose(result.final_x, expected_z / np.max(np.abs(expected_z)))

    def test_threads_forwarded(self, structured_matrix):
        bm = BlockedMatrix.compress(structured_matrix, variant="re_32", n_blocks=4)
        result = run_iterations(bm, iterations=2, threads=4, reference=structured_matrix)
        assert result.max_error < 1e-8
        assert result.peak_bytes == peak_mvm_bytes(bm, threads=4)

    def test_invalid_inputs(self, structured_matrix):
        dm = DenseMatrix(structured_matrix)
        with pytest.raises(MatrixFormatError):
            run_iterations(dm, iterations=0)
        with pytest.raises(MatrixFormatError):
            run_iterations(dm, iterations=1, x0=np.ones(3))
        with pytest.raises(MatrixFormatError):
            run_iterations(dm, iterations=1, threads=0)

    def test_all_zero_matrix_stable(self):
        dm = DenseMatrix(np.zeros((4, 3)))
        result = run_iterations(dm, iterations=3)
        assert np.array_equal(result.final_x, np.zeros(3))


class TestReporting:
    def test_ratio_pct(self):
        assert ratio_pct(25, 100) == 25.0
        assert ratio_pct(1, 0) == 0.0

    def test_format_table_alignment(self):
        out = format_table(
            ["name", "value"], [["a", 1.234], ["bbbb", 12.0]], title="T"
        )
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "1.23" in out
        assert "bbbb" in out

    def test_format_table_empty_rows(self):
        out = format_table(["x"], [])
        assert "x" in out

    def test_format_table_mixed_types(self):
        out = format_table(["a", "b"], [["row", 42]])
        assert "42" in out
