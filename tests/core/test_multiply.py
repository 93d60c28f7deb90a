"""Tests for the sparse-operator MVM engine (Theorems 3.4 / 3.10)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.csrv import CSRVMatrix
from repro.core.grammar import Grammar
from repro.core.multiply import PANEL_COLUMNS, MvmEngine
from repro.core.repair import repair_compress
from repro.errors import MatrixFormatError


def _engine_for(matrix):
    csrv = CSRVMatrix.from_dense(matrix)
    grammar = repair_compress(csrv.s)
    return MvmEngine.from_grammar(grammar, matrix.shape[1], csrv.values)


class TestRight:
    def test_matches_dense(self, structured_matrix, rng):
        engine = _engine_for(structured_matrix)
        x = rng.standard_normal(structured_matrix.shape[1])
        assert np.allclose(engine.right(x), structured_matrix @ x)

    def test_paper_example(self, paper_matrix):
        engine = _engine_for(paper_matrix)
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        assert np.allclose(engine.right(x), paper_matrix @ x)

    def test_rule_free_grammar(self):
        matrix = np.array([[1.0, 2.0], [3.0, 4.0]])
        engine = _engine_for(matrix)
        assert engine.n_rules == 0
        x = np.array([1.0, -1.0])
        assert np.allclose(engine.right(x), matrix @ x)

    def test_wrong_x_length(self, paper_matrix):
        engine = _engine_for(paper_matrix)
        with pytest.raises(MatrixFormatError):
            engine.right(np.ones(3))
        with pytest.raises(MatrixFormatError):
            engine.right(np.ones((5, 2, 2)))

    def test_zero_rows_tail(self):
        # Trailing all-zero rows still produce y entries.
        matrix = np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
        engine = _engine_for(matrix)
        y = engine.right(np.array([2.0, 3.0]))
        assert np.allclose(y, [5.0, 0.0, 0.0])


class TestLeft:
    def test_matches_dense(self, structured_matrix, rng):
        engine = _engine_for(structured_matrix)
        y = rng.standard_normal(structured_matrix.shape[0])
        assert np.allclose(engine.left(y), y @ structured_matrix)

    def test_paper_example(self, paper_matrix):
        engine = _engine_for(paper_matrix)
        y = np.arange(6, dtype=np.float64) + 1
        assert np.allclose(engine.left(y), y @ paper_matrix)

    def test_rule_free_grammar(self):
        matrix = np.array([[1.0, 2.0], [3.0, 4.0]])
        engine = _engine_for(matrix)
        y = np.array([1.0, 2.0])
        assert np.allclose(engine.left(y), y @ matrix)

    def test_wrong_y_length(self, paper_matrix):
        engine = _engine_for(paper_matrix)
        with pytest.raises(MatrixFormatError):
            engine.left(np.ones(2))

    def test_shared_subtree_counted_per_occurrence(self):
        # A rule used by many rows must contribute sum over those rows
        # (Lemma 3.9).  Identical rows force heavy rule sharing.
        matrix = np.tile(np.array([[1.5, 2.5, 3.5, 4.5]]), (8, 1))
        engine = _engine_for(matrix)
        y = np.arange(8, dtype=np.float64)
        assert np.allclose(engine.left(y), y @ matrix)


class TestEngineStructure:
    def test_row_count_from_final_string(self, structured_matrix):
        engine = _engine_for(structured_matrix)
        assert engine.n_rows == structured_matrix.shape[0]

    def test_engine_reusable_across_vectors(self, paper_matrix, rng):
        engine = _engine_for(paper_matrix)
        for _ in range(5):
            x = rng.standard_normal(5)
            assert np.allclose(engine.right(x), paper_matrix @ x)

    def test_deep_chain_grammar(self):
        # A long chain rule exercises many levels.
        seq = np.tile([1, 2], 64).tolist() + [0]
        grammar = repair_compress(np.asarray(seq))
        # m=2 -> terminal codes 1,2 decode to (l=0, j=0/1).
        values = np.array([10.0])
        engine = MvmEngine.from_grammar(grammar, 2, values)
        x = np.array([1.0, 3.0])
        # Row contains 64 copies of pairs <0,0><0,1>: y = 64*(10*1+10*3).
        assert np.allclose(engine.right(x), [64 * 40.0])

    def test_manual_grammar_right_and_left(self):
        # Hand-built grammar over a 2-column matrix:
        # terminals: 1 = <0,0> (V[0] at col 0), 2 = <0,1>.
        # N0 -> 1 2 ; C = N0 $ N0 $  (two identical rows [v, v]).
        grammar = Grammar(
            nt_base=3, rules=np.array([[1, 2]]), final=np.array([3, 0, 3, 0])
        )
        values = np.array([2.0])
        engine = MvmEngine.from_grammar(grammar, 2, values)
        x = np.array([3.0, 4.0])
        assert np.allclose(engine.right(x), [14.0, 14.0])
        y = np.array([1.0, 10.0])
        assert np.allclose(engine.left(y), [22.0, 22.0])


    @pytest.mark.parametrize("op", ["right", "left"])
    def test_wide_panel_runs_in_bounded_passes(
        self, structured_matrix, rng, op, monkeypatch
    ):
        """No pass reads a stacked vector wider than ``PANEL_COLUMNS``."""
        engine = _engine_for(structured_matrix)
        widths = []

        def recording(kernel):
            def run(self, rows, src, dst):
                widths.append(src.shape[1] if src.ndim == 2 else 1)
                return kernel(self, rows, src, dst)

            return run

        for name in ("_csr", "_csc"):
            monkeypatch.setattr(MvmEngine, name, recording(getattr(MvmEngine, name)))
        k = 2 * PANEL_COLUMNS + 1
        n, m = structured_matrix.shape
        operand = rng.standard_normal((m if op == "right" else n, k))
        want = (structured_matrix if op == "right" else structured_matrix.T) @ operand
        out = np.full(want.shape, np.nan)
        assert getattr(engine, op)(operand, out=out) is out
        assert np.allclose(out, want)
        assert np.allclose(getattr(engine, op)(operand), want)
        assert max(widths) == PANEL_COLUMNS
        assert min(widths) == 1  # the last pass holds the 129th column


class TestOperatorEdgeCases:
    @staticmethod
    def _duplicate_children():
        # Terminals over m = 2, V = [2, 3]: 1 = <0,0>, 2 = <0,1>,
        # 3 = <1,0>, 4 = <1,1>.  N0 -> 1 1 and N1 -> N0 N0 put the same
        # column twice into one operator row; their weights must add.
        grammar = Grammar(
            nt_base=5,
            rules=np.array([[1, 1], [5, 5], [6, 4]]),
            final=np.array([7, 0, 2, 5, 0, 6, 0]),
        )
        grammar.validate()
        dense = np.array([[8.0, 3.0], [4.0, 2.0], [8.0, 0.0]])
        return MvmEngine.from_grammar(grammar, 2, np.array([2.0, 3.0])), dense

    @pytest.mark.parametrize("k", [1, 2, 64])
    def test_duplicate_children(self, k, rng):
        engine, dense = self._duplicate_children()
        X = rng.standard_normal((2, k))
        Y = rng.standard_normal((3, k))
        assert np.allclose(engine.right(X), dense @ X)
        assert np.allclose(engine.left(Y), dense.T @ Y)
        assert np.allclose(engine.right(X[:, 0]), dense @ X[:, 0])
        assert np.allclose(engine.left(Y[:, 0]), Y[:, 0] @ dense)

    def test_out_is_filled_and_returned(self, structured_matrix, rng):
        engine = _engine_for(structured_matrix)
        n, m = structured_matrix.shape
        X = rng.standard_normal((m, 5))
        Y = rng.standard_normal((n, 5))
        # A non-contiguous out (a column slice) works too.
        for out in (np.full((n, 5), np.nan), np.full((n, 10), np.nan)[:, ::2]):
            assert engine.right(X, out=out) is out
            assert np.allclose(out, structured_matrix @ X)
        out = np.full((m, 5), np.nan)
        assert engine.left(Y, out=out) is out
        assert np.allclose(out, structured_matrix.T @ Y)
        with pytest.raises(MatrixFormatError):
            engine.right(X, out=np.empty((n, 4)))
        with pytest.raises(MatrixFormatError):
            engine.left(Y, out=np.empty((m + 1, 5)))


def test_compiled_kernels_importable_and_used_only_by_multiply():
    """The plan runs on scipy's private compiled mat-vec kernels; a
    scipy release that moves or re-signs them must fail here, and no
    other module may grow a second dependency on them."""
    from pathlib import Path

    from scipy.sparse._sparsetools import (
        csc_matvec,
        csc_matvecs,
        csr_matvec,
        csr_matvecs,
    )

    indptr = np.array([0, 2, 3], dtype=np.int32)
    indices = np.array([0, 1, 1], dtype=np.int32)
    data = np.array([1.0, 2.0, 3.0])
    y = np.ones(2)
    csr_matvec(2, 2, indptr, indices, data, np.array([1.0, 10.0]), y)
    assert np.array_equal(y, [22.0, 31.0])  # accumulates into y
    Y = np.zeros((2, 2))
    csr_matvecs(2, 2, 2, indptr, indices, data, np.eye(2), Y)
    assert np.array_equal(Y, [[1.0, 2.0], [0.0, 3.0]])
    x = np.zeros(2)
    csc_matvec(2, 2, indptr, indices, data, np.array([1.0, 10.0]), x)
    assert np.array_equal(x, [1.0, 32.0])
    X = np.zeros((2, 2))
    csc_matvecs(2, 2, 2, indptr, indices, data, np.eye(2), X)
    assert np.array_equal(X, [[1.0, 0.0], [2.0, 3.0]])

    src = Path(__file__).resolve().parents[2] / "src" / "repro"
    users = sorted(
        str(path.relative_to(src))
        for path in src.rglob("*.py")
        if "_sparsetools" in path.read_text(encoding="utf-8")
    )
    assert users == ["core/multiply.py"]


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=16),
    m=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=500),
)
def test_property_engine_equals_dense(n, m, seed):
    rng = np.random.default_rng(seed)
    matrix = rng.integers(0, 4, size=(n, m)).astype(np.float64) * 1.5
    csrv = CSRVMatrix.from_dense(matrix)
    engine = MvmEngine.from_grammar(repair_compress(csrv.s), m, csrv.values)
    x = rng.standard_normal(m)
    y = rng.standard_normal(n)
    assert np.allclose(engine.right(x), matrix @ x)
    assert np.allclose(engine.left(y), y @ matrix)
