"""Reproduction of the paper's worked examples (Figures 1 and 2).

These tests pin the library's semantics to the exact objects the paper
shows: the CSRV encoding of the 6×5 example matrix (Fig. 1), the grammar
of Fig. 2 evaluated with both multiplication algorithms, and the
rows/sum bookkeeping of Definitions 3.5–3.8.
"""

import numpy as np
import pytest

from repro.core.csrv import CSRVMatrix
from repro.core.grammar import Grammar
from repro.core.multiply import MvmEngine


@pytest.fixture
def figure1_csrv(paper_matrix):
    return CSRVMatrix.from_dense(paper_matrix)


class TestFigure1:
    def test_value_array(self, figure1_csrv):
        assert np.allclose(figure1_csrv.values, [1.2, 1.7, 2.3, 3.4, 4.5, 5.6])

    def test_full_sequence(self, figure1_csrv):
        # Figure 1 uses 1-based ⟨ℓ,j⟩; our codes are 1 + (ℓ-1)*5 + (j-1).
        def pair(l1, j1):
            return 1 + (l1 - 1) * 5 + (j1 - 1)

        expected = [
            pair(1, 1), pair(4, 2), pair(6, 3), pair(3, 5), 0,
            pair(3, 1), pair(3, 3), pair(5, 4), pair(2, 5), 0,
            pair(1, 1), pair(4, 2), pair(3, 3), pair(5, 4), 0,
            pair(4, 1), pair(6, 3), pair(3, 5), 0,
            pair(3, 1), pair(3, 3), pair(5, 4), 0,
            pair(1, 1), pair(4, 2), pair(3, 3), pair(5, 4), pair(4, 5), 0,
        ]
        assert figure1_csrv.s.tolist() == expected

    def test_same_value_different_column_distinct_codes(self, figure1_csrv):
        # Fig. 1 caption: 2.3 in column 1 is ⟨3,1⟩, in column 3 is ⟨3,3⟩.
        s = set(figure1_csrv.s.tolist())
        assert (1 + 2 * 5 + 0) in s  # ⟨3,1⟩ zero-based (2, 0)
        assert (1 + 2 * 5 + 2) in s  # ⟨3,3⟩ zero-based (2, 2)

    def test_rows_of_pair_11(self, figure1_csrv, paper_matrix):
        # Definition 3.5 example: rows(⟨1,1⟩) = {1, 3, 6}.
        rows = [
            r + 1
            for r in range(6)
            if paper_matrix[r, 0] == figure1_csrv.values[0]
        ]
        assert rows == [1, 3, 6]

    def test_rows_of_pair_31(self, figure1_csrv, paper_matrix):
        # rows(⟨3,1⟩) = {2, 5}.
        rows = [
            r + 1
            for r in range(6)
            if paper_matrix[r, 0] == figure1_csrv.values[2]
        ]
        assert rows == [2, 5]


@pytest.fixture
def figure2_grammar():
    """The exact grammar of Figure 2, translated to integer symbols.

    Terminal ⟨ℓ,j⟩ (1-based) = 1 + (ℓ-1)*5 + (j-1); nonterminal N_i
    (1-based in the paper) = nt_base + (i-1) with nt_base = 31
    (= max code 1+5*5+4 for a 6-value, 5-column matrix).
    """
    def pair(l1, j1):
        return 1 + (l1 - 1) * 5 + (j1 - 1)

    nt = 31

    def n(i):
        return nt + i - 1

    rules = np.array(
        [
            [pair(3, 3), pair(5, 4)],   # N1
            [pair(1, 1), pair(4, 2)],   # N2
            [pair(3, 1), n(1)],         # N3
            [pair(6, 3), pair(3, 5)],   # N4
            [n(2), n(4)],               # N5
            [n(3), pair(2, 5)],         # N6
            [n(2), n(1)],               # N7
            [pair(4, 1), n(4)],         # N8
            [n(7), pair(4, 5)],         # N9
        ]
    )
    final = np.array([n(5), 0, n(6), 0, n(7), 0, n(8), 0, n(3), 0, n(9), 0])
    return Grammar(nt_base=nt, rules=rules, final=final)


class TestFigure2:
    def test_grammar_is_valid(self, figure2_grammar):
        figure2_grammar.validate()

    def test_expands_to_figure1_sequence(self, figure2_grammar, paper_matrix):
        csrv = CSRVMatrix.from_dense(paper_matrix)
        assert np.array_equal(figure2_grammar.expand(), csrv.s)

    def test_right_multiplication_theorem_3_4(self, figure2_grammar, paper_matrix):
        values = np.array([1.2, 1.7, 2.3, 3.4, 4.5, 5.6])
        engine = MvmEngine.from_grammar(figure2_grammar, 5, values)
        x = np.array([0.5, -1.0, 2.0, 3.0, 1.0])
        assert np.allclose(engine.right(x), paper_matrix @ x)

    def test_left_multiplication_theorem_3_10(self, figure2_grammar, paper_matrix):
        values = np.array([1.2, 1.7, 2.3, 3.4, 4.5, 5.6])
        engine = MvmEngine.from_grammar(figure2_grammar, 5, values)
        y = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        assert np.allclose(engine.left(y), y @ paper_matrix)

    def test_eval_x_of_nonterminals_lemma_3_3(self, figure2_grammar, paper_matrix):
        # Lemma 3.3: y[r] = eval_x(N_{i_r}) — the engine's row outputs
        # must equal the expansions' dot products row by row.
        values = np.array([1.2, 1.7, 2.3, 3.4, 4.5, 5.6])
        engine = MvmEngine.from_grammar(figure2_grammar, 5, values)
        x = np.arange(5, dtype=np.float64) + 1
        y = engine.right(x)
        for r in range(6):
            assert y[r] == pytest.approx(float(paper_matrix[r] @ x))

    def test_csm_example_rpnz_12(self, paper_matrix):
        # Section 5.1 example: RPNZ_{1,2} = 2 (⟨1.2, 3.4⟩ repeats twice
        # beyond its first occurrence), CSM[1][2] = 2/6.
        from repro.reorder.similarity import column_similarity_matrix

        csm = column_similarity_matrix(paper_matrix)
        assert csm[0, 1] == pytest.approx(2.0 / 6.0)
        assert csm[1, 0] == csm[0, 1]
