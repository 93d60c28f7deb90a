"""Tests for the CLA planner and CLAMatrix."""

import numpy as np
import pytest

from repro.cla.matrix import CLAMatrix
from repro.cla.planner import plan_column_groups
from repro.errors import MatrixFormatError, PlanningError
from repro.serve.executor import BlockExecutor
from tests.conftest import make_structured


class TestPlanner:
    def test_covers_all_columns_exactly_once(self, rng):
        matrix = make_structured(rng, n=200, m=10)
        plans = plan_column_groups(matrix)
        covered = sorted(c for p in plans for c in p.columns)
        assert covered == list(range(10))

    def test_correlated_columns_co_coded(self, rng):
        # Columns 0 and 1 are identical: merging them halves the size.
        base = rng.choice([1.0, 2.0, 3.0], size=400)
        matrix = np.column_stack([base, base, rng.standard_normal(400)])
        plans = plan_column_groups(matrix)
        joint = [p for p in plans if {0, 1} <= set(p.columns)]
        assert joint, f"expected columns 0,1 co-coded, got {plans}"

    def test_independent_high_cardinality_columns_stay_alone(self, rng):
        matrix = rng.standard_normal((300, 4))
        plans = plan_column_groups(matrix)
        assert all(len(p.columns) == 1 for p in plans)

    def test_max_group_size_respected(self, rng):
        base = rng.choice([1.0, 2.0], size=300)
        matrix = np.column_stack([base] * 12)
        plans = plan_column_groups(matrix, max_group_size=4)
        assert all(len(p.columns) <= 4 for p in plans)

    def test_deterministic(self, rng):
        matrix = make_structured(rng, n=300, m=8)
        a = plan_column_groups(matrix, seed=3)
        b = plan_column_groups(matrix, seed=3)
        assert [p.columns for p in a] == [p.columns for p in b]

    def test_empty_matrix_rejected(self):
        with pytest.raises(PlanningError):
            plan_column_groups(np.zeros((0, 3)))
        with pytest.raises(PlanningError):
            plan_column_groups(np.ones(5))


class TestCLAMatrix:
    def test_lossless(self, rng):
        matrix = make_structured(rng, n=150, m=9)
        cla = CLAMatrix.compress(matrix)
        assert np.array_equal(cla.to_dense(), matrix)

    def test_right_multiply(self, rng):
        matrix = make_structured(rng, n=150, m=9)
        cla = CLAMatrix.compress(matrix)
        x = rng.standard_normal(9)
        assert np.allclose(cla.right_multiply(x), matrix @ x)

    def test_left_multiply(self, rng):
        matrix = make_structured(rng, n=150, m=9)
        cla = CLAMatrix.compress(matrix)
        y = rng.standard_normal(150)
        assert np.allclose(cla.left_multiply(y), y @ matrix)

    @pytest.mark.parametrize("threads", [2, 4])
    def test_threaded_multiplication(self, rng, threads):
        matrix = make_structured(rng, n=200, m=12)
        cla = CLAMatrix.compress(matrix)
        x = rng.standard_normal(12)
        y = rng.standard_normal(200)
        with BlockExecutor(threads) as ex:
            assert np.allclose(cla.right_multiply(x, executor=ex), matrix @ x)
            assert np.allclose(cla.left_multiply(y, executor=ex), y @ matrix)

    def test_compresses_structured_input(self, rng):
        matrix = make_structured(rng, n=2000, m=10, pool=3)
        cla = CLAMatrix.compress(matrix)
        assert cla.size_bytes() < matrix.size * 8 / 3

    def test_random_input_falls_back_to_uc(self, rng):
        matrix = rng.standard_normal((500, 4))
        cla = CLAMatrix.compress(matrix)
        assert cla.format_summary().get("UC", 0) >= 1
        # No worse than ~dense.
        assert cla.size_bytes() <= matrix.size * 8 * 1.05

    def test_format_summary_counts_groups(self, rng):
        matrix = make_structured(rng, n=100, m=6)
        cla = CLAMatrix.compress(matrix)
        assert sum(cla.format_summary().values()) == len(cla.groups)

    def test_wrong_vector_lengths(self, rng):
        matrix = make_structured(rng, n=50, m=5)
        cla = CLAMatrix.compress(matrix)
        with pytest.raises(MatrixFormatError):
            cla.right_multiply(np.ones(4))
        with pytest.raises(MatrixFormatError):
            cla.left_multiply(np.ones(4))

    def test_group_coverage_validated(self, rng):
        matrix = make_structured(rng, n=50, m=5)
        cla = CLAMatrix.compress(matrix)
        with pytest.raises(MatrixFormatError):
            CLAMatrix(cla.groups[:-1], matrix.shape)

    def test_one_hot_matrix(self, rng):
        # Covtype-like one-hot indicators: OLE/RLE territory.
        labels = rng.integers(0, 6, size=400)
        matrix = np.eye(6)[labels]
        cla = CLAMatrix.compress(matrix)
        assert np.array_equal(cla.to_dense(), matrix)
        assert cla.size_bytes() < matrix.size * 8 / 4
