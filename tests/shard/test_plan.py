"""Tests for the row-range shard planner and its density profiling."""

import numpy as np
import pytest

from repro.errors import MatrixFormatError
from repro.shard.plan import (
    ShardPlan,
    plan_shards,
    profile_slice,
    select_format,
)


def mixed_matrix(rng, cols: int = 12) -> np.ndarray:
    """Three stripes: sparse, dense-repetitive, dense-irregular."""
    sparse = (rng.random((40, cols)) < 0.05) * 3.0
    repetitive = np.kron(np.ones((10, cols // 3)), np.full((4, 3), 2.5))
    irregular = rng.random((40, cols)).round(6) + 0.1
    return np.vstack([sparse, repetitive, irregular])


class TestBoundaries:
    def test_explicit_shard_count(self, rng):
        plan = plan_shards(mixed_matrix(rng), n_shards=5)
        assert plan.n_shards == 5
        offsets = plan.row_offsets
        assert offsets[0] == 0 and offsets[-1] == 120
        assert all(offsets[i] < offsets[i + 1] for i in range(5))

    def test_target_rows(self, rng):
        plan = plan_shards(mixed_matrix(rng), target_rows=50)
        assert plan.n_shards == 3  # ceil(120 / 50)
        assert max(s.n_rows for s in plan.shards) <= 50

    def test_target_bytes(self, rng):
        dense = mixed_matrix(rng)  # rows are 12 * 8 = 96 dense bytes
        plan = plan_shards(dense, target_bytes=96 * 30)
        assert plan.n_shards == 4  # 30 rows per shard
        assert all(s.n_rows <= 30 for s in plan.shards)

    def test_default_partition(self, rng):
        assert plan_shards(mixed_matrix(rng)).n_shards == 4
        assert plan_shards(np.ones((2, 3))).n_shards == 2

    def test_rows_covered_exactly_once(self, rng):
        plan = plan_shards(mixed_matrix(rng), n_shards=7)
        covered = [
            r for s in plan.shards for r in range(s.row_start, s.row_stop)
        ]
        assert covered == list(range(120))

    def test_sizing_knobs_are_exclusive(self, rng):
        with pytest.raises(MatrixFormatError, match="at most one"):
            plan_shards(mixed_matrix(rng), n_shards=2, target_rows=10)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_shards": 0},
            {"n_shards": 1000},
            {"target_rows": 0},
            {"target_bytes": 0},
        ],
    )
    def test_bad_sizes_rejected(self, rng, kwargs):
        with pytest.raises(MatrixFormatError):
            plan_shards(mixed_matrix(rng), **kwargs)

    def test_non_matrix_rejected(self):
        with pytest.raises(MatrixFormatError):
            plan_shards(np.ones(7))
        with pytest.raises(MatrixFormatError):
            plan_shards(np.ones((0, 4)))


class TestFormatSelection:
    def test_profile_slice(self):
        block = np.array([[0.0, 1.0], [2.0, 1.0]])
        density, distinct = profile_slice(block)
        assert density == 0.75
        assert distinct == 2

    def test_sparse_goes_to_csr(self, rng):
        block = (rng.random((30, 10)) < 0.05) * 1.0
        assert select_format(block) == "csr"

    def test_repetitive_goes_to_grammar(self):
        block = np.kron(np.ones((8, 4)), np.full((3, 3), 2.5))
        assert select_format(block) == "re_ans"

    def test_irregular_dense_goes_to_csrv(self, rng):
        block = rng.random((30, 10)).round(8) + 0.1
        assert select_format(block) == "csrv"

    def test_mixed_matrix_gets_mixed_formats(self, rng):
        plan = plan_shards(mixed_matrix(rng), n_shards=3)
        assert plan.formats == ("csr", "re_ans", "csrv")

    def test_explicit_format_everywhere(self, rng):
        plan = plan_shards(mixed_matrix(rng), n_shards=3, format="csrv")
        assert plan.formats == ("csrv", "csrv", "csrv")

    def test_unknown_format_rejected(self, rng):
        with pytest.raises(MatrixFormatError, match="unknown shard format"):
            plan_shards(mixed_matrix(rng), format="bzip2")

    def test_repair_options_reach_only_repair_shards(self, rng):
        plan = plan_shards(
            mixed_matrix(rng),
            n_shards=3,
            build_opts={"strategy": "batch", "max_rules": 5, "n_blocks": 2},
        )
        assert plan.formats == ("csr", "re_ans", "csrv")
        assert [s.build_opts for s in plan.shards] == [
            {"n_blocks": 2},
            {"strategy": "batch", "max_rules": 5, "n_blocks": 2},
            {"n_blocks": 2},
        ]


class TestPlanObject:
    def test_describe_rows(self, rng):
        plan = plan_shards(mixed_matrix(rng), n_shards=3)
        rows = plan.describe()
        assert [d["shard"] for d in rows] == [0, 1, 2]
        assert all(
            {"rows", "format", "density", "distinct"} <= set(d) for d in rows
        )

    def test_plan_is_immutable(self, rng):
        plan = plan_shards(mixed_matrix(rng), n_shards=2)
        assert isinstance(plan, ShardPlan)
        with pytest.raises(AttributeError):
            plan.shape = (1, 1)
