"""Tests for the row-range shard planner and the default shard format."""

import numpy as np
import pytest

from repro import formats
from repro.errors import MatrixFormatError
from repro.shard import ShardedMatrix, build_sharded
from repro.shard.plan import ShardPlan, plan_shards


def mixed_matrix(rng, cols: int = 12) -> np.ndarray:
    """Three stripes: sparse, dense-repetitive, dense-irregular."""
    sparse = (rng.random((40, cols)) < 0.05) * 3.0
    repetitive = np.kron(np.ones((10, cols // 3)), np.full((4, 3), 2.5))
    irregular = rng.random((40, cols)).round(6) + 0.1
    return np.vstack([sparse, repetitive, irregular])


def mixed_sharded(dense: np.ndarray) -> ShardedMatrix:
    """:func:`mixed_matrix`'s three stripes as a ``csr``, an ``re_ans``
    and a ``csrv`` shard: a container that mixes formats."""
    shards = [
        formats.compress(stripe, format=fmt)
        for stripe, fmt in zip(
            np.split(dense, 3), ("csr", "re_ans", "csrv"), strict=True
        )
    ]
    return ShardedMatrix(shards, dense.shape)


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
    def test_default_plan_leaves_formats_open(self, rng):
        plan = plan_shards(
            mixed_matrix(rng), n_shards=3, build_opts={"strategy": "batch"}
        )
        assert plan.formats == (None, None, None)
        assert [s.build_opts for s in plan.shards] == [{"strategy": "batch"}] * 3

    def test_auto_format_is_the_open_format(self, rng):
        # "auto" names the measured choice an open shard makes; it does
        # not wrap each shard in a one-block blocked container.
        from repro.core.blocked import BlockedMatrix
        from repro.io.serialize import saves_matrix

        dense = mixed_matrix(rng)
        assert plan_shards(dense, n_shards=3, format="auto").formats == (None,) * 3
        auto = build_sharded(dense, n_shards=3, format="auto")
        assert not any(isinstance(s, BlockedMatrix) for s in auto.shards)
        assert saves_matrix(auto) == saves_matrix(build_sharded(dense, n_shards=3))

    @pytest.mark.parametrize(
        "stripe", [0, 1, 2], ids=["sparse", "repetitive", "irregular"]
    )
    def test_default_shard_no_larger_than_any_format(self, rng, stripe):
        # Each default shard keeps the smallest encoding after one RePair
        # run with the caller's options, so no single format beats it on
        # the same rows with the same options.
        dense = mixed_matrix(rng)
        rows = np.split(dense, 3)[stripe]
        for strategy in ("exact", "batch"):
            shard = build_sharded(dense, n_shards=3, strategy=strategy).shards[stripe]
            assert np.array_equal(shard.to_dense(), rows)
            for fmt in ("csr", "csrv", "re_32", "re_iv", "re_ans"):
                opts = {"strategy": strategy} if fmt.startswith("re_") else {}
                other = formats.compress(rows, format=fmt, **opts)
                assert shard.size_bytes() <= other.size_bytes(), (strategy, fmt)

    def test_explicit_format_everywhere(self, rng):
        plan = plan_shards(mixed_matrix(rng), n_shards=3, format="csrv")
        assert plan.formats == ("csrv", "csrv", "csrv")

    def test_unknown_format_rejected(self, rng):
        with pytest.raises(MatrixFormatError, match="unknown shard format"):
            plan_shards(mixed_matrix(rng), format="bzip2")

    def test_repair_options_reach_only_repair_shards(self, rng):
        opts = {"strategy": "batch", "max_rules": 5, "n_blocks": 2}
        build_opts = {
            fmt: [
                s.build_opts
                for s in plan_shards(
                    mixed_matrix(rng), n_shards=3, format=fmt, build_opts=opts
                ).shards
            ]
            for fmt in ("csr", "re_ans", None)
        }
        assert build_opts == {
            "csr": [{"n_blocks": 2}] * 3,
            "re_ans": [opts] * 3,
            None: [opts] * 3,  # an open shard may become a grammar
        }


class TestPlanObject:
    def test_describe_rows(self, rng):
        plan = plan_shards(mixed_matrix(rng), n_shards=3)
        rows = plan.describe()
        assert [d["shard"] for d in rows] == [0, 1, 2]
        assert all({"rows", "n_rows", "format"} <= set(d) for d in rows)

    def test_plan_is_immutable(self, rng):
        plan = plan_shards(mixed_matrix(rng), n_shards=2)
        assert isinstance(plan, ShardPlan)
        with pytest.raises(AttributeError):
            plan.shape = (1, 1)
