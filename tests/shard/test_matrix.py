"""Tests for ShardedMatrix: scatter-gather kernels, accounting, io."""

import numpy as np
import pytest

import repro
from repro import formats
from repro.core.multiply import PANEL_COLUMNS
from repro.errors import MatrixFormatError
from repro.io.serialize import (
    loads_matrix,
    peek_matrix_info,
    save_matrix,
    saves_matrix,
)
from repro.serve.executor import BlockExecutor
from repro.shard import ShardedMatrix, build_sharded, plan_shards
from tests.shard.test_plan import mixed_matrix, mixed_sharded


@pytest.fixture
def dense(rng):
    return mixed_matrix(rng)


@pytest.fixture
def sharded(dense):
    """3 shards with mixed per-shard formats (csr / re_ans / csrv)."""
    return mixed_sharded(dense)


class TestConstruction:
    def test_build_from_plan(self, dense):
        plan = plan_shards(dense, n_shards=4)
        sm = build_sharded(dense, plan=plan)
        assert sm.n_shards == 4
        assert sm.shape == dense.shape
        assert np.array_equal(sm.row_offsets, plan.row_offsets)

    def test_build_via_registry(self, dense):
        sm = repro.compress(dense, format="sharded", n_shards=3)
        assert isinstance(sm, ShardedMatrix)
        assert formats.spec_for(sm).name == "sharded"

    def test_parallel_build_matches_sequential(self, dense):
        seq = build_sharded(dense, n_shards=3)
        with BlockExecutor(2) as executor:
            par = build_sharded(dense, n_shards=3, executor=executor)
        assert par.shard_formats == seq.shard_formats
        assert par.size_bytes() == seq.size_bytes()
        assert np.allclose(par.to_dense(), dense)

    def test_batch_strategy_with_non_grammar_shards(self, dense):
        # csr's builder takes no RePair options, so strategy="batch"
        # never reaches it.
        batch = build_sharded(dense, n_shards=3, format="csr", strategy="batch")
        assert batch.shard_formats == ("csr",) * 3
        assert np.array_equal(batch.to_dense(), dense)

    def test_batch_strategy_on_all_csrv_plan(self):
        from repro.datasets import get_dataset

        dense = np.asarray(get_dataset("susy", n_rows=2000).matrix)
        batch = build_sharded(dense, n_shards=4, format="csrv", strategy="batch")
        default = build_sharded(dense, n_shards=4, format="csrv")
        assert batch.shard_formats == default.shard_formats == ("csrv",) * 4
        for got, want in zip(batch.shards, default.shards, strict=True):
            assert np.array_equal(got.s, want.s)
            assert np.array_equal(got.values, want.values)

    @pytest.mark.parametrize(
        "beside",
        [{"strategy": "batch"}, {"n_shards": 4}, {"format": "csr"}],
        ids=["strategy", "n_shards", "format"],
    )
    def test_plan_refuses_other_options(self, dense, beside):
        # A plan fixes every shard's rows, format and build options; an
        # option passed beside it would otherwise be dropped silently.
        plan = plan_shards(dense, n_shards=2, format="re_ans")
        with pytest.raises(MatrixFormatError, match="beside it"):
            build_sharded(dense, plan=plan, **beside)

    def test_plan_shape_mismatch(self, dense):
        plan = plan_shards(dense[:-1], n_shards=2)
        with pytest.raises(MatrixFormatError, match="plan is for shape"):
            build_sharded(dense, plan=plan)

    def test_empty_shards_rejected(self):
        with pytest.raises(MatrixFormatError):
            ShardedMatrix([], (0, 0))

    def test_inconsistent_shards_rejected(self, dense):
        shard = repro.compress(dense[:10], format="csrv")
        with pytest.raises(MatrixFormatError, match="cover"):
            ShardedMatrix([shard], dense.shape)


class TestMultiplication:
    def test_right_left_match_dense(self, sharded, dense, rng):
        x = rng.standard_normal(dense.shape[1])
        y = rng.standard_normal(dense.shape[0])
        assert np.allclose(sharded @ x, dense @ x)
        assert np.allclose(y @ sharded, y @ dense)
        assert np.allclose(sharded.transpose_multiply(y), dense.T @ y)

    def test_panel_kernels_match_dense(self, sharded, dense, rng):
        X = rng.standard_normal((dense.shape[1], 6))
        Y = rng.standard_normal((dense.shape[0], 5))
        assert np.allclose(sharded.right_multiply_matrix(X), dense @ X)
        assert np.allclose(
            sharded.left_multiply_matrix(Y), dense.T @ Y
        )
        # wide panels run in the grammar engine's column chunks
        X = rng.standard_normal((dense.shape[1], 2 * PANEL_COLUMNS + 1))
        assert np.allclose(sharded.right_multiply_matrix(X), dense @ X)

    def test_threads_and_executor_paths(self, sharded, dense, rng):
        x = rng.standard_normal(dense.shape[1])
        expected = dense @ x
        with BlockExecutor(3) as executor:
            assert np.allclose(
                sharded.right_multiply(x, executor=executor), expected
            )
        with BlockExecutor(2) as executor:
            assert np.allclose(
                sharded.right_multiply(x, executor=executor), expected
            )
            y = rng.standard_normal(dense.shape[0])
            assert np.allclose(
                sharded.left_multiply(y, executor=executor), y @ dense
            )

    def test_batch_layer_dispatch(self, sharded, dense, rng):
        from repro.serve.batch import batch_left_multiply, batch_right_multiply

        vectors = rng.standard_normal((4, dense.shape[1]))
        out = batch_right_multiply(sharded, vectors)
        assert np.allclose(out, dense @ vectors.T)
        with BlockExecutor(2) as executor:
            out = batch_right_multiply(sharded, vectors, executor=executor)
            assert np.allclose(out, dense @ vectors.T)
        ys = rng.standard_normal((3, dense.shape[0]))
        assert np.allclose(
            batch_left_multiply(sharded, ys), dense.T @ ys.T
        )


class TestAccounting:
    def test_size_breakdown_sums_and_groups_by_format(self, sharded):
        breakdown = sharded.size_breakdown()
        assert set(breakdown) == set(sharded.shard_formats)
        assert sum(breakdown.values()) == sharded.size_bytes()

    def test_plan_retention_forwards_to_shards(self, sharded):
        # the re_ans shard supports retention, so the container reports it
        assert sharded.enable_plan_retention(True) is True
        overhead = sharded.resident_overhead_bytes()
        assert overhead >= 0
        assert sharded.resident_footprint_bytes() == (
            sharded.size_bytes() + overhead
        )
        sharded.release_retained_plans()
        # "True" means a shard *supports* retention, whichever way the
        # flag goes (matching the grammar formats' contract).
        assert sharded.enable_plan_retention(False) is True


class TestSerialization:
    def test_roundtrip(self, sharded, dense):
        back = loads_matrix(saves_matrix(sharded))
        assert isinstance(back, ShardedMatrix)
        assert back.shard_formats == sharded.shard_formats
        assert np.allclose(back.to_dense(), dense)

    def test_header_peek(self, sharded, dense):
        info = peek_matrix_info(saves_matrix(sharded))
        assert info == {
            "kind": "sharded",
            "shape": dense.shape,
            "n_shards": 3,
            "integrity": "verified",
        }

    def test_read_matrix_info_from_file(self, sharded, tmp_path):
        from repro.io.serialize import read_matrix_info

        path = tmp_path / "s.gcmx"
        save_matrix(sharded, path)
        info = read_matrix_info(path)
        assert info["kind"] == "sharded"
        assert info["n_shards"] == 3
        assert info["file_bytes"] == path.stat().st_size
