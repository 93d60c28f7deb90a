"""Solvers over a lazily-sharded matrix under a small shard byte budget.

The acceptance case of the solve layer: a whole iterative workload runs
against a container whose shards stream in and out of memory, never
holding more than the budget (plus the shard in flight), and still
matches the dense reference bit-for-float64-bit.
"""

import numpy as np
import pytest

import repro
from repro.io.serialize import save_matrix
from repro.serve.residency import Residency
from repro.shard.matrix import LazyShardedMatrix
from tests.solve.test_conformance import (
    ATOL,
    RTOL,
    _square_nonneg,
    reference_pagerank,
)


@pytest.fixture(scope="module")
def dense():
    return _square_nonneg(np.random.default_rng(77))


@pytest.fixture(scope="module")
def shard_file(dense, tmp_path_factory):
    path = tmp_path_factory.mktemp("solve_shards") / "web.gcmx"
    save_matrix(repro.compress(dense, format="sharded", n_shards=4), path)
    return path


@pytest.fixture
def lazy(dense, shard_file):
    """A lazy container whose budget fits roughly one shard."""
    eager = repro.compress(dense, format="sharded", n_shards=4)
    budget = max(s.size_bytes() for s in eager.shards) + 64
    matrix = LazyShardedMatrix(shard_file, residency=Residency(budget))
    assert matrix.n_shards == 4
    return matrix


class TestLazyShardedSolves:
    def test_pagerank_matches_dense_and_stays_under_budget(self, lazy, dense):
        result = repro.solve(
            lazy, algorithm="pagerank", iterations=300, tol=1e-13
        )
        expected = reference_pagerank(dense, tol=1e-13)
        assert result.converged
        np.testing.assert_allclose(result.x, expected, atol=ATOL, rtol=RTOL)
        # The sequential shard walk streamed shards in and out: cold
        # shards were evicted between visits, so the loaded window
        # never exceeded the (one-shard) budget.
        assert lazy.residency.stats()["shard_evictions"] > 0
        assert lazy.resident_shards < lazy.n_shards
        assert lazy.resident_footprint_bytes() <= lazy.residency.byte_budget

    def test_cg_matches_dense_solve(self, lazy, dense):
        n = dense.shape[0]
        b = np.linspace(-1.0, 1.0, n)
        result = repro.solve(
            lazy, algorithm="cg", b=b, ridge=0.2, iterations=400, tol=1e-14
        )
        expected = np.linalg.solve(
            dense.T @ dense + 0.2 * np.eye(n), dense.T @ b
        )
        assert result.converged
        np.testing.assert_allclose(result.x, expected, atol=1e-6, rtol=1e-5)

    def test_power_iteration_over_lazy_shards(self, lazy, dense):
        result = repro.solve(lazy, algorithm="power", iterations=200, tol=1e-12)
        s = np.linalg.svd(dense, compute_uv=False)
        assert result.extras["singular_value"] == pytest.approx(s[0], rel=1e-6)
        assert lazy.resident_shards < lazy.n_shards
