"""Graceful degradation: shard retries, quarantine, registry states."""

import numpy as np
import pytest

from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    IntegrityError,
    ShardUnavailableError,
)
from repro.io.serialize import save_matrix
from repro.obs.export import render_prometheus
from repro.resilience.faults import FaultPlan, fault_injection
from repro.resilience.policy import (
    STATE_OPEN,
    Deadline,
    RetryPolicy,
    deadline_scope,
)
from repro.serve.registry import MatrixRegistry
from repro.serve.residency import Residency
from repro.shard import LazyShardedMatrix, build_sharded
from tests.conftest import make_structured


def fast_retry(attempts: int = 3) -> RetryPolicy:
    return RetryPolicy(max_attempts=attempts, base_delay=0.0, jitter=0.0)


@pytest.fixture
def container(rng, tmp_path):
    dense = make_structured(rng, n=60, m=10)
    path = tmp_path / "beta.gcmx"
    save_matrix(build_sharded(dense, n_shards=3), path)
    return path, dense


class TestShardRetries:
    def test_transient_failures_are_retried(self, container):
        path, dense = container
        matrix = LazyShardedMatrix(path, residency=Residency(retry_policy=fast_retry(3)))
        plan = FaultPlan().fail(f"{path}#shard1", times=2)
        with fault_injection(plan):
            y = matrix.right_multiply(np.ones(dense.shape[1]))
        assert np.allclose(y, dense @ np.ones(dense.shape[1]))
        assert matrix.residency.stats()["shard_retries"] == 2
        assert matrix.residency.stats()["shard_failures"] == 0
        assert matrix.residency.state(matrix) == "healthy"

    def test_exhausted_retries_raise_typed(self, container):
        path, _ = container
        matrix = LazyShardedMatrix(path, residency=Residency(retry_policy=fast_retry(2)))
        plan = FaultPlan().fail(f"{path}#shard0", times=None)
        with fault_injection(plan):
            with pytest.raises(ShardUnavailableError) as excinfo:
                matrix.right_multiply(np.ones(matrix.shape[1]))
        assert excinfo.value.shard == 0
        assert matrix.residency.stats()["shard_failures"] == 1
        assert matrix.residency.state(matrix) == "degraded"


class TestQuarantine:
    def test_persistent_corruption_quarantines_the_shard(self, container):
        path, _ = container
        matrix = LazyShardedMatrix(
            path,
            residency=Residency(
                retry_policy=fast_retry(2),
                breaker_threshold=2,
                breaker_reset=0.15,
            ),
        )
        x = np.ones(matrix.shape[1])
        plan = FaultPlan().corrupt_bytes(f"{path}#shard1", times=None)
        with fault_injection(plan):
            # Corruption is no_retry: each request burns exactly one
            # failure; the second trips the breaker.
            for _ in range(2):
                with pytest.raises(ShardUnavailableError):
                    matrix.right_multiply(x)
        assert matrix.residency.state(matrix) == "quarantined"
        breakers = matrix.residency.breakers(matrix)
        assert sorted(i for i, b in breakers.items() if b.state == STATE_OPEN) == [1]
        stats = matrix.residency.stats()
        assert stats["breaker_opens"] == 1
        assert stats["shard_failures"] == 2

        # While quarantined: fail fast with a Retry-After hint, no IO.
        with pytest.raises(ShardUnavailableError) as excinfo:
            matrix.right_multiply(x)
        assert excinfo.value.retry_after > 0
        assert "quarantined" in str(excinfo.value)

        # Healthy shards keep serving while shard 1 is out.
        assert matrix._shard(0) is not None
        assert matrix._shard(2) is not None

    def test_recovery_after_breaker_reset(self, container):
        import time

        path, dense = container
        matrix = LazyShardedMatrix(
            path,
            residency=Residency(
                retry_policy=fast_retry(2),
                breaker_threshold=1,
                breaker_reset=0.1,
            ),
        )
        x = np.ones(matrix.shape[1])
        with fault_injection(FaultPlan().corrupt_bytes(f"{path}#shard2")):
            with pytest.raises(ShardUnavailableError):
                matrix.right_multiply(x)
        assert matrix.residency.state(matrix) == "quarantined"

        time.sleep(0.12)  # breaker half-opens; fault budget is spent
        y = matrix.right_multiply(x)
        assert np.allclose(y, dense @ x)
        assert matrix.residency.state(matrix) == "healthy"
        breakers = matrix.residency.breakers(matrix)
        assert sorted(i for i, b in breakers.items() if b.state == STATE_OPEN) == []


class TestDeadlines:
    def test_slow_shard_load_expires_without_tripping_breaker(self, container):
        path, _ = container
        matrix = LazyShardedMatrix(path, residency=Residency(retry_policy=fast_retry(2)))
        plan = FaultPlan().slow_load(f"{path}#shard0", seconds=0.2)
        with fault_injection(plan):
            with deadline_scope(Deadline.after(0.05)):
                with pytest.raises(DeadlineExceededError):
                    matrix.right_multiply(np.ones(matrix.shape[1]))
        # A slow dependency is the *request's* problem, not evidence
        # the shard is broken: the breaker stays closed.
        assert matrix.residency.state(matrix) == "healthy"
        assert matrix.residency.stats()["breaker_opens"] == 0


class TestRegistryStates:
    def test_describe_reports_entry_state(self, container, tmp_path):
        registry = MatrixRegistry(root=tmp_path, retry_policy=fast_retry(2))
        assert registry.describe("beta")["state"] == "healthy"

    def test_load_failures_open_the_entry_breaker(self, rng, tmp_path):
        from repro.core.csrv import CSRVMatrix

        dense = make_structured(rng, n=30, m=6)
        save_matrix(CSRVMatrix.from_dense(dense), tmp_path / "alpha.gcmx")
        registry = MatrixRegistry(
            root=tmp_path,
            retry_policy=fast_retry(2),
            breaker_threshold=2,
            breaker_reset=30.0,
        )
        path = tmp_path / "alpha.gcmx"
        plan = FaultPlan().corrupt_bytes(str(path), times=None)
        with fault_injection(plan):
            for _ in range(2):
                with pytest.raises(Exception):
                    registry.get("alpha")
            with pytest.raises(CircuitOpenError) as excinfo:
                registry.get("alpha")
        assert excinfo.value.retry_after > 0
        assert registry.describe("alpha")["state"] == "quarantined"
        stats = registry.stats()
        assert stats["load_failures"] == 2
        assert stats["breaker_opens"] == 1
        assert stats["quarantined"] == 1

    def test_stats_absorb_shard_counters(self, container, tmp_path):
        registry = MatrixRegistry(root=tmp_path, retry_policy=fast_retry(3))
        path, _ = container
        plan = FaultPlan().fail(f"{path}#shard1", times=2)
        with fault_injection(plan):
            matrix = registry.get("beta")
            matrix.right_multiply(np.ones(matrix.shape[1]))
        assert registry.stats()["shard_retries"] == 2

    def test_breaker_opens_never_go_backwards(self, container, rng, tmp_path):
        from repro.core.csrv import CSRVMatrix

        path, _ = container
        registry = MatrixRegistry(
            root=tmp_path, retry_policy=fast_retry(1), breaker_threshold=1
        )

        def opens():
            count = registry.stats()["breaker_opens"]
            sample = next(
                line
                for line in render_prometheus(registry.metrics).splitlines()
                if line.startswith("repro_breaker_opens_total ")
            )
            assert float(sample.split()[-1]) == count
            return count

        matrix = registry.get("beta")
        with fault_injection(FaultPlan().corrupt_bytes(f"{path}#shard1")):
            with pytest.raises(ShardUnavailableError):
                matrix.right_multiply(np.ones(matrix.shape[1]))
        assert opens() == 1
        # Evicting the lazy matrix drops its shard breakers, and a
        # re-registered name gets fresh ones: the trip stays counted.
        registry.evict("beta")
        assert opens() == 1
        registry.register("beta", path)
        assert opens() == 1

        alpha = tmp_path / "alpha.gcmx"
        save_matrix(CSRVMatrix.from_dense(make_structured(rng, n=30, m=6)), alpha)
        registry.register("alpha", alpha)
        with fault_injection(FaultPlan().corrupt_bytes(str(alpha))):
            with pytest.raises(IntegrityError):
                registry.get("alpha")
        assert registry.describe("alpha")["state"] == "quarantined"
        assert opens() == 2
        registry.register("alpha", alpha)
        assert registry.describe("alpha")["state"] == "healthy"
        assert opens() == 2
