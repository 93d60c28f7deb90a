"""Worker-death detection: the job watchdog and shutdown leak accounting."""

import time

import pytest

from repro.core.csrv import CSRVMatrix
from repro.io.serialize import save_matrix
from repro.resilience.faults import FaultPlan, fault_injection
from repro.serve.jobs import JobManager
from repro.serve.registry import MatrixRegistry
from tests.conftest import make_structured


def wait_until(predicate, timeout: float = 5.0, interval: float = 0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


@pytest.fixture
def registry(rng, tmp_path):
    dense = make_structured(rng, n=30, m=6)
    save_matrix(CSRVMatrix.from_dense(dense), tmp_path / "alpha.gcmx")
    return MatrixRegistry(root=tmp_path)


class TestWatchdog:
    def test_dead_worker_fails_orphan_and_respawns(self, registry):
        # Long sweep interval: the test drives the sweep itself.
        manager = JobManager(registry, watchdog_interval=60.0)
        try:
            with fault_injection(FaultPlan().kill_worker("power")):
                job = manager.submit("power", "alpha", {"iterations": 2})
                # The injected WorkerDeathFault sails through the
                # worker's except Exception boundary; wait for the
                # thread to actually die.
                assert wait_until(
                    lambda: any(not t.is_alive() for t in manager._threads)
                )
            assert job.describe()["status"] == "running"  # orphaned

            manager._reap_dead_workers()
            described = job.describe()
            assert described["status"] == "failed"
            assert "WorkerLostError" in described["error"]
            assert "died while running this job" in described["error"]

            stats = manager.stats()
            assert stats["workers_restarted"] == 1
            assert stats["jobs_orphaned"] == 1

            # The respawned worker drains the queue again.
            job2 = manager.submit("power", "alpha", {"iterations": 2})
            assert wait_until(
                lambda: job2.describe()["status"] == "done"
            )
        finally:
            manager.close()

    def test_background_watchdog_sweeps_on_its_own(self, registry):
        manager = JobManager(registry, watchdog_interval=0.05)
        try:
            with fault_injection(FaultPlan().kill_worker("power")):
                job = manager.submit("power", "alpha", {"iterations": 2})
                assert wait_until(
                    lambda: job.describe()["status"] == "failed"
                )
            assert "WorkerLostError" in job.describe()["error"]
        finally:
            manager.close()

    def test_completed_jobs_are_not_reaped(self, registry):
        manager = JobManager(registry, watchdog_interval=60.0)
        try:
            job = manager.submit("power", "alpha", {"iterations": 2})
            assert wait_until(lambda: job.describe()["status"] == "done")
            manager._reap_dead_workers()
            assert job.describe()["status"] == "done"
            assert manager.stats()["jobs_orphaned"] == 0
        finally:
            manager.close()


class TestShutdownLeaks:
    def test_hung_worker_is_counted_as_leaked(self, registry):
        # The worker wedges inside an injected 1.5s slow load; close()
        # gives it 0.1s, so it must be *counted*, not waited out.
        manager = JobManager(registry, join_timeout=0.1)
        plan = FaultPlan().slow_load("alpha", seconds=1.5)
        with fault_injection(plan):
            job = manager.submit("power", "alpha", {"iterations": 2})
            assert wait_until(
                lambda: job.describe()["status"] == "running"
            )
            started = time.monotonic()
            manager.close()
            assert time.monotonic() - started < 1.0
        assert manager.stats()["leaked_workers"] == 1

    def test_clean_shutdown_leaks_nothing(self, registry):
        manager = JobManager(registry, join_timeout=5.0)
        job = manager.submit("power", "alpha", {"iterations": 2})
        assert wait_until(lambda: job.describe()["status"] == "done")
        manager.close()
        assert manager.stats()["leaked_workers"] == 0
        manager.close()  # idempotent
