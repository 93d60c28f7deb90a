"""Chaos battery: a live server under injected faults.

The contract under test: whatever fault fires, the server answers —
typed 4xx/5xx JSON for the broken matrix, 200 for healthy ones, never
a hung socket or a bare 500 — and every degradation is observable in
``/stats`` and ``/matrices/<name>``.
"""

import time

import pytest

from repro.resilience.faults import FaultPlan, fault_injection
from repro.resilience.policy import RetryPolicy
from repro.serve.registry import MatrixRegistry
from repro.serve.server import MatrixServer
from tests.resilience.conftest import http_get, http_post


@pytest.fixture
def chaos(store):
    """A live server over ``alpha`` (plain) and ``beta`` (sharded)."""
    root, matrices = store
    registry = MatrixRegistry(
        root=root,
        retry_policy=RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0),
        breaker_threshold=2,
        breaker_reset=0.25,
    )
    server = MatrixServer(
        registry, port=0, job_workers=1, request_deadline_ms=500
    )
    with server.start():
        yield server, root, matrices


def multiply(server, name: str, n_cols: int):
    return http_post(
        f"{server.url}/multiply",
        {"matrix": name, "op": "right", "vectors": [[1.0] * n_cols]},
    )


SCENARIOS = {
    "corrupt-shard": lambda root: FaultPlan().corrupt_bytes(
        f"{root}/beta.gcmx#shard1", times=None
    ),
    "truncated-shard": lambda root: FaultPlan().truncate(
        f"{root}/beta.gcmx#shard0", keep=16, times=None
    ),
    "transient-then-persistent": lambda root: FaultPlan()
    .fail(f"{root}/beta.gcmx#shard2", times=10),
    "slow-past-deadline": lambda root: FaultPlan().slow_load(
        f"{root}/beta.gcmx#shard0", seconds=1.0, times=None
    ),
}


class TestChaosScenarios:
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_typed_errors_and_healthy_service(self, chaos, scenario):
        server, root, matrices = chaos
        plan = SCENARIOS[scenario](root)
        with fault_injection(plan):
            status, body, _headers = multiply(
                server, "beta", matrices["beta"].shape[1]
            )
            # Typed failure: a 4xx/5xx JSON error — never a bare 500.
            assert status in (404, 503, 504), (scenario, status, body)
            assert "error" in body and body["error"]
            assert not body["error"].startswith("Traceback")

            # The healthy matrix keeps answering mid-chaos.
            ok, alpha_body, _ = multiply(
                server, "alpha", matrices["alpha"].shape[1]
            )
            assert ok == 200
            assert len(alpha_body["result"][0]) == matrices["alpha"].shape[0]

            # The server itself stays live and introspectable.
            assert http_get(f"{server.url}/healthz")[0] == 200
            assert http_get(f"{server.url}/stats")[0] == 200
        assert plan.events, scenario  # the fault actually fired

    def test_deadline_expiry_answers_504_with_retry_after(self, chaos):
        server, root, matrices = chaos
        plan = FaultPlan().slow_load(f"{root}/beta.gcmx", seconds=1.0)
        with fault_injection(plan):
            status, body, headers = multiply(
                server, "beta", matrices["beta"].shape[1]
            )
        assert status == 504
        assert "deadline" in body["error"].lower()
        assert int(headers["Retry-After"]) >= 1

    def test_transient_faults_are_retried_to_success(self, chaos):
        server, root, matrices = chaos
        plan = FaultPlan().fail(f"{root}/beta.gcmx#shard1", times=1)
        with fault_injection(plan):
            status, _body, _ = multiply(
                server, "beta", matrices["beta"].shape[1]
            )
        assert status == 200
        stats = http_get(f"{server.url}/stats")[1]
        assert stats["registry"]["shard_retries"] >= 1


class TestConcurrentSharedScans:
    def test_overlapping_requests_answer_exact_or_typed_504(self, store):
        """Concurrent clients on a lazily served matrix under a tiny budget,
        every shard load slow and every request on a deadline."""
        import threading

        import numpy as np

        root, matrices = store
        dense = matrices["beta"]
        registry = MatrixRegistry(root=root, byte_budget=1)
        server = MatrixServer(
            registry, port=0, job_workers=1, request_deadline_ms=100
        )
        rng = np.random.default_rng(3)
        x = rng.standard_normal(dense.shape[1])
        y = rng.standard_normal(dense.shape[0])
        answers: list = []

        def client(j: int) -> None:
            for r in range(5):
                op, vec, want = (
                    ("right", x, dense @ x) if (j + r) % 2 else
                    ("left", y, y @ dense)
                )
                status, body, headers = http_post(
                    f"{server.url}/multiply",
                    {"matrix": "beta", "op": op, "vectors": [vec.tolist()]},
                )
                answers.append((status, body, headers, want))

        plan = FaultPlan().slow_load(f"{root}/beta.gcmx", seconds=0.03)
        with server.start(), fault_injection(plan):
            threads = [
                threading.Thread(target=client, args=(j,)) for j in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
            assert not any(t.is_alive() for t in threads)
            stats = http_get(f"{server.url}/stats")[1]["registry"]
        assert len(answers) == 20
        for status, body, headers, want in answers:
            if status == 200:
                assert np.allclose(body["result"][0], want)
            else:
                assert status == 504, (status, body)
                assert int(headers["Retry-After"]) >= 1
        assert plan.events  # the slow loads fired
        # Every pin was released: the one-byte budget holds no shard.
        assert stats["resident_shards"] == 0


class TestColdLoadWaiter:
    def test_request_behind_a_cold_load_answers_504_at_its_deadline(self, store):
        """A second client's request for a matrix another request is
        still loading answers 504 at its own deadline."""
        import threading

        root, matrices = store
        registry = MatrixRegistry(root=root)
        server = MatrixServer(
            registry, port=0, job_workers=1, request_deadline_ms=100
        )
        n_cols = matrices["alpha"].shape[1]
        first: list = []
        plan = FaultPlan().slow_load(f"{root}/alpha.gcmx", seconds=1.5, times=1)
        with server.start(), fault_injection(plan):
            loader = threading.Thread(
                target=lambda: first.append(multiply(server, "alpha", n_cols))
            )
            loader.start()
            end = time.monotonic() + 10
            while not plan.events:  # until the first request is loading
                assert time.monotonic() < end, "the slowed load never started"
                time.sleep(0.001)
            started = time.monotonic()
            status, body, headers = multiply(server, "alpha", n_cols)
            elapsed = time.monotonic() - started
            loader.join(30)
        assert not loader.is_alive()
        assert status == 504, (status, body)
        assert "deadline" in body["error"].lower()
        assert int(headers["Retry-After"]) >= 1
        assert elapsed < 0.75
        assert first[0][0] in (200, 504)


class TestBreakerObservability:
    def test_quarantine_visible_then_recovers(self, chaos):
        server, root, matrices = chaos
        n_cols = matrices["beta"].shape[1]
        plan = FaultPlan().corrupt_bytes(f"{root}/beta.gcmx#shard1", times=None)
        with fault_injection(plan):
            # breaker_threshold=2 and corruption is no_retry: two
            # requests trip shard 1's breaker open.
            for _ in range(2):
                status, _, _ = multiply(server, "beta", n_cols)
                assert status == 503

            # Open breaker: fail fast with Retry-After, still typed.
            status, body, headers = multiply(server, "beta", n_cols)
            assert status == 503
            assert "Retry-After" in headers

            detail = http_get(f"{server.url}/matrices/beta")[1]
            assert detail["state"] == "quarantined"

            stats = http_get(f"{server.url}/stats")[1]["registry"]
            assert stats["quarantined"] == 1
            assert stats["breaker_opens"] >= 1
            assert stats["shard_failures"] >= 2

        # Fault gone + reset_timeout elapsed: half-open probe succeeds
        # and the matrix comes back on its own.
        time.sleep(0.3)
        status, body, _ = multiply(server, "beta", n_cols)
        assert status == 200
        assert http_get(f"{server.url}/matrices/beta")[1]["state"] == "healthy"
        assert http_get(f"{server.url}/stats")[1]["registry"]["quarantined"] == 0

    def test_stats_exposes_resilience_counters(self, chaos):
        server, _root, _ = chaos
        stats = http_get(f"{server.url}/stats")[1]
        registry = stats["registry"]
        for key in (
            "shard_retries",
            "shard_failures",
            "load_retries",
            "load_failures",
            "breaker_opens",
            "quarantined",
            "degraded",
        ):
            assert key in registry, key
        assert stats["request_deadline_ms"] == 500
        jobs = stats["jobs"]
        for key in ("workers_restarted", "jobs_orphaned", "leaked_workers"):
            assert key in jobs, key


class TestJobChaos:
    def wait_job(self, server, job_id: str, timeout: float = 10.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            _, body, _ = http_get(f"{server.url}/jobs/{job_id}")
            job = body["job"]
            if job["status"] in ("done", "failed"):
                return job
            time.sleep(0.02)
        raise AssertionError(f"job {job_id} never finished")

    def test_worker_death_fails_job_and_server_recovers(self, chaos):
        server, _root, matrices = chaos
        with fault_injection(FaultPlan().kill_worker("power")):
            _, submitted, _ = http_post(
                f"{server.url}/jobs",
                {"algorithm": "power", "matrix": "alpha",
                 "params": {"iterations": 3}},
            )
            body = self.wait_job(server, submitted["job"]["id"])
        assert body["status"] == "failed"
        assert "WorkerLostError" in body["error"]

        stats = http_get(f"{server.url}/stats")[1]["jobs"]
        assert stats["workers_restarted"] == 1
        assert stats["jobs_orphaned"] == 1

        # The respawned worker completes the next job.
        _, resubmitted, _ = http_post(
            f"{server.url}/jobs",
            {"algorithm": "power", "matrix": "alpha",
             "params": {"iterations": 3}},
        )
        assert self.wait_job(server, resubmitted["job"]["id"])["status"] == "done"

    def test_job_deadline_ms_fails_typed(self, chaos):
        server, root, _ = chaos
        plan = FaultPlan().slow_load(f"{root}/alpha.gcmx", seconds=0.5)
        with fault_injection(plan):
            _, submitted, _ = http_post(
                f"{server.url}/jobs",
                {"algorithm": "power", "matrix": "alpha",
                 "params": {"iterations": 5}, "deadline_ms": 50},
            )
            body = self.wait_job(server, submitted["job"]["id"])
        assert body["status"] == "failed"
        assert "deadline" in body["error"].lower()
        assert body["deadline_ms"] == 50
