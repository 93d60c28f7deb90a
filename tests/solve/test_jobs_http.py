"""End-to-end HTTP tests for the async job API.

The acceptance flow: a PageRank job POSTed against a *lazily-sharded*
matrix completes in the background while the submitting request has
long returned, and the poll response carries the per-iteration
convergence trace.
"""

import json
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

import repro
from repro.io.serialize import save_matrix
from repro.serve.registry import MatrixRegistry
from repro.serve.server import MatrixServer
from tests.solve.test_conformance import (
    ATOL,
    RTOL,
    _square_nonneg,
    reference_pagerank,
)


def _get(url: str):
    try:
        with urllib.request.urlopen(url, timeout=10) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _post(url: str, payload: dict):
    req = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(req, timeout=10) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _poll(base: str, job_id: str, timeout: float = 15.0) -> dict:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, body = _get(f"{base}/jobs/{job_id}")
        assert status == 200
        if body["job"]["status"] in ("done", "failed"):
            return body["job"]
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} did not finish in {timeout}s")


@pytest.fixture(scope="module")
def dense():
    return _square_nonneg(np.random.default_rng(31))


@pytest.fixture
def serving(tmp_path, dense):
    """A live server over one sharded matrix, budget ≈ one shard."""
    sharded = repro.compress(dense, format="sharded", n_shards=3)
    save_matrix(sharded, tmp_path / "web.gcmx")
    budget = max(s.size_bytes() for s in sharded.shards) + 64
    registry = MatrixRegistry(root=tmp_path, byte_budget=budget)
    with MatrixServer(registry, port=0, job_workers=2).start() as server:
        yield server


class TestJobLifecycle:
    def test_submit_poll_result_pagerank_over_lazy_shards(self, serving, dense):
        status, body = _post(
            f"{serving.url}/jobs",
            {
                "algorithm": "pagerank",
                "matrix": "web",
                "params": {"iterations": 300, "tol": 1e-13},
            },
        )
        assert status == 202
        submitted = body["job"]
        assert submitted["status"] in ("queued", "running", "done")
        assert submitted["algorithm"] == "pagerank"

        job = _poll(serving.url, submitted["id"])
        assert job["status"] == "done"
        result = job["result"]
        assert result["converged"] is True
        # The convergence trace is present, one entry per iteration,
        # residuals decreasing to below tol.
        trace = result["trace"]
        assert len(trace["residuals"]) == result["iterations"] > 1
        assert trace["residuals"][-1] <= 1e-13
        assert len(trace["seconds"]) == result["iterations"]
        assert set(trace["latency"]) >= {"count", "p50_ms", "p90_ms", "p99_ms"}
        np.testing.assert_allclose(
            result["x"], reference_pagerank(dense, tol=1e-13),
            atol=ATOL, rtol=RTOL,
        )

    def test_cg_job_with_vector_params(self, serving, dense):
        n = dense.shape[0]
        b = np.linspace(0.0, 1.0, n)
        status, body = _post(
            f"{serving.url}/jobs",
            {
                "algorithm": "cg",
                "matrix": "web",
                "params": {"b": b.tolist(), "ridge": 0.2, "tol": 1e-14,
                           "iterations": 400},
            },
        )
        assert status == 202
        job = _poll(serving.url, body["job"]["id"])
        assert job["status"] == "done"
        expected = np.linalg.solve(
            dense.T @ dense + 0.2 * np.eye(n), dense.T @ b
        )
        np.testing.assert_allclose(
            job["result"]["x"], expected, atol=1e-6, rtol=1e-5
        )

    def test_jobs_listing_excludes_results(self, serving):
        status, body = _post(
            f"{serving.url}/jobs",
            {"algorithm": "power", "matrix": "web",
             "params": {"iterations": 2, "tol": None}},
        )
        assert status == 202
        _poll(serving.url, body["job"]["id"])
        status, listing = _get(f"{serving.url}/jobs")
        assert status == 200 and len(listing["jobs"]) >= 1
        assert all("result" not in j for j in listing["jobs"])


class TestJobErrors:
    def test_unknown_algorithm_is_400(self, serving):
        status, body = _post(
            f"{serving.url}/jobs", {"algorithm": "nope", "matrix": "web"}
        )
        assert status == 400
        assert "unknown algorithm 'nope'" in body["error"]

    def test_unknown_matrix_is_404(self, serving):
        status, body = _post(
            f"{serving.url}/jobs", {"algorithm": "pagerank", "matrix": "ghost"}
        )
        assert status == 404

    def test_missing_fields_are_400(self, serving):
        assert _post(f"{serving.url}/jobs", {"matrix": "web"})[0] == 400
        assert _post(f"{serving.url}/jobs", {"algorithm": "power"})[0] == 400
        assert (
            _post(
                f"{serving.url}/jobs",
                {"algorithm": "power", "matrix": "web", "params": [1]},
            )[0]
            == 400
        )

    def test_unknown_job_id_is_404(self, serving):
        assert _get(f"{serving.url}/jobs/job-999")[0] == 404

    def test_bad_run_params_fail_the_job(self, serving):
        # ``threads`` is no solver parameter: a client cannot use it to
        # make the kernels load every shard at once past the budget.
        for name, value in (("wibble", True), ("threads", 2)):
            status, body = _post(
                f"{serving.url}/jobs",
                {"algorithm": "power", "matrix": "web",
                 "params": {name: value}},
            )
            assert status == 202  # accepted: params are the algorithm's own
            job = _poll(serving.url, body["job"]["id"])
            assert job["status"] == "failed", name
            assert name in job["error"]
            assert serving.registry.stats()["shard_loads"] == 0, name


class TestStatsIntegration:
    def test_stats_reports_version_and_job_counters(self, serving):
        status, body = _post(
            f"{serving.url}/jobs",
            {"algorithm": "power", "matrix": "web",
             "params": {"iterations": 2, "tol": None}},
        )
        assert status == 202
        _poll(serving.url, body["job"]["id"])
        status, stats = _get(f"{serving.url}/stats")
        assert status == 200
        assert stats["version"] == repro.__version__
        jobs = stats["jobs"]
        assert jobs["submitted"] >= 1
        assert jobs["completed"] >= 1
        assert jobs["workers"] == 2
