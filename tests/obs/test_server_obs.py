"""HTTP-level observability: /metrics, /trace/<id>, and the trace header."""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request

import pytest

from repro.core.gcm import GrammarCompressedMatrix
from repro.io.serialize import save_matrix
from repro.obs.export import CONTENT_TYPE
from repro.resilience.faults import FaultPlan, fault_injection
from repro.serve.registry import MatrixRegistry
from repro.serve.server import MatrixServer
from repro.shard.matrix import build_sharded
from tests.conftest import make_structured


def _request(url, body=None, method=None):
    data = json.dumps(body).encode() if body is not None else None
    req = urllib.request.Request(url, data=data, method=method)
    if data is not None:
        req.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(req, timeout=10) as resp:
            return resp.status, dict(resp.headers), resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), exc.read()


@pytest.fixture
def server(tmp_path, rng):
    dense = make_structured(rng, n=30, m=30)
    save_matrix(GrammarCompressedMatrix.compress(dense), tmp_path / "web.gcmx")
    sharded = make_structured(rng, n=24, m=24)
    save_matrix(build_sharded(sharded, n_shards=3), tmp_path / "sharded.gcmx")
    registry = MatrixRegistry(root=tmp_path)
    with MatrixServer(
        registry, port=0, job_workers=1,
        trace_log=tmp_path / "traces.jsonl",
    ).start() as srv:
        yield srv


def _multiply(server, matrix="web", n=30):
    return _request(
        server.url + "/multiply",
        body={"matrix": matrix, "vectors": [[1.0] * n]},
    )


class TestMetricsEndpoint:
    def test_prometheus_exposition(self, server):
        _multiply(server)
        status, headers, body = _request(server.url + "/metrics")
        assert status == 200
        assert headers["Content-Type"] == CONTENT_TYPE
        text = body.decode("utf-8")
        for family in (
            "repro_registry_lookups_total",
            "repro_registry_loads_total",
            "repro_registry_load_seconds_bucket",
            "repro_registry_resident",
            "repro_serve_requests_total",
            "repro_serve_request_seconds_bucket",
            "repro_shard_loads_total",
            "repro_job_events_total",
            "repro_breaker_opens_total",
            "repro_http_responses_total",
            "repro_build_info",
        ):
            assert f"# TYPE {family.removesuffix('_bucket')}" in text, family
            assert family in text, family
        assert 'repro_serve_requests_total{matrix="web"} 1' in text
        assert 'repro_registry_lookups_total{result="miss"} 1' in text

    def test_every_line_is_well_formed(self, server):
        _multiply(server)
        _, _, body = _request(server.url + "/metrics")
        for line in body.decode().splitlines():
            assert line, "no blank lines in the exposition"
            if line.startswith("#"):
                assert line.split()[1] in ("HELP", "TYPE")
            else:
                name, value = line.rsplit(" ", 1)
                assert name
                float(value)  # every sample value parses

    def test_http_response_counter_folds_unknown_routes(self, server):
        _request(server.url + "/definitely/not/a/route")
        _, _, body = _request(server.url + "/metrics")
        text = body.decode()
        assert 'repro_http_responses_total{route="other",status="404"} 1' in text

    def test_shard_counters_survive_matrix_eviction(self, server):
        _multiply(server, matrix="sharded", n=24)
        server.registry.evict("sharded")
        _, _, body = _request(server.url + "/metrics")
        text = body.decode()
        loads = next(
            line for line in text.splitlines()
            if line.startswith("repro_shard_loads_total")
        )
        assert float(loads.split()[-1]) >= 3  # counted at the load, not reset


#: Every counter of ``/stats`` (a dotted path into the payload) and the
#: ``/metrics`` sample that must read the same value.
STATS_TO_METRICS = {
    "registry.matrices": "repro_registry_matrices",
    "registry.resident": "repro_registry_resident",
    "registry.resident_bytes": "repro_registry_resident_bytes",
    "registry.resident_shards": "repro_registry_resident_shards",
    "registry.quarantined": "repro_registry_quarantined",
    "registry.degraded": "repro_registry_degraded",
    "registry.hits": 'repro_registry_lookups_total{result="hit"}',
    "registry.misses": 'repro_registry_lookups_total{result="miss"}',
    "registry.loads": "repro_registry_loads_total",
    "registry.evictions": "repro_registry_evictions_total",
    "registry.load_retries": "repro_registry_load_retries_total",
    "registry.load_failures": "repro_registry_load_failures_total",
    "registry.header_reads": "repro_registry_header_reads_total",
    "registry.catalog_registrations": "repro_registry_catalog_registrations_total",
    "registry.shard_loads": "repro_shard_loads_total",
    "registry.shard_evictions": "repro_shard_evictions_total",
    "registry.shard_retries": "repro_shard_retries_total",
    "registry.shard_failures": "repro_shard_failures_total",
    "registry.breaker_opens": "repro_breaker_opens_total",
    "jobs.submitted": 'repro_job_events_total{event="submitted"}',
    "jobs.completed": 'repro_job_events_total{event="completed"}',
    "jobs.failed": 'repro_job_events_total{event="failed"}',
    "jobs.jobs_orphaned": 'repro_job_events_total{event="orphaned"}',
    "jobs.workers_restarted": 'repro_job_events_total{event="worker_restarted"}',
    "jobs.leaked_workers": 'repro_job_events_total{event="worker_leaked"}',
    "leaked_threads": "repro_server_leaked_threads_total",
    "matrices.web.requests": 'repro_serve_requests_total{matrix="web"}',
    "matrices.web.errors": 'repro_serve_errors_total{matrix="web"}',
    "matrices.sharded.requests": 'repro_serve_requests_total{matrix="sharded"}',
    "matrices.sharded.errors": 'repro_serve_errors_total{matrix="sharded"}',
}


class TestStatsAgreeWithMetrics:
    def test_every_stats_counter_equals_its_metrics_sample(self, server, tmp_path):
        def get(path):
            return _request(server.url + path)[2]

        web = {"matrix": "web", "vectors": [[1.0] * 30]}
        sharded = {"matrix": "sharded", "vectors": [[1.0] * 24]}
        for body in (web, sharded):
            for op in ("right", "left"):
                status = _request(server.url + "/multiply", body={**body, "op": op})[0]
                assert status == 200
        short = {**web, "vectors": [[1.0] * 29]}
        assert _request(server.url + "/multiply", body=short)[0] == 400
        # A cold shard 1 that reads corrupt fails three loads, and the
        # fourth request finds its breaker open.
        server.registry.evict("sharded")
        plan = FaultPlan().corrupt_bytes(f"{tmp_path / 'sharded.gcmx'}#shard1")
        with fault_injection(plan):
            for _ in range(4):
                status, _, body = _multiply(server, matrix="sharded", n=24)
                assert status == 503
        assert "quarantined" in json.loads(body)["error"]
        job = {"algorithm": "pagerank", "matrix": "web", "params": {"iterations": 5}}
        assert _request(server.url + "/jobs", body=job)[0] == 202
        deadline = time.monotonic() + 10
        while not json.loads(get("/stats"))["jobs"]["completed"]:
            assert time.monotonic() < deadline, "the job did not complete"
            time.sleep(0.05)

        stats = json.loads(get("/stats"))
        samples = dict(
            line.rsplit(" ", 1)
            for line in get("/metrics").decode().splitlines()
            if not line.startswith("#")
        )
        registry_keys = {
            k for k, v in stats["registry"].items() if type(v) is int
        }
        assert registry_keys == {
            path.split(".")[1]
            for path in STATS_TO_METRICS
            if path.startswith("registry.")
        }
        for path, sample in STATS_TO_METRICS.items():
            value = stats
            for key in path.split("."):
                value = value[key]
            assert float(samples[sample]) == value, (path, sample)
        assert stats["registry"]["breaker_opens"] == 1
        assert stats["registry"]["shard_failures"] == 3
        assert stats["matrices"]["web"]["errors"] == 1
        assert stats["matrices"]["sharded"]["errors"] == 4
        assert stats["jobs"]["completed"] == 1


class TestTraceEndpoint:
    def test_multiply_echoes_trace_id_and_serves_the_tree(self, server):
        status, headers, _ = _multiply(server)
        assert status == 200
        trace_id = headers["X-Repro-Trace-Id"]
        status, _, body = _request(server.url + f"/trace/{trace_id}")
        assert status == 200
        payload = json.loads(body)
        assert payload["trace_id"] == trace_id
        names = [s["name"] for s in payload["spans"]]
        assert names[0] == "POST /multiply"
        assert "registry.get" in names
        assert "registry.load" in names
        assert "multiply.kernel" in names
        by_id = {s["span_id"]: s for s in payload["spans"]}
        for s in payload["spans"][1:]:
            assert s["parent_id"] in by_id  # a single connected tree
            assert s["duration_ms"] is not None

    def test_sharded_multiply_traces_shard_loads(self, server):
        _, headers, _ = _multiply(server, matrix="sharded", n=24)
        _, _, body = _request(
            server.url + f"/trace/{headers['X-Repro-Trace-Id']}"
        )
        names = [s["name"] for s in json.loads(body)["spans"]]
        assert names.count("shard.load") == 3

    def test_unknown_trace_is_404(self, server):
        status, _, body = _request(server.url + "/trace/deadbeefdeadbeef")
        assert status == 404
        assert "unknown trace" in json.loads(body)["error"]

    def test_untraced_endpoints_send_no_header(self, server):
        _, headers, _ = _request(server.url + "/stats")
        assert "X-Repro-Trace-Id" not in headers

    def test_failed_multiply_still_records_a_trace(self, server):
        status, headers, _ = _request(
            server.url + "/multiply",
            body={"matrix": "missing", "vectors": [[1.0]]},
        )
        assert status == 404
        trace_id = headers["X-Repro-Trace-Id"]
        status, _, body = _request(server.url + f"/trace/{trace_id}")
        assert status == 200
        root = json.loads(body)["spans"][0]
        assert "error" in root["attributes"]

    def test_job_run_records_under_the_payload_trace_id(self, server):
        status, headers, body = _request(
            server.url + "/jobs",
            body={
                "algorithm": "pagerank",
                "matrix": "web",
                "params": {"iterations": 5, "tol": None},
            },
        )
        assert status == 202
        job = json.loads(body)["job"]
        assert "X-Repro-Trace-Id" in headers  # the submission's trace
        assert job["trace_id"] != headers["X-Repro-Trace-Id"]
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            _, _, body = _request(server.url + f"/jobs/{job['id']}")
            detail = json.loads(body)["job"]
            if detail["status"] in ("done", "failed"):
                break
            time.sleep(0.05)
        assert detail["status"] == "done", detail
        status, _, body = _request(server.url + f"/trace/{job['trace_id']}")
        assert status == 200
        names = [s["name"] for s in json.loads(body)["spans"]]
        assert names[0] == "job pagerank"
        assert "job.solve" in names
        assert "solve.iterate" in names

    def test_trace_log_sink_appends_jsonl(self, server, tmp_path):
        _, headers, _ = _multiply(server)
        lines = (tmp_path / "traces.jsonl").read_text().splitlines()
        assert headers["X-Repro-Trace-Id"] in {
            json.loads(line)["trace_id"] for line in lines
        }
