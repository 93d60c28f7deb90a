"""End-to-end HTTP tests for the serving engine."""

import http.client
import json
import os
import subprocess
import sys
import time
import urllib.error
import urllib.parse
import urllib.request
from statistics import median

import numpy as np
import pytest

from repro.core.blocked import BlockedMatrix
from repro.core.gcm import GrammarCompressedMatrix
from repro.io.serialize import save_matrix
from repro.serve.registry import MatrixRegistry
from repro.serve.server import MatrixServer
from repro.shard import LazyShardedMatrix, build_sharded
from tests.conftest import make_structured


def _get(url: str):
    with urllib.request.urlopen(url, timeout=10) as resp:
        return resp.status, json.loads(resp.read())


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


def _post_raw(url: str, data: bytes):
    """POST ``data`` as is; returns the status and the undecoded body."""
    req = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(req, timeout=10) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def _strict_loads(raw: bytes):
    """``json.loads`` that refuses the non-standard NaN/Infinity tokens."""

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(raw, parse_constant=reject)


@pytest.fixture
def serving(tmp_path, rng):
    """A live server over two matrices with a budget that fits only one."""
    matrices = {
        "small": make_structured(rng, n=40, m=8),
        "wide": make_structured(rng, n=50, m=12),
    }
    compressed = {
        "small": GrammarCompressedMatrix.compress(matrices["small"], variant="re_iv"),
        "wide": BlockedMatrix.compress(matrices["wide"], variant="re_32", n_blocks=2),
    }
    for name, matrix in compressed.items():
        save_matrix(matrix, tmp_path / f"{name}.gcmx")
    budget = max(m.size_bytes() for m in compressed.values()) + 1
    registry = MatrixRegistry(root=tmp_path, byte_budget=budget)
    with MatrixServer(registry, workers=2, port=0).start() as server:
        yield server, matrices


class TestEndpoints:
    def test_healthz(self, serving):
        server, _ = serving
        status, body = _get(f"{server.url}/healthz")
        assert status == 200 and body["status"] == "ok"

    def test_keep_alive_replies_do_not_wait_for_delayed_acks(self, serving):
        # Without TCP_NODELAY every small reply on a kept-alive
        # connection stalls on the client's delayed ACK (40 ms on Linux).
        server, _ = serving
        url = urllib.parse.urlsplit(server.url)
        conn = http.client.HTTPConnection(url.hostname, url.port, timeout=10)
        try:
            times = []
            for _ in range(20):
                start = time.perf_counter()
                conn.request("GET", "/healthz")
                resp = conn.getresponse()
                assert resp.status == 200 and json.loads(resp.read())["status"] == "ok"
                times.append(time.perf_counter() - start)
        finally:
            conn.close()
        assert median(times) < 0.020, times

    def test_matrices_lists_both_without_loading(self, serving):
        server, matrices = serving
        status, body = _get(f"{server.url}/matrices")
        assert status == 200
        listed = {e["name"]: e for e in body["matrices"]}
        assert set(listed) == set(matrices)
        assert all(not e["resident"] for e in listed.values())
        assert listed["small"]["kind"] == "gcm"
        assert listed["wide"]["kind"] == "blocked"
        assert tuple(listed["small"]["shape"]) == matrices["small"].shape

    def test_matrix_detail_and_unknown(self, serving):
        server, _ = serving
        status, body = _get(f"{server.url}/matrices/small")
        assert status == 200 and body["variant"] == "re_iv"
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(f"{server.url}/matrices/nope")
        assert excinfo.value.code == 404

    def test_unknown_path(self, serving):
        server, _ = serving
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(f"{server.url}/frobnicate")
        assert excinfo.value.code == 404


class TestMultiply:
    def test_right_single_vector(self, serving):
        server, matrices = serving
        x = np.ones(matrices["small"].shape[1])
        status, body = _post(
            f"{server.url}/multiply",
            {"matrix": "small", "vectors": x.tolist()},
        )
        assert status == 200
        assert body["k"] == 1
        assert np.allclose(body["result"][0], matrices["small"] @ x)

    def test_right_batch(self, serving):
        server, matrices = serving
        rng = np.random.default_rng(3)
        batch = rng.standard_normal((5, matrices["wide"].shape[1]))
        status, body = _post(
            f"{server.url}/multiply",
            {"matrix": "wide", "op": "right", "vectors": batch.tolist()},
        )
        assert status == 200 and body["k"] == 5
        expected = matrices["wide"] @ batch.T
        for i in range(5):
            assert np.allclose(body["result"][i], expected[:, i])

    def test_left_batch(self, serving):
        server, matrices = serving
        rng = np.random.default_rng(4)
        batch = rng.standard_normal((3, matrices["small"].shape[0]))
        status, body = _post(
            f"{server.url}/multiply",
            {"matrix": "small", "op": "left", "vectors": batch.tolist()},
        )
        assert status == 200 and body["k"] == 3
        expected = batch @ matrices["small"]
        for i in range(3):
            assert np.allclose(body["result"][i], expected[i])

    def test_overflowing_product_answers_null(self, serving):
        # A product entry past the double range is not a JSON number:
        # the body carries null there and stays standard JSON.
        server, matrices = serving
        dense = matrices["small"]
        column = int(np.flatnonzero((np.abs(dense) > 1).any(axis=0))[0])
        x = np.zeros(dense.shape[1])
        x[column] = 1e308
        payload = {"matrix": "small", "vectors": x.tolist()}
        status, raw = _post_raw(f"{server.url}/multiply", json.dumps(payload).encode())
        assert status == 200
        got = _strict_loads(raw)["result"][0]
        with np.errstate(over="ignore"):
            expected = dense @ x
        overflowed = ~np.isfinite(expected)
        assert overflowed.any()
        assert [v is None for v in got] == overflowed.tolist()
        assert np.array_equal(np.array(got)[~overflowed], expected[~overflowed])

    def test_oversized_batch_rejected(self, tmp_path, rng):
        dense = make_structured(rng, n=20, m=6)
        save_matrix(GrammarCompressedMatrix.compress(dense), tmp_path / "m.gcmx")
        registry = MatrixRegistry(root=tmp_path)
        with MatrixServer(registry, port=0, max_vectors=4).start() as server:
            batch = np.ones((5, dense.shape[1]))
            status, body = _post(
                f"{server.url}/multiply",
                {"matrix": "m", "vectors": batch.tolist()},
            )
            assert status == 400 and "limit is 4" in body["error"]
            # At the limit it still answers.
            status, body = _post(
                f"{server.url}/multiply",
                {"matrix": "m", "vectors": batch[:4].tolist()},
            )
            assert status == 200 and body["k"] == 4

    def test_bad_requests(self, serving):
        server, matrices = serving
        url = f"{server.url}/multiply"
        assert _post(url, {"vectors": [1.0]})[0] == 400  # no matrix
        assert _post(url, {"matrix": "nope", "vectors": [1.0]})[0] == 404
        assert _post(url, {"matrix": "small"})[0] == 400  # no vectors
        assert (
            _post(url, {"matrix": "small", "op": "sideways", "vectors": [1.0]})[0]
            == 400
        )
        # wrong vector length
        assert _post(url, {"matrix": "small", "vectors": [1.0, 2.0]})[0] == 400
        # non-numeric vectors
        assert (
            _post(url, {"matrix": "small", "vectors": ["a", "b"]})[0] == 400
        )
        # Strict JSON (RFC 8259): non-finite numbers are not JSON, and
        # 1e400 overflows a double.
        width = matrices["small"].shape[1]
        for token in ("NaN", "Infinity", "-Infinity", "1e400"):
            vector = ", ".join([token] + ["2.0"] * (width - 1))
            status, raw = _post_raw(
                url, f'{{"matrix": "small", "vectors": [[{vector}]]}}'.encode()
            )
            assert status == 400, (token, raw)
            assert "invalid JSON body" in _strict_loads(raw)["error"], token

    @pytest.mark.parametrize("length", ["abc", "-1", "1.5", " ", "\u00b2"])
    def test_malformed_content_length(self, serving, length):
        # Only 1*DIGIT is a Content-Length (RFC 9110).  -1 used to read
        # to EOF, pinning the handler thread of a keep-alive client.
        server, _ = serving
        url = urllib.parse.urlsplit(server.url)
        conn = http.client.HTTPConnection(url.hostname, url.port, timeout=3)
        try:
            conn.putrequest("POST", "/multiply")
            conn.putheader("Content-Length", length.encode("latin-1"))
            conn.endheaders()
            resp = conn.getresponse()
            body = json.loads(resp.read())
        finally:
            conn.close()
        assert resp.status == 400, body
        assert "Content-Length" in body["error"]
        # The body's framing is unknown, so the server closes.
        assert resp.getheader("Connection") == "close"


@pytest.fixture
def wire(tmp_path, rng):
    """A server over a re_iv matrix and a lazily served re_ans shard set."""
    matrices = {
        "iv": make_structured(rng, n=40, m=8),
        "shards": make_structured(rng, n=60, m=10),
    }
    save_matrix(
        GrammarCompressedMatrix.compress(matrices["iv"], variant="re_iv"),
        tmp_path / "iv.gcmx",
    )
    save_matrix(
        build_sharded(matrices["shards"], n_shards=3, format="re_ans"),
        tmp_path / "shards.gcmx",
    )
    registry = MatrixRegistry(root=tmp_path)
    with MatrixServer(registry, workers=2, port=0).start() as server:
        assert isinstance(registry.get("shards"), LazyShardedMatrix)
        yield server, matrices


class TestWire:
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("op", ["right", "left"])
    @pytest.mark.parametrize("name", ["iv", "shards"])
    def test_round_trip_is_bit_exact(self, wire, name, op, k):
        # Floats cross the wire twice (request parse, reply format);
        # both must reproduce the in-process doubles to the last bit.
        server, matrices = wire
        dense = matrices[name]
        length = dense.shape[1] if op == "right" else dense.shape[0]
        vectors = np.random.default_rng(k).standard_normal((k, length))
        payload = {"matrix": name, "op": op, "vectors": vectors.tolist()}
        status, raw = _post_raw(f"{server.url}/multiply", json.dumps(payload).encode())
        assert status == 200
        got = np.array(_strict_loads(raw)["result"])
        want = np.array(server.multiply(payload)["result"])
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        expected = vectors @ (dense.T if op == "right" else dense)
        assert np.allclose(got, expected)

    def test_import_repro_does_not_import_orjson(self):
        # Only a server needs orjson; the library is numpy + scipy.
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        code = "import sys, repro; print('orjson' in sys.modules)"
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_import_repro_does_not_need_networkx(self):
        # Only MWM column reordering needs networkx; the library, the
        # CLI and the server import without it.
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        loaded = (
            "import sys, repro, repro.cli, repro.serve.server, "
            "repro.serve.registry, repro.serve.batch, repro.serve.jobs; "
            "print('networkx' in sys.modules)"
        )
        blocked = "import sys; sys.modules['networkx'] = None; import repro"
        for code, want in ((loaded, "False"), (blocked, "")):
            proc = subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True,
                env=env, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.strip() == want


class TestStatsAndEviction:
    def test_lru_eviction_observable_via_stats(self, serving):
        server, matrices = serving
        url = f"{server.url}/multiply"
        x_small = np.ones(matrices["small"].shape[1]).tolist()
        x_wide = np.ones(matrices["wide"].shape[1]).tolist()
        assert _post(url, {"matrix": "small", "vectors": x_small})[0] == 200
        _, stats = _get(f"{server.url}/stats")
        assert stats["registry"]["resident"] == 1
        assert stats["registry"]["evictions"] == 0
        # The budget fits one matrix: loading "wide" must evict "small".
        assert _post(url, {"matrix": "wide", "vectors": x_wide})[0] == 200
        _, stats = _get(f"{server.url}/stats")
        assert stats["registry"]["evictions"] == 1
        assert stats["registry"]["resident"] == 1
        # Serving "small" again reloads it (a registry miss, not a hit).
        assert _post(url, {"matrix": "small", "vectors": x_small})[0] == 200
        _, stats = _get(f"{server.url}/stats")
        assert stats["registry"]["loads"] == 3
        assert stats["registry"]["misses"] == 3

    def test_latency_percentiles_reported(self, serving):
        server, matrices = serving
        url = f"{server.url}/multiply"
        x = np.ones(matrices["small"].shape[1]).tolist()
        for _ in range(5):
            assert _post(url, {"matrix": "small", "vectors": x})[0] == 200
        _, stats = _get(f"{server.url}/stats")
        per_matrix = stats["matrices"]["small"]
        assert per_matrix["requests"] == 5
        assert per_matrix["errors"] == 0
        assert per_matrix["p50_ms"] > 0
        assert per_matrix["p99_ms"] >= per_matrix["p50_ms"]
        assert stats["workers"] == 2

    def test_errors_counted_per_matrix(self, serving):
        server, _ = serving
        url = f"{server.url}/multiply"
        assert _post(url, {"matrix": "small", "vectors": [1.0, 2.0]})[0] == 400
        _, stats = _get(f"{server.url}/stats")
        assert stats["matrices"]["small"]["errors"] == 1


class TestLifecycle:
    """``close`` returns, and releases the port, on a server that never served."""

    @pytest.fixture
    def registry(self, tmp_path, rng):
        dense = make_structured(rng, n=20, m=6)
        save_matrix(GrammarCompressedMatrix.compress(dense), tmp_path / "m.gcmx")
        return MatrixRegistry(root=tmp_path)

    @staticmethod
    def _returns_within(fn, timeout: float = 5.0) -> bool:
        import threading

        thread = threading.Thread(target=fn, daemon=True)
        thread.start()
        thread.join(timeout=timeout)
        return not thread.is_alive()

    def test_close_without_start(self, registry):
        import socket

        server = MatrixServer(registry, port=0)
        host, port = server.host, server.port
        assert self._returns_within(server.close)
        with socket.socket() as sock:
            sock.bind((host, port))  # the port was released

    def test_context_manager_without_start(self, registry):
        def enter_and_exit():
            with MatrixServer(registry, port=0):
                pass

        assert self._returns_within(enter_and_exit)
