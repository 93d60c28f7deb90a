"""The client view: ``repro serve`` as a child process, driven over HTTP.

:func:`run_http` launches the server over the prepared store several
times (set-up is timed on each launch), then drives the last launch
closed-loop: first the PageRank job loop, if the workload has one, on
one connection; then one connection per client, each client sending
its share of the fixed request sequence and waiting for every reply
before the next request.  A reply is parsed and checked against its
dense reference after its round trip is timed.
"""

from __future__ import annotations

import http.client
import json
import os
import socket
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from servebench.workloads import (
    OPS,
    PAGERANK_PARAMS,
    Prepared,
    Request,
    products_match,
    rank_matches,
)

#: Timeout of every HTTP call (connect, send, and each read).
HTTP_TIMEOUT_S = 60.0
#: How long a launch may take to print its ``serving … on http://…`` line.
START_TIMEOUT_S = 60.0
#: A PageRank job not done this long after submission counts as failed.
JOB_TIMEOUT_S = 120.0
#: Pause between ``GET /jobs/<id>`` polls.
POLL_INTERVAL_S = 0.01
#: Server launches per run; ``setup_s`` is the median over them.
SETUP_LAUNCHES = 7


class ServerProcess:
    """``python -m repro serve ROOT --store --mmap --port 0`` as a child.

    The child runs unbuffered with its output in ``log``, so the
    ``serving … on http://host:port`` line that reports the ephemeral
    port can be read as soon as it is printed.
    """

    def __init__(self, src: Path, root: Path, budget_mb: float | None, log: Path):
        self.cmd = [
            sys.executable, "-u", "-m", "repro", "serve", str(root),
            "--store", "--mmap", "--port", "0",
        ]
        if budget_mb is not None:
            self.cmd += ["--budget-mb", repr(budget_mb)]
        self.env = dict(os.environ, PYTHONPATH=str(src), PYTHONUNBUFFERED="1")
        self.log = log
        self.proc: subprocess.Popen | None = None
        self.host = ""
        self.port = 0

    def start(self) -> None:
        with open(self.log, "wb") as out:
            self.proc = subprocess.Popen(
                self.cmd, stdout=out, stderr=subprocess.STDOUT, env=self.env
            )
        deadline = time.monotonic() + START_TIMEOUT_S
        while True:
            for line in self.log.read_text(errors="replace").splitlines():
                if line.startswith("serving ") and " on http://" in line:
                    address = line.rsplit(" on http://", 1)[1].strip()
                    host, port = address.rsplit(":", 1)
                    self.host, self.port = host, int(port)
                    return
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(
                    f"server did not start (exit {self.proc.poll()}): "
                    + self.log.read_text(errors="replace")[-2000:]
                )
            time.sleep(0.002)

    def stop(self) -> None:
        proc, self.proc = self.proc, None
        if proc is None:
            return
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()

    def _proc_file(self, name: str) -> str:
        if self.proc is None:
            raise RuntimeError("server is not running")
        return Path(f"/proc/{self.proc.pid}/{name}").read_text()

    def cpu_seconds(self) -> float:
        """User + system CPU the server has used so far (Linux ``/proc``)."""
        fields = self._proc_file("stat").rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        """The server's ``VmHWM`` in MiB."""
        for line in self._proc_file("status").splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")


class Connection:
    """One persistent HTTP/1.1 connection; every call has a timeout."""

    def __init__(self, host: str, port: int):
        self.host, self.port = host, port
        self._conn: http.client.HTTPConnection | None = None
        self._open()

    def _open(self) -> None:
        self._conn = http.client.HTTPConnection(
            self.host, self.port, timeout=HTTP_TIMEOUT_S
        )
        self._conn.connect()
        # http.client writes headers and body separately; without this
        # the body waits on the server's delayed ACK of the headers.
        # Common HTTP clients (urllib3) set it too.
        self._conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def call(self, method: str, path: str, body: bytes | None = None):
        """``(status, body, seconds)`` from request write to the last reply
        byte; ``status`` is ``None`` when the call failed or timed out."""
        headers = {"Content-Type": "application/json"} if body is not None else {}
        start = perf_counter()
        try:
            if self._conn is None:
                self._open()
            self._conn.request(method, path, body=body, headers=headers)
            response = self._conn.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            return None, b"", perf_counter() - start
        return response.status, data, perf_counter() - start

    def get_json(self, path: str) -> dict:
        status, data, _ = self.call("GET", path)
        if status != 200:
            raise RuntimeError(f"GET {path} answered {status}")
        return json.loads(data)

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


def _answer_ok(prepared: Prepared, request: Request, status, data: bytes) -> bool:
    if status != 200:
        return False
    try:
        result = json.loads(data)["result"]
    except (ValueError, KeyError, TypeError):
        return False
    expected = prepared.expected[(request.matrix, request.op)][request.slot]
    return products_match(result, expected)


@dataclass
class Tally:
    """What one client saw; merged across clients after the run."""

    latencies: dict[str, list[float]] = field(
        default_factory=lambda: {op: [] for op in OPS}
    )
    jobs: list[dict] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    vectors: int = 0

    def merge(self, other: Tally) -> None:
        for op in OPS:
            self.latencies[op] += other.latencies[op]
        self.jobs += other.jobs
        self.attempted += other.attempted
        self.failed += other.failed
        self.vectors += other.vectors


def _multiply_client(
    conn: Connection, prepared: Prepared, requests, stop: threading.Event
) -> Tally:
    tally = Tally()
    for request in requests:
        if stop.is_set():
            break
        body = prepared.bodies[(request.matrix, request.op)][request.slot]
        status, data, seconds = conn.call("POST", "/multiply", body)
        tally.attempted += 1
        if _answer_ok(prepared, request, status, data):
            tally.latencies[request.op].append(seconds)
            tally.vectors += prepared.spec.k
        else:
            tally.failed += 1
    return tally


def _run_job(conn: Connection, prepared: Prepared, body: bytes) -> dict | None:
    """Submit one PageRank job and poll it; the job record once it is
    correct and done, ``None`` on any failure or timeout."""
    start = perf_counter()
    status, data, _ = conn.call("POST", "/jobs", body)
    if status != 202:
        return None
    job_id = json.loads(data)["job"]["id"]
    while True:
        status, data, _ = conn.call("GET", f"/jobs/{job_id}")
        seen = perf_counter()
        if status != 200:
            return None
        record = json.loads(data)["job"]
        if record["status"] in ("done", "failed"):
            break
        if seen - start > JOB_TIMEOUT_S:
            return None
        time.sleep(POLL_INTERVAL_S)
    if record["status"] != "done" or not rank_matches(
        record["result"]["x"], prepared.pagerank
    ):
        return None
    return {
        "latency_s": seen - start,
        "queue_wait_s": record["started_at"] - record["submitted_at"],
        "run_s": record["seconds"],
    }


def _job_client(conn: Connection, prepared: Prepared) -> Tally:
    name = next(iter(prepared.matrices))
    body = json.dumps(
        {"algorithm": "pagerank", "matrix": name, "params": PAGERANK_PARAMS}
    ).encode()
    tally = Tally()
    for _ in range(prepared.n_jobs):
        tally.attempted += 1
        try:
            job = _run_job(conn, prepared, body)
        except (ValueError, KeyError, TypeError):
            job = None
        if job is None:
            tally.failed += 1
        else:
            tally.jobs.append(job)
            tally.vectors += 1
    return tally


@dataclass
class HttpResult:
    """The untraced client-view measurements of one run."""

    setup_s: list[float]
    tally: Tally
    wall_s: float
    cpu_s: float
    #: the job loop's share of ``wall_s`` and ``cpu_s``
    jobs_wall_s: float
    jobs_cpu_s: float
    rss_peak_mb: float
    #: ``/stats`` before the measured phase, after its job loop (the
    #: same as before when there is none) and at its end
    stats_before: dict
    stats_jobs: dict
    stats_after: dict


def _warm_up(conn: Connection, prepared: Prepared) -> None:
    """One correct request per matrix in the working set."""
    for name in prepared.matrices:
        request = Request(-1, name, "right", 0)
        body = prepared.bodies[(name, "right")][0]
        status, data, _ = conn.call("POST", "/multiply", body)
        if not _answer_ok(prepared, request, status, data):
            raise RuntimeError(f"set-up request for {name!r} failed ({status})")


def run_http(prepared: Prepared, src: Path, run_dir: Path) -> HttpResult:
    """Time set-up over several launches, then drive the last launch."""
    spec = prepared.spec
    setup: list[float] = []
    server = None
    conns: list[Connection] = []
    try:
        for _ in range(SETUP_LAUNCHES):
            if server is not None:
                server.stop()
            server = ServerProcess(
                src, prepared.store_root, prepared.budget_mb, run_dir / "server.log"
            )
            start = perf_counter()
            server.start()
            conn = Connection(server.host, server.port)
            try:
                _warm_up(conn, prepared)
            finally:
                conn.close()
            setup.append(perf_counter() - start)
        conns = [Connection(server.host, server.port) for _ in range(spec.clients)]
        stats_before = conns[0].get_json("/stats")
        cpu_before = server.cpu_seconds()
        shares = [prepared.requests[c :: spec.clients] for c in range(spec.clients)]
        start = perf_counter()
        tallies = [_job_client(conns[0], prepared)] if prepared.n_jobs else []
        jobs_wall = wall = perf_counter() - start
        jobs_cpu = server.cpu_seconds() - cpu_before
        stats_jobs = conns[0].get_json("/stats") if prepared.n_jobs else stats_before
        start = perf_counter()
        stop = threading.Event()
        with ThreadPoolExecutor(max_workers=len(conns)) as pool:
            futures = [
                pool.submit(_multiply_client, conn, prepared, share, stop)
                for conn, share in zip(conns, shares, strict=True)
            ]
            try:
                tallies += [f.result() for f in futures]
            finally:
                # On an error or a signal, the other clients end after
                # their current call, so the server is stopped promptly.
                stop.set()
        wall += perf_counter() - start
        cpu = server.cpu_seconds() - cpu_before
        stats_after = conns[0].get_json("/stats")
        rss = server.peak_rss_mb()
    finally:
        for conn in conns:
            conn.close()
        if server is not None:
            server.stop()
    tally = Tally()
    for t in tallies:
        tally.merge(t)
    return HttpResult(
        setup_s=setup,
        tally=tally,
        wall_s=wall,
        cpu_s=cpu,
        jobs_wall_s=jobs_wall,
        jobs_cpu_s=jobs_cpu,
        rss_peak_mb=rss,
        stats_before=stats_before,
        stats_jobs=stats_jobs,
        stats_after=stats_after,
    )
