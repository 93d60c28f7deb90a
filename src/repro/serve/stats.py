"""Per-matrix serving statistics: request counters and latency percentiles.

The serving layer answers many small multiplication requests, so the
interesting numbers are distributional — how many requests each matrix
saw, how many failed, and the latency percentiles (p50/p90/p99) of the
successful ones.  :class:`LatencyWindow` keeps a fixed-size ring of the
most recent latencies (old requests age out, so the percentiles track
current behaviour, not the whole process lifetime);
:class:`ServeStats` maps matrix names to windows behind one lock.

Everything here is stdlib + numpy and thread-safe: the HTTP server
records into the same :class:`ServeStats` from every request thread,
and :class:`LatencyWindow` carries its *own* lock because it is also
used outside ``ServeStats`` — :class:`repro.solve.driver.SolveTrace`
records into one from job worker threads directly.

The request and error counts are the ``repro_serve_requests_total`` /
``repro_serve_errors_total`` children of a
:class:`~repro.obs.metrics.MetricsRegistry` (the server's shared one,
so ``GET /metrics`` exposes them), and ``/stats`` reads them back: the
two endpoints cannot disagree.
"""

from __future__ import annotations

import threading
from typing import Any

import numpy as np

from repro.errors import MatrixFormatError
from repro.obs.metrics import MetricsRegistry

#: Default ring capacity — enough for stable p99 estimates while
#: keeping the per-matrix footprint at a few KiB.
DEFAULT_WINDOW = 1024

#: Percentiles reported by :meth:`LatencyWindow.snapshot`.
REPORTED_PERCENTILES = (50.0, 90.0, 99.0)


class LatencyWindow:
    """A ring buffer of recent request latencies with percentile queries.

    Internally thread-safe: ``record`` and the read methods share one
    lock, so concurrent recorders (job workers driving a
    :class:`repro.solve.driver.SolveTrace`) can never interleave the
    ring-write/advance/count triple and corrupt the window.
    """

    def __init__(self, capacity: int = DEFAULT_WINDOW) -> None:
        if capacity < 1:
            raise MatrixFormatError(f"capacity must be >= 1, got {capacity}")
        self._lock = threading.Lock()
        self._ring = np.zeros(capacity, dtype=np.float64)
        self._next = 0
        self._count = 0

    def record(self, seconds: float) -> None:
        """Append one latency observation (overwrites the oldest)."""
        value = float(seconds)
        with self._lock:
            self._ring[self._next] = value
            self._next = (self._next + 1) % self._ring.size
            self._count += 1

    @property
    def count(self) -> int:
        """Total observations recorded (including aged-out ones)."""
        with self._lock:
            return self._count

    def values(self) -> np.ndarray:
        """The retained observations (unordered), newest window only."""
        with self._lock:
            retained = min(self._count, self._ring.size)
            return self._ring[:retained].copy()

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile of the retained window (``nan`` if empty)."""
        vals = self.values()
        if not vals.size:
            return float("nan")
        return float(np.percentile(vals, q, method="nearest"))

    def snapshot(self) -> dict[str, float]:
        """Summary dict: count, mean and the reported percentiles (ms)."""
        with self._lock:
            count = self._count
            vals = self._ring[: min(count, self._ring.size)].copy()
        # Annotated explicitly: the literal would infer dict[str, int]
        # from the count and reject the float percentile entries below.
        out: dict[str, float] = {"count": count}
        if vals.size:
            out["mean_ms"] = float(vals.mean()) * 1000.0
            for q in REPORTED_PERCENTILES:
                out[f"p{int(q)}_ms"] = (
                    float(np.percentile(vals, q, method="nearest")) * 1000.0
                )
        return out


class ServeStats:
    """Thread-safe per-matrix statistics for the serving engine.

    Each recorded request counts in its matrix's
    ``repro_serve_requests_total`` child (and, when it failed, in
    ``repro_serve_errors_total``) of ``metrics``: the server's shared
    :class:`~repro.obs.metrics.MetricsRegistry`, or a private one when
    ``None``.  A successful request's latency goes to the
    ``repro_serve_request_seconds`` histogram and to the matrix's
    :class:`LatencyWindow`, which the ``/stats`` percentiles read.
    """

    def __init__(self, metrics: MetricsRegistry | None = None) -> None:
        m = metrics if metrics is not None else MetricsRegistry()
        self._requests = m.counter(
            "repro_serve_requests_total",
            "Multiply requests answered, by matrix.",
            labels=("matrix",),
        )
        self._errors = m.counter(
            "repro_serve_errors_total",
            "Multiply requests failed, by matrix.",
            labels=("matrix",),
        )
        self._seconds = m.histogram(
            "repro_serve_request_seconds",
            "Multiply request latency in seconds, by matrix.",
            labels=("matrix",),
        )
        self._lock = threading.Lock()
        #: matrix name → its requests and errors children and window.
        self._per_matrix: dict[str, tuple[Any, Any, LatencyWindow]] = {}

    def record(self, name: str, seconds: float | None, error: bool = False) -> None:
        """Record one request against matrix ``name``."""
        with self._lock:
            entry = self._per_matrix.get(name)
            if entry is None:
                entry = self._per_matrix[name] = (
                    self._requests.labels(matrix=name),
                    self._errors.labels(matrix=name),
                    LatencyWindow(),
                )
        requests, errors, window = entry
        requests.inc()
        if error:
            errors.inc()
        elif seconds is not None:
            window.record(seconds)
            self._seconds.labels(matrix=name).observe(seconds)

    def snapshot(self) -> dict[str, dict[str, float]]:
        """``{matrix name: summary dict}`` for every matrix seen so far."""
        with self._lock:
            per_matrix = list(self._per_matrix.items())
        out: dict[str, dict[str, float]] = {}
        for name, (requests, errors, window) in per_matrix:
            summary: dict[str, float] = {
                "requests": int(requests.value),
                "errors": int(errors.value),
            }
            summary.update(window.snapshot())
            out[name] = summary
        return out
