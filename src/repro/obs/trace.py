"""Request-scoped tracing: spans, thread-local scopes, context carriage.

One HTTP request (or one background job) owns one :class:`Trace`; the
instrumented seams it crosses — registry lookup, shard load, batched
kernel, solver iterations — each open a :class:`Span` under the
ambient trace.  The ambient trace rides a plain thread-local stack
through :func:`trace_scope`, the exact shape of
:func:`repro.resilience.policy.deadline_scope`, so a shard load five
frames below ``/multiply`` attaches its span without any signature
growing a ``trace=`` parameter.

Crossing an executor needs explicit carriage because pool workers run
on other threads:

- :func:`capture_context` snapshots the ambient ``(trace, span)`` into
  a :class:`TraceContext`;
- :func:`activate_context` re-establishes it in the worker, so the
  worker's spans attach to the submitting request's trace as children
  of the submitting span.

When no trace is active every instrumentation point costs one shared
no-op span — the warm-path overhead the ``obs_overhead`` bench gate
keeps under 5%.
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
import time
from collections import OrderedDict
from collections.abc import Iterator
from typing import Any, TextIO

#: Events retained per span; later events increment ``events_dropped``
#: instead of growing without bound (a 10k-iteration solve must not
#: hold 10k event dicts per span).
MAX_EVENTS_PER_SPAN = 128

#: Finished traces retained by a :class:`TraceStore`.
DEFAULT_TRACE_RING = 256


def new_trace_id() -> str:
    """A 16-hex-digit random trace id."""
    return os.urandom(8).hex()


def _new_span_id() -> str:
    return os.urandom(4).hex()


class Span:
    """One timed operation inside a trace.

    Spans are mutated only by the thread that opened them (attributes,
    events, closing); the owning trace serialises the cross-thread
    parts (span registration) behind its own lock.
    """

    __slots__ = (
        "name",
        "span_id",
        "parent_id",
        "attributes",
        "events",
        "events_dropped",
        "start_offset",
        "duration",
        "_t0",
    )

    def __init__(self, name: str, parent_id: str | None, start_offset: float):
        self.name = name
        self.span_id = _new_span_id()
        self.parent_id = parent_id
        self.attributes: dict[str, Any] = {}
        self.events: list[dict[str, Any]] = []
        self.events_dropped = 0
        self.start_offset = start_offset
        self.duration: float | None = None
        self._t0 = time.perf_counter()

    def set(self, key: str, value: Any) -> Span:
        """Attach one attribute (chainable)."""
        self.attributes[key] = value
        return self

    def add_event(self, name: str, **attrs: Any) -> None:
        """Record a timed point event inside the span (ring-capped)."""
        if len(self.events) >= MAX_EVENTS_PER_SPAN:
            self.events_dropped += 1
            return
        event: dict[str, Any] = {
            "name": name,
            "offset_ms": (time.perf_counter() - self._t0) * 1000.0,
        }
        if attrs:
            event.update(attrs)
        self.events.append(event)

    def close(self) -> None:
        if self.duration is None:
            self.duration = time.perf_counter() - self._t0

    def to_payload(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_ms": self.start_offset * 1000.0,
            "duration_ms": (
                None if self.duration is None else self.duration * 1000.0
            ),
        }
        if self.attributes:
            out["attributes"] = dict(self.attributes)
        if self.events:
            out["events"] = list(self.events)
        if self.events_dropped:
            out["events_dropped"] = self.events_dropped
        return out


class _NullSpan:
    """The shared no-op span active when no trace is in scope."""

    __slots__ = ()

    def set(self, _key: str, _value: Any) -> _NullSpan:
        return self

    def add_event(self, _name: str, **_attrs: Any) -> None:
        pass


NULL_SPAN = _NullSpan()


class Trace:
    """One request's (or job's) span tree.

    ``trace_id`` may be supplied to continue an id minted elsewhere (a
    job carrying its submission's id onto its worker).
    """

    def __init__(self, name: str = "request", trace_id: str | None = None) -> None:
        self.trace_id = trace_id or new_trace_id()
        self.name = name
        self.started_at = time.time()
        self._t0 = time.perf_counter()
        self._lock = threading.Lock()
        self._spans: list[Span] = []
        self.root = self.start_span(name, parent_id=None)

    def start_span(self, name: str, parent_id: str | None) -> Span:
        span_obj = Span(
            name, parent_id, start_offset=time.perf_counter() - self._t0
        )
        with self._lock:
            self._spans.append(span_obj)
        return span_obj

    def finish(self) -> None:
        """Close the root span (idempotent)."""
        self.root.close()

    @property
    def duration(self) -> float | None:
        return self.root.duration

    def span_names(self) -> list[str]:
        with self._lock:
            return [s.name for s in self._spans]

    def find_span(self, span_id: str) -> Span | None:
        with self._lock:
            for span_obj in reversed(self._spans):
                if span_obj.span_id == span_id:
                    return span_obj
        return None

    def to_payload(self) -> dict[str, Any]:
        with self._lock:
            spans = list(self._spans)
        return {
            "trace_id": self.trace_id,
            "name": self.name,
            "started_at": self.started_at,
            "duration_ms": (
                None if self.duration is None else self.duration * 1000.0
            ),
            "spans": [s.to_payload() for s in spans],
        }


# -- ambient scope (thread-local, like resilience.policy._DEADLINES) ------------------

_SCOPES = threading.local()


def _stack() -> list[tuple[Trace, Span]]:
    stack = getattr(_SCOPES, "stack", None)
    if stack is None:
        stack = _SCOPES.stack = []
    return stack


def current_trace() -> Trace | None:
    """The innermost active trace on this thread, if any."""
    stack = getattr(_SCOPES, "stack", None)
    return stack[-1][0] if stack else None


def current_span() -> Span | _NullSpan:
    """The innermost open span (the shared no-op span without a trace)."""
    stack = getattr(_SCOPES, "stack", None)
    return stack[-1][1] if stack else NULL_SPAN


def add_event(name: str, **attrs: Any) -> None:
    """Record an event on the current span (no-op without a trace)."""
    current_span().add_event(name, **attrs)


@contextlib.contextmanager
def trace_scope(trace: Trace | None) -> Iterator[Trace | None]:
    """Make ``trace`` (and its root span) ambient for the enclosed work.

    ``None`` scopes "no trace" so callers can pass optionals through.
    """
    if trace is None:
        yield None
        return
    stack = _stack()
    stack.append((trace, trace.root))
    try:
        yield trace
    finally:
        stack.pop()


class _SpanScope:
    """The context manager behind :func:`span`.

    A slotted class rather than a ``@contextmanager`` generator: the
    generator machinery alone costs ~2.5us per entry, which the
    ``obs_overhead`` bench gate (< 5 % on a ~50us warm multiply) cannot
    afford on the no-trace fast path.
    """

    __slots__ = ("_name", "_attrs", "_child", "_stack")

    def __init__(self, name: str, attrs: dict[str, Any]) -> None:
        self._name = name
        self._attrs = attrs
        self._child: Span | None = None
        self._stack: list[tuple[Trace, Span]] | None = None

    def __enter__(self) -> Span | _NullSpan:
        stack = getattr(_SCOPES, "stack", None)
        if not stack:
            return NULL_SPAN
        trace, parent = stack[-1]
        child = trace.start_span(self._name, parent_id=parent.span_id)
        if self._attrs:
            child.attributes.update(self._attrs)
        stack.append((trace, child))
        self._child = child
        self._stack = stack
        return child

    def __exit__(self, *exc_info: object) -> None:
        if self._child is not None and self._stack is not None:
            self._stack.pop()
            self._child.close()


class _NullScope:
    """Shared scope for the no-trace fast path: enter to the no-op span."""

    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return NULL_SPAN

    def __exit__(self, *exc_info: object) -> None:
        return None


_NULL_SCOPE = _NullScope()


def span(name: str, **attrs: Any) -> _SpanScope | _NullScope:
    """Open a child span under the ambient trace.

    Without an active trace this returns the shared no-op scope —
    no allocation at all, so instrumentation points stay on the warm
    path at near-zero cost (gated < 5 % by the ``obs_overhead`` bench).
    """
    if not getattr(_SCOPES, "stack", None):
        return _NULL_SCOPE
    return _SpanScope(name, attrs)


# -- carriage across executors -------------------------------------------------------


class TraceContext:
    """A snapshot of the ambient ``(trace, span)`` for an executor hop."""

    __slots__ = ("trace_id", "span_id", "trace")

    def __init__(self, trace_id: str, span_id: str, trace: Trace) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.trace = trace


def capture_context() -> TraceContext | None:
    """Snapshot the ambient trace for an executor hop (``None`` = untraced)."""
    stack = getattr(_SCOPES, "stack", None)
    if not stack:
        return None
    trace, span_obj = stack[-1]
    return TraceContext(trace.trace_id, span_obj.span_id, trace)


@contextlib.contextmanager
def activate_context(ctx: TraceContext | None) -> Iterator[Trace | None]:
    """Re-establish a captured context on a worker thread.

    The worker's spans join the original trace as children of the
    submitting span.
    """
    if ctx is None:
        yield None
        return
    trace = ctx.trace
    stack = _stack()
    stack.append((trace, trace.find_span(ctx.span_id) or trace.root))
    try:
        yield trace
    finally:
        stack.pop()


# -- retention and export sinks ------------------------------------------------------


class TraceStore:
    """A bounded ring of recently finished traces, keyed by id.

    ``GET /trace/<id>`` answers from here; the optional JSONL sink
    (``repro serve --trace-log``) appends every recorded trace as one
    line so long-lived servers keep an on-disk record beyond the ring.
    """

    def __init__(
        self, limit: int = DEFAULT_TRACE_RING, sink: TextIO | None = None
    ) -> None:
        self._limit = max(1, int(limit))
        self._lock = threading.Lock()
        self._traces: OrderedDict[str, dict[str, Any]] = OrderedDict()
        self._sink = sink
        self.recorded = 0
        self.dropped = 0

    def record(self, trace: Trace) -> None:
        """Finish and retain one trace (oldest evicted beyond the ring)."""
        trace.finish()
        payload = trace.to_payload()
        with self._lock:
            self.recorded += 1
            self._traces[trace.trace_id] = payload
            self._traces.move_to_end(trace.trace_id)
            while len(self._traces) > self._limit:
                self._traces.popitem(last=False)
                self.dropped += 1
            sink = self._sink
            if sink is not None:
                sink.write(json.dumps(payload) + "\n")
                sink.flush()

    @property
    def capacity(self) -> int:
        """Most traces retained at once (the ring bound)."""
        return self._limit

    def payload(self, trace_id: str) -> dict[str, Any] | None:
        with self._lock:
            return self._traces.get(trace_id)

    def ids(self) -> list[str]:
        """Retained trace ids, oldest first."""
        with self._lock:
            return list(self._traces)

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)

    def close(self) -> None:
        with self._lock:
            sink, self._sink = self._sink, None
        if sink is not None:
            sink.close()
