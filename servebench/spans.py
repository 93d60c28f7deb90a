"""The benchmark's own span recorder.

Spans are recorded by the benchmark around its calls into each layer;
nothing is added under ``src/``.  A span keeps its name, start, end,
parent span and request id; spans stay in memory and are written as
JSON lines when the run ends.
"""

from __future__ import annotations

import contextlib
import json
from pathlib import Path
from time import perf_counter


class Span:
    """One timed interval; use as a context manager from :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "id", "name", "request", "parent", "attrs", "start", "end")

    def __init__(self, tracer: Tracer, name: str, request, attrs: dict):
        self._tracer = tracer
        self.name = name
        self.request = request
        self.attrs = attrs
        self.id = 0
        self.parent = None
        self.start = self.end = 0.0

    def __enter__(self) -> Span:
        tracer = self._tracer
        stack = tracer._stack
        if stack:
            self.parent = stack[-1].id
            if self.request is None:
                self.request = stack[-1].request
        tracer._next_id += 1
        self.id = tracer._next_id
        stack.append(self)
        self.start = perf_counter()
        return self

    def __exit__(self, *_exc) -> None:
        self.end = perf_counter()
        self._tracer._stack.pop()
        self._tracer.spans.append(self)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "parent": self.parent,
            "request": self.request,
            "start": self.start,
            "end": self.end,
            **self.attrs,
        }


class Tracer:
    """An in-memory span list for one single-threaded run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._next_id = 0

    def span(self, name: str, request=None, **attrs) -> Span:
        """A span named ``name``; ``request`` defaults to the parent's."""
        return Span(self, name, request, attrs)

    def add(self, name: str, start: float, end: float, **attrs) -> None:
        """Record an interval timed elsewhere as a child of the open span."""
        sp = Span(self, name, None, attrs)
        with sp:
            pass
        sp.start, sp.end = start, end

    def durations(self, name: str) -> list[float]:
        """Seconds of every recorded span called ``name``."""
        return [s.seconds for s in self.spans if s.name == name]

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for sp in sorted(self.spans, key=lambda s: s.id):
                fh.write(json.dumps(sp.to_dict()) + "\n")


class NoSpans:
    """The untraced stand-in: the same calls, and nothing recorded."""

    _NULL = contextlib.nullcontext()

    def span(self, name: str, request=None, **attrs):
        return self._NULL

    def add(self, name: str, start: float, end: float, **attrs) -> None:
        pass
