"""The traced run: the same seeded sequence replayed in-process.

A single thread opens the store the way ``repro serve --store --mmap``
does, builds the server's own :class:`~repro.serve.server.MatrixServer`
over it (with the CLI's defaults; its HTTP listener stays idle), and
answers every request with the server's code while the benchmark's
:class:`~servebench.spans.Tracer` times each layer call:

- per ``/multiply`` request: ``server.decode`` (``json.loads`` of the
  body, as the HTTP handler does), then ``MatrixServer.multiply``
  under a server request trace, as the handler runs it, with its calls
  to ``registry.get``, ``server.panel``
  (``MatrixServer._request_panel``), ``batch.kernel``
  (``batch_right_multiply`` / ``batch_left_multiply``) and
  ``registry.budget`` (``enforce_budget``) each wrapped in a span, then
  ``server.encode`` (``json.dumps`` of the reply it returned);
- per PageRank job, as the job worker runs it: ``registry.get``,
  ``solve`` with one ``solve.iteration`` child per iteration after the
  first (timed between the solver's callbacks), ``server.encode`` and
  ``registry.budget``;
- per cold pass over the working set: ``io.load``
  (``load_matrix(path, mmap=True)``), ``shard.load``
  (``loads_section_mmap`` on each ``read_shard_manifest`` section),
  ``core.decode`` (``decode_grammar``) and ``core.plan_build``
  (``MvmPlan.from_grammar``) for every matrix or shard;
- ``store.open`` (``MatrixRegistry(store=…, mmap=True)``).

The wrappers live only in this process and only while the replay runs;
nothing under ``src/`` is changed.  Every job and request of the
prefix also runs once without spans, next to its traced run; the
difference is ``trace.overhead_pct``.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from itertools import pairwise
from statistics import median
from time import perf_counter

from servebench.spans import NoSpans, Tracer
from servebench.workloads import (
    PAGERANK_PARAMS,
    Prepared,
    Request,
    products_match,
    rank_matches,
)

#: Registry opens and cold passes over the working set per traced run.
COLD_REPEATS = 3


@dataclass
class Replay:
    """Spans and counters of one traced replay."""

    tracer: Tracer
    attempted: int = 0
    failed: int = 0
    #: request index → (op, matrix, request bytes, reply bytes)
    requests: dict[int, tuple[str, str, int, int]] = field(default_factory=dict)
    #: solver iterations of every replayed job
    iterations: list[int] = field(default_factory=list)
    plan_bytes: list[int] = field(default_factory=list)
    overhead_pct: float = 0.0


def _open_registry(prepared: Prepared):
    from repro.serve.registry import MatrixRegistry
    from repro.store import MatrixStore

    budget = (
        int(prepared.budget_mb * 1024 * 1024)
        if prepared.budget_mb is not None
        else None
    )
    return MatrixRegistry(
        byte_budget=budget,
        store=MatrixStore(prepared.store_root, create=False),
        mmap=True,
    )


class _Seams:
    """Wraps layer calls in spans of whichever recorder ``spans`` holds:
    the tracer, or :class:`NoSpans` for the untraced half of a pair."""

    def __init__(self) -> None:
        self.spans: Tracer | NoSpans = NoSpans()

    def wrap(self, name: str, fn):
        def call(*args, **kwargs):
            with self.spans.span(name):
                return fn(*args, **kwargs)

        return call


@contextmanager
def _traced_server(registry, seams: _Seams):
    """The server over ``registry``, its layer calls wrapped by ``seams``."""
    import repro.serve.server as server_module

    kernels = {
        name: getattr(server_module, name)
        for name in ("batch_right_multiply", "batch_left_multiply")
    }
    server = server_module.MatrixServer(registry, port=0).start()
    try:
        for name, fn in kernels.items():
            setattr(server_module, name, seams.wrap("batch.kernel", fn))
        registry.get = seams.wrap("registry.get", registry.get)
        registry.enforce_budget = seams.wrap(
            "registry.budget", registry.enforce_budget
        )
        server._request_panel = seams.wrap("server.panel", server._request_panel)
        yield server
    finally:
        for name, fn in kernels.items():
            setattr(server_module, name, fn)
        server.close()


def _multiply(server, seams: _Seams, prepared: Prepared, request: Request):
    """One ``/multiply`` as the HTTP handler runs it; ``(ok, in, out)``."""
    from repro.obs.trace import Trace, trace_scope

    spans = seams.spans
    body = prepared.bodies[(request.matrix, request.op)][request.slot]
    with spans.span("request", request=request.index, op=request.op):
        with spans.span("server.decode"):
            payload = json.loads(body)
        with trace_scope(Trace(name="POST /multiply")):
            reply = server.multiply(payload)
        with spans.span("server.encode"):
            data = json.dumps(reply).encode()
    expected = prepared.expected[(request.matrix, request.op)][request.slot]
    return products_match(reply["result"], expected), len(body), len(data)


def _job(server, seams: _Seams, prepared: Prepared, index: int):
    """One PageRank job as the job worker runs it; ``(ok, iterations)``."""
    import repro

    spans = seams.spans
    registry = server.registry
    name = next(iter(prepared.matrices))
    with spans.span("job", request=f"job-{index}"):
        matrix = registry.get(name)
        marks: list[float] = []
        with spans.span("solve"):
            result = repro.solve(
                matrix,
                algorithm="pagerank",
                retain_plans=registry.retain_plans,
                callback=lambda _k, _r: marks.append(perf_counter()),
                **PAGERANK_PARAMS,
            )
            for start, end in pairwise(marks):
                spans.add("solve.iteration", start, end)
        with spans.span("server.encode"):
            json.dumps(result.to_payload())
        registry.enforce_budget(keep=name)
    return rank_matches(result.x, prepared.pagerank), result.iterations


def _cold_pass(prepared: Prepared, index: int, tracer: Tracer) -> int:
    """Load, decode and plan every matrix (or shard) once; plan bytes."""
    from repro.core.multiply import MvmPlan
    from repro.io.mmap_io import loads_section_mmap, map_view
    from repro.io.serialize import load_matrix, read_shard_manifest

    plan_bytes = 0
    for name, stored in prepared.matrices.items():
        with tracer.span("cold", request=f"cold-{index}", matrix=name):
            with tracer.span("io.load"):
                units = [load_matrix(stored.path, mmap=True)]
            if stored.spec.shards:
                _shape, manifest = read_shard_manifest(stored.path)
                view = map_view(stored.path)
                units = []
                for entry in manifest:
                    with tracer.span("shard.load", shard=entry.index):
                        section = view[entry.offset : entry.offset + entry.length]
                        units.append(loads_section_mmap(section))
            for unit in units:
                with tracer.span("core.decode"):
                    grammar = unit.decode_grammar()
                with tracer.span("core.plan_build"):
                    plan = MvmPlan.from_grammar(grammar, unit.shape[1])
                plan_bytes += plan.nbytes
    return plan_bytes


def _paired(call, seams: _Seams, tracer: Tracer, first: bool):
    """``call()`` once without and once with the spans, in that order when
    ``first`` and in the other order otherwise (so neither side always
    runs on caches the other warmed); ``(untraced s, traced s, result)``."""
    runs = {}
    for spans in (NoSpans(), tracer) if first else (tracer, NoSpans()):
        seams.spans = spans
        start = perf_counter()
        result = call()
        runs[spans is tracer] = (perf_counter() - start, result)
    return runs[False][0], runs[True][0], runs[True][1]


def replay(prepared: Prepared) -> Replay:
    """Run the traced replay; the tracer also keeps the ingest spans.

    Each job and request of the prefix also runs once without the spans,
    next to its traced run; ``trace.overhead_pct`` is the median paired
    difference over the median untraced time.
    """
    spec = prepared.spec
    tracer = prepared.tracer
    out = Replay(tracer=tracer)
    for _ in range(COLD_REPEATS):
        with tracer.span("store.open", request="store"):
            registry = _open_registry(prepared)
    for index in range(COLD_REPEATS):
        out.plan_bytes.append(_cold_pass(prepared, index, tracer))
    seams = _Seams()
    pairs = []
    with _traced_server(registry, seams) as server:
        for name in prepared.matrices:  # warm, as the server is after set-up
            _multiply(server, seams, prepared, Request(-1, name, "right", 0))
        for index in range(min(spec.replay_jobs, prepared.n_jobs)):
            untraced, traced, (ok, iterations) = _paired(
                partial(_job, server, seams, prepared, index),
                seams, tracer, index % 2 == 0,
            )
            pairs.append((untraced, traced))
            out.attempted += 1
            out.failed += not ok
            out.iterations.append(iterations)
        for request in prepared.requests[: spec.replay_requests]:
            untraced, traced, (ok, sent, received) = _paired(
                partial(_multiply, server, seams, prepared, request),
                seams, tracer, request.index % 2 == 0,
            )
            pairs.append((untraced, traced))
            out.attempted += 1
            out.failed += not ok
            out.requests[request.index] = (request.op, request.matrix, sent, received)
    out.overhead_pct = 100.0 * (
        median(t - u for u, t in pairs) / median(u for u, _ in pairs)
    )
    return out
