"""Trace-context carriage across executor hops.

Pool workers receive the live trace object, so worker spans join the
submitting request's tree as children of the submitting span.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.blocked import BlockedMatrix
from repro.obs.trace import (
    Trace,
    activate_context,
    capture_context,
    current_trace,
    span,
    trace_scope,
)
from repro.serve.executor import BlockExecutor, _call_in_context
from tests.conftest import make_structured


class TestCaptureContext:
    def test_untraced_capture_is_none(self):
        assert capture_context() is None

    def test_capture_snapshots_innermost_span(self):
        trace = Trace(name="t")
        with trace_scope(trace), span("submitting") as sp:
            ctx = capture_context()
        assert ctx.trace_id == trace.trace_id
        assert ctx.span_id == sp.span_id
        assert ctx.trace is trace


class TestActivateContext:
    def test_none_context_stays_untraced(self):
        with activate_context(None) as scoped:
            assert scoped is None
            assert current_trace() is None

    def test_live_context_attaches_to_the_original_trace(self):
        trace = Trace(name="t")
        with trace_scope(trace), span("submitting") as sp:
            ctx = capture_context()

        def worker():
            with activate_context(ctx):
                assert current_trace() is trace
                with span("worker.task"):
                    pass

        with ThreadPoolExecutor(max_workers=1) as pool:
            pool.submit(worker).result()
        names = trace.span_names()
        assert "worker.task" in names
        worker_span = next(
            s
            for s in trace.to_payload()["spans"]
            if s["name"] == "worker.task"
        )
        assert worker_span["parent_id"] == sp.span_id

    def test_call_in_context_shim_runs_fn_under_the_scope(self):
        trace = Trace(name="t")
        with trace_scope(trace):
            ctx = capture_context()
        result = _call_in_context(ctx, lambda v: (current_trace(), v), 7)
        assert result == (trace, 7)
        assert _call_in_context(None, lambda: current_trace()) is None


@pytest.fixture
def blocked(rng):
    dense = make_structured(rng, n=48, m=10)
    return BlockedMatrix.compress(dense, variant="re_32", n_blocks=3), dense


class TestExecutorCarriage:
    def test_thread_pool_blocks_join_the_request_trace(self, blocked):
        matrix, dense = blocked
        trace = Trace(name="POST /multiply")
        with BlockExecutor(workers=3) as executor:
            with trace_scope(trace):
                results = executor.map_blocks(
                    lambda b, i: _traced_block(b, i), matrix.blocks
                )
        assert [i for i, _ in results] == [0, 1, 2]
        assert all(t is trace for _, t in results)
        assert trace.span_names().count("block") == 3

    def test_untraced_thread_pool_stays_untraced(self, blocked):
        matrix, _ = blocked
        with BlockExecutor(workers=3) as executor:
            results = executor.map_blocks(
                lambda b, i: current_trace(), matrix.blocks
            )
        assert results == [None, None, None]


def _traced_block(block, i: int):
    with span("block", i=i):
        return i, current_trace()
