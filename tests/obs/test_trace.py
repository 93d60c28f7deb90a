"""Unit tests for spans, ambient scopes, and the trace ring."""

from __future__ import annotations

import io
import json

from repro.obs.trace import (
    MAX_EVENTS_PER_SPAN,
    NULL_SPAN,
    Trace,
    TraceStore,
    add_event,
    current_span,
    current_trace,
    span,
    trace_scope,
)


class TestSpan:
    def test_attributes_and_events(self):
        trace = Trace(name="t")
        with trace_scope(trace), span("work", matrix="web") as sp:
            sp.set("hit", True).set("k", 3)
            sp.add_event("step", n=1)
        payload = trace.to_payload()["spans"][1]
        assert payload["name"] == "work"
        assert payload["attributes"] == {"matrix": "web", "hit": True, "k": 3}
        assert payload["events"][0]["name"] == "step"
        assert payload["events"][0]["n"] == 1
        assert payload["events"][0]["offset_ms"] >= 0
        assert payload["duration_ms"] >= 0

    def test_event_ring_caps_and_counts_drops(self):
        trace = Trace(name="t")
        with trace_scope(trace), span("loop") as sp:
            for k in range(MAX_EVENTS_PER_SPAN + 10):
                sp.add_event("iteration", k=k)
        payload = trace.to_payload()["spans"][1]
        assert len(payload["events"]) == MAX_EVENTS_PER_SPAN
        assert payload["events_dropped"] == 10

    def test_parent_links_form_a_tree(self):
        trace = Trace(name="request")
        with trace_scope(trace):
            with span("outer") as outer:
                with span("inner") as inner:
                    assert inner.parent_id == outer.span_id
            assert outer.parent_id == trace.root.span_id
        spans = trace.to_payload()["spans"]
        assert [s["name"] for s in spans] == ["request", "outer", "inner"]
        assert spans[0]["parent_id"] is None


class TestAmbientScope:
    def test_no_trace_yields_null_span(self):
        assert current_trace() is None
        assert current_span() is NULL_SPAN
        with span("anything") as sp:
            assert sp is NULL_SPAN
        add_event("dropped")  # must not raise

    def test_trace_scope_is_ambient_and_restores(self):
        trace = Trace(name="t")
        with trace_scope(trace):
            assert current_trace() is trace
            assert current_span() is trace.root
        assert current_trace() is None

    def test_none_scope_is_a_no_op(self):
        with trace_scope(None) as scoped:
            assert scoped is None
            assert current_trace() is None

    def test_nested_scopes_stack(self):
        outer, inner = Trace(name="outer"), Trace(name="inner")
        with trace_scope(outer):
            with trace_scope(inner):
                assert current_trace() is inner
                with span("work"):
                    pass
            assert current_trace() is outer
        assert "work" in inner.span_names()
        assert "work" not in outer.span_names()

    def test_span_closes_on_error(self):
        trace = Trace(name="t")
        try:
            with trace_scope(trace), span("failing") as sp:
                raise ValueError("boom")
        except ValueError:
            pass
        assert sp.duration is not None
        assert current_trace() is None


class TestTrace:
    def test_explicit_id_and_degraded_flag(self):
        trace = Trace(name="job", trace_id="abcd" * 4)
        assert trace.trace_id == "abcd" * 4
        payload = trace.to_payload()
        assert payload["trace_id"] == "abcd" * 4
        assert "degraded" not in payload

    def test_find_span(self):
        trace = Trace(name="t")
        with trace_scope(trace), span("child") as sp:
            pass
        assert trace.find_span(sp.span_id) is sp
        assert trace.find_span("missing") is None

    def test_finish_is_idempotent(self):
        trace = Trace(name="t")
        trace.finish()
        first = trace.duration
        trace.finish()
        assert trace.duration == first


class TestTraceStore:
    def test_record_and_fetch(self):
        store = TraceStore(limit=4)
        trace = Trace(name="t")
        store.record(trace)
        payload = store.payload(trace.trace_id)
        assert payload is not None
        assert payload["trace_id"] == trace.trace_id
        assert payload["duration_ms"] is not None
        assert store.payload("missing") is None

    def test_ring_evicts_oldest(self):
        store = TraceStore(limit=2)
        traces = [Trace(name=f"t{i}") for i in range(3)]
        for trace in traces:
            store.record(trace)
        assert len(store) == 2
        assert store.payload(traces[0].trace_id) is None
        assert store.ids() == [traces[1].trace_id, traces[2].trace_id]
        assert store.recorded == 3
        assert store.dropped == 1
        assert store.capacity == 2

    def test_jsonl_sink_receives_every_trace(self):
        sink = io.StringIO()
        store = TraceStore(limit=1, sink=sink)
        for i in range(2):
            store.record(Trace(name=f"t{i}"))
        lines = sink.getvalue().splitlines()
        assert len(lines) == 2  # the sink outlives the ring
        assert json.loads(lines[0])["name"] == "t0"

    def test_close_closes_the_sink_once(self):
        sink = io.StringIO()
        store = TraceStore(sink=sink)
        store.close()
        assert sink.closed
        store.close()  # idempotent
