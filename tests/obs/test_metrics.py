"""Unit tests for the metric primitives and the registry."""

from __future__ import annotations

import threading

import pytest

from repro.errors import ReproError
from repro.obs.export import render_prometheus
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        c = Counter()
        assert c.value == 0
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_negative_increment_rejected(self):
        with pytest.raises(ReproError, match=">= 0"):
            Counter().inc(-1)

    def test_concurrent_increments_do_not_lose_counts(self):
        c = Counter()
        barrier = threading.Barrier(8)

        def hammer():
            barrier.wait()
            for _ in range(1000):
                c.inc()

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 8000


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge()
        g.set(10)
        g.inc(2)
        g.dec(5)
        assert g.value == 7


class TestHistogram:
    def test_cumulative_buckets(self):
        h = Histogram(buckets=(0.01, 0.1, 1.0))
        for v in (0.005, 0.05, 0.5, 5.0):
            h.observe(v)
        rows = {(suffix, labels.get("le")): value for suffix, labels, value in h.samples()}
        assert rows[("_bucket", "0.01")] == 1
        assert rows[("_bucket", "0.1")] == 2
        assert rows[("_bucket", "1")] == 3
        assert rows[("_bucket", "+Inf")] == 4
        assert rows[("_count", None)] == 4
        assert rows[("_sum", None)] == pytest.approx(5.555)

    def test_exact_bound_lands_in_its_bucket(self):
        h = Histogram(buckets=(0.1, 1.0))
        h.observe(0.1)
        rows = {labels.get("le"): value for suffix, labels, value in h.samples() if suffix == "_bucket"}
        assert rows["0.1"] == 1

    def test_empty_buckets_rejected(self):
        with pytest.raises(ReproError, match="at least one bucket"):
            Histogram(buckets=())


class TestFamily:
    def test_labeled_children_are_cached(self):
        reg = MetricsRegistry()
        fam = reg.counter("hits_total", "hits", labels=("matrix",))
        a = fam.labels(matrix="web")
        b = fam.labels(matrix="web")
        assert a is b
        a.inc()
        assert fam.labels(matrix="web").value == 1
        assert fam.labels(matrix="other").value == 0

    def test_wrong_label_names_rejected(self):
        reg = MetricsRegistry()
        fam = reg.counter("hits_total", "hits", labels=("matrix",))
        with pytest.raises(ReproError, match="takes labels"):
            fam.labels(shard="0")

    def test_unlabeled_family_proxies_child_api(self):
        reg = MetricsRegistry()
        c = reg.counter("loads_total", "loads")
        c.inc(3)
        assert c.value == 3
        g = reg.gauge("resident", "resident")
        g.set(4)
        assert g.value == 4
        h = reg.histogram("latency_seconds", "latency", buckets=(1.0,))
        h.observe(0.5)
        assert [v for s, _, v in h.collect() if s == "_count"] == [1]

    def test_labeled_family_rejects_direct_use(self):
        reg = MetricsRegistry()
        fam = reg.counter("hits_total", "hits", labels=("matrix",))
        with pytest.raises(ReproError, match="call .labels"):
            fam.inc()

    def test_invalid_names_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ReproError, match="invalid metric name"):
            reg.counter("bad-name", "nope")
        with pytest.raises(ReproError, match="invalid label name"):
            reg.counter("ok_name", "ok", labels=("bad-label",))


class TestMetricsRegistry:
    def test_reregistration_is_idempotent(self):
        reg = MetricsRegistry()
        a = reg.counter("loads_total", "loads")
        b = reg.counter("loads_total", "loads")
        assert a is b

    def test_type_mismatch_is_an_error(self):
        reg = MetricsRegistry()
        reg.counter("loads_total", "loads")
        with pytest.raises(ReproError, match="already registered"):
            reg.gauge("loads_total", "loads")

    def test_label_mismatch_is_an_error(self):
        reg = MetricsRegistry()
        reg.counter("loads_total", "loads", labels=("matrix",))
        with pytest.raises(ReproError, match="already registered"):
            reg.counter("loads_total", "loads", labels=("shard",))

    def test_collectors_run_at_scrape_time(self):
        reg = MetricsRegistry()
        gauge = reg.gauge("resident", "resident")
        state = {"value": 0}
        reg.register_collector(lambda: gauge.set(state["value"]))
        state["value"] = 9
        families = reg.families()
        assert gauge.value == 9
        assert [f.name for f in families] == ["resident"]

    def test_families_sorted_by_name(self):
        reg = MetricsRegistry()
        reg.counter("zz_total", "z")
        reg.counter("aa_total", "a")
        assert [f.name for f in reg.families()] == ["aa_total", "zz_total"]


class TestPrometheusRendering:
    def test_exposition_format(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_hits_total", 'hits with "quotes" and \\ slash', labels=("matrix",))
        c.labels(matrix='we"b\n').inc(2)
        reg.gauge("repro_resident", "resident").set(3)
        h = reg.histogram("repro_seconds", "latency", buckets=(0.1, 1.0))
        h.observe(0.05)
        text = render_prometheus(reg)
        lines = text.splitlines()
        assert "# HELP repro_hits_total hits with \"quotes\" and \\\\ slash" in lines
        assert "# TYPE repro_hits_total counter" in lines
        assert 'repro_hits_total{matrix="we\\"b\\n"} 2' in lines
        assert "repro_resident 3" in lines
        assert "# TYPE repro_seconds histogram" in lines
        assert 'repro_seconds_bucket{le="0.1"} 1' in lines
        assert 'repro_seconds_bucket{le="+Inf"} 1' in lines
        assert "repro_seconds_count 1" in lines
        assert text.endswith("\n")

    def test_integer_values_render_without_decimal(self):
        reg = MetricsRegistry()
        reg.counter("repro_hits_total", "hits").inc(2)
        text = render_prometheus(reg)
        assert "repro_hits_total 2\n" in text
        assert "2.0" not in text
