"""Latency windows and per-matrix serving statistics."""

import threading

import pytest

from repro.errors import MatrixFormatError
from repro.serve.stats import LatencyWindow, ServeStats


class TestLatencyWindow:
    def test_percentiles_of_known_data(self):
        window = LatencyWindow(capacity=100)
        for ms in range(1, 101):  # 1..100 ms
            window.record(ms / 1000.0)
        # Nearest-rank on 1..100 ms: within one rank of the exact value.
        assert window.percentile(50) == pytest.approx(0.0505, abs=0.0006)
        assert window.percentile(99) == pytest.approx(0.099, abs=0.0011)
        snap = window.snapshot()
        assert snap["count"] == 100
        assert snap["p50_ms"] == pytest.approx(50.5, abs=0.6)
        assert snap["p90_ms"] == pytest.approx(90.0, abs=1.1)
        assert snap["p99_ms"] == pytest.approx(99.0, abs=1.1)

    def test_ring_ages_out_old_observations(self):
        window = LatencyWindow(capacity=4)
        for s in (1.0, 1.0, 1.0, 1.0, 0.1, 0.1, 0.1, 0.1):
            window.record(s)
        assert window.count == 8
        assert window.values().max() == pytest.approx(0.1)

    def test_empty_window(self):
        window = LatencyWindow()
        assert window.snapshot() == {"count": 0}
        assert window.percentile(50) != window.percentile(50)  # nan

    def test_invalid_capacity(self):
        with pytest.raises(MatrixFormatError):
            LatencyWindow(capacity=0)

    def test_concurrent_record_and_snapshot(self):
        """8 threads hammering one window: no lost counts, no torn reads.

        ``record`` writes the ring slot and advances the cursor while
        ``snapshot`` copies the ring — unsynchronised, the count drifts
        below 8×500 and the percentile math can see half-written state.
        """
        window = LatencyWindow(capacity=64)
        barrier = threading.Barrier(8)
        snapshots = []

        def hammer(worker: int):
            barrier.wait()
            for i in range(500):
                window.record((worker * 500 + i + 1) / 1e6)
                if i % 50 == 0:
                    snap = window.snapshot()
                    snapshots.append((snap["count"], snap.get("p50_ms")))

        threads = [
            threading.Thread(target=hammer, args=(w,)) for w in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert window.count == 8 * 500
        assert len(window.values()) == 64
        for count, p50 in snapshots:
            assert count >= 1
            if count:
                assert p50 is not None and p50 > 0


class TestMatrixStats:
    def test_errors_not_counted_in_latency(self):
        stats = ServeStats()
        stats.record("m", 0.010)
        stats.record("m", None, error=True)
        snap = stats.snapshot()["m"]
        assert snap["requests"] == 2
        assert snap["errors"] == 1
        assert snap["count"] == 1


class TestServeStats:
    def test_per_matrix_isolation(self):
        stats = ServeStats()
        stats.record("a", 0.001)
        stats.record("b", 0.002)
        stats.record("b", 0.004)
        snap = stats.snapshot()
        assert snap["a"]["requests"] == 1
        assert snap["b"]["requests"] == 2

    def test_concurrent_recording(self):
        stats = ServeStats()

        def hammer():
            for _ in range(200):
                stats.record("m", 0.001)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert stats.snapshot()["m"]["requests"] == 800
