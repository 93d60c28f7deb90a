"""Registry: lazy loading, LRU eviction, and round-trips through it."""

import numpy as np
import pytest

from repro.core.blocked import BlockedMatrix
from repro.core.csrv import CSRVMatrix
from repro.core.gcm import VARIANTS, GrammarCompressedMatrix
from repro.errors import ReproError, SerializationError
from repro.io.serialize import save_matrix
from repro.serve.registry import MatrixRegistry, resident_estimate
from tests.conftest import make_structured


@pytest.fixture
def store(tmp_path, rng):
    """Three matrices of distinct shapes saved as .gcmx files."""
    matrices = {}
    for i, name in enumerate(("alpha", "beta", "gamma")):
        dense = make_structured(rng, n=40 + 10 * i, m=8)
        save_matrix(
            GrammarCompressedMatrix.compress(dense, variant="re_32"),
            tmp_path / f"{name}.gcmx",
        )
        matrices[name] = dense
    return tmp_path, matrices


class TestRegistration:
    def test_scan_registers_by_stem(self, store):
        root, matrices = store
        registry = MatrixRegistry(root=root)
        assert sorted(registry.names()) == sorted(matrices)
        assert "alpha" in registry
        assert len(registry) == 3

    def test_nothing_loaded_until_requested(self, store):
        root, _ = store
        registry = MatrixRegistry(root=root)
        assert all(not e["resident"] for e in registry.entries())
        assert registry.resident_bytes == 0
        assert registry.stats()["loads"] == 0

    def test_describe_uses_header_only(self, store):
        root, matrices = store
        registry = MatrixRegistry(root=root)
        desc = registry.describe("beta")
        assert desc["kind"] == "gcm"
        assert desc["variant"] == "re_32"
        assert tuple(desc["shape"]) == matrices["beta"].shape
        assert desc["file_bytes"] > 0
        assert not desc["resident"]

    def test_register_bad_file_fails_early(self, tmp_path):
        bad = tmp_path / "bad.gcmx"
        bad.write_bytes(b"not a gcmx blob")
        registry = MatrixRegistry()
        with pytest.raises(SerializationError):
            registry.register("bad", bad)

    def test_scan_skips_bad_files(self, store, tmp_path):
        root, _ = store
        (root / "corrupt.gcmx").write_bytes(b"XXXX")
        registry = MatrixRegistry(root=root)
        assert "corrupt" not in registry

    def test_unknown_name_rejected(self, store):
        registry = MatrixRegistry(root=store[0])
        with pytest.raises(SerializationError):
            registry.get("nope")
        with pytest.raises(SerializationError):
            registry.describe("nope")

    def test_bad_root_and_budget(self, tmp_path):
        with pytest.raises(ReproError):
            MatrixRegistry(root=tmp_path / "missing")
        with pytest.raises(ReproError):
            MatrixRegistry(byte_budget=0)


class TestLazyLoadAndLru:
    def test_first_get_loads_then_hits(self, store):
        root, matrices = store
        registry = MatrixRegistry(root=root)
        m = registry.get("alpha")
        assert np.array_equal(m.to_dense(), matrices["alpha"])
        assert registry.stats()["loads"] == 1
        assert registry.get("alpha") is m
        stats = registry.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_budget_evicts_least_recently_used(self, store):
        root, _ = store
        probe = MatrixRegistry(root=root)
        sizes = {
            n: resident_estimate(probe.get(n))
            for n in ("alpha", "beta", "gamma")
        }
        # Budget fits exactly two of the three matrices.
        budget = sizes["alpha"] + sizes["beta"] + sizes["gamma"] - 1
        registry = MatrixRegistry(root=root, byte_budget=budget)
        registry.get("alpha")
        registry.get("beta")
        assert registry.stats()["evictions"] == 0
        registry.get("gamma")  # must push out alpha (the LRU entry)
        assert registry.stats()["evictions"] == 1
        assert not registry.describe("alpha")["resident"]
        assert registry.describe("gamma")["resident"]

    def test_access_refreshes_lru_order(self, store):
        root, _ = store
        probe = MatrixRegistry(root=root)
        sizes = {
            n: resident_estimate(probe.get(n))
            for n in ("alpha", "beta", "gamma")
        }
        budget = sizes["alpha"] + sizes["beta"] + sizes["gamma"] - 1
        registry = MatrixRegistry(root=root, byte_budget=budget)
        registry.get("alpha")
        registry.get("beta")
        registry.get("alpha")  # alpha is now the most recently used
        registry.get("gamma")  # so beta is the victim
        assert not registry.describe("beta")["resident"]
        assert registry.describe("alpha")["resident"]

    def test_oversized_matrix_stays_servable(self, store):
        root, matrices = store
        registry = MatrixRegistry(root=root, byte_budget=1)
        m = registry.get("alpha")
        assert np.array_equal(m.to_dense(), matrices["alpha"])
        assert registry.describe("alpha")["resident"]
        registry.get("beta")  # loading beta evicts alpha, keeps beta
        assert not registry.describe("alpha")["resident"]
        assert registry.describe("beta")["resident"]

    def test_concurrent_gets_load_once(self, store):
        import threading

        root, matrices = store
        registry = MatrixRegistry(root=root)
        loaded = []

        def fetch():
            loaded.append(registry.get("alpha"))

        threads = [threading.Thread(target=fetch) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert registry.stats()["loads"] == 1
        assert all(m is loaded[0] for m in loaded)
        assert np.array_equal(loaded[0].to_dense(), matrices["alpha"])

    def test_evicted_matrix_reloads(self, store):
        root, matrices = store
        registry = MatrixRegistry(root=root)
        registry.get("alpha")
        assert registry.evict("alpha")
        assert not registry.evict("alpha")  # already cold
        assert np.array_equal(
            registry.get("alpha").to_dense(), matrices["alpha"]
        )
        assert registry.stats()["loads"] == 2


class TestColdLoadWaiter:
    def test_waiter_gives_up_at_its_own_deadline(self, store):
        """A request waiting for another request's cold load of a matrix
        answers at its own deadline, not when that load ends."""
        import threading
        import time

        from repro.errors import DeadlineExceededError
        from repro.resilience.faults import FaultPlan, fault_injection
        from repro.resilience.policy import Deadline, deadline_scope

        root, matrices = store
        registry = MatrixRegistry(root=root)
        loaded: list = []
        loader = threading.Thread(target=lambda: loaded.append(registry.get("alpha")))
        plan = FaultPlan().slow_load(str(root / "alpha.gcmx"), seconds=1.5, times=1)
        with fault_injection(plan):
            loader.start()
            end = time.monotonic() + 10
            while not plan.events:  # until the loader is reading alpha
                assert time.monotonic() < end, "the slowed load never started"
                time.sleep(0.001)
            started = time.monotonic()
            with deadline_scope(Deadline.after(0.1)):
                with pytest.raises(DeadlineExceededError):
                    registry.get("alpha")
            waited = time.monotonic() - started
            loader.join(30)
        assert not loader.is_alive()
        assert waited < 0.75
        assert np.array_equal(loaded[0].to_dense(), matrices["alpha"])
        assert registry.stats()["loads"] == 1


def _representations(dense):
    yield "csrv", CSRVMatrix.from_dense(dense)
    for variant in VARIANTS:
        yield variant, GrammarCompressedMatrix.compress(dense, variant=variant)
        yield f"blocked_{variant}", BlockedMatrix.compress(
            dense, variant=variant, n_blocks=3
        )
    yield "blocked_csrv", BlockedMatrix.compress(dense, variant="csrv", n_blocks=2)
    yield "blocked_auto", BlockedMatrix.compress(dense, variant="auto", n_blocks=2)


class TestRoundTripThroughRegistry:
    def test_every_kind_and_variant(self, tmp_path, rng):
        """Serialization round-trip via the registry's lazy-load path."""
        dense = make_structured(rng, n=50, m=9)
        registry = MatrixRegistry()
        expected = {}
        for name, matrix in _representations(dense):
            path = tmp_path / f"{name}.gcmx"
            save_matrix(matrix, path)
            registry.register(name, path)
            expected[name] = type(matrix).__name__
        for name in registry.names():
            loaded = registry.get(name)
            assert type(loaded).__name__ == expected[name]
            assert np.array_equal(loaded.to_dense(), dense), name
            x = np.arange(dense.shape[1], dtype=np.float64)
            assert np.allclose(loaded.right_multiply(x), dense @ x), name
