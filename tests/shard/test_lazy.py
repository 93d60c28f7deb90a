"""Tests for lazy shard-by-shard serving and shard-level eviction."""

import numpy as np
import pytest

from repro.io.serialize import read_shard_manifest, save_matrix
from repro.serve.executor import BlockExecutor
from repro.serve.registry import MatrixRegistry
from repro.serve.residency import Residency
from repro.shard import LazyShardedMatrix, build_sharded
from tests.shard.test_plan import mixed_matrix, mixed_sharded


@pytest.fixture
def dense(rng):
    return mixed_matrix(rng)


@pytest.fixture
def container(dense, tmp_path):
    """A 3-shard mixed-format container file on disk."""
    sm = mixed_sharded(dense)
    path = tmp_path / "m.gcmx"
    save_matrix(sm, path)
    return path, sm


class TestManifest:
    def test_manifest_matches_container(self, container, dense):
        path, sm = container
        shape, entries = read_shard_manifest(path)
        assert shape == dense.shape
        assert len(entries) == 3
        assert [e.row_start for e in entries] == list(sm.row_offsets[:-1])
        # sections tile the rest of the file exactly, up to the
        # trailing whole-file checksum footer
        from repro.resilience.integrity import FOOTER_BYTES

        end = entries[-1].offset + entries[-1].length
        assert end == path.stat().st_size - FOOTER_BYTES

    def test_manifest_rejects_non_sharded_file(self, dense, tmp_path):
        import repro

        path = tmp_path / "plain.gcmx"
        save_matrix(repro.compress(dense, format="csrv"), path)
        from repro.errors import SerializationError

        with pytest.raises(SerializationError, match="not a sharded"):
            read_shard_manifest(path)


@pytest.fixture
def mismatched(tmp_path, rng):
    """A container whose three ``re_32`` sections hold 5, 3 and 4 rows
    under a manifest that claims 4, 4 and 4, with valid CRCs."""
    from repro.core.gcm import GrammarCompressedMatrix
    from repro.io.serialize import (
        KIND_SHARDED,
        _header,
        _put_shape,
        encode_uvarint,
        saves_matrix,
    )
    from repro.resilience.integrity import append_footer
    from tests.conftest import make_structured

    dense = make_structured(rng, n=12, m=6)
    blobs = [
        saves_matrix(GrammarCompressedMatrix.compress(dense[lo:hi], variant="re_32"))
        for lo, hi in ((0, 5), (5, 8), (8, 12))
    ]
    payload = _put_shape(dense.shape) + encode_uvarint(len(blobs))
    for blob in blobs:  # sharded_payload's layout, with the claimed counts
        payload += encode_uvarint(4) + encode_uvarint(len(blob))
    path = tmp_path / "bad.gcmx"
    path.write_bytes(
        append_footer(_header(KIND_SHARDED) + payload + b"".join(blobs))
    )
    return path, dense


class TestManifestShapeMismatch:
    """A section whose shape disagrees with its manifest entry is a
    corrupt container: it fails typed at load, never as the caller's
    operand error or a wrong answer."""

    def test_eager_load_rejects(self, mismatched):
        from repro.errors import SerializationError
        from repro.io.serialize import load_matrix

        path, _ = mismatched
        with pytest.raises(SerializationError, match="manifest"):
            load_matrix(path)

    @pytest.mark.parametrize("op", ["right", "left"])
    def test_lazy_shard_load_fails_typed(self, mismatched, op):
        from repro.errors import SerializationError, ShardUnavailableError

        path, dense = mismatched
        lazy = LazyShardedMatrix(path)
        multiply = lazy.right_multiply if op == "right" else lazy.left_multiply
        operand = np.ones(dense.shape[1] if op == "right" else dense.shape[0])
        with pytest.raises(ShardUnavailableError) as excinfo:
            multiply(operand)
        assert isinstance(excinfo.value.__cause__, SerializationError)
        stats = lazy.residency.stats()
        assert stats["shard_retries"] == 0  # not an OSError: no retry
        assert stats["shard_failures"] == 1  # counted by the breaker

    def test_served_answers_503_with_retry_after(self, mismatched):
        from repro.serve.server import MatrixServer
        from tests.resilience.conftest import http_post

        path, dense = mismatched
        registry = MatrixRegistry(root=path.parent)
        with MatrixServer(registry, port=0).start() as server:
            for op, length in (("right", dense.shape[1]), ("left", dense.shape[0])):
                status, body, headers = http_post(
                    f"{server.url}/multiply",
                    {"matrix": "bad", "op": op, "vectors": [[1.0] * length]},
                )
                assert status == 503, (op, body)
                assert "manifest" in body["error"]
                assert int(headers["Retry-After"]) >= 1


class TestLazyLoading:
    def test_nothing_loaded_at_construction(self, container):
        path, _ = container
        lazy = LazyShardedMatrix(path)
        assert lazy.resident_shards == 0
        assert lazy.residency.stats()["shard_loads"] == 0
        assert lazy.resident_footprint_bytes() == 0

    def test_multiply_matches_dense_and_loads_all(self, container, dense, rng):
        path, _ = container
        lazy = LazyShardedMatrix(path)
        x = rng.standard_normal(dense.shape[1])
        assert np.allclose(lazy @ x, dense @ x)
        assert lazy.residency.stats()["shard_loads"] == 3
        assert lazy.resident_shards == 3  # no budget: everything stays
        y = rng.standard_normal(dense.shape[0])
        assert np.allclose(y @ lazy, y @ dense)
        assert lazy.residency.stats()["shard_loads"] == 3  # warm: no reloads

    def test_panel_matches_dense(self, container, dense, rng):
        path, _ = container
        lazy = LazyShardedMatrix(path)
        X = rng.standard_normal((dense.shape[1], 5))
        assert np.allclose(lazy.right_multiply_matrix(X), dense @ X)

    def test_to_dense(self, container, dense):
        path, _ = container
        assert np.allclose(LazyShardedMatrix(path).to_dense(), dense)

    def test_size_bytes_without_loading(self, container):
        path, sm = container
        lazy = LazyShardedMatrix(path)
        _, entries = read_shard_manifest(path)
        assert lazy.size_bytes() == sum(e.length for e in entries)
        assert lazy.resident_shards == 0


class TestShardEviction:
    def test_budget_evicts_cold_shards_after_multiply(
        self, container, dense, rng
    ):
        path, sm = container
        # budget below the total resident estimate but above the
        # largest single shard's — a strict subset survives each op.
        per_shard = [s.size_bytes() + s.resident_overhead_bytes()
                     for s in sm.shards]
        budget = max(per_shard) + min(per_shard)
        lazy = LazyShardedMatrix(path, residency=Residency(budget))
        x = rng.standard_normal(dense.shape[1])
        assert np.allclose(lazy @ x, dense @ x)
        assert lazy.residency.stats()["shard_evictions"] >= 1
        assert 0 < lazy.resident_shards < 3
        assert lazy.resident_footprint_bytes() <= budget
        # still servable: cold shards stream back in
        assert np.allclose(lazy @ x, dense @ x)
        assert lazy.residency.stats()["shard_loads"] > 3

    def test_sequential_multiply_streams_within_budget(
        self, container, dense, rng
    ):
        """One request never holds more than budget + one shard."""
        path, sm = container
        per_shard = [s.size_bytes() + s.resident_overhead_bytes()
                     for s in sm.shards]
        budget = min(per_shard)  # almost nothing may stay loaded
        lazy = LazyShardedMatrix(path, residency=Residency(budget))
        peak = 0
        original = lazy._after_shard

        def tracking_after_shard(i):
            nonlocal peak
            peak = max(peak, lazy.resident_footprint_bytes())
            original(i)

        lazy._after_shard = tracking_after_shard
        x = rng.standard_normal(dense.shape[1])
        assert np.allclose(lazy @ x, dense @ x)
        # streaming: between shard visits the loaded set stayed within
        # the budget plus the shard just visited
        assert peak <= budget + max(per_shard)
        assert peak < sum(per_shard), "whole container was materialised"

    def test_lru_keeps_recently_used(self, container, dense, rng):
        path, sm = container
        lazy = LazyShardedMatrix(path, residency=Residency(1))
        x = rng.standard_normal(dense.shape[1])
        assert np.allclose(lazy @ x, dense @ x)
        # budget of 1 byte: everything evicted, matrix still answers
        assert lazy.resident_shards == 0
        assert np.allclose(lazy @ x, dense @ x)

    def test_evict_all_shards(self, container, dense, rng):
        path, _ = container
        lazy = LazyShardedMatrix(path)
        lazy @ rng.standard_normal(dense.shape[1])
        lazy.release_retained_plans()
        assert lazy.resident_shards == 0


class TestRegistryServing:
    def test_lazy_load_through_registry(self, container, dense, rng):
        path, _ = container
        registry = MatrixRegistry(root=path.parent)
        matrix = registry.get("m")
        assert isinstance(matrix, LazyShardedMatrix)
        x = rng.standard_normal(dense.shape[1])
        assert np.allclose(matrix @ x, dense @ x)

    def test_registry_describe_reports_shards(self, container, dense, rng):
        path, _ = container
        registry = MatrixRegistry(root=path.parent)
        info = registry.describe("m")
        assert info["format"] == "sharded"
        assert info["n_shards"] == 3
        assert "resident_shards" not in info  # not resident yet
        matrix = registry.get("m")
        matrix @ rng.standard_normal(dense.shape[1])
        info = registry.describe("m")
        assert info["resident_shards"] == 3

    def test_shard_level_eviction_under_registry_budget(
        self, container, dense, rng
    ):
        path, sm = container
        per_shard = [s.size_bytes() + s.resident_overhead_bytes()
                     for s in sm.shards]
        budget = max(per_shard) + min(per_shard)
        registry = MatrixRegistry(root=path.parent, byte_budget=budget)
        matrix = registry.get("m")
        assert matrix.residency is registry.residency
        x = rng.standard_normal(dense.shape[1])
        assert np.allclose(matrix @ x, dense @ x)
        # shards were evicted, the matrix itself stays registered+resident
        stats = registry.stats()
        assert stats["resident"] == 1
        assert stats["shard_loads"] >= 3
        assert stats["shard_evictions"] >= 1
        assert 0 < stats["resident_shards"] < 3
        assert registry.resident_bytes <= budget

    def test_registry_whole_eviction_releases_shards(
        self, container, dense, rng
    ):
        path, _ = container
        registry = MatrixRegistry(root=path.parent)
        matrix = registry.get("m")
        matrix @ rng.standard_normal(dense.shape[1])
        assert matrix.resident_shards == 3
        assert registry.evict("m") is True
        assert matrix.resident_shards == 0

    def test_enforce_budget_bounds_multiple_grown_entries(
        self, dense, tmp_path, rng
    ):
        """Residency grown after load is brought back under the budget."""
        for name in ("a", "b"):
            save_matrix(build_sharded(dense, n_shards=3), tmp_path / f"{name}.gcmx")
        one_total = sum(
            s.size_bytes() + s.resident_overhead_bytes()
            for s in build_sharded(dense, n_shards=3).shards
        )
        # Fits one fully-loaded container, not two.
        budget = int(1.5 * one_total)
        registry = MatrixRegistry(root=tmp_path, byte_budget=budget)
        x = rng.standard_normal(dense.shape[1])
        with BlockExecutor(2) as ex:
            for name in ("a", "b"):
                # an executor loads all shards at once (no in-request streaming)
                registry.get(name).right_multiply(x, executor=ex)
        assert registry.resident_bytes <= budget  # each pass ends trimmed
        assert registry.enforce_budget(keep="b") == 0
        assert registry.describe("b")["resident"] is True

    def test_two_lazy_matrices_share_one_budget(self, tmp_path, rng):
        """The shards of two lazy matrices compete in one LRU: serving
        them in turn trims shards and never evicts a whole matrix."""
        from repro.datasets import get_dataset

        dense, charges = {}, []
        for name in ("mnist2m", "census"):
            dense[name] = get_dataset(name, n_rows=400).matrix
            sm = build_sharded(
                dense[name], n_shards=4, format="re_ans", strategy="batch"
            )
            save_matrix(sm, tmp_path / f"{name}.gcmx")
            for s in sm.shards:
                s.enable_plan_retention(True)
                charges.append(s.size_bytes() + s.resident_overhead_bytes())
        budget = 3 * max(charges)
        registry = MatrixRegistry(root=tmp_path, byte_budget=budget)
        for r in range(10):
            name = ("mnist2m", "census")[r % 2]
            x = rng.standard_normal(dense[name].shape[1])
            assert np.allclose(registry.get(name) @ x, dense[name] @ x)
            registry.enforce_budget(keep=name)
            assert registry.resident_bytes <= budget
        stats = registry.stats()
        assert stats["evictions"] == 0
        assert stats["loads"] == 2

    def test_shard_counters_survive_whole_eviction(
        self, container, dense, rng
    ):
        path, _ = container
        registry = MatrixRegistry(root=path.parent)
        matrix = registry.get("m")
        matrix @ rng.standard_normal(dense.shape[1])
        before = registry.stats()
        assert before["shard_loads"] == 3
        registry.evict("m")
        after = registry.stats()
        assert after["shard_loads"] == 3  # absorbed, not lost
        assert after["resident_shards"] == 0

    def test_eager_shards_opt_out(self, container, dense):
        from repro.shard import ShardedMatrix

        path, _ = container
        registry = MatrixRegistry(root=path.parent, lazy_shards=False)
        assert isinstance(registry.get("m"), ShardedMatrix)
        assert registry.stats()["lazy_shards"] is False

    def test_plan_retention_flows_to_lazy_shards(self, container, dense, rng):
        path, _ = container
        registry = MatrixRegistry(root=path.parent, retain_plans=True)
        matrix = registry.get("m")
        matrix @ rng.standard_normal(dense.shape[1])
        # the re_ans shard retains its plan → overhead is charged
        assert matrix.resident_footprint_bytes() > matrix.size_bytes()


class TestServedOverHttp:
    def test_multiply_round_trip(self, container, dense, rng):
        import json
        import urllib.request

        from repro.serve.server import MatrixServer

        path, _ = container
        registry = MatrixRegistry(root=path.parent, byte_budget=64 * 1024)
        with MatrixServer(registry, port=0).start() as server:
            x = rng.standard_normal(dense.shape[1])
            req = urllib.request.Request(
                f"{server.url}/multiply",
                data=json.dumps(
                    {"matrix": "m", "vectors": x.tolist()}
                ).encode(),
                method="POST",
            )
            body = json.loads(urllib.request.urlopen(req, timeout=30).read())
            assert body["format"] == "sharded"
            assert np.allclose(np.asarray(body["result"][0]), dense @ x)
            stats = json.loads(
                urllib.request.urlopen(f"{server.url}/stats", timeout=10).read()
            )
            assert stats["registry"]["shard_loads"] >= 3


# -- one pass per panel call ------------------------------------------------------------


@pytest.fixture(scope="module")
def mnist_re_ans(tmp_path_factory):
    """A 4-shard ``re_ans`` container of 400 mnist2m rows, and its dense form."""
    from repro.datasets import get_dataset

    dense = get_dataset("mnist2m", n_rows=400).matrix
    sm = build_sharded(dense, n_shards=4, format="re_ans", strategy="batch")
    path = tmp_path_factory.mktemp("mnist") / "m.gcmx"
    save_matrix(sm, path)
    return path, dense


def _panel_op(matrix, op: str, k: int, dense, rng):
    """One panel multiply and its dense reference."""
    if op == "right":
        X = rng.standard_normal((dense.shape[1], k))
        return matrix.right_multiply_matrix(X), dense @ X
    Y = rng.standard_normal((dense.shape[0], k))
    return matrix.left_multiply_matrix(Y), dense.T @ Y


class TestPanelPasses:
    """A panel call visits each shard once, however many chunks it spans."""

    @pytest.mark.parametrize("op", ["right", "left"])
    @pytest.mark.parametrize("k", [64, 65, 130])
    def test_lazy_loads_each_shard_once_per_call(self, mnist_re_ans, op, k, rng):
        path, dense = mnist_re_ans
        lazy = LazyShardedMatrix(path, residency=Residency(1))
        got, want = _panel_op(lazy, op, k, dense, rng)
        assert np.allclose(got, want)
        assert lazy.residency.stats()["shard_loads"] == 4
        assert lazy.resident_shards == 0

    @pytest.mark.parametrize("op", ["right", "left"])
    @pytest.mark.parametrize("k", [64, 65, 130])
    def test_eager_decodes_each_shard_once_per_call(
        self, mnist_re_ans, op, k, rng, monkeypatch
    ):
        from repro.core.gcm import GrammarCompressedMatrix
        from repro.io.serialize import load_matrix

        path, dense = mnist_re_ans
        eager = load_matrix(path)
        decodes = []
        original = GrammarCompressedMatrix.decode_grammar

        def counting_decode(self):
            decodes.append(self)
            return original(self)

        monkeypatch.setattr(
            GrammarCompressedMatrix, "decode_grammar", counting_decode
        )
        got, want = _panel_op(eager, op, k, dense, rng)
        assert np.allclose(got, want)
        assert len(decodes) == 4


class TestEvictionDuringLoad:
    def test_whole_eviction_mid_load_leaves_budget_check_working(
        self, tmp_path, rng
    ):
        """A whole-matrix eviction between a shard's read and its
        publication must not break the next budget check."""
        from repro.datasets import get_dataset

        dense = get_dataset("census", n_rows=300).matrix
        path = tmp_path / "census.gcmx"
        save_matrix(build_sharded(dense, n_shards=3), path)
        lazy = LazyShardedMatrix(path, residency=Residency(1))
        original = lazy._load_shard

        def evicting_load(i):
            shard = original(i)
            lazy.release_retained_plans()  # what the registry's evict() calls
            return shard

        lazy._load_shard = evicting_load
        x = rng.standard_normal(dense.shape[1])
        assert np.allclose(lazy @ x, dense @ x)
        assert lazy.residency.stats()["shard_loads"] == 3
        assert lazy.resident_shards == 0

    def test_registry_evict_mid_pass_keeps_no_orphaned_shards(
        self, tmp_path, rng, monkeypatch
    ):
        """``registry.evict`` while a pass loads shard 3 of 8: the pass
        still answers, and the shards it loads after the evict go back
        to it instead of staying resident, charged to a view nothing
        serves any more."""
        from repro.datasets import get_dataset
        from repro.store import MatrixStore

        dense = get_dataset("mnist2m", n_rows=160).matrix[:, :160]
        store = MatrixStore(tmp_path / "store")
        store.add("web", build_sharded(dense, n_shards=8, format="re_ans"))
        registry = MatrixRegistry(store=store, mmap=True)
        original = LazyShardedMatrix._load_shard
        evicted = []

        def evicting_load(view, i):
            shard = original(view, i)
            if i == 3 and not evicted:
                evicted.append(registry.evict("web"))
            return shard

        monkeypatch.setattr(LazyShardedMatrix, "_load_shard", evicting_load)
        old_view = registry.get("web")
        x = rng.standard_normal(dense.shape[1])
        assert np.allclose(old_view.right_multiply(x), dense @ x)
        assert evicted == [True]
        stats = registry.stats()
        assert stats["resident_shards"] == 0
        assert stats["resident_bytes"] == 0
        assert registry.residency.loaded(old_view) == []
        assert np.allclose(registry.get("web").right_multiply(x), dense @ x)
        assert registry.stats()["resident_shards"] == 8


# -- shared scans: overlapping requests on one lazily served matrix ---------------------


def _run_threads(targets, timeout: float = 30.0) -> list:
    """Run each callable on its own thread; return results (or raised errors)."""
    import threading

    results: list = [None] * len(targets)

    def runner(j, fn):
        try:
            results[j] = fn()
        except Exception as exc:  # handed back for the test to assert on
            results[j] = exc

    threads = [
        threading.Thread(target=runner, args=(j, fn), daemon=True)
        for j, fn in enumerate(targets)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout)
    assert not any(t.is_alive() for t in threads), "a pass never finished"
    return results


def _wait_for_event(plan, kind: str, timeout: float = 10.0) -> None:
    """Block until the fault plan has fired a ``kind`` fault."""
    import time

    end = time.monotonic() + timeout
    while not any(e[2] == kind for e in plan.events):
        assert time.monotonic() < end, f"no {kind} fault fired"
        time.sleep(0.001)


def _single_pass(path, op: str, operand) -> np.ndarray:
    lazy = LazyShardedMatrix(path)
    return lazy @ operand if op == "right" else operand @ lazy


class TestSharedScan:
    @pytest.mark.parametrize("op", ["right", "left"])
    def test_overlapping_passes_load_each_shard_once(
        self, container, dense, rng, op
    ):
        import threading

        from repro.resilience.faults import FaultPlan, fault_injection

        path, _ = container
        operand = rng.standard_normal(dense.shape[1 if op == "right" else 0])
        reference = _single_pass(path, op, operand)
        lazy = LazyShardedMatrix(path)
        barrier = threading.Barrier(2)

        def one_pass():
            barrier.wait()
            return lazy @ operand if op == "right" else operand @ lazy

        plan = FaultPlan().slow_load(str(path), seconds=0.05)
        with fault_injection(plan):
            results = _run_threads([one_pass, one_pass])
        # One read per shard: the second pass waited for the first's loads.
        assert lazy.residency.stats()["shard_loads"] == lazy.n_shards
        assert len(plan.events) == lazy.n_shards
        want = dense @ operand if op == "right" else operand @ dense
        for got in results:
            assert isinstance(got, np.ndarray), got
            assert np.array_equal(got.view(np.uint64), reference.view(np.uint64))
            assert np.allclose(got, want)

    def test_waiter_deadline_expires_during_loaders_slow_load(
        self, container, dense, rng
    ):
        import threading

        from repro.errors import DeadlineExceededError
        from repro.resilience.faults import FaultPlan, fault_injection
        from repro.resilience.policy import Deadline, deadline_scope

        path, _ = container
        x = rng.standard_normal(dense.shape[1])
        lazy = LazyShardedMatrix(path, residency=Residency(1))
        answers: list = []
        loader = threading.Thread(target=lambda: answers.append(lazy @ x))

        plan = FaultPlan().slow_load(f"{path}#shard0", seconds=0.4, times=1)
        with fault_injection(plan):
            loader.start()
            _wait_for_event(plan, "slow")  # the loader is reading shard 0
            with deadline_scope(Deadline(0.05)):
                with pytest.raises(DeadlineExceededError):
                    lazy @ x
            loader.join(30)
        assert not loader.is_alive()
        assert np.allclose(answers[0], dense @ x)
        assert lazy.residency.stats()["shard_loads"] == lazy.n_shards  # the waiter loaded nothing
        # The waiter's pin went with it: everything streamed back out.
        assert lazy.resident_footprint_bytes() <= 1

    def test_failed_load_is_taken_over_by_the_waiter(
        self, container, dense, rng
    ):
        import threading

        from repro.errors import ShardUnavailableError
        from repro.resilience.faults import FaultPlan, fault_injection

        path, _ = container
        x = rng.standard_normal(dense.shape[1])
        lazy = LazyShardedMatrix(path)
        plan = (
            FaultPlan()
            .slow_load(f"{path}#shard0", seconds=0.05)
            .fail(f"{path}#shard0", times=3)  # every attempt of the loader
        )
        outcome: list = []

        def loader():
            try:
                outcome.append(lazy @ x)
            except ShardUnavailableError as exc:
                outcome.append(exc)

        with fault_injection(plan):
            thread = threading.Thread(target=loader)
            thread.start()
            _wait_for_event(plan, "slow")
            answer = lazy @ x  # joins the failing load, then loads itself
            thread.join(30)
        assert not thread.is_alive()
        assert isinstance(outcome[0], ShardUnavailableError)
        assert np.allclose(answer, dense @ x)
        assert lazy.residency.stats()["shard_failures"] == 1  # only the loader's real attempts
        assert lazy.residency.stats()["shard_retries"] == 2

    def test_passes_sharing_a_shard_move_on_together(
        self, container, dense, rng
    ):
        """The faster of two passes waits for the slower at every shard
        they share, so under a one-byte budget no shard loads twice."""
        import threading
        import time

        from repro.resilience.faults import FaultPlan, fault_injection

        path, _ = container
        lazy = LazyShardedMatrix(path, residency=Residency(1))
        load = lazy._load_shard

        def load_with_slow_left(i):
            # The pass kernels call each shard's ``_left`` hook.
            shard = load(i)
            left = shard._left

            def slow_left(*args):
                time.sleep(0.1)
                return left(*args)

            shard._left = slow_left
            return shard

        lazy._load_shard = load_with_slow_left
        x = rng.standard_normal(dense.shape[1])
        y = rng.standard_normal(dense.shape[0])
        barrier = threading.Barrier(2)

        def right():
            barrier.wait()
            return lazy @ x

        def left():
            barrier.wait()
            return y @ lazy

        # Every load is slow, so both passes meet at the first shard and
        # each next one has a load's length for the other to arrive in.
        # A left visit outlasts a load, so a right pass that did not
        # wait for it would load, use and evict the next shard alone.
        plan = FaultPlan().slow_load(str(path), seconds=0.03)
        with fault_injection(plan):
            got_right, got_left = _run_threads([right, left])
        assert np.allclose(got_right, dense @ x)
        assert np.allclose(got_left, y @ dense)
        assert lazy.residency.stats()["shard_loads"] == lazy.n_shards

    def test_pinned_shard_survives_another_pass_budget_check(
        self, container, dense, rng
    ):
        path, sm = container
        per_shard = [s.size_bytes() + s.resident_overhead_bytes()
                     for s in sm.shards]
        budget = max(per_shard)  # room for one shard
        lazy = LazyShardedMatrix(path, residency=Residency(budget))
        lazy._pin_shard(0)  # one pass is visiting shard 0 ...
        lazy._shard(0)
        for i in (1, 2):  # ... while another visits the rest
            lazy._pin_shard(i)
            lazy._shard(i)
            lazy._after_shard(i)  # its budget check: shard 0 is the LRU
        loads = lazy.residency.stats()["shard_loads"]
        lazy._shard(0)
        assert lazy.residency.stats()["shard_loads"] == loads, "the pinned shard was evicted"
        assert lazy.resident_shards == 1
        lazy._after_shard(0)  # the visit ends: its pin is released
        assert lazy.resident_footprint_bytes() <= budget

    def test_concurrent_first_multiplies_build_one_plan(self, rng, monkeypatch):
        import time

        import repro
        from repro.core.multiply import MvmPlan

        matrix = repro.compress(
            mixed_matrix(rng), format="re_ans", strategy="batch"
        )
        matrix.enable_plan_retention(True)
        builds = []
        original = MvmPlan.from_grammar

        def slow_build(grammar, n_cols):
            builds.append(n_cols)
            time.sleep(0.05)
            return original(grammar, n_cols)

        monkeypatch.setattr(MvmPlan, "from_grammar", slow_build)
        x = rng.standard_normal(matrix.shape[1])
        results = _run_threads([lambda: matrix @ x, lambda: matrix @ x])
        assert len(builds) == 1
        assert np.array_equal(results[0], results[1])

    def test_stress_overlapping_passes_stay_exact_and_bounded(
        self, container, dense, rng
    ):
        """More passes than cores over a one-byte budget, with frequent
        thread switches: every answer is exact and no pin or in-flight
        load outlives its pass."""
        import sys

        path, _ = container
        lazy = LazyShardedMatrix(path, residency=Residency(1))
        x = rng.standard_normal(dense.shape[1])
        y = rng.standard_normal(dense.shape[0])
        want_right = _single_pass(path, "right", x)
        want_left = _single_pass(path, "left", y)

        def client(j):
            def run():
                ok = True
                for r in range(6):
                    if (j + r) % 2:
                        ok &= np.array_equal(lazy @ x, want_right)
                    else:
                        ok &= np.array_equal(y @ lazy, want_left)
                return ok

            return run

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            results = _run_threads([client(j) for j in range(6)], timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert results == [True] * 6
        assert lazy.residency._pins == {} and lazy.residency._inflight == {}
        assert lazy.resident_footprint_bytes() <= 1

    def test_stress_matrices_sharing_one_residency(self, dense, tmp_path, rng):
        """Passes over two lazy matrices and one whole matrix of one
        registry under a one-byte budget, more clients than cores and
        frequent thread switches: every answer is right, the byte total
        matches the loaded units, and no lazy matrix is evicted whole."""
        import sys

        import repro

        for name in ("a", "b"):
            save_matrix(build_sharded(dense, n_shards=3), tmp_path / f"{name}.gcmx")
        save_matrix(repro.compress(dense, format="csrv"), tmp_path / "whole.gcmx")
        registry = MatrixRegistry(root=tmp_path, byte_budget=1)
        names = ("a", "b", "whole")
        x = rng.standard_normal(dense.shape[1])
        want = dense @ x

        def client(j):
            def run():
                ok = True
                for r in range(6):
                    name = names[(j + r) % 3]
                    ok &= np.allclose(registry.get(name) @ x, want)
                    registry.enforce_budget(keep=name)
                return ok

            return run

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            results = _run_threads([client(j) for j in range(6)], timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert results == [True] * 6
        residency = registry.residency
        assert residency._pins == {} and residency._inflight == {}
        charges = [charge for _unit, charge in residency._units.values()]
        assert registry.resident_bytes == sum(charges)
        assert registry.describe("a")["resident"] and registry.describe("b")["resident"]
        registry.enforce_budget()
        assert registry.resident_bytes == 0
