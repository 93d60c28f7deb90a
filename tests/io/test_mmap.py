"""mmap-backed loading: parity, read-only views, fallback, lifetime."""

import numpy as np
import pytest

import repro
from repro.core.blocked import BlockedMatrix
from repro.core.csrv import CSRVMatrix
from repro.core.gcm import GrammarCompressedMatrix
from repro.io.mmap_io import load_matrix_mmap, map_view, mmap_capable
from repro.io.serialize import load_matrix, save_matrix, saves_matrix
from repro.serve.registry import MatrixRegistry
from repro.shard import LazyShardedMatrix, build_sharded
from tests.conftest import make_structured

#: format name → whether the zero-copy path may engage for it.
CAPABILITY = {
    "dense": True,
    "csrv": True,
    "re_32": True,
    "re_iv": True,
    "re_ans": True,
    "cla": True,
    "csr": False,
    "csr_iv": False,
    "gzip": False,
    "xz": False,
}


def saved(tmp_path, dense, fmt):
    path = tmp_path / f"{fmt}.gcmx"
    save_matrix(repro.compress(dense, format=fmt), path)
    return path


class TestCapability:
    @pytest.mark.parametrize("fmt", sorted(CAPABILITY))
    def test_capability_matches_format_table(self, fmt, tmp_path, rng):
        dense = make_structured(rng)
        assert mmap_capable(saved(tmp_path, dense, fmt)) is CAPABILITY[fmt]

    def test_sharded_container_is_capable(self, tmp_path, rng):
        path = tmp_path / "s.gcmx"
        save_matrix(build_sharded(make_structured(rng, n=90), n_shards=3), path)
        assert mmap_capable(path) is True

    def test_garbage_file_reports_incapable(self, tmp_path):
        path = tmp_path / "junk.gcmx"
        path.write_bytes(b"not a gcmx file at all")
        assert mmap_capable(path) is False


class TestParity:
    @pytest.mark.parametrize("fmt", sorted(CAPABILITY))
    def test_mmap_load_matches_copy_load(self, fmt, tmp_path, rng):
        """Every format decodes identically through load_matrix(mmap=True)
        — capable kinds via views, the rest via the copy fallback."""
        dense = make_structured(rng)
        path = saved(tmp_path, dense, fmt)
        m = load_matrix(path, mmap=True)
        assert np.allclose(m.to_dense(), dense)
        x = rng.standard_normal(dense.shape[1])
        assert np.allclose(m.right_multiply(x), dense @ x)

    def test_sharded_mixed_sections(self, tmp_path, rng):
        dense = make_structured(rng, n=120, m=10)
        path = tmp_path / "s.gcmx"
        save_matrix(build_sharded(dense, n_shards=4), path)
        m = load_matrix_mmap(path)
        assert np.allclose(m.to_dense(), dense)


class TestViewSemantics:
    def test_dense_mmap_storage_is_read_only_view(self, tmp_path, rng):
        dense = make_structured(rng)
        path = saved(tmp_path, dense, "dense")
        mapped = load_matrix(path, mmap=True)
        copied = load_matrix(path)
        assert mapped._m.flags.writeable is False
        assert copied._m.flags.writeable is True
        # the view chains down to a buffer, not a heap allocation
        assert mapped._m.base is not None

    def test_re_ans_stream_stays_a_view_of_the_mapping(self, tmp_path, rng):
        dense = make_structured(rng)
        path = saved(tmp_path, dense, "re_ans")
        mapped = load_matrix(path, mmap=True)
        c = mapped._c_storage
        assert isinstance(c, np.ndarray) and c.dtype == np.uint8
        assert c.flags.writeable is False
        assert c.base is not None  # no heap copy of the stream
        assert isinstance(load_matrix(path)._c_storage, bytes)
        assert np.array_equal(mapped.to_dense(), dense)
        # the view serializes like the bytes it stands for
        assert saves_matrix(mapped) == saves_matrix(load_matrix(path))

    def test_map_view_slices_are_zero_copy(self, tmp_path):
        path = tmp_path / "blob.bin"
        path.write_bytes(bytes(range(256)))
        view = map_view(path)
        sub = view[100:108]
        assert bytes(sub) == bytes(range(100, 108))
        assert sub.obj is view.obj  # same mapping, no copy

    def test_incapable_format_falls_back_to_writable_copy(self, tmp_path, rng):
        dense = make_structured(rng)
        path = saved(tmp_path, dense, "gzip")
        m = load_matrix(path, mmap=True)
        assert np.allclose(m.to_dense(), dense)


class TestLazyShardMmap:
    def test_lazy_shard_loads_through_shared_mapping(self, tmp_path, rng):
        dense = make_structured(rng, n=90, m=10)
        path = tmp_path / "s.gcmx"
        save_matrix(build_sharded(dense, n_shards=3), path)
        lazy = LazyShardedMatrix(path, mmap=True)
        x = rng.standard_normal(dense.shape[1])
        assert np.allclose(lazy.right_multiply(x), dense @ x)
        assert lazy.residency.stats()["shard_loads"] == 3

    def test_evicted_shard_reloads_correctly(self, tmp_path, rng):
        dense = make_structured(rng, n=90, m=10)
        path = tmp_path / "s.gcmx"
        save_matrix(build_sharded(dense, n_shards=3), path)
        lazy = LazyShardedMatrix(path, mmap=True)
        lazy.to_dense()
        lazy.release_retained_plans()
        assert lazy.resident_shards == 0
        assert np.allclose(lazy.to_dense(), dense)
        assert lazy.residency.stats()["shard_loads"] == 6


class TestRegistryLifetime:
    def test_matrix_survives_registry_eviction(self, tmp_path, rng):
        """Arrays decoded from the mapping stay valid after the registry
        drops its reference — the .base chain owns the mmap."""
        dense = {}
        for name in ("alpha", "beta"):
            dense[name] = make_structured(rng, n=50, m=8)
            save_matrix(
                GrammarCompressedMatrix.compress(dense[name], variant="re_32"),
                tmp_path / f"{name}.gcmx",
            )
        registry = MatrixRegistry(root=tmp_path, mmap=True)
        held = registry.get("alpha")
        registry.evict("alpha")
        x = rng.standard_normal(dense["alpha"].shape[1])
        assert np.allclose(held.right_multiply(x), dense["alpha"] @ x)

    def test_evict_and_reload_roundtrip(self, tmp_path, rng):
        dense = make_structured(rng, n=50, m=8)
        save_matrix(CSRVMatrix.from_dense(dense), tmp_path / "m.gcmx")
        registry = MatrixRegistry(root=tmp_path, mmap=True)
        first = registry.get("m")
        registry.evict("m")
        second = registry.get("m")
        assert second is not first
        assert np.allclose(second.to_dense(), dense)
        assert registry.stats()["loads"] == 2

    def test_blocked_matrix_parity_under_registry_mmap(self, tmp_path, rng):
        dense = make_structured(rng, n=80, m=10)
        save_matrix(
            BlockedMatrix.compress(dense, variant="re_ans", n_blocks=2),
            tmp_path / "b.gcmx",
        )
        registry = MatrixRegistry(root=tmp_path, mmap=True)
        x = rng.standard_normal(dense.shape[1])
        assert np.allclose(registry.get("b").right_multiply(x), dense @ x)
