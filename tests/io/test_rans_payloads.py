"""re_ans payloads on disk: legacy layouts and corrupt streams.

``tests/fixtures/legacy_re_ans.gcmx`` and ``legacy_re_ans_sharded.gcmx``
were written by the release before the interleaved-lane rANS layout,
``legacy_re_ans_laned.gcmx`` and ``legacy_re_ans_laned_sharded.gcmx``
by the last release before the folded layout (64-lane and 47/48-lane
streams), each with its dense source saved beside it as ``.npy``: a
plain ``re_ans`` matrix and a 2-shard ``re_ans`` container.  They must
keep loading, bit for bit, on every path a stored matrix is read
through, and saving them again writes what :func:`ans_compress` writes
now.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.core.gcm import GrammarCompressedMatrix
from repro.encoders.rans import ans_compress, lane_count, read_ans_header
from repro.encoders.varint import decode_uvarint, encode_uvarint
from repro.errors import TruncatedPayloadError
from repro.io.serialize import (
    load_matrix,
    loads_matrix,
    peek_matrix_info,
    read_matrix_info,
    save_matrix,
    saves_matrix,
)
from repro.resilience.integrity import strip_footer
from repro.serve.residency import Residency
from repro.shard import LazyShardedMatrix

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
LEGACY = ("legacy_re_ans", "legacy_re_ans_sharded")
LANED = ("legacy_re_ans_laned", "legacy_re_ans_laned_sharded")


def grammar_units(matrix) -> list:
    return list(matrix.shards) if hasattr(matrix, "shards") else [matrix]


@pytest.fixture(params=LEGACY)
def legacy(request):
    """``(path, dense source)`` of one legacy fixture."""
    name = request.param
    return FIXTURES / f"{name}.gcmx", np.load(FIXTURES / f"{name}.npy")


class TestLegacyFixtures:
    def test_fixtures_hold_single_state_streams(self, legacy):
        path, _ = legacy
        for unit in grammar_units(load_matrix(path)):
            assert unit.variant == "re_ans"
            assert read_ans_header(unit._c_storage).laned is False

    @pytest.mark.parametrize("mmap", [False, True])
    def test_loads_bit_identically(self, legacy, mmap):
        path, dense = legacy
        assert np.array_equal(load_matrix(path, mmap=mmap).to_dense(), dense)

    @pytest.mark.parametrize("mmap", [False, True])
    def test_right_and_left_multiply_match_dense(self, legacy, mmap, rng):
        path, dense = legacy
        matrix = load_matrix(path, mmap=mmap)
        x = rng.standard_normal(dense.shape[1])
        y = rng.standard_normal(dense.shape[0])
        assert np.allclose(matrix.right_multiply(x), dense @ x)
        assert np.allclose(matrix.left_multiply(y), y @ dense)

    def test_peek_reports_the_header(self, legacy):
        path, dense = legacy
        info = peek_matrix_info(path.read_bytes())
        assert info["shape"] == dense.shape
        assert info["integrity"] == "verified"
        assert read_matrix_info(path)["shape"] == dense.shape

    def test_repro_verify_passes(self, legacy, capsys):
        path, _ = legacy
        assert cli_main(["verify", str(path)]) == 0
        assert "OK" in capsys.readouterr().out

    @pytest.mark.parametrize("mmap", [False, True])
    def test_lazy_shards_under_a_one_shard_budget(self, mmap, rng):
        path = FIXTURES / "legacy_re_ans_sharded.gcmx"
        dense = np.load(FIXTURES / "legacy_re_ans_sharded.npy")
        shards = load_matrix(path).shards
        one_shard = min(s.size_bytes() for s in shards)
        lazy = LazyShardedMatrix(path, residency=Residency(one_shard), mmap=mmap)
        x = rng.standard_normal(dense.shape[1])
        y = rng.standard_normal(dense.shape[0])
        assert np.allclose(lazy.right_multiply(x), dense @ x)
        assert np.allclose(lazy.left_multiply(y), y @ dense)
        assert lazy.resident_shards <= 1
        assert lazy.residency.stats()["shard_loads"] >= 3  # shards streamed back in

    def test_resaving_writes_the_interleaved_layout(self, legacy, tmp_path):
        path, dense = legacy
        legacy_matrix = load_matrix(path)
        out = tmp_path / path.name
        save_matrix(legacy_matrix, out)
        resaved = load_matrix(out)
        assert np.array_equal(resaved.to_dense(), dense)
        for old, new in zip(
            grammar_units(legacy_matrix), grammar_units(resaved), strict=True
        ):
            assert read_ans_header(new._c_storage).laned is True
            assert np.array_equal(
                old.decode_grammar().final, new.decode_grammar().final
            )


@pytest.fixture(params=LANED)
def laned(request):
    """``(path, dense source)`` of one laned-layout fixture."""
    name = request.param
    return FIXTURES / f"{name}.gcmx", np.load(FIXTURES / f"{name}.npy")


class TestLanedFixtures:
    """The unfolded laned layout, on the same paths as the single-state
    fixtures above."""

    def test_fixtures_hold_unfolded_laned_streams(self, laned):
        path, _ = laned
        for unit in grammar_units(load_matrix(path)):
            header = read_ans_header(unit._c_storage)
            assert unit.variant == "re_ans"
            assert header.laned and header.fold is None
            lanes = decode_uvarint(unit._c_storage, header.offset)[0]
            assert lanes == lane_count(header.n) > 1

    @pytest.mark.parametrize("mmap", [False, True])
    def test_loads_bit_identically(self, laned, mmap):
        path, dense = laned
        assert np.array_equal(load_matrix(path, mmap=mmap).to_dense(), dense)

    @pytest.mark.parametrize("mmap", [False, True])
    def test_right_and_left_multiply_match_dense(self, laned, mmap, rng):
        path, dense = laned
        matrix = load_matrix(path, mmap=mmap)
        x = rng.standard_normal(dense.shape[1])
        y = rng.standard_normal(dense.shape[0])
        assert np.allclose(matrix.right_multiply(x), dense @ x)
        assert np.allclose(matrix.left_multiply(y), y @ dense)

    def test_peek_reports_the_header(self, laned):
        path, dense = laned
        info = peek_matrix_info(path.read_bytes())
        assert info["shape"] == dense.shape
        assert info["integrity"] == "verified"

    def test_repro_verify_passes(self, laned, capsys):
        path, _ = laned
        assert cli_main(["verify", str(path)]) == 0
        assert "OK" in capsys.readouterr().out

    @pytest.mark.parametrize("mmap", [False, True])
    def test_lazy_shards_under_a_one_shard_budget(self, mmap, rng):
        path = FIXTURES / "legacy_re_ans_laned_sharded.gcmx"
        dense = np.load(FIXTURES / "legacy_re_ans_laned_sharded.npy")
        shards = load_matrix(path).shards
        one_shard = min(s.size_bytes() for s in shards)
        lazy = LazyShardedMatrix(path, residency=Residency(one_shard), mmap=mmap)
        x = rng.standard_normal(dense.shape[1])
        y = rng.standard_normal(dense.shape[0])
        assert np.allclose(lazy.right_multiply(x), dense @ x)
        assert np.allclose(lazy.left_multiply(y), y @ dense)
        assert lazy.resident_shards <= 1
        assert lazy.residency.stats()["shard_loads"] >= 3  # shards streamed back in

    def test_resaving_writes_the_current_layout(self, laned, tmp_path):
        """Saving again folds these streams, which shrinks them."""
        path, dense = laned
        legacy_matrix = load_matrix(path)
        out = tmp_path / path.name
        save_matrix(legacy_matrix, out)
        resaved = load_matrix(out)
        assert np.array_equal(resaved.to_dense(), dense)
        for old, new in zip(
            grammar_units(legacy_matrix), grammar_units(resaved), strict=True
        ):
            final = old.decode_grammar().final
            assert np.array_equal(final, new.decode_grammar().final)
            assert bytes(new._c_storage) == ans_compress(final)
            assert read_ans_header(new._c_storage).fold is not None
            assert len(new._c_storage) < len(old._c_storage)
        assert out.stat().st_size < path.stat().st_size


def footerless_blob(matrix: GrammarCompressedMatrix, c_storage: bytes) -> bytes:
    """``matrix`` serialized with ``c_storage`` as its rANS stream, no footer."""
    clone = GrammarCompressedMatrix(
        matrix.variant,
        matrix.shape,
        matrix.values,
        matrix.nt_base,
        c_storage,
        matrix._r_storage,
        c_length=matrix.c_length,
        n_rules=matrix.n_rules,
    )
    return bytes(strip_footer(saves_matrix(clone)))


class TestCorruptStreamsWithoutFooter:
    """A CRC footer written after the damage cannot catch it; the rANS
    end-of-stream checks must, before any number is computed."""

    @pytest.fixture
    def matrix(self):
        dense = np.load(FIXTURES / "legacy_re_ans.npy")
        return GrammarCompressedMatrix.compress(dense, variant="re_ans")

    def corrupt(self, matrix, edit) -> bytes:
        stream = bytearray(matrix._c_storage)
        edit(stream, read_ans_header(stream))
        return footerless_blob(matrix, bytes(stream))

    def test_intact_blob_loads(self, matrix):
        blob = footerless_blob(matrix, matrix._c_storage)
        assert np.array_equal(loads_matrix(blob).to_dense(), matrix.to_dense())

    def test_flipped_payload_byte(self, matrix):
        # One of the flips the end-of-stream checks catch; they catch
        # nearly all (tests/encoders/test_rans.py), not every one.
        def flip(stream, header):
            stream[(header.offset + len(stream)) // 2] ^= 0x10

        with pytest.raises(TruncatedPayloadError):
            loads_matrix(self.corrupt(matrix, flip))

    def test_appended_byte(self, matrix):
        with pytest.raises(TruncatedPayloadError):
            loads_matrix(self.corrupt(matrix, lambda s, _h: s.append(0)))

    def test_appended_word(self, matrix):
        with pytest.raises(TruncatedPayloadError):
            loads_matrix(self.corrupt(matrix, lambda s, _h: s.extend(b"\0\0")))

    @pytest.mark.parametrize("delta", [-1, +1])
    def test_wrong_lane_count(self, matrix, delta):
        def recount(stream, header):
            stream[header.offset] += delta

        with pytest.raises(TruncatedPayloadError):
            loads_matrix(self.corrupt(matrix, recount))

    @pytest.mark.parametrize("lanes", ["zero", "above_n", "overrun"])
    def test_impossible_lane_count(self, matrix, lanes):
        def recount(stream, header):
            count = {
                "zero": 0,
                "above_n": header.n + 1,
                "overrun": (len(stream) - header.offset) // 4 + 1,
            }[lanes]
            assert lanes == "above_n" or count <= header.n
            stream[header.offset : header.offset + 1] = encode_uvarint(count)

        with pytest.raises(TruncatedPayloadError):
            loads_matrix(self.corrupt(matrix, recount))


class TestLoadTimeStreamCheck:
    """A copy load decodes an ``re_ans`` stream only when no CRC footer
    covers it; footed files and shard sections decode once, at their
    first multiply."""

    @pytest.fixture
    def decodes(self, monkeypatch):
        from repro.io import serialize

        calls = []
        real = serialize.ans_decompress

        def counting(data):
            calls.append(len(data))
            return real(data)

        monkeypatch.setattr(serialize, "ans_decompress", counting)
        return calls

    def test_footed_file_is_not_decoded_at_load(self, legacy, decodes):
        path, _ = legacy
        load_matrix(path)
        assert decodes == []

    def test_lazy_shard_loads_are_not_decoded_at_load(self, decodes, rng):
        path = FIXTURES / "legacy_re_ans_sharded.gcmx"
        lazy = LazyShardedMatrix(path, mmap=False)
        lazy.right_multiply(rng.standard_normal(lazy.shape[1]))
        assert lazy.residency.stats()["shard_loads"] == 2
        assert decodes == []

    def test_footerless_blob_is_decoded_once_at_load(self, decodes):
        dense = np.load(FIXTURES / "legacy_re_ans.npy")
        matrix = GrammarCompressedMatrix.compress(dense, variant="re_ans")
        loaded = loads_matrix(bytes(strip_footer(saves_matrix(matrix))))
        assert len(decodes) == 1
        assert np.array_equal(loaded.to_dense(), dense)
