"""Tests for the binary serialization format."""

import numpy as np
import pytest

from repro.core.blocked import BlockedMatrix
from repro.core.csrv import CSRVMatrix
from repro.core.gcm import VARIANTS, GrammarCompressedMatrix
from repro.errors import ReproError, SerializationError
from repro.io.serialize import load_matrix, loads_matrix, save_matrix, saves_matrix


class TestRoundtrip:
    def test_csrv(self, structured_matrix):
        csrv = CSRVMatrix.from_dense(structured_matrix)
        back = loads_matrix(saves_matrix(csrv))
        assert isinstance(back, CSRVMatrix)
        assert back == csrv

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_gcm(self, structured_matrix, variant):
        gm = GrammarCompressedMatrix.compress(structured_matrix, variant=variant)
        back = loads_matrix(saves_matrix(gm))
        assert back.variant == variant
        assert np.array_equal(back.to_dense(), structured_matrix)
        assert back.size_bytes() == gm.size_bytes()

    @pytest.mark.parametrize("variant", ["csrv", "re_32", "re_iv", "re_ans"])
    def test_blocked(self, structured_matrix, variant):
        bm = BlockedMatrix.compress(structured_matrix, variant=variant, n_blocks=3)
        back = loads_matrix(saves_matrix(bm))
        assert isinstance(back, BlockedMatrix)
        assert back.n_blocks == 3
        assert np.array_equal(back.to_dense(), structured_matrix)

    def test_blocked_auto_mixed_formats(self, rng):
        # An 'auto' blocked matrix can mix physical block formats; the
        # serializer must round-trip each block with its own kind tag.
        top = np.tile(rng.integers(1, 4, size=(5, 8)).astype(float), (20, 1))
        bottom = rng.standard_normal((100, 8))
        matrix = np.vstack([top, bottom])
        bm = BlockedMatrix.compress(matrix, variant="auto", n_blocks=2)
        back = loads_matrix(saves_matrix(bm))
        assert np.array_equal(back.to_dense(), matrix)
        assert [type(b).__name__ for b in back.blocks] == [
            type(b).__name__ for b in bm.blocks
        ]

    def test_multiplication_after_roundtrip(self, structured_matrix, rng):
        gm = GrammarCompressedMatrix.compress(structured_matrix, variant="re_ans")
        back = loads_matrix(saves_matrix(gm))
        x = rng.standard_normal(structured_matrix.shape[1])
        assert np.allclose(back.right_multiply(x), structured_matrix @ x)

    def test_file_roundtrip(self, structured_matrix, tmp_path):
        gm = GrammarCompressedMatrix.compress(structured_matrix)
        path = tmp_path / "m.gcmx"
        save_matrix(gm, path)
        back = load_matrix(path)
        assert np.array_equal(back.to_dense(), structured_matrix)

    def test_blocked_values_stored_once(self, structured_matrix):
        bm = BlockedMatrix.compress(structured_matrix, variant="re_32", n_blocks=4)
        blob = saves_matrix(bm)
        v_bytes = 8 * bm.blocks[0].values.size
        single = saves_matrix(bm.blocks[0])
        # The blob must be far smaller than 4 standalone blocks would
        # be if V were duplicated; sanity: blob < 4 singles.
        assert len(blob) < 4 * len(single) + v_bytes


class TestErrorHandling:
    def test_blocked_block_of_wrong_width_rejected(self):
        # A blocked payload whose second block has 3 columns under a
        # 4-column header: the load must fail typed, not the first
        # multiply with a bare numpy broadcast error.
        from repro.io.serialize import (
            KIND_BLOCKED,
            KIND_GCM,
            _header,
            _put_floats,
            _put_shape,
            encode_uvarint,
            gcm_payload,
        )

        top = GrammarCompressedMatrix.compress(np.array([[1.0, 2.0, 1.0, 2.0]] * 2))
        narrow = GrammarCompressedMatrix.compress(np.array([[1.0, 2.0, 1.0]] * 2))
        blob = (
            _header(KIND_BLOCKED)
            + _put_shape((4, 4))
            + encode_uvarint(2)
            + _put_floats(top.values)
            + bytes([KIND_GCM])
            + gcm_payload(top, include_values=False)
            + bytes([KIND_GCM])
            + gcm_payload(narrow, include_values=False)
        )
        with pytest.raises(ReproError):
            loads_matrix(blob)

    def test_bad_magic(self):
        with pytest.raises(SerializationError):
            loads_matrix(b"NOPE" + b"\x00" * 10)

    def test_bad_version(self, paper_matrix):
        blob = bytearray(saves_matrix(CSRVMatrix.from_dense(paper_matrix)))
        blob[4] = 99
        with pytest.raises(SerializationError):
            loads_matrix(bytes(blob))

    def test_bad_kind(self, paper_matrix):
        blob = bytearray(saves_matrix(CSRVMatrix.from_dense(paper_matrix)))
        blob[5] = 99
        with pytest.raises(SerializationError):
            loads_matrix(bytes(blob))

    def test_truncated_blob(self, structured_matrix):
        blob = saves_matrix(GrammarCompressedMatrix.compress(structured_matrix))
        with pytest.raises(SerializationError):
            loads_matrix(blob[: len(blob) // 2])

    def test_unsupported_object(self):
        with pytest.raises(SerializationError):
            saves_matrix(np.ones((2, 2)))

    def test_compact_blob(self, structured_matrix):
        # The serialized grammar matrix must be smaller than the dense
        # bytes for a structured input.
        gm = GrammarCompressedMatrix.compress(
            np.tile(structured_matrix, (5, 1)), variant="re_ans"
        )
        blob = saves_matrix(gm)
        assert len(blob) < structured_matrix.size * 5 * 8
