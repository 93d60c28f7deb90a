"""Tests for LEB128 varints."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.encoders.varint import (
    decode_uvarint,
    decode_uvarints,
    encode_uvarint,
    encode_uvarints,
)
from repro.errors import EncodingError


class TestEncode:
    def test_zero(self):
        assert encode_uvarint(0) == b"\x00"

    def test_single_byte_boundary(self):
        assert encode_uvarint(127) == b"\x7f"
        assert encode_uvarint(128) == b"\x80\x01"

    def test_known_value(self):
        assert encode_uvarint(300) == b"\xac\x02"

    def test_negative_rejected(self):
        with pytest.raises(EncodingError):
            encode_uvarint(-1)


class TestDecode:
    def test_known_value(self):
        assert decode_uvarint(b"\xac\x02") == (300, 2)

    def test_offset(self):
        data = b"\xff" + encode_uvarint(5)
        assert decode_uvarint(data, offset=1) == (5, 2)

    def test_truncated(self):
        with pytest.raises(EncodingError):
            decode_uvarint(b"\x80")

    def test_empty(self):
        with pytest.raises(EncodingError):
            decode_uvarint(b"")

    def test_overlong_rejected(self):
        with pytest.raises(EncodingError):
            decode_uvarint(b"\x80" * 11 + b"\x01")

    def test_sequence_of_varints(self):
        data = encode_uvarint(1) + encode_uvarint(1000) + encode_uvarint(0)
        v1, p = decode_uvarint(data)
        v2, p = decode_uvarint(data, p)
        v3, p = decode_uvarint(data, p)
        assert (v1, v2, v3) == (1, 1000, 0)
        assert p == len(data)


@given(st.integers(min_value=0, max_value=(1 << 63) - 1))
def test_property_roundtrip(value):
    encoded = encode_uvarint(value)
    decoded, consumed = decode_uvarint(encoded)
    assert decoded == value
    assert consumed == len(encoded)


@given(st.integers(min_value=0, max_value=(1 << 32) - 1))
def test_property_length_monotone(value):
    # Longer values never encode shorter than smaller values of the
    # same byte class.
    assert len(encode_uvarint(value)) == max(1, -(-value.bit_length() // 7))


#: Values at every encoded-length boundary, up to the 9- and 10-byte
#: encodings of the largest 64-bit values.
EDGES = [0, 1, 127, 128, 300, 2**14, 2**56 - 1, 2**56, 2**63 - 1, 2**63, 2**64 - 1]


def scalar_encoding(values) -> bytes:
    return b"".join(encode_uvarint(int(v)) for v in values)


class TestArrayHelpers:
    def test_edge_lengths(self):
        assert [len(encode_uvarint(v)) for v in (2**56, 2**63, 2**64 - 1)] == [9, 10, 10]

    def test_encode_matches_scalar(self):
        edges = np.array(EDGES, dtype=np.uint64)
        assert encode_uvarints(edges) == scalar_encoding(EDGES)

    def test_decode_matches_scalar(self):
        data = b"\xff\xff" + scalar_encoding(EDGES)
        values, end = decode_uvarints(data, 2, len(EDGES))
        assert values.dtype == np.uint64
        assert values.tolist() == EDGES
        assert end == len(data)

    def test_decode_stops_after_count(self):
        data = scalar_encoding([5, 300, 7])
        values, end = decode_uvarints(data, 0, 2)
        assert values.tolist() == [5, 300]
        assert decode_uvarint(data, end) == (7, len(data))

    def test_empty(self):
        assert encode_uvarints(np.zeros(0, dtype=np.int64)) == b""
        values, end = decode_uvarints(b"", 0, 0)
        assert values.size == 0 and end == 0

    def test_negative_rejected(self):
        with pytest.raises(EncodingError):
            encode_uvarints(np.array([3, -1]))

    def test_every_truncation_rejected(self):
        data = scalar_encoding(EDGES)
        for cut in range(len(data)):
            with pytest.raises(EncodingError):
                decode_uvarints(data[:cut], 0, len(EDGES))

    def test_overlong_rejected(self):
        with pytest.raises(EncodingError):
            decode_uvarints(b"\x80" * 10 + b"\x01", 0, 1)
        # a 10th byte above 1 would carry bits past 64
        with pytest.raises(EncodingError):
            decode_uvarints(b"\xff" * 9 + b"\x02", 0, 1)


@given(
    values=st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=60),
    prefix=st.binary(max_size=4),
)
def test_property_array_helpers_match_scalar(values, prefix):
    encoded = encode_uvarints(np.array(values, dtype=np.uint64))
    assert encoded == scalar_encoding(values)
    decoded, end = decode_uvarints(prefix + encoded, len(prefix), len(values))
    assert decoded.tolist() == values
    assert end == len(prefix) + len(encoded)
