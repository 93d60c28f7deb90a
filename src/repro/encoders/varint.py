"""LEB128 variable-length unsigned integers.

Used by :mod:`repro.io.serialize` for headers and small counters so that
serialized blobs stay compact without committing to a fixed field width.
:func:`encode_uvarints` / :func:`decode_uvarints` write and read a run
of values in a few numpy passes, byte-identical to calling the scalar
helpers once per value; the rANS frequency table
(:mod:`repro.encoders.rans`) is the run they exist for.
"""

from __future__ import annotations

import numpy as np

from repro.errors import EncodingError

#: Longest LEB128 encoding of a 64-bit value.
MAX_UVARINT_BYTES = 10

#: ``_THRESHOLDS[k]`` is the smallest value that needs ``k + 2`` bytes.
_THRESHOLDS = np.array(
    [1 << (7 * k) for k in range(1, MAX_UVARINT_BYTES)], dtype=np.uint64
)


def encode_uvarint(value: int) -> bytes:
    """Encode a non-negative integer as LEB128 bytes.

    >>> encode_uvarint(0)
    b'\\x00'
    >>> encode_uvarint(300).hex()
    'ac02'
    """
    if value < 0:
        raise EncodingError(f"uvarint cannot encode negative value {value}")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_uvarint(data: bytes, offset: int = 0) -> tuple[int, int]:
    """Decode a LEB128 integer from ``data`` starting at ``offset``.

    Returns ``(value, next_offset)``.

    >>> decode_uvarint(b'\\xac\\x02')
    (300, 2)
    """
    result = 0
    shift = 0
    pos = offset
    while True:
        if pos >= len(data):
            raise EncodingError("uvarint truncated")
        if shift > 63:
            raise EncodingError("uvarint too long (max 64 bits)")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


def encode_uvarints(values) -> bytes:
    """LEB128-encode every value of a non-negative integer array, in order.

    >>> encode_uvarints([1, 300, 0]).hex()
    '01ac0200'
    """
    arr = np.asarray(values)
    if arr.size and arr.dtype.kind == "i" and int(arr.min()) < 0:
        raise EncodingError(
            f"uvarint cannot encode negative value {int(arr.min())}"
        )
    v = arr.astype(np.uint64).ravel()
    lengths = _uvarint_lengths(v)
    starts = np.cumsum(lengths) - lengths
    out = np.empty(int(starts[-1] + lengths[-1]) if v.size else 0, dtype=np.uint8)
    # Byte k of every varint longer than k, one pass per byte position.
    for k in range(int(lengths.max(initial=0))):
        idx = np.flatnonzero(lengths > k)
        low = ((v[idx] >> np.uint64(7 * k)) & np.uint64(0x7F)).astype(np.uint8)
        more = (lengths[idx] > k + 1).view(np.uint8) << 7
        out[starts[idx] + k] = low | more
    return out.tobytes()


def uvarints_size(values) -> int:
    """Bytes :func:`encode_uvarints` writes for ``values``, without
    writing them.

    >>> uvarints_size([1, 300, 0])
    4
    """
    return int(_uvarint_lengths(np.asarray(values).astype(np.uint64).ravel()).sum())


def _uvarint_lengths(v: np.ndarray) -> np.ndarray:
    """LEB128 length in bytes of every value of a ``uint64`` array."""
    lengths = np.ones(v.size, dtype=np.intp)
    for threshold in _THRESHOLDS[_THRESHOLDS <= v.max(initial=0)]:
        lengths += v >= threshold
    return lengths


def decode_uvarints(data, offset: int, count: int) -> tuple[np.ndarray, int]:
    """Decode ``count`` consecutive LEB128 integers starting at ``offset``.

    Returns ``(values, next_offset)`` with ``values`` as ``uint64``.
    Fails like :func:`decode_uvarint` on truncated input and on varints
    longer than 64 bits.

    >>> values, end = decode_uvarints(bytes.fromhex('01ac0200'), 0, 3)
    >>> values.tolist(), end
    ([1, 300, 0], 4)
    """
    if count == 0:
        return np.zeros(0, dtype=np.uint64), offset
    # No varint of the run is longer than MAX_UVARINT_BYTES, so the run
    # lies within this window.
    window = min(len(data) - offset, MAX_UVARINT_BYTES * count)
    if window <= 0:
        raise EncodingError("uvarint truncated")
    raw = np.frombuffer(data, dtype=np.uint8, count=window, offset=offset)
    ends = np.flatnonzero(raw < 0x80)[:count]
    if ends.size < count:
        raise EncodingError("uvarint truncated (or longer than 64 bits)")
    starts = np.concatenate(([0], ends[:-1] + 1))
    lengths = ends - starts + 1
    longest = int(lengths.max())
    # A 10-byte varint carries bit 63 in its last byte and nothing more.
    if longest > MAX_UVARINT_BYTES or (
        longest == MAX_UVARINT_BYTES
        and int(raw[ends[lengths == longest]].max()) > 1
    ):
        raise EncodingError("uvarint too long (max 64 bits)")
    values = (raw[starts] & 0x7F).astype(np.uint64)
    # Byte k of every varint longer than k, one pass per byte position.
    for k in range(1, longest):
        idx = np.flatnonzero(lengths > k)
        byte = (raw[starts[idx] + k] & 0x7F).astype(np.uint64)
        values[idx] |= byte << np.uint64(7 * k)
    return values, offset + int(ends[-1]) + 1
