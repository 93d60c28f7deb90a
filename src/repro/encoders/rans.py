"""Semi-static large-alphabet rANS entropy coder.

This is the stand-in for the ``ans-fold`` coder of Moffat & Petri used by
the paper's ``re_ans`` variant to store the final string ``C`` of the
RePair grammar.  Key properties mirrored from the paper's setting:

- **semi-static**: a frequency table over the (possibly very large)
  symbol alphabet is built in one pass and stored in the header;
- **large alphabet**: symbols are arbitrary non-negative integers; the
  header maps them to dense ids, so alphabets of hundreds of thousands
  of symbols (RePair nonterminals) are handled without a 2^32 table;
- **stream decode**: decoding is a forward scan, which is exactly what
  the matrix-vector multiplication kernels need (the paper notes that
  ``re_ans`` trades extra decode time during each multiplication for a
  smaller resident representation).

Probabilities are quantised to ``2^scale_bits`` slots (``scale_bits`` at
most 16).  A blob is a LEB128 header followed by one of two payload
layouts::

    uvarint n            -- number of symbols
    uvarint layout       -- scale_bits, plus LANED_MARK when interleaved
    uvarint sigma        -- alphabet size
    uvarint alphabet[0], delta-coded alphabet[1..sigma-1]
    uvarint freqs[sigma] -- quantised frequencies
    payload              -- absent when n == 0

**Interleaved lanes** (written by :func:`ans_compress`).  Symbol ``i``
goes to lane ``i mod L`` of ``L`` independent rANS states (Giesen,
"Interleaved entropy coders", arXiv:1402.3392).  Each lane is a 32-bit
state kept in ``[2^16, 2^32)`` and renormalised with 16-bit words, so a
lane reads at most one word per symbol and one decode step is a few
numpy operations over all lanes at once.  The lane count follows from
``n`` alone (:func:`lane_count`): one lane per 16 symbols, rounded up,
at most 64.  A step costs about a dozen numpy calls whatever the lane
count, and a lane about 3 bytes, so a stream of up to 1024 symbols
decodes in at most 16 steps and a longer one in ``n / 64``, for at most
~200 bytes more than the single-state layout.  The payload is
``uvarint L``, the ``L`` initial states as ``u32`` little-endian, then
the words as ``u16`` little-endian in the order the decoder reads
them: step by step, and within a step in lane order.

**Single state** (the original layout, still read).  The
byte-renormalised construction (Duda; "ryg_rans" layout): one 32-bit
state in ``[2^23, 2^31)``, stored big-endian, then the renormalisation
bytes; :class:`RansDecoder` decodes it in a per-symbol loop.

Legacy blobs are recognised by the layout field: the single-state coder
only ever wrote ``scale_bits ≤ 16`` there, and interleaved blobs add
:data:`LANED_MARK` (32).  The header bytes are otherwise identical, and
both layouts' headers are read with the array LEB128 helpers of
:mod:`repro.encoders.varint`.

Both decoders check the end of the stream: every state must be back at
the encoder's initial state and every payload byte consumed, so most
damage to a payload raises :class:`~repro.errors.EncodingError`
instead of decoding to wrong symbols.  The checks are not a checksum:
a change that moves a state to the same offset within another symbol
of the same frequency resynchronises after one wrong symbol.  On
4000-symbol test streams, 0.4–3 % of single-bit payload flips went
unnoticed that way, in either layout.  Stored files have the GCMX CRC
footer for that.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.encoders.varint import (
    decode_uvarint,
    decode_uvarints,
    encode_uvarint,
    encode_uvarints,
)
from repro.errors import EncodingError

#: Lower bound of the single-state rANS normalisation interval.
RANS_L = 1 << 23
#: Default probability quantisation (12 bits = 4096 slots).
DEFAULT_SCALE_BITS = 12
#: Largest supported quantisation; keeps the slot table small.
MAX_SCALE_BITS = 16

#: Added to ``scale_bits`` in the header's layout field of interleaved blobs.
LANED_MARK = 32
#: Lower bound of a lane state; lanes hold ``[LANE_L, 2^32)``.
LANE_L = 1 << 16
#: Bits per lane renormalisation word.
LANE_WORD_BITS = 16
#: Symbols per lane the lane count aims for; few enough that short
#: streams also take few decode steps.
SYMBOLS_PER_LANE = 16
#: Most lanes a stream is split into.
MAX_LANES = 64


def normalize_frequencies(counts: np.ndarray, scale_bits: int) -> np.ndarray:
    """Scale raw symbol counts to frequencies summing to ``2^scale_bits``.

    Every present symbol keeps a frequency of at least 1 (a zero
    frequency would make the symbol unencodable).  The residual from
    rounding is absorbed by the most frequent symbols, which perturbs
    the code lengths the least.
    """
    counts = np.asarray(counts, dtype=np.int64)
    if counts.size == 0:
        return np.zeros(0, dtype=np.int64)
    if np.any(counts <= 0):
        raise EncodingError("all symbol counts must be positive")
    target = 1 << scale_bits
    if counts.size > target:
        raise EncodingError(
            f"alphabet of {counts.size} symbols does not fit in "
            f"2^{scale_bits} probability slots"
        )
    total = int(counts.sum())
    freqs = np.maximum(1, (counts * target) // total).astype(np.int64)
    error = target - int(freqs.sum())
    # Distribute the residual one unit per symbol per pass over the
    # symbols in decreasing count order, never driving a frequency
    # below 1; the last pass stops part-way down that order.
    order = np.argsort(-counts, kind="stable")
    while error > 0:
        take = order[: min(error, order.size)]
        freqs[take] += 1
        error -= take.size
    while error < 0:
        take = order[freqs[order] > 1][:-error]
        freqs[take] -= 1
        error += take.size
    return freqs


def lane_count(n: int) -> int:
    """Lanes of an interleaved stream of ``n`` symbols.

    >>> [lane_count(n) for n in (1, 16, 17, 1024, 10**6)]
    [1, 1, 2, 64, 64]
    """
    return max(1, min(MAX_LANES, -(-n // SYMBOLS_PER_LANE)))


def _checked_freqs(freqs: np.ndarray, scale_bits: int) -> np.ndarray:
    freqs = np.asarray(freqs, dtype=np.int64)
    if freqs.size and int(freqs.sum()) != (1 << scale_bits):
        raise EncodingError(
            f"frequencies sum to {int(freqs.sum())}, "
            f"expected {1 << scale_bits}"
        )
    return freqs


class RansEncoder:
    """Encode a sequence of dense symbol ids in the single-state layout.

    :func:`ans_compress` writes the interleaved layout
    (:class:`InterleavedRansEncoder`); this encoder remains the
    reference the interleaved one is measured against.

    Parameters
    ----------
    freqs:
        Quantised frequencies per dense symbol id; must sum to
        ``2^scale_bits`` (see :func:`normalize_frequencies`).
    scale_bits:
        Probability quantisation exponent.
    """

    def __init__(self, freqs: np.ndarray, scale_bits: int = DEFAULT_SCALE_BITS):
        freqs = _checked_freqs(freqs, scale_bits)
        self._scale_bits = scale_bits
        self._freqs = freqs
        self._cum = np.zeros(freqs.size + 1, dtype=np.int64)
        np.cumsum(freqs, out=self._cum[1:])

    def encode(self, symbols: np.ndarray) -> bytes:
        """Encode dense symbol ids; returns the byte stream (decode order)."""
        freqs = self._freqs.tolist()
        cums = self._cum.tolist()
        scale_bits = self._scale_bits
        # Renormalisation threshold numerator: state must stay below
        # ((L >> scale_bits) << 8) * freq before pushing a symbol.
        x_max_base = (RANS_L >> scale_bits) << 8
        out = bytearray()
        x = RANS_L
        # rANS encodes in reverse so that decoding is a forward scan.
        for s in reversed(np.asarray(symbols, dtype=np.int64).tolist()):
            f = freqs[s]
            x_max = x_max_base * f
            while x >= x_max:
                out.append(x & 0xFF)
                x >>= 8
            x = ((x // f) << scale_bits) + (x % f) + cums[s]
        out.extend(x.to_bytes(4, "little"))
        out.reverse()
        return bytes(out)


class RansDecoder:
    """Decode a single-state byte stream produced by :class:`RansEncoder`."""

    def __init__(self, freqs: np.ndarray, scale_bits: int = DEFAULT_SCALE_BITS):
        freqs = np.asarray(freqs, dtype=np.int64)
        self._scale_bits = scale_bits
        cum = np.zeros(freqs.size + 1, dtype=np.int64)
        np.cumsum(freqs, out=cum[1:])
        # slot -> symbol lookup table (2^scale_bits entries).
        self._slot2sym = np.repeat(
            np.arange(freqs.size, dtype=np.int64), freqs
        ).tolist()
        self._freqs = freqs.tolist()
        self._cum = cum.tolist()

    def decode(self, data: bytes, n: int) -> np.ndarray:
        """Decode ``n`` dense symbol ids from ``data``."""
        if n == 0:
            return np.zeros(0, dtype=np.int64)
        if len(data) < 4:
            raise EncodingError("rANS stream truncated (missing state)")
        scale_bits = self._scale_bits
        mask = (1 << scale_bits) - 1
        slot2sym = self._slot2sym
        freqs = self._freqs
        cums = self._cum
        pos = 4
        x = int.from_bytes(data[:4], "big")
        size = len(data)
        out = [0] * n
        for i in range(n):
            slot = x & mask
            s = slot2sym[slot]
            out[i] = s
            x = freqs[s] * (x >> scale_bits) + slot - cums[s]
            while x < RANS_L:
                if pos >= size:
                    raise EncodingError("rANS stream truncated (payload)")
                x = (x << 8) | data[pos]
                pos += 1
        if x != RANS_L or pos != size:
            raise EncodingError(
                "rANS stream corrupt (state or length wrong at end of stream)"
            )
        return np.asarray(out, dtype=np.int64)


class InterleavedRansEncoder:
    """Encode dense symbol ids in the interleaved-lane layout.

    Same parameters as :class:`RansEncoder`.  Every lane starts at
    :data:`LANE_L`; the encoder runs the steps in reverse, all lanes of
    a step at once, so that decoding is a forward scan.
    """

    def __init__(self, freqs: np.ndarray, scale_bits: int = DEFAULT_SCALE_BITS):
        freqs = _checked_freqs(freqs, scale_bits)
        self._scale_bits = scale_bits
        self._freqs = freqs
        self._cum = np.cumsum(freqs) - freqs

    def encode(self, symbols: np.ndarray) -> bytes:
        """Encode dense symbol ids; returns the payload (decode order)."""
        symbols = np.asarray(symbols, dtype=np.int64).ravel()
        n = symbols.size
        if n == 0:
            return b""
        lanes = lane_count(n)
        scale_bits = self._scale_bits
        freq = self._freqs[symbols]
        cum = self._cum[symbols]
        # A lane emits one word before pushing symbol s once its state
        # reaches freq[s] << (32 - scale_bits).
        x_max = freq << (32 - scale_bits)
        x = np.full(lanes, LANE_L, dtype=np.int64)
        chunks = []
        for lo in range(lanes * ((n - 1) // lanes), -1, -lanes):
            step = slice(lo, lo + lanes)
            f = freq[step]
            state = x[: f.size]
            full = state >= x_max[step]
            chunks.append(state[full] & 0xFFFF)
            state[full] >>= LANE_WORD_BITS
            q, r = np.divmod(state, f)
            state[:] = (q << scale_bits) + r + cum[step]
        words = np.concatenate(chunks[::-1]).astype("<u2")
        return encode_uvarint(lanes) + x.astype("<u4").tobytes() + words.tobytes()


class InterleavedRansDecoder:
    """Decode a payload produced by :class:`InterleavedRansEncoder`."""

    def __init__(self, freqs: np.ndarray, scale_bits: int = DEFAULT_SCALE_BITS):
        freqs = np.asarray(freqs, dtype=np.int64)
        self._scale_bits = scale_bits
        # Per-slot tables: a decode step is x -> freq * (x >> scale_bits)
        # + (slot - cum), both terms looked up by the state's slot.
        slot2sym = np.repeat(np.arange(freqs.size, dtype=np.int64), freqs)
        self._slot2sym = slot2sym
        self._slot_freq = freqs[slot2sym]
        self._slot_bias = (
            np.arange(slot2sym.size, dtype=np.int64)
            - (np.cumsum(freqs) - freqs)[slot2sym]
        )

    def decode(self, data, n: int) -> np.ndarray:
        """Decode ``n`` dense symbol ids from ``data``."""
        if n == 0:
            return np.zeros(0, dtype=np.int64)
        lanes, pos = decode_uvarint(data, 0)
        if not 1 <= lanes <= n:
            raise EncodingError(f"rANS lane count {lanes} invalid for {n} symbols")
        if pos + 4 * lanes > len(data):
            raise EncodingError(
                f"rANS stream truncated ({lanes} lane states overrun the payload)"
            )
        if (len(data) - pos) % 2:
            raise EncodingError("rANS stream has a trailing byte")
        x = np.frombuffer(data, dtype="<u4", count=lanes, offset=pos).astype(np.int64)
        words = np.frombuffer(data, dtype="<u2", offset=pos + 4 * lanes)
        words = words.astype(np.int64)
        if int(x.min()) < LANE_L:
            raise EncodingError("rANS lane state below the normalisation bound")
        slot_freq, slot_bias = self._slot_freq, self._slot_bias
        # Per-lane constants: numpy dispatches array-array operations
        # faster than array-scalar ones, and a step is all dispatch.
        mask = np.full(lanes, (1 << self._scale_bits) - 1)
        scale = np.full(lanes, self._scale_bits)
        bound = np.full(lanes, LANE_L)
        word_bits = np.full(lanes, LANE_WORD_BITS)
        steps, last = divmod(n, lanes)
        slots = np.empty((steps + (last > 0), lanes), dtype=np.int64)
        done = x[:0]  # lanes without a symbol in the last, partial step
        used = 0
        for step, slot in enumerate(slots):
            if step == steps:
                done, x = x[last:], x[:last]
                slot, mask, scale, bound = slot[:last], mask[:last], scale[:last], bound[:last]
            np.bitwise_and(x, mask, out=slot)
            x = slot_freq[slot] * (x >> scale) + slot_bias[slot]
            low = (x < bound).nonzero()[0]
            if low.size:
                if used + low.size > words.size:
                    raise EncodingError("rANS stream truncated (payload)")
                x[low] = (x[low] << word_bits[: low.size]) | words[used : used + low.size]
                used += low.size
        if used != words.size or np.any(x != LANE_L) or np.any(done != LANE_L):
            raise EncodingError(
                "rANS stream corrupt (lane states or length wrong at end of stream)"
            )
        return self._slot2sym[slots.ravel()[:n]]


class AnsHeader(NamedTuple):
    """The parsed header of an :func:`ans_compress` blob."""

    n: int
    scale_bits: int
    laned: bool
    alphabet: np.ndarray
    freqs: np.ndarray
    #: offset of the payload within the blob
    offset: int


def read_ans_header(data) -> AnsHeader:
    """Parse and check the header of an :func:`ans_compress` blob.

    ``data`` is any contiguous byte buffer (``bytes``, a
    :class:`memoryview`, a ``uint8`` array view).
    """
    data = memoryview(data).cast("B")
    n, pos = decode_uvarint(data, 0)
    layout, pos = decode_uvarint(data, pos)
    laned = layout >= LANED_MARK
    scale_bits = layout - LANED_MARK if laned else layout
    if scale_bits > MAX_SCALE_BITS:
        raise EncodingError(f"unknown rANS layout field {layout}")
    sigma, pos = decode_uvarint(data, pos)
    if sigma > (1 << scale_bits) or (n > 0) != (sigma > 0):
        raise EncodingError(
            f"rANS alphabet of {sigma} symbols invalid for {n} symbols "
            f"at scale {scale_bits}"
        )
    table, pos = decode_uvarints(data, pos, 2 * sigma)
    alphabet = np.cumsum(table[:sigma])
    if sigma and (
        np.any(alphabet[1:] <= alphabet[:-1])
        or int(alphabet[-1]) > np.iinfo(np.int64).max
    ):
        raise EncodingError("rANS alphabet corrupt (not increasing)")
    freqs = table[sigma:].astype(np.int64)
    if sigma and (int(freqs.min()) < 1 or int(freqs.sum()) != (1 << scale_bits)):
        raise EncodingError(
            f"rANS frequencies (min {int(freqs.min())}, sum "
            f"{int(freqs.sum())}) do not fill {1 << scale_bits} slots"
        )
    return AnsHeader(n, scale_bits, laned, alphabet.astype(np.int64), freqs, pos)


def ans_compress(values: np.ndarray, scale_bits: int = DEFAULT_SCALE_BITS) -> bytes:
    """Compress an integer array into a self-describing ANS blob.

    Writes the interleaved-lane layout described in the module
    docstring.

    Parameters
    ----------
    values:
        Non-negative integers (any magnitude).
    scale_bits:
        Requested probability quantisation; automatically raised when
        the alphabet is too large for the requested number of slots.
    """
    arr = np.asarray(values, dtype=np.int64).ravel()
    if arr.size and int(arr.min()) < 0:
        raise EncodingError("ans_compress requires non-negative values")
    alphabet, dense = np.unique(arr, return_inverse=True)
    counts = np.bincount(dense, minlength=alphabet.size).astype(np.int64)
    while alphabet.size > (1 << scale_bits):
        scale_bits += 1
    if scale_bits > MAX_SCALE_BITS:
        raise EncodingError(
            f"alphabet of {alphabet.size} symbols exceeds the "
            f"2^{MAX_SCALE_BITS} slot limit"
        )
    freqs = normalize_frequencies(counts, scale_bits) if alphabet.size else counts
    header = (
        encode_uvarint(arr.size)
        + encode_uvarint(scale_bits + LANED_MARK)
        + encode_uvarint(alphabet.size)
        + encode_uvarints(np.concatenate([np.diff(alphabet, prepend=0), freqs]))
    )
    return header + InterleavedRansEncoder(freqs, scale_bits).encode(dense)


def ans_recode(data) -> bytes:
    """``data`` in the layout :func:`ans_compress` writes.

    Interleaved blobs come back unchanged; single-state blobs are
    decoded and re-encoded at their own ``scale_bits``.
    """
    header = read_ans_header(data)
    if header.laned:
        return bytes(data)
    return ans_compress(ans_decompress(data), scale_bits=header.scale_bits)


def ans_decompress(data) -> np.ndarray:
    """Inverse of :func:`ans_compress`; also reads single-state blobs.

    ``data`` is any contiguous byte buffer, read without a copy.
    """
    data = memoryview(data).cast("B")
    header = read_ans_header(data)
    payload = data[header.offset :]
    if header.n == 0:
        if len(payload):
            raise EncodingError("rANS stream of 0 symbols has a payload")
        return np.zeros(0, dtype=np.int64)
    decoder = InterleavedRansDecoder if header.laned else RansDecoder
    dense = decoder(header.freqs, header.scale_bits).decode(payload, header.n)
    return header.alphabet[dense]
