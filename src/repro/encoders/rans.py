"""Semi-static large-alphabet rANS entropy coder.

This is the stand-in for the ``ans-fold`` coder of Moffat & Petri
("Large-alphabet semi-static entropy coding via asymmetric numeral
systems", ACM TOIS 2020) used by the paper's ``re_ans`` variant to
store the final string ``C`` of the RePair grammar.  Key properties
mirrored from the paper's setting:

- **semi-static**: the symbols are counted in one pass and the model
  (the coded alphabet and its quantised frequencies) is stored in the
  header;
- **large alphabet, small model**: symbols are arbitrary non-negative
  64-bit integers.  As in ans-fold, large symbols are *folded*: a
  symbol is coded as a bucket of values sharing its magnitude and
  leading bits, and its remaining low bits are stored raw, so the
  model stays small however many distinct symbols ``C`` holds;
- **stream decode**: decoding is a forward scan, which is exactly what
  the matrix-vector multiplication kernels need (the paper notes that
  ``re_ans`` trades extra decode time during each multiplication for a
  smaller resident representation).

Probabilities are quantised to ``2^scale_bits`` slots (``scale_bits`` at
most 16).  A blob is a LEB128 header followed by one of three payload
layouts::

    uvarint n            -- number of symbols
    uvarint layout       -- scale_bits, plus LANED_MARK or FOLDED_MARK
    uvarint F, t         -- folded layout only: the fold
    uvarint sigma        -- size of the coded alphabet
    uvarint alphabet[0], delta-coded alphabet[1..sigma-1]
    uvarint freqs[sigma] -- quantised frequencies
    uvarint raw_bytes    -- folded layout only: side stream length
    payload              -- absent when n == 0

**Interleaved lanes** (the "laned" layout).  The alphabet is the
distinct symbols themselves.  Symbol ``i`` goes to lane ``i mod L`` of
``L`` independent rANS states (Giesen, "Interleaved entropy coders",
arXiv:1402.3392).  Each lane is a 32-bit state kept in ``[2^16, 2^32)``
and renormalised with 16-bit words, so a lane reads at most one word
per symbol and one decode step is a few numpy operations over all
lanes at once.  The lane count follows from ``n`` alone
(:func:`lane_count`): one lane per 16 symbols, rounded up, at most 64.
The payload is ``uvarint L``, the ``L`` initial states as ``u32``
little-endian, then the words as ``u16`` little-endian in the order the
decoder reads them: step by step, and within a step in lane order.

**Folded** (the ans-fold layout).  Two small parameters ``F`` and ``t``
(``t <= F``) fold the symbols.  A symbol below ``2^F`` is its own
bucket.  A larger symbol ``v`` of bit length ``b`` is bucket
``2^F + (b - F - 1) * 2^t + lead``, where ``lead`` is the ``t`` bits
below its top bit, and its ``b - 1 - t`` low bits go to a side stream
of raw bits.  The alphabet is the buckets present, and the buckets are
coded as a laned stream.  The payload is the laned payload, then the
side stream (``raw_bytes`` bytes: each symbol's raw bits in symbol
order, least significant bit first, zero-padded to a byte).  The decoder
runs the same step loop over the buckets, then maps every bucket to its
base value and raw width with two per-bucket tables and gathers all the
raw bits in one whole-array pass.

**Single state** (the original layout, still read).  The
byte-renormalised construction (Duda; "ryg_rans" layout): one 32-bit
state in ``[2^23, 2^31)``, stored big-endian, then the renormalisation
bytes; :class:`RansDecoder` decodes it in a per-symbol loop.

:func:`ans_compress` counts the symbols once, bounds the laned
layout's size and prices every fold of :data:`FOLDS` from the counts,
and encodes once, in the smaller layout; a stream that folding would
not shrink is written in the laned layout byte for byte as before
folding existed.  A step costs about a dozen numpy calls whatever the
lane count, so a folded stream spends the bytes its smaller model saved
on lanes: one more lane per :data:`LANE_BYTES_MAX` bytes saved, up to
one lane per 16 symbols and at most :data:`MAX_FOLDED_LANES`.  It still
comes out no larger than the laned stream, and when it saved enough it
decodes in at most 16 steps (up to ``16 * MAX_FOLDED_LANES`` symbols).

Legacy blobs are recognised by the layout field: the single-state coder
only ever wrote ``scale_bits ≤ 16`` there, laned blobs add
:data:`LANED_MARK` (32) and folded ones :data:`FOLDED_MARK` (64).  All
headers are read with the array LEB128 helpers of
:mod:`repro.encoders.varint`, and :func:`ans_recode` rewrites the two
older layouts in the one :func:`ans_compress` writes now.

Every decoder checks the end of the stream: every state must be back at
the encoder's initial state, every payload byte consumed, and a folded
stream's side stream must hold exactly the raw bits its buckets call
for, padding zero, so most damage to a payload raises
:class:`~repro.errors.EncodingError` instead of decoding to wrong
symbols.  The checks are not a checksum: a change that moves a state to
the same offset within another symbol of the same frequency
resynchronises after one wrong symbol, and a flipped raw bit changes
one symbol's low bits.  On 4000-symbol test streams, 0.4–3 % of
single-bit flips of a laned payload went unnoticed that way, in either
of the two older layouts.  Stored files have the GCMX CRC footer for
that.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.encoders.varint import (
    decode_uvarint,
    decode_uvarints,
    encode_uvarint,
    encode_uvarints,
    uvarints_size,
)
from repro.errors import EncodingError

#: Lower bound of the single-state rANS normalisation interval.
RANS_L = 1 << 23
#: Default probability quantisation (12 bits = 4096 slots).
DEFAULT_SCALE_BITS = 12
#: Largest supported quantisation; keeps the slot table small.
MAX_SCALE_BITS = 16

#: Added to ``scale_bits`` in the header's layout field of laned blobs.
LANED_MARK = 32
#: Added to ``scale_bits`` in the header's layout field of folded blobs.
FOLDED_MARK = 64
#: Lower bound of a lane state; lanes hold ``[LANE_L, 2^32)``.
LANE_L = 1 << 16
#: Bits per lane renormalisation word.
LANE_WORD_BITS = 16
#: Symbols per lane the lane count aims for; few enough that short
#: streams also take few decode steps.
SYMBOLS_PER_LANE = 16
#: Most lanes of a laned-layout stream.
MAX_LANES = 64
#: Most lanes of a folded stream.  Past this a step's numpy calls stop
#: being dispatch-bound and more lanes buy little decode time.
MAX_FOLDED_LANES = 1024
#: What a lane adds to a payload: its 4-byte final state, less the
#: 0–16 bits of the stream that state holds, which would otherwise
#: have gone out as words.
LANE_BYTES_MIN, LANE_BYTES_MAX = 2, 4
#: The folds :func:`ans_compress` prices, as ``(d, t)``: ``F`` is the
#: bit length of the largest symbol less ``d``, at most
#: :data:`MAX_FOLD_BITS`.  Chosen on the ``C`` of the paper's seven
#: profiles (whole and in 16 blocks) and of the serving benchmark's
#: ``re_ans`` matrices.
FOLDS = ((1, 4), (1, 5), (2, 5), (7, 2), (8, 4), (8, 6), (8, 8), (9, 1))
#: Largest ``F`` a fold picks, so that the buckets of any stream fit
#: in ``2^MAX_SCALE_BITS`` slots: at most ``2^15`` below ``2^F`` and
#: ``(63 - F) * 2^t`` above it, with ``t`` at most 8 in :data:`FOLDS`.
MAX_FOLD_BITS = 15

_POWERS_OF_TWO = np.left_shift(1, np.arange(63, dtype=np.int64))


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
    """Lanes of a laned-layout stream of ``n`` symbols.

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

    :func:`ans_compress` writes the laned and folded layouts
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
        """Encode dense symbol ids in :func:`lane_count` lanes; returns
        the payload (decode order)."""
        symbols = np.asarray(symbols, dtype=np.int64).ravel()
        return self._encode(symbols, lane_count(symbols.size))

    def _encode(self, symbols: np.ndarray, lanes: int) -> bytes:
        n = symbols.size
        if n == 0:
            return b""
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
    """Decode a payload produced by :class:`InterleavedRansEncoder`, in
    any number of lanes."""

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


# -- the fold -----------------------------------------------------------------------


def _bit_length(values: np.ndarray) -> np.ndarray:
    """``int.bit_length`` of every non-negative value."""
    return np.searchsorted(_POWERS_OF_TWO, values, side="right")


def _fold(alphabet: np.ndarray, length: np.ndarray, fold_bits: int, lead_bits: int):
    """``(bucket, raw width)`` of every symbol of a sorted ``alphabet``
    of bit lengths ``length``.

    Buckets come out non-decreasing, like the alphabet.
    """
    folded = alphabet >= (1 << fold_bits)
    width = np.where(folded, length - 1 - lead_bits, 0)
    lead = alphabet >> width  # the top bit and the t bits below it
    bucket = np.where(
        folded,
        (1 << fold_bits) + (length - fold_bits - 2) * (1 << lead_bits) + lead,
        alphabet,
    )
    return bucket, width


def _unfold(buckets: np.ndarray, fold_bits: int, lead_bits: int):
    """``(base value, raw width)`` of every bucket of a folded stream."""
    above = buckets - (1 << fold_bits)
    folded = above >= 0
    width = np.where(folded, (above >> lead_bits) + fold_bits - lead_bits, 0)
    lead = (1 << lead_bits) + (above & ((1 << lead_bits) - 1))
    base = np.where(folded, lead << width, buckets)
    return base, width


def _write_raw(raw: np.ndarray, widths: np.ndarray) -> bytes:
    """Pack each ``raw[i]`` in ``widths[i]`` bits, least significant bit
    first, in symbol order; zero-padded to a byte."""
    ends = np.cumsum(widths)
    total = int(ends[-1]) if ends.size else 0
    if total == 0:
        return b""
    starts = ends - widths
    word = starts >> 6
    shift = (starts & 63).astype(np.uint64)
    raw = raw.astype(np.uint64)
    # A value starting at bit s of word k fills word k from bit s up and
    # spills its top bits into word k + 1; no value spans three words.
    # The words of successive values never decrease, so each word's
    # pieces are one run of values, OR-ed together by reduceat.
    low = raw << shift
    high = (raw >> np.uint64(1)) >> (np.uint64(63) - shift)
    runs = np.flatnonzero(np.diff(word, prepend=-1))
    words = np.zeros(total // 64 + 2, dtype="<u8")
    words[word[runs]] = np.bitwise_or.reduceat(low, runs)
    words[word[runs] + 1] |= np.bitwise_or.reduceat(high, runs)
    return words.view(np.uint8)[: (total + 7) // 8].tobytes()


def _read_raw(side, widths: np.ndarray) -> np.ndarray:
    """The values :func:`_write_raw` packed with these ``widths``; the
    side stream must hold exactly their bits, padding zero."""
    ends = np.cumsum(widths)
    total = int(ends[-1]) if ends.size else 0
    if len(side) != (total + 7) // 8:
        raise EncodingError(
            f"rANS side stream of {len(side)} bytes does not hold the "
            f"{total} raw bits of the stream"
        )
    if total % 8 and side[-1] >> (total % 8):
        raise EncodingError("rANS side stream has bits set past its end")
    words = np.zeros(len(side) // 8 + 2, dtype="<u8")
    words.view(np.uint8)[: len(side)] = np.frombuffer(side, dtype=np.uint8)
    starts = ends - widths
    word = starts >> 6  # int64: numpy indexes with it without a cast
    shift = (starts & 63).astype(np.uint64)
    value = (words[word] >> shift) | (
        (words[word + 1] << np.uint64(1)) << (np.uint64(63) - shift)
    )
    mask = (np.uint64(1) << widths.astype(np.uint64)) - np.uint64(1)
    return (value & mask).view(np.int64)


# -- blobs --------------------------------------------------------------------------


class AnsHeader(NamedTuple):
    """The parsed header of an :func:`ans_compress` blob."""

    n: int
    scale_bits: int
    #: true for the interleaved layouts, laned and folded
    laned: bool
    #: the coded alphabet: the symbols, or a folded stream's buckets
    alphabet: np.ndarray
    freqs: np.ndarray
    #: offset of the payload within the blob
    offset: int
    #: ``(F, t)`` of a folded stream, else ``None``
    fold: tuple[int, int] | None = None
    #: length of a folded stream's side stream, at the payload's end
    raw_bytes: int = 0


def read_ans_header(data) -> AnsHeader:
    """Parse and check the header of an :func:`ans_compress` blob.

    ``data`` is any contiguous byte buffer (``bytes``, a
    :class:`memoryview`, a ``uint8`` array view).
    """
    data = memoryview(data).cast("B")
    n, pos = decode_uvarint(data, 0)
    layout, pos = decode_uvarint(data, pos)
    mark = FOLDED_MARK if layout >= FOLDED_MARK else LANED_MARK if layout >= LANED_MARK else 0
    scale_bits = layout - mark
    if scale_bits > MAX_SCALE_BITS:
        raise EncodingError(f"unknown rANS layout field {layout}")
    fold = None
    if mark == FOLDED_MARK:
        fold_bits, pos = decode_uvarint(data, pos)
        lead_bits, pos = decode_uvarint(data, pos)
        if fold_bits > 62 or lead_bits > fold_bits:
            raise EncodingError(f"unknown rANS fold F={fold_bits}, t={lead_bits}")
        fold = (fold_bits, lead_bits)
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
    raw_bytes = 0
    if fold is not None:
        # Buckets of symbols below 2^63 stop before bit length 64.
        fold_bits, lead_bits = fold
        if sigma and int(alphabet[-1]) >= (1 << fold_bits) + ((63 - fold_bits) << lead_bits):
            raise EncodingError("rANS bucket past the 64-bit symbols")
        raw_bytes, pos = decode_uvarint(data, pos)
        if pos + raw_bytes > len(data):
            raise EncodingError("rANS side stream overruns the blob")
    return AnsHeader(
        n, scale_bits, mark > 0, alphabet.astype(np.int64), freqs, pos, fold, raw_bytes
    )


class _Model(NamedTuple):
    """One way to code a stream, priced from its symbol counts."""

    scale_bits: int
    freqs: np.ndarray
    #: the header's ``sigma``, delta-coded alphabet and frequency fields
    fields: np.ndarray
    #: their bytes, and the payload's rANS-coded bits (no lanes)
    table_bytes: int
    bits: float


def _model(alphabet: np.ndarray, counts: np.ndarray, scale_bits: int) -> _Model | None:
    """The coding of ``alphabet`` with ``counts``, or ``None`` when the
    alphabet needs more than ``2^MAX_SCALE_BITS`` slots."""
    while alphabet.size > (1 << scale_bits):
        scale_bits += 1
    if scale_bits > MAX_SCALE_BITS:
        return None
    freqs = normalize_frequencies(counts, scale_bits) if alphabet.size else counts
    fields = np.concatenate(
        [[alphabet.size], alphabet[:1], alphabet[1:] - alphabet[:-1], freqs]
    )
    bits = float(counts @ (scale_bits - np.log2(freqs))) if alphabet.size else 0.0
    return _Model(scale_bits, freqs, fields, uvarints_size(fields), bits)


def _run_starts(bucket: np.ndarray) -> np.ndarray:
    """Where each run of equal buckets of a sorted alphabet starts."""
    return np.concatenate([[True], bucket[1:] != bucket[:-1]])


class _Fold(NamedTuple):
    """A fold of a stream, priced: see :func:`_best_fold`."""

    fold_bits: int
    lead_bits: int
    model: _Model
    #: the blob's bytes past ``n`` and the layout field, less the lanes
    fixed: int

    def most_bytes(self, lanes: int) -> float:
        """The most the folded blob can take past ``n`` and its layout."""
        return self.fixed + self.model.bits / 8 + LANE_BYTES_MAX * lanes + 2


def _price_fold(
    alphabet: np.ndarray,
    length: np.ndarray,
    counts: np.ndarray,
    fold_bits: int,
    lead_bits: int,
    scale_bits: int,
) -> _Fold | None:
    """One fold of a stream, priced; ``None`` when its buckets need more
    than ``2^MAX_SCALE_BITS`` slots."""
    bucket, width = _fold(alphabet, length, fold_bits, lead_bits)
    runs = np.flatnonzero(_run_starts(bucket))
    model = _model(bucket[runs], np.add.reduceat(counts, runs), scale_bits)
    if model is None:
        return None
    raw_bytes = (int(counts @ width) + 7) // 8
    fields = uvarints_size(np.array([fold_bits, lead_bits, raw_bytes]))
    return _Fold(fold_bits, lead_bits, model, fields + model.table_bytes + raw_bytes)


def _laned_least(alphabet: np.ndarray, entropy: float, lanes: int) -> float:
    """Fewest bytes the laned blob of a stream can take past ``n`` and
    its layout field: its alphabet, one byte per frequency, the
    symbols' ``entropy`` in bytes (no quantised model codes them in
    fewer bits) and :data:`LANE_BYTES_MIN` per lane.  Costs no frequency
    normalisation, which a large alphabet makes the dearest step of a
    laned encode."""
    deltas = np.concatenate([[alphabet.size], alphabet[:1], alphabet[1:] - alphabet[:-1]])
    return uvarints_size(deltas) + alphabet.size + entropy + LANE_BYTES_MIN * lanes


def _best_fold(
    alphabet: np.ndarray, counts: np.ndarray, scale_bits: int
) -> tuple[_Fold, int] | None:
    """The smallest fold of :data:`FOLDS` and its lane count, or ``None``
    when the laned layout may be as small.

    Sizes are bounded from the ideal code lengths: a lane adds between
    :data:`LANE_BYTES_MIN` and :data:`LANE_BYTES_MAX` bytes (plus a word
    of rounding).  A fold is taken only when its largest size is below
    the laned stream's smallest, and each further lane it buys costs
    the most a lane can, so the folded stream never comes out larger.
    """
    n = int(counts.sum())
    base = lane_count(n)
    entropy = float(counts @ np.log2(n / counts)) / 8
    laned = alphabet.size <= 1 << MAX_SCALE_BITS
    least = _laned_least(alphabet, entropy, base) if laned else 0.0
    # Buckets and raw bits together take no fewer bits than the
    # symbols' entropy, so no fold prices below this.
    if laned and least < entropy + LANE_BYTES_MAX * base + 2:
        return None
    length = _bit_length(alphabet)
    top = int(length[-1])
    folds = {(min(MAX_FOLD_BITS, top - d), t) for d, t in FOLDS}
    priced = [
        f
        for f in (
            _price_fold(alphabet, length, counts, fold_bits, lead_bits, scale_bits)
            for fold_bits, lead_bits in sorted(folds)
            if lead_bits <= fold_bits < top
        )
        if f is not None
    ]
    if not priced:
        return None
    best = min(priced, key=lambda f: f.most_bytes(base))
    most = min(MAX_FOLDED_LANES, -(-n // SYMBOLS_PER_LANE))
    if not laned:
        return best, most
    saved = least - best.most_bytes(base)
    if saved < 0:
        return None
    return best, min(most, base + int(saved) // LANE_BYTES_MAX)


def ans_compress(values: np.ndarray, scale_bits: int = DEFAULT_SCALE_BITS) -> bytes:
    """Compress an integer array into a self-describing ANS blob.

    Writes the folded layout described in the module docstring when it
    is smaller, else the laned one.

    Parameters
    ----------
    values:
        Non-negative integers (any magnitude).
    scale_bits:
        Requested probability quantisation; automatically raised when
        the coded alphabet is too large for the requested number of
        slots.
    """
    arr = np.asarray(values, dtype=np.int64).ravel()
    if arr.size and int(arr.min()) < 0:
        raise EncodingError("ans_compress requires non-negative values")
    if scale_bits > MAX_SCALE_BITS:
        raise EncodingError(
            f"scale_bits {scale_bits} exceeds the 2^{MAX_SCALE_BITS} slot limit"
        )
    alphabet, dense = np.unique(arr, return_inverse=True)
    dense = dense.ravel()
    counts = np.bincount(dense, minlength=alphabet.size).astype(np.int64)
    best = _best_fold(alphabet, counts, scale_bits) if arr.size else None
    if best is None:
        laned = _model(alphabet, counts, scale_bits)
        assert laned is not None  # a fold of any stream fits: see MAX_FOLD_BITS
        header = encode_uvarints([arr.size, laned.scale_bits + LANED_MARK])
        coder = InterleavedRansEncoder(laned.freqs, laned.scale_bits)
        return header + encode_uvarints(laned.fields) + coder.encode(dense)
    fold, lanes = best
    model = fold.model
    bucket, width = _fold(alphabet, _bit_length(alphabet), fold.fold_bits, fold.lead_bits)
    coded = (np.cumsum(_run_starts(bucket)) - 1)[dense]  # dense bucket ids
    width = width[dense]
    side = _write_raw(arr & ((np.int64(1) << width) - 1), width)
    header = encode_uvarints(
        [arr.size, model.scale_bits + FOLDED_MARK, fold.fold_bits, fold.lead_bits]
    )
    coder = InterleavedRansEncoder(model.freqs, model.scale_bits)
    return (
        header + encode_uvarints(model.fields) + encode_uvarint(len(side))
        + coder._encode(coded, lanes) + side
    )


def ans_recode(data) -> bytes:
    """``data`` in the layout :func:`ans_compress` writes.

    Folded blobs come back unchanged; single-state and laned blobs are
    decoded and compressed again at their own ``scale_bits``, or at
    :data:`DEFAULT_SCALE_BITS` when theirs was only raised to fit their
    alphabet.  A laned blob that folding would not shrink is what
    :func:`ans_compress` writes for its symbols, byte for byte, and
    comes back unchanged without being encoded again.
    """
    header = read_ans_header(data)
    if header.fold is not None:
        return bytes(data)
    scale_bits = header.scale_bits
    if scale_bits == max(DEFAULT_SCALE_BITS, (header.alphabet.size - 1).bit_length()):
        scale_bits = DEFAULT_SCALE_BITS
    values = ans_decompress(data)
    if header.laned:
        alphabet, counts = np.unique(values, return_counts=True)
        if not alphabet.size or _best_fold(alphabet, counts, scale_bits) is None:
            return bytes(data)
    return ans_compress(values, scale_bits=scale_bits)


def ans_decompress(data) -> np.ndarray:
    """Inverse of :func:`ans_compress`; reads all three layouts.

    ``data`` is any contiguous byte buffer, read without a copy.
    """
    data = memoryview(data).cast("B")
    header = read_ans_header(data)
    payload = data[header.offset :]
    if header.n == 0:
        if len(payload):
            raise EncodingError("rANS stream of 0 symbols has a payload")
        return np.zeros(0, dtype=np.int64)
    if not header.laned:
        dense = RansDecoder(header.freqs, header.scale_bits).decode(payload, header.n)
        return header.alphabet[dense]
    split = len(payload) - header.raw_bytes
    lanes, side = payload[:split], payload[split:]
    decoder = InterleavedRansDecoder(header.freqs, header.scale_bits)
    dense = decoder.decode(lanes, header.n)
    if header.fold is None:
        return header.alphabet[dense]
    base, width = _unfold(header.alphabet, *header.fold)
    return base[dense] + _read_raw(side, width[dense])
