"""Tests for the large-alphabet rANS coder."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.entropy import empirical_entropy
from repro.encoders.rans import (
    FOLDED_MARK,
    LANED_MARK,
    MAX_FOLDED_LANES,
    InterleavedRansDecoder,
    InterleavedRansEncoder,
    RansDecoder,
    RansEncoder,
    ans_compress,
    ans_decompress,
    ans_recode,
    lane_count,
    normalize_frequencies,
    read_ans_header,
)
from repro.encoders.varint import decode_uvarint, encode_uvarint, encode_uvarints
from repro.errors import EncodingError


class TestNormalizeFrequencies:
    def test_sums_to_scale(self):
        freqs = normalize_frequencies(np.array([5, 3, 2]), scale_bits=12)
        assert freqs.sum() == 1 << 12

    def test_every_symbol_kept(self):
        # A very rare symbol must still get frequency >= 1.
        counts = np.array([1, 10_000_000])
        freqs = normalize_frequencies(counts, scale_bits=8)
        assert freqs[0] >= 1
        assert freqs.sum() == 256

    def test_proportions_preserved(self):
        freqs = normalize_frequencies(np.array([1, 1, 2]), scale_bits=12)
        assert freqs[2] == pytest.approx(2 * freqs[0], rel=0.01)

    def test_single_symbol(self):
        freqs = normalize_frequencies(np.array([42]), scale_bits=12)
        assert freqs.tolist() == [1 << 12]

    def test_alphabet_too_large(self):
        with pytest.raises(EncodingError):
            normalize_frequencies(np.ones(300, dtype=int), scale_bits=8)

    def test_zero_count_rejected(self):
        with pytest.raises(EncodingError):
            normalize_frequencies(np.array([3, 0]), scale_bits=12)

    def test_empty(self):
        assert normalize_frequencies(np.array([], dtype=int), 12).size == 0

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_the_one_unit_at_a_time_reference(self, seed):
        rng = np.random.default_rng(seed)
        sigma = int(rng.integers(1, 800))
        counts = rng.zipf(float(rng.uniform(1.1, 3.0)), size=sigma)
        scale_bits = max(8, int(sigma).bit_length())
        expected = _normalize_one_unit_at_a_time(counts, scale_bits)
        assert np.array_equal(normalize_frequencies(counts, scale_bits), expected)


def _normalize_one_unit_at_a_time(counts, scale_bits):
    """The per-unit loop :func:`normalize_frequencies` vectorises."""
    counts = np.asarray(counts, dtype=np.int64)
    target = 1 << scale_bits
    freqs = np.maximum(1, (counts * target) // int(counts.sum()))
    error = target - int(freqs.sum())
    order = np.argsort(-counts, kind="stable")
    i, step, remaining = 0, (1 if error > 0 else -1), abs(error)
    while remaining > 0:
        idx = order[i % order.size]
        if step > 0 or freqs[idx] > 1:
            freqs[idx] += step
            remaining -= 1
        i += 1
    return freqs


class TestRansCore:
    def test_encode_decode_roundtrip(self):
        rng = np.random.default_rng(0)
        freqs = normalize_frequencies(np.array([50, 30, 15, 5]), 12)
        symbols = rng.integers(0, 4, size=500)
        enc = RansEncoder(freqs, 12)
        dec = RansDecoder(freqs, 12)
        assert np.array_equal(dec.decode(enc.encode(symbols), 500), symbols)

    def test_single_symbol_stream_is_tiny(self):
        freqs = normalize_frequencies(np.array([100]), 12)
        blob = RansEncoder(freqs, 12).encode(np.zeros(10_000, dtype=int))
        # Zero entropy: only the 4-byte final state is emitted.
        assert len(blob) == 4
        out = RansDecoder(freqs, 12).decode(blob, 10_000)
        assert np.array_equal(out, np.zeros(10_000))

    def test_wrong_frequency_sum_rejected(self):
        with pytest.raises(EncodingError):
            RansEncoder(np.array([10, 10]), scale_bits=12)

    def test_truncated_stream_detected(self):
        freqs = normalize_frequencies(np.array([1, 1]), 12)
        rng = np.random.default_rng(1)
        blob = RansEncoder(freqs, 12).encode(rng.integers(0, 2, size=1000))
        with pytest.raises(EncodingError):
            RansDecoder(freqs, 12).decode(blob[:3], 1000)

    def test_decode_zero_symbols(self):
        freqs = normalize_frequencies(np.array([1, 1]), 12)
        assert RansDecoder(freqs, 12).decode(b"", 0).size == 0


class TestAnsBlob:
    def test_roundtrip(self):
        rng = np.random.default_rng(2)
        values = rng.integers(0, 50, size=2000)
        assert np.array_equal(ans_decompress(ans_compress(values)), values)

    def test_large_sparse_alphabet(self):
        # Symbol ids far apart (like RePair nonterminals).
        rng = np.random.default_rng(3)
        alphabet = np.sort(rng.choice(1 << 30, size=200, replace=False))
        values = alphabet[rng.integers(0, 200, size=3000)]
        assert np.array_equal(ans_decompress(ans_compress(values)), values)

    def test_empty(self):
        assert ans_decompress(ans_compress(np.array([], dtype=int))).size == 0

    def test_single_value(self):
        values = np.array([7])
        assert np.array_equal(ans_decompress(ans_compress(values)), values)

    def test_negative_rejected(self):
        with pytest.raises(EncodingError):
            ans_compress(np.array([-1, 2]))

    @pytest.mark.parametrize("values", [np.arange(50) % 3, np.arange(3000) << 20])
    def test_scale_bits_past_the_header_limit_rejected(self, values):
        """The layout field holds at most ``MAX_SCALE_BITS``, laned or
        folded."""
        with pytest.raises(EncodingError):
            ans_compress(values, scale_bits=17)

    def test_scale_bits_auto_raised(self):
        # 5000 distinct symbols cannot fit into 2^12 slots; the coder
        # must raise the quantisation transparently.
        values = np.arange(5000)
        assert np.array_equal(ans_decompress(ans_compress(values)), values)

    def test_compression_tracks_entropy(self):
        # A skewed stream must compress close to its H_0; allow coder +
        # header overhead.
        rng = np.random.default_rng(4)
        values = rng.choice(8, size=20_000, p=[0.6, 0.2, 0.1, 0.04, 0.03, 0.01, 0.01, 0.01])
        blob = ans_compress(values)
        payload_bits = 8 * len(blob)
        entropy_bits = values.size * empirical_entropy(values)
        assert payload_bits < 1.10 * entropy_bits + 8 * 200

    def test_beats_fixed_width_on_skewed_data(self):
        rng = np.random.default_rng(5)
        values = rng.choice(256, size=10_000, p=_skewed(256))
        blob = ans_compress(values)
        assert len(blob) < 10_000  # < 1 byte/symbol despite 8-bit alphabet


def _skewed(k):
    p = 1.0 / np.arange(1, k + 1) ** 2
    return p / p.sum()


@settings(max_examples=40, deadline=None)
@given(
    values=st.lists(
        st.integers(min_value=0, max_value=100_000), min_size=0, max_size=400
    )
)
def test_property_blob_roundtrip(values):
    arr = np.asarray(values, dtype=np.int64)
    assert np.array_equal(ans_decompress(ans_compress(arr)), arr)


def laned_blob(values, scale_bits: int = 12) -> bytes:
    """``values`` in the laned layout, as :func:`ans_compress` wrote
    every stream before it folded any: the symbols themselves as the
    alphabet, in :func:`lane_count` lanes."""
    values = np.asarray(values, dtype=np.int64).ravel()
    alphabet, dense = np.unique(values, return_inverse=True)
    counts = np.bincount(dense.ravel(), minlength=alphabet.size)
    while alphabet.size > (1 << scale_bits):
        scale_bits += 1
    freqs = normalize_frequencies(counts, scale_bits) if alphabet.size else counts
    head = encode_uvarints(
        np.concatenate([
            [values.size, scale_bits + LANED_MARK, alphabet.size],
            np.diff(alphabet, prepend=0),
            freqs,
        ])
    )
    return head + InterleavedRansEncoder(freqs, scale_bits).encode(dense.ravel())


def single_state_blob(values, scale_bits: int = 12) -> bytes:
    """``values`` in the single-state layout :func:`ans_compress` wrote
    before the interleaved one: the same header without the layout mark,
    then a :class:`RansEncoder` payload."""
    laned = laned_blob(values, scale_bits=scale_bits)
    header = read_ans_header(laned)
    head = bytearray(laned[: header.offset])
    head[len(encode_uvarint(header.n))] -= LANED_MARK
    if header.n == 0:
        return bytes(head)
    dense = np.searchsorted(header.alphabet, np.asarray(values).ravel())
    return bytes(head) + RansEncoder(header.freqs, header.scale_bits).encode(dense)


def assert_within_lane_overhead(values, laned: bytes) -> None:
    """A laned blob costs at most 4 bytes per lane plus one word more
    than the single-state blob of the same stream."""
    n = len(values)
    lanes = lane_count(n) if n else 0
    assert len(laned) <= len(single_state_blob(values)) + 4 * lanes + 2


class TestLaneCount:
    def test_one_lane_per_16_symbols_at_most_64(self):
        assert [lane_count(n) for n in (1, 15, 16, 17, 32, 33)] == [1, 1, 1, 2, 2, 3]
        assert lane_count(64 * 16 - 1) == 64
        assert lane_count(64 * 16 + 1) == 64
        assert lane_count(10**7) == 64

    def test_short_streams_take_few_steps(self):
        for n in range(1, 64 * 16 + 1):
            assert -(-n // lane_count(n)) <= 16


def lanes_of(blob: bytes) -> int:
    return decode_uvarint(blob, read_ans_header(blob).offset)[0]


class TestFold:
    def test_alphabet_past_2_16_symbols(self):
        """100,000 distinct symbols: more than an unfolded model's
        2^16 slots can hold."""
        values = np.random.default_rng(16).permutation(np.arange(100_000) * 3 + 1)
        blob = ans_compress(values)
        assert read_ans_header(blob).fold is not None
        assert np.array_equal(ans_decompress(blob), values)

    def test_streams_folding_would_not_shrink_stay_laned_byte_for_byte(self):
        rng = np.random.default_rng(17)
        for values in (
            rng.integers(0, 90, size=1500),
            np.minimum(rng.zipf(2.0, size=5000), 300),
            np.full(3000, 1 << 50),
            rng.choice(1 << 40, size=300)[rng.integers(0, 300, size=20_000)],
        ):
            assert ans_compress(values) == laned_blob(values)

    def test_a_shard_sized_stream_decodes_in_16_steps(self):
        """A ``C`` like a serving shard's (7.5k symbols: frequent small
        ids, and about half distinct 17-bit ones) saves enough to take
        one lane per 16 symbols."""
        rng = np.random.default_rng(18)
        values = np.concatenate([
            rng.zipf(1.5, size=3750) % 512,
            rng.integers(1 << 16, 1 << 17, size=3750),
        ])
        rng.shuffle(values)
        blob = ans_compress(values)
        assert read_ans_header(blob).fold is not None
        assert lanes_of(blob) == -(-7500 // 16)
        assert len(blob) < len(laned_blob(values))

    def test_lanes_stop_at_the_cap(self):
        values = np.random.default_rng(19).integers(0, 1 << 30, size=20 * MAX_FOLDED_LANES)
        blob = ans_compress(values)
        assert lanes_of(blob) == MAX_FOLDED_LANES
        assert np.array_equal(ans_decompress(blob), values)

    def test_lanes_spend_no_more_than_the_fold_saved(self):
        """Folding 300 rare 30-bit ids out of a skewed 20,000-symbol
        stream saves a few hundred bytes: enough for some more lanes,
        not for one per 16 symbols, and the stream still shrinks."""
        rng = np.random.default_rng(20)
        values = np.concatenate([
            np.minimum(rng.zipf(1.6, size=20_000), 200),
            rng.integers(1 << 29, 1 << 30, size=300),
        ])
        rng.shuffle(values)
        blob = ans_compress(values)
        assert read_ans_header(blob).fold is not None
        assert lane_count(values.size) < lanes_of(blob) < -(-values.size // 16)
        assert len(blob) <= len(laned_blob(values))


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=6000),
    bits=st.integers(min_value=1, max_value=62),
    skew=st.floats(min_value=1.05, max_value=3.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_property_folded_streams_round_trip_and_never_grow(n, bits, skew, seed):
    rng = np.random.default_rng(seed)
    values = (rng.zipf(skew, size=n) * rng.integers(1, 1 << bits)) % (1 << bits)
    values[rng.integers(0, n, size=n // 2)] = rng.integers(0, 1 << bits, size=n // 2)
    blob = ans_compress(values)
    assert np.array_equal(ans_decompress(blob), values)
    assert len(blob) <= len(laned_blob(values))
    assert lanes_of(blob) >= lane_count(n)


class TestInterleavedCore:
    def test_encode_decode_roundtrip(self):
        rng = np.random.default_rng(6)
        freqs = normalize_frequencies(np.array([50, 30, 15, 5]), 12)
        symbols = rng.integers(0, 4, size=5000)
        payload = InterleavedRansEncoder(freqs, 12).encode(symbols)
        decoded = InterleavedRansDecoder(freqs, 12).decode(payload, symbols.size)
        assert np.array_equal(decoded, symbols)

    def test_single_symbol_payload_is_the_lane_states(self):
        freqs = normalize_frequencies(np.array([100]), 12)
        payload = InterleavedRansEncoder(freqs, 12).encode(np.zeros(10_000, dtype=int))
        # Zero entropy: the lane count and each lane's 4-byte state.
        assert len(payload) == 1 + 4 * 64
        out = InterleavedRansDecoder(freqs, 12).decode(payload, 10_000)
        assert np.array_equal(out, np.zeros(10_000))

    def test_wrong_frequency_sum_rejected(self):
        with pytest.raises(EncodingError):
            InterleavedRansEncoder(np.array([10, 10]), scale_bits=12)

    def test_decode_zero_symbols(self):
        freqs = normalize_frequencies(np.array([1, 1]), 12)
        assert InterleavedRansDecoder(freqs, 12).decode(b"", 0).size == 0


class TestLayouts:
    def test_ans_compress_marks_the_interleaved_layout(self):
        blob = ans_compress(np.arange(100) % 7)
        header = read_ans_header(blob)
        assert header.laned and header.scale_bits == 12
        assert blob[1] == 12 + LANED_MARK  # the byte after uvarint n=100

    def test_single_state_blobs_still_decode(self):
        rng = np.random.default_rng(7)
        for values in (
            rng.integers(0, 50, size=2000),
            np.sort(rng.choice(1 << 30, size=200, replace=False))[
                rng.integers(0, 200, size=3000)
            ],
            np.arange(5000),
            np.array([7]),
            np.array([], dtype=np.int64),
        ):
            blob = single_state_blob(values)
            assert read_ans_header(blob).laned is False
            assert np.array_equal(ans_decompress(blob), values)

    def test_recode_upgrades_single_state_blobs_only(self):
        values = np.random.default_rng(8).integers(0, 90, size=1500)
        laned = ans_compress(values)
        assert ans_recode(laned) == laned
        assert ans_recode(single_state_blob(values)) == laned

    def test_recode_folds_the_older_layouts_when_folding_shrinks(self):
        values = np.random.default_rng(14).integers(0, 1 << 22, size=3000)
        folded = ans_compress(values)
        assert read_ans_header(folded).fold is not None
        assert ans_recode(laned_blob(values)) == folded
        assert ans_recode(single_state_blob(values)) == folded
        assert ans_recode(folded) == folded

    def test_recode_drops_a_scale_raised_only_for_the_alphabet(self):
        """5045 distinct symbols: the older layouts had to raise the
        scale to 13, the buckets of the fold fit the default 12, and a
        recoded blob is what a fresh ans_compress writes."""
        rng = np.random.default_rng(21)
        values = np.concatenate([
            rng.zipf(1.5, size=2500) % 512,
            rng.integers(1 << 16, 1 << 17, size=5000),
        ])
        rng.shuffle(values)
        laned = laned_blob(values)
        assert read_ans_header(laned).scale_bits == 13
        folded = ans_compress(values)
        assert read_ans_header(folded).scale_bits == 12
        assert ans_recode(laned) == folded
        assert ans_recode(single_state_blob(values)) == folded

    def test_ans_compress_marks_the_folded_layout(self):
        blob = ans_compress(np.random.default_rng(15).integers(0, 1 << 22, size=3000))
        header = read_ans_header(blob)
        assert header.laned and header.fold is not None
        assert blob[2] == header.scale_bits + FOLDED_MARK  # after uvarint n=3000

    def test_recode_keeps_a_custom_scale(self):
        values = np.random.default_rng(9).integers(0, 20, size=700)
        recoded = ans_recode(single_state_blob(values, scale_bits=14))
        assert read_ans_header(recoded).scale_bits == 14
        assert recoded == ans_compress(values, scale_bits=14)

    @pytest.mark.parametrize("layout", [17, 31, LANED_MARK + 17, FOLDED_MARK + 17])
    def test_unknown_layout_rejected(self, layout):
        blob = bytearray(ans_compress(np.arange(50) % 3))
        blob[1] = layout
        with pytest.raises(EncodingError, match="layout"):
            ans_decompress(bytes(blob))

    def test_frequency_table_must_fill_the_slots(self):
        blob = bytearray(ans_compress(np.arange(50) % 3))
        header = read_ans_header(blob)
        blob[header.offset - 1] += 1  # the last frequency
        with pytest.raises(EncodingError, match="slots"):
            ans_decompress(bytes(blob))

    def test_zero_frequency_rejected(self):
        # n=5, interleaved at scale 12, alphabet {1, 2}, freqs {0, 4096}
        head = encode_uvarints(np.array([5, 12 + LANED_MARK, 2, 1, 1, 0, 4096]))
        with pytest.raises(EncodingError, match="slots"):
            ans_decompress(head + b"\x01" + bytes(4))


#: The layouts :func:`ans_decompress` reads.
LAYOUTS = ["laned", "single", "folded"]


class TestEndOfStream:
    """A damaged stream fails instead of decoding to other symbols."""

    @pytest.fixture
    def values(self):
        return np.random.default_rng(10).integers(0, 300, size=4000) * 5

    @pytest.fixture
    def wide(self):
        """4000 symbols :func:`ans_compress` folds: 22-bit ids, nearly
        all distinct."""
        return np.random.default_rng(10).integers(0, 1 << 22, size=4000)

    @staticmethod
    def encoded(layout, values, wide) -> tuple[np.ndarray, bytes]:
        """``(symbols, blob)`` of a 4000-symbol stream in ``layout``."""
        if layout == "folded":
            blob = ans_compress(wide)
            assert read_ans_header(blob).fold is not None
            return wide, blob
        if layout == "laned":
            blob = ans_compress(values)
            assert blob == laned_blob(values)  # folding would not shrink it
            return values, blob
        return values, single_state_blob(values)

    @staticmethod
    def edited(blob: bytes, edit) -> bytes:
        data = bytearray(blob)
        edit(data, read_ans_header(blob))
        return bytes(data)

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_intact(self, values, wide, layout):
        values, blob = self.encoded(layout, values, wide)
        assert np.array_equal(ans_decompress(blob), values)

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_flipped_payload_bits(self, values, wide, layout):
        """The end-of-stream checks are not a checksum: a flip that moves
        a state to the same offset of an equally frequent symbol
        resynchronises after one wrong symbol.  They catch nearly every
        other flip of the coded symbols, in every layout."""
        values, blob = self.encoded(layout, values, wide)
        header = read_ans_header(blob)
        start, end = header.offset, len(blob) - header.raw_bytes
        caught = 0
        for i in range(start, end, 5):
            data = bytearray(blob)
            data[i] ^= 1 << (i % 8)
            try:
                decoded = ans_decompress(bytes(data))
            except EncodingError:
                caught += 1
            else:
                assert decoded.size == values.size
        assert caught >= 0.95 * len(range(start, end, 5))

    def test_flipped_side_stream_bit_changes_one_symbol(self, wide):
        """Raw bits are stored as they are: a flip inside the side
        stream changes the low bits of exactly one symbol."""
        blob = ans_compress(wide)
        for i in range(len(blob) - read_ans_header(blob).raw_bytes, len(blob) - 1, 97):
            data = bytearray(blob)
            data[i] ^= 1 << (i % 8)
            assert np.count_nonzero(ans_decompress(bytes(data)) != wide) == 1

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("extra", [b"\0", b"\0\0", b"\x12\x34\x56\x78"])
    def test_trailing_bytes(self, values, wide, layout, extra):
        _values, blob = self.encoded(layout, values, wide)
        with pytest.raises(EncodingError):
            ans_decompress(blob + extra)

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_truncated(self, values, wide, layout):
        _values, blob = self.encoded(layout, values, wide)
        header = read_ans_header(blob)
        for cut in (header.offset + 1, header.offset + 5, len(blob) - 2, len(blob) - 1):
            with pytest.raises(EncodingError):
                ans_decompress(blob[:cut])

    @staticmethod
    def with_side_stream(blob: bytes, field: int, side: bytes) -> bytes:
        """``blob`` with ``side`` as its side stream and ``field`` in the
        header's side-stream length."""
        header = read_ans_header(blob)
        start = header.offset - len(encode_uvarint(header.raw_bytes))
        lanes = blob[header.offset : len(blob) - header.raw_bytes]
        return blob[:start] + encode_uvarint(field) + lanes + side

    @pytest.mark.parametrize("damage", ["short", "over_long", "length_field", "padding"])
    def test_damaged_side_stream(self, wide, damage):
        """The side stream must hold exactly the raw bits the buckets
        call for: a byte fewer or more, a wrong length field, and a bit
        set in the padding all fail."""
        blob = ans_compress(wide)
        header = read_ans_header(blob)
        side, raw = blob[len(blob) - header.raw_bytes :], header.raw_bytes
        fold_bits, lead_bits = header.fold
        raw_bits = sum(
            int(v).bit_length() - 1 - lead_bits for v in wide if v >> fold_bits
        )
        assert raw == -(-raw_bits // 8) and raw_bits % 8  # the last byte is padded
        damaged = {
            "short": lambda: self.with_side_stream(blob, raw - 1, side[:-1]),
            "over_long": lambda: self.with_side_stream(blob, raw + 1, side + b"\0"),
            "length_field": lambda: self.with_side_stream(blob, raw + 1, side),
            "padding": lambda: blob[:-1] + bytes([blob[-1] | 0x80]),
        }[damage]()
        with pytest.raises(EncodingError):
            ans_decompress(damaged)

    def test_raw_widths_near_64_bits(self):
        """Symbols of up to 63 bits fold into raw widths up to 61 bits,
        which straddle the side stream's 64-bit words."""
        rng = np.random.default_rng(12)
        values = np.concatenate([
            rng.integers(1 << 40, 1 << 62, size=3000, dtype=np.int64),
            rng.integers(0, 40, size=500),
            [np.iinfo(np.int64).max, 1 << 40, (1 << 62) + 12345],
        ])
        rng.shuffle(values)
        blob = ans_compress(values)
        header = read_ans_header(blob)
        assert header.fold is not None
        assert np.array_equal(ans_decompress(blob), values)
        with pytest.raises(EncodingError):
            ans_decompress(self.with_side_stream(
                blob, header.raw_bytes - 8, blob[len(blob) - header.raw_bytes : -8]
            ))

    def test_empty_stream_with_payload_rejected(self):
        with pytest.raises(EncodingError):
            ans_decompress(ans_compress(np.array([], dtype=np.int64)) + b"\0")

    @pytest.mark.parametrize("count", ["zero", "above_n", "overrun", "one_less", "one_more"])
    def test_bad_lane_count(self, values, count):
        blob = ans_compress(values)
        header = read_ans_header(blob)
        lanes = lane_count(header.n)
        new = {
            "zero": 0,
            "above_n": header.n + 1,
            "overrun": (len(blob) - header.offset) // 4 + 1,
            "one_less": lanes - 1,
            "one_more": lanes + 1,
        }[count]

        def recount(data, header):
            data[header.offset : header.offset + 1] = encode_uvarint(new)

        with pytest.raises(EncodingError):
            ans_decompress(self.edited(blob, recount))

    def test_lane_state_below_bound_rejected(self, values):
        blob = ans_compress(values)

        def zero_state(data, header):
            data[header.offset + 1 : header.offset + 5] = bytes(4)

        with pytest.raises(EncodingError, match="bound"):
            ans_decompress(self.edited(blob, zero_state))

    def test_single_state_decoder_checks_its_final_state(self):
        freqs = normalize_frequencies(np.array([3, 1]), 12)
        symbols = np.random.default_rng(11).integers(0, 2, size=500)
        stream = bytearray(RansEncoder(freqs, 12).encode(symbols))
        stream[0] ^= 0x01  # the initial state's top byte
        with pytest.raises(EncodingError):
            RansDecoder(freqs, 12).decode(bytes(stream), 500)


#: Stream lengths around the lane-count and step boundaries: one lane
#: up to 16 symbols, 64 lanes from 64*16 - 15 on, 64 lanes of 128 steps
#: around 64*128, and a stream long enough that every lane runs
#: several steps past 128.
BOUNDARY_LENGTHS = (
    0, 1, 15, 16, 17, 127, 128, 129, 64 * 16 - 1, 64 * 16, 64 * 16 + 1,
    64 * 128 - 1, 64 * 128, 64 * 128 + 1, 3 * 64 * 128 + 77,
)


@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from(BOUNDARY_LENGTHS),
    sigma=st.integers(min_value=1, max_value=400),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_property_laned_roundtrip_across_boundaries(n, sigma, seed):
    rng = np.random.default_rng(seed)
    alphabet = np.sort(rng.choice(1 << 40, size=sigma, replace=False))
    values = alphabet[rng.zipf(1.5, size=n) % sigma]
    blob = ans_compress(values)
    assert read_ans_header(blob).laned
    assert np.array_equal(ans_decompress(blob), values)
    assert_within_lane_overhead(values, blob)


@settings(max_examples=10, deadline=None)
@given(
    scale_bits=st.integers(min_value=12, max_value=16),
    extra=st.integers(min_value=0, max_value=3000),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_property_alphabets_forcing_each_scale(scale_bits, extra, seed):
    rng = np.random.default_rng(seed)
    low = 2 if scale_bits == 12 else (1 << (scale_bits - 1)) + 1
    sigma = int(rng.integers(low, (1 << scale_bits) + 1))
    dense = np.concatenate([np.arange(sigma), rng.integers(0, sigma, size=extra)])
    values = 3 * rng.permutation(dense) + 1
    blob = laned_blob(values)
    assert read_ans_header(blob).scale_bits == scale_bits
    assert np.array_equal(ans_decompress(blob), values)
    assert_within_lane_overhead(values, blob)
    # ans_compress folds most such alphabets, into fewer slots; folded
    # or not, it is no larger than the laned blob, so within the same
    # lane overhead, and a stream it leaves unfolded is that blob.
    compressed = ans_compress(values)
    assert np.array_equal(ans_decompress(compressed), values)
    assert len(compressed) <= len(blob)
    if read_ans_header(compressed).fold is None:
        assert compressed == blob


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=3 * 64 * 128),
    symbol=st.integers(min_value=0, max_value=2**62),
)
def test_property_single_symbol_streams(n, symbol):
    values = np.full(n, symbol, dtype=np.int64)
    blob = ans_compress(values)
    header = read_ans_header(blob)
    lanes = lane_count(n)
    # Nothing to renormalise: the payload is the lane count and states.
    assert len(blob) - header.offset == len(encode_uvarint(lanes)) + 4 * lanes
    assert np.array_equal(ans_decompress(blob), values)
    assert_within_lane_overhead(values, blob)
