"""Tests for the separator-aware RePair compressor."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.csrv import CSRVMatrix
from repro.core.repair import repair_compress
from repro.datasets import get_dataset
from repro.errors import GrammarError


def _roundtrip(seq):
    grammar = repair_compress(np.asarray(seq))
    grammar.validate()
    assert grammar.expand().tolist() == list(seq)
    return grammar


class TestBasicCompression:
    def test_repeated_bigram(self):
        # "ab ab ab ab" -> one rule, C = N N N N.
        g = _roundtrip([1, 2, 1, 2, 1, 2, 1, 2])
        assert g.n_rules >= 1
        assert g.final.size < 8

    def test_no_repeats_no_rules(self):
        g = _roundtrip([1, 2, 3, 4, 5])
        assert g.n_rules == 0
        assert g.final.tolist() == [1, 2, 3, 4, 5]

    def test_empty_sequence(self):
        g = _roundtrip([])
        assert g.n_rules == 0
        assert g.final.size == 0

    def test_single_symbol(self):
        g = _roundtrip([7])
        assert g.n_rules == 0

    def test_nested_structure(self):
        # "abab abab" compresses hierarchically.
        g = _roundtrip([1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2])
        assert g.depth >= 2

    def test_overlapping_run_aaa(self):
        # Classic RePair overlap case.
        _roundtrip([1, 1, 1])

    def test_overlapping_run_even(self):
        g = _roundtrip([1] * 8)
        assert g.n_rules >= 1

    def test_overlapping_run_odd(self):
        _roundtrip([1] * 9)

    def test_long_mixed_runs(self):
        _roundtrip([1, 1, 1, 2, 2, 1, 1, 1, 1, 2, 2, 2, 1, 1])

    def test_most_frequent_pair_replaced_first(self):
        # (1,2) occurs 3 times, (3,4) twice: first rule must be 1 2.
        g = repair_compress(np.array([1, 2, 3, 4, 1, 2, 3, 4, 1, 2]))
        assert g.rules[0].tolist() == [1, 2]

    def test_deterministic(self):
        seq = np.random.default_rng(0).integers(1, 6, size=300)
        g1 = repair_compress(seq)
        g2 = repair_compress(seq)
        assert np.array_equal(g1.rules, g2.rules)
        assert np.array_equal(g1.final, g2.final)

    def test_tie_break_by_symbol_ids(self):
        # (1,2) and (3,4) both occur twice; the smaller pair wins.
        g = repair_compress(np.array([1, 2, 3, 4, 1, 2, 3, 4]))
        assert g.rules[0].tolist() == [1, 2]


class TestSeparatorProtection:
    def test_separator_never_in_rules(self):
        seq = np.array([1, 2, 0, 1, 2, 0, 1, 2, 0])
        g = _roundtrip(seq)
        assert g.n_rules >= 1
        assert 0 not in g.rules

    def test_pair_spanning_separator_not_formed(self):
        # (2, 1) is only adjacent across a separator: must not compress.
        seq = np.array([1, 2, 0, 1, 2, 0])
        g = repair_compress(seq)
        for a, b in g.rules:
            assert (a, b) == (1, 2)

    def test_custom_forbidden_symbol(self):
        seq = np.array([1, 9, 1, 9, 1, 9])
        g = repair_compress(seq, forbidden=9)
        g.validate()
        assert 9 not in g.rules
        assert g.expand().tolist() == seq.tolist()

    def test_all_separators(self):
        g = _roundtrip([0, 0, 0, 0])
        assert g.n_rules == 0


class TestOptions:
    def test_min_frequency_threshold(self):
        # Pair occurs twice: excluded at min_frequency=3.
        seq = np.array([1, 2, 1, 2])
        assert repair_compress(seq, min_frequency=3).n_rules == 0
        assert repair_compress(seq, min_frequency=2).n_rules == 1

    def test_min_frequency_below_two_rejected(self):
        with pytest.raises(GrammarError):
            repair_compress(np.array([1, 2]), min_frequency=1)

    def test_max_rules_cap(self):
        rng = np.random.default_rng(1)
        seq = rng.integers(1, 4, size=500)
        g = repair_compress(seq, max_rules=3)
        g.validate()
        assert g.n_rules == 3
        assert g.expand().tolist() == seq.tolist()

    def test_negative_symbols_rejected(self):
        with pytest.raises(GrammarError):
            repair_compress(np.array([1, -2]))

    def test_2d_rejected(self):
        with pytest.raises(GrammarError):
            repair_compress(np.ones((2, 2), dtype=int))


class TestCompressionQuality:
    def test_repetitive_input_compresses_well(self):
        seq = np.tile([3, 1, 4, 1, 5, 9, 2, 6], 100)
        g = repair_compress(seq)
        assert g.size < seq.size / 4

    def test_random_input_compresses_poorly(self):
        rng = np.random.default_rng(2)
        seq = rng.integers(1, 10_000, size=2000)
        g = repair_compress(seq)
        # Few repeated bigrams: grammar about as large as the input.
        assert g.size > 0.8 * seq.size

    def test_csrv_structure_respected(self, structured_matrix):
        csrv = CSRVMatrix.from_dense(structured_matrix)
        g = repair_compress(csrv.s)
        g.validate()
        # Separators survive verbatim: same row count.
        assert g.n_rows == structured_matrix.shape[0]
        assert np.array_equal(g.expand(), csrv.s)

    def test_nonterminal_ids_compact(self):
        seq = np.array([5, 6, 5, 6])
        g = repair_compress(seq)
        assert g.nt_base == 7
        assert g.rules.max() < g.nt_base + g.n_rules


class TestBatchStrategy:
    """The vectorised ``strategy="batch"`` rounds (same contracts)."""

    def _roundtrip(self, seq, **kwargs):
        grammar = repair_compress(np.asarray(seq), strategy="batch", **kwargs)
        grammar.validate()
        assert grammar.expand().tolist() == list(seq)
        return grammar

    def test_unknown_strategy_rejected(self):
        with pytest.raises(GrammarError):
            repair_compress(np.array([1, 2, 1, 2]), strategy="heap")

    def test_repeated_bigram(self):
        g = self._roundtrip([1, 2, 1, 2, 1, 2, 1, 2])
        assert g.n_rules >= 1
        assert g.final.size < 8

    def test_no_repeats_no_rules(self):
        g = self._roundtrip([1, 2, 3, 4, 5])
        assert g.n_rules == 0

    def test_empty_and_single(self):
        assert self._roundtrip([]).n_rules == 0
        assert self._roundtrip([7]).n_rules == 0

    def test_overlapping_runs(self):
        for n in (3, 8, 9, 17):
            self._roundtrip([1] * n)
        self._roundtrip([1, 1, 1, 2, 2, 1, 1, 1, 1, 2, 2, 2, 1, 1])

    @pytest.mark.parametrize(
        "seq",
        [[1] * 9, [1, 1, 1, 2, 2, 1, 1, 1, 1, 2, 2, 2, 1, 1], [3, 3, 3, 3, 0, 3, 3, 3, 0, 3, 3]],
    )
    def test_self_pair_runs_match_left_to_right(self, seq):
        # Pairing a run of (a, a) left to right needs each pair's
        # occurrences in ascending position order; here batch and exact
        # agree rule for rule.
        g = self._roundtrip(seq)
        exact = repair_compress(np.asarray(seq))
        assert g.rules.tolist() == exact.rules.tolist()
        assert g.final.tolist() == exact.final.tolist()

    def test_separator_never_in_rules(self):
        g = self._roundtrip([1, 2, 0, 1, 2, 0, 1, 2, 0])
        assert g.n_rules >= 1
        assert 0 not in g.rules

    def test_custom_forbidden_symbol(self):
        seq = np.array([1, 9, 1, 9, 1, 9])
        g = repair_compress(seq, forbidden=9, strategy="batch")
        g.validate()
        assert 9 not in g.rules
        assert g.expand().tolist() == seq.tolist()

    def test_max_rules_cap(self):
        rng = np.random.default_rng(1)
        seq = rng.integers(1, 4, size=500)
        g = repair_compress(seq, max_rules=3, strategy="batch")
        g.validate()
        assert g.n_rules == 3
        assert g.expand().tolist() == seq.tolist()

    def test_min_frequency_threshold(self):
        seq = np.array([1, 2, 1, 2])
        assert repair_compress(seq, min_frequency=3, strategy="batch").n_rules == 0
        assert repair_compress(seq, min_frequency=2, strategy="batch").n_rules == 1

    def test_deterministic(self):
        seq = np.random.default_rng(0).integers(1, 6, size=300)
        g1 = repair_compress(seq, strategy="batch")
        g2 = repair_compress(seq, strategy="batch")
        assert np.array_equal(g1.rules, g2.rules)
        assert np.array_equal(g1.final, g2.final)

    def test_most_frequent_pair_first(self):
        g = repair_compress(
            np.array([1, 2, 3, 4, 1, 2, 3, 4, 1, 2]), strategy="batch"
        )
        assert g.rules[0].tolist() == [1, 2]

    def test_input_not_mutated(self):
        seq = np.array([1, 2, 1, 2, 1, 2], dtype=np.int64)
        copy = seq.copy()
        repair_compress(seq, strategy="batch")
        assert np.array_equal(seq, copy)

    def test_oversized_symbol_ids_rejected(self):
        # a*stride + b would overflow int64 for symbol ids >= ~3e9;
        # batch refuses instead of silently merging distinct pairs.
        huge = 4_000_000_000
        seq = np.array([huge, 1, huge, 1], dtype=np.int64)
        with pytest.raises(GrammarError, match="batch"):
            repair_compress(seq, strategy="batch")
        # The exact strategy still handles the same input.
        g = repair_compress(seq)
        assert g.expand().tolist() == seq.tolist()

    def test_size_close_to_exact_on_structured_input(self, structured_matrix):
        csrv = CSRVMatrix.from_dense(structured_matrix)
        exact = repair_compress(csrv.s)
        batch = repair_compress(csrv.s, strategy="batch")
        assert np.array_equal(batch.expand(), csrv.s)
        assert batch.n_rows == structured_matrix.shape[0]
        # Same ballpark grammar (the profile-level 2% ratio bound is
        # asserted in tests/formats/test_strategy_equivalence.py).
        assert batch.size <= 1.15 * exact.size

    @pytest.mark.parametrize("profile", ["census", "mnist2m", "airline78"])
    def test_wide_symbols_take_the_stable_sort(self, profile, monkeypatch):
        # Pair codes of symbols >= 2**26 leave no room for a 63-bit
        # (code, position) key at these lengths, so every round groups
        # pairs with the stable argsort instead (behind the hash
        # prefilter).  Shifting every symbol keeps the pair order, so
        # the grammar is the narrow one, shifted.
        shift = 2**26
        s = CSRVMatrix.from_dense(
            np.asarray(get_dataset(profile, n_rows=300).matrix)
        ).s
        assert s.size >= 1 << 11  # 53 code bits + 11 position bits > 63
        stable_sorts = []
        argsort = np.argsort

        def spy(a, *args, **kwargs):
            stable_sorts.append(kwargs.get("kind") == "stable")
            return argsort(a, *args, **kwargs)

        monkeypatch.setattr(np, "argsort", spy)
        narrow = repair_compress(s, strategy="batch")
        assert stable_sorts == []
        wide = repair_compress(np.where(s != 0, s + shift, 0), strategy="batch")
        assert stable_sorts and all(stable_sorts)
        assert narrow.n_rules > 0
        assert wide.nt_base == narrow.nt_base + shift
        np.testing.assert_array_equal(wide.rules, narrow.rules + shift)
        np.testing.assert_array_equal(
            wide.final, np.where(narrow.final != 0, narrow.final + shift, 0)
        )

    #: Batch grammar fingerprints of the dataset profiles at 1000 rows,
    #: recorded from the stable-argsort grouping (which gives them for
    #: every round forced onto it); the packed-key sort must reproduce
    #: them byte for byte.
    PINNED_FINGERPRINTS = {
        "susy": "c3b8ffa67bdf51ee259f7b2a54f0e739",
        "higgs": "29a9c4130958aed0d165f9a83db992f3",
        "airline78": "7fe22f9e32a0de9eadb5df1db8bf1be5",
        "covtype": "5929ec98eb891b8a8d2cadf2cf09e3cb",
        "census": "2c218bdab386f7057b583fccd8ba0979",
        "optical": "bd00ea986407efe2dfeb6704bd4363c4",
        "mnist2m": "c808196dc6f2c2e0445d842c8b5259b4",
    }

    @pytest.mark.parametrize("profile", sorted(PINNED_FINGERPRINTS))
    def test_pinned_profile_fingerprints(self, profile):
        s = CSRVMatrix.from_dense(
            np.asarray(get_dataset(profile, n_rows=1000).matrix)
        ).s
        grammar = repair_compress(s, strategy="batch")
        assert grammar.fingerprint() == self.PINNED_FINGERPRINTS[profile]


@settings(max_examples=80, deadline=None)
@given(
    seq=st.lists(st.integers(min_value=0, max_value=6), min_size=0, max_size=120)
)
def test_property_lossless(seq):
    grammar = repair_compress(np.asarray(seq, dtype=np.int64))
    grammar.validate()
    assert grammar.expand().tolist() == seq
    assert 0 not in grammar.rules


@settings(max_examples=80, deadline=None)
@given(
    seq=st.lists(st.integers(min_value=0, max_value=6), min_size=0, max_size=120)
)
def test_property_lossless_batch(seq):
    grammar = repair_compress(np.asarray(seq, dtype=np.int64), strategy="batch")
    grammar.validate()
    assert grammar.expand().tolist() == seq
    assert 0 not in grammar.rules


@settings(max_examples=30, deadline=None)
@given(
    seq=st.lists(st.integers(min_value=1, max_value=3), min_size=10, max_size=200),
    cap=st.integers(min_value=0, max_value=10),
)
def test_property_max_rules_respected_batch(seq, cap):
    grammar = repair_compress(
        np.asarray(seq, dtype=np.int64), max_rules=cap, strategy="batch"
    )
    grammar.validate()
    assert grammar.n_rules <= cap
    assert grammar.expand().tolist() == seq


@settings(max_examples=30, deadline=None)
@given(
    seq=st.lists(st.integers(min_value=1, max_value=3), min_size=10, max_size=200),
    cap=st.integers(min_value=0, max_value=10),
)
def test_property_max_rules_respected(seq, cap):
    grammar = repair_compress(np.asarray(seq, dtype=np.int64), max_rules=cap)
    grammar.validate()
    assert grammar.n_rules <= cap
    assert grammar.expand().tolist() == seq
