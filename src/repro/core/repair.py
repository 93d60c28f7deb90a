"""RePair grammar compression with a protected row separator.

RePair (Larsson & Moffat, 2000) repeatedly finds the most frequent pair
of adjacent symbols ``AB``, replaces every occurrence with a fresh
nonterminal ``N``, and records the rule ``N → AB``, stopping when no
pair occurs twice.  Section 4 of the paper modifies the algorithm in one
way: the row separator ``$`` (code ``0``) is never part of a pair, so
every nonterminal expands to a sequence of ``⟨ℓ,j⟩`` pair codes fully
inside one matrix row.

Implementation notes
--------------------
This is the classic linked-sequence formulation:

- the working sequence lives in an array with tombstones; ``prev``/
  ``next`` arrays skip holes in O(1);
- an occurrence index maps each active pair to the set of positions
  where it starts;
- a lazy max-heap orders pairs by occurrence count.  Entries are
  validated on pop (the count may have decayed since push); stale
  entries are re-pushed with the corrected count.  Ties are broken by
  the pair's symbol ids, which makes the whole compressor
  deterministic.

Overlapping occurrences (``aaa`` containing ``aa`` twice) are handled at
replacement time: a position is skipped unless it still spells the pair
being replaced.

The compressor runs in (expected) time ``O(|S| log |S|)`` and is pure
Python, so it is practical up to about a million symbols: mnist2m's
994k symbols take a few seconds (``BENCH_hotpaths.json``).  Larger
inputs are row-sharded or use ``strategy="batch"``.

Strategies
----------
``repair_compress`` offers two formulations of the main loop:

``strategy="exact"`` (default)
    The classic one-pair-at-a-time heap loop above.  Byte-identical
    output across releases — the reference the compression-ratio tables
    and the serialized test fixtures are pinned to.
``strategy="batch"``
    A vectorised approximation that replaces a whole *generation* of
    pairs per round.  Each round counts every adjacent pair at once
    with one ``np.sort`` of int64 keys ``code << pbits | position``
    (``code`` encodes the pair ``(sym[i], sym[i+1])``, ``pbits`` bits
    hold any position), selects every pair whose count is within half
    of the round's best, resolves overlaps between
    selected occurrences positionally (an occurrence survives iff its
    pair outranks both neighbouring occurrences — two surviving
    occurrences can then never overlap, because the lower-ranked of
    two overlapping ones always loses), and rewrites all survivors
    with one masked assignment.  The grammar can differ slightly from
    the exact one — same-generation replacements are committed
    simultaneously instead of re-counted after each rule — but stays
    within ~2–3% of the exact grammar size on the dataset profiles
    while compressing an order of magnitude faster at scale; see
    ``benchmarks/bench_hotpaths.py`` and ``BENCH_hotpaths.json``.
    A round whose key would not fit in 63 bits (past ~3 million
    symbols at a million positions) groups the codes with a stable
    ``np.argsort`` instead, behind a bincount hash prefilter that
    drops positions whose pair provably occurs too rarely.  Both
    paths give the same grammar.
"""

from __future__ import annotations

import heapq
import math
from collections import defaultdict

import numpy as np

from repro.core.csrv import ROW_SEPARATOR
from repro.core.grammar import Grammar
from repro.errors import GrammarError

#: Tombstone marker inside the working sequence.
_HOLE = -1

#: The implemented main-loop formulations.
STRATEGIES = ("exact", "batch")

#: The builder options that configure RePair; only builders whose
#: format spec has ``runs_repair`` set take them.
REPAIR_OPTIONS = ("min_frequency", "max_rules", "strategy")

#: A batch round selects every pair whose count is at least this
#: fraction of the round's best count: one "generation" of rules.
#: Larger fractions commit fewer stale-count decisions per round (ratio
#: closer to exact) at the cost of more counting rounds.
_BATCH_GENERATION_FRACTION = 0.5

#: Sequences shorter than this skip the hash prefilter — the bincount
#: table would cost more than the sort it is meant to shrink.
_BATCH_PREFILTER_MIN = 4096

#: Rank sentinel for positions not covered by any selected pair.
_NO_RANK = np.iinfo(np.int64).max

#: Largest symbol-id bound for which the batch pair code a·stride + b
#: stays inside int64 (stride² must not wrap).
_BATCH_MAX_STRIDE = math.isqrt(np.iinfo(np.int64).max)


def repair_compress(
    s: np.ndarray,
    min_frequency: int = 2,
    max_rules: int | None = None,
    forbidden: int = ROW_SEPARATOR,
    strategy: str = "exact",
) -> Grammar:
    """Compress an integer sequence with separator-aware RePair.

    Parameters
    ----------
    s:
        The CSRV sequence (non-negative int array; ``forbidden`` marks
        row boundaries and never enters a rule).
    min_frequency:
        Replace a pair only while it occurs at least this often
        (the paper uses the classic threshold of 2).
    max_rules:
        Optional cap on the number of generated rules (useful for
        bounding compression effort); ``None`` means unlimited.
    forbidden:
        The protected separator symbol (default ``0`` = ``$``).
    strategy:
        ``"exact"`` for the classic heap loop (deterministic reference
        output), ``"batch"`` for the vectorised multi-pair rounds (see
        module docstring) — same losslessness guarantees, near-identical
        ratio, an order of magnitude faster on large sequences.

    Returns
    -------
    Grammar
        With ``nt_base = max(s) + 1`` so nonterminal ids are compact.
    """
    seq = np.asarray(s, dtype=np.int64)
    if seq.ndim != 1:
        raise GrammarError("repair_compress expects a 1-D sequence")
    if seq.size and int(seq.min()) < 0:
        raise GrammarError("sequence symbols must be non-negative")
    if min_frequency < 2:
        raise GrammarError(f"min_frequency must be >= 2, got {min_frequency}")
    if strategy not in STRATEGIES:
        raise GrammarError(
            f"unknown strategy {strategy!r}; expected one of {STRATEGIES}"
        )

    nt_base = int(seq.max()) + 1 if seq.size else 1
    if strategy == "batch":
        return _repair_batch(seq, min_frequency, max_rules, forbidden, nt_base)

    state = _RepairState(seq.tolist(), forbidden)
    rules: list[tuple[int, int]] = []
    next_symbol = nt_base

    while max_rules is None or len(rules) < max_rules:
        best = state.pop_best(min_frequency)
        if best is None:
            break
        state.replace_pair(best, next_symbol)
        rules.append(best)
        next_symbol += 1

    final = np.asarray(state.compact(), dtype=np.int64)
    rule_arr = np.asarray(rules, dtype=np.int64).reshape(-1, 2)
    return Grammar(nt_base=nt_base, rules=rule_arr, final=final)


def _self_run_keep(pos: np.ndarray) -> np.ndarray:
    """Greedy left-to-right matching inside runs of a self-pair ``(a, a)``.

    ``pos`` holds ascending occurrence starts; consecutive positions
    overlap (``aaa`` → starts 0 and 1 share the middle ``a``).  Keeping
    the even offsets within each maximal run reproduces the classic
    left-to-right greedy matching.  Returns a keep mask over ``pos``.
    """
    new_run = np.empty(pos.size, dtype=bool)
    new_run[0] = True
    np.not_equal(np.diff(pos), 1, out=new_run[1:])
    run_start = pos[new_run][np.cumsum(new_run) - 1]
    return (pos - run_start) % 2 == 0


def _repair_batch(
    seq: np.ndarray,
    min_frequency: int,
    max_rules: int | None,
    forbidden: int,
    nt_base: int,
) -> Grammar:
    """Vectorised generation-at-a-time RePair rounds (``strategy="batch"``).

    Round structure (all steps are numpy-vectorised; the only Python
    loop runs over self-pair groups, which are rare):

    1. *Count* every adjacent pair: encode ``(sym[i], sym[i+1])`` as a
       single integer code ``a·stride + b`` and sort the keys
       ``code << pbits | i`` once, which orders the occurrences by code
       and, within one code, by position.  That needs
       ``(stride² - 1).bit_length() + pbits <= 63``.  A round that
       cannot pack its keys runs a stable argsort of the codes instead
       (numpy's timsort for int64), and shrinks it first with a
       bincount hash prefilter: a pair's hash-bucket count
       upper-bounds its true count, and a round's best count never
       exceeds the previous round's, so positions whose pair provably
       occurs too rarely to matter this round are dropped.  The
       prefilter costs more than it saves in front of the packed sort.
    2. *Select* the round's generation: every pair whose effective
       count (after left-to-right pruning of self-overlapping runs)
       reaches ``max(min_frequency, ceil(best · 0.5))``, ranked by
       count descending with ties broken by the smaller pair code —
       the exact strategy's tie-break.
    3. *Resolve overlaps positionally*: an occurrence survives iff its
       pair strictly outranks the occurrences starting one slot left
       and right of it.  Of two overlapping occurrences the
       lower-ranked always loses, so no two survivors overlap; a
       rejected occurrence's pair is re-counted next round.  Pairs left
       with fewer than ``min_frequency`` survivors are deferred whole.
    4. *Rewrite* all surviving occurrences with one masked assignment
       (first slot becomes the pair's fresh nonterminal, second slot is
       compacted away).

    The round's top-ranked pair always keeps every occurrence, so each
    round either emits at least one rule or terminates the loop.
    """
    seq = seq.copy()
    rules: list[tuple[int, int]] = []
    next_symbol = nt_base
    prev_top: int | None = None
    prev_filter_rate = 0.0
    while (max_rules is None or len(rules) < max_rules) and seq.size >= 2:
        a, b = seq[:-1], seq[1:]
        pairable = seq != forbidden
        valid_pos = np.flatnonzero(pairable[:-1] & pairable[1:])
        if valid_pos.size == 0:
            break
        # Symbols present are always < next_symbol, so the pair code
        # (a, b) -> a·stride + b stays injective without an O(|S|) max
        # scan per round.
        stride = next_symbol
        if stride > _BATCH_MAX_STRIDE:
            # a·stride + b would wrap int64 and silently merge distinct
            # pairs; symbol ids this large (> ~3e9) are far outside the
            # supported scale, so refuse rather than corrupt.
            raise GrammarError(
                f"strategy='batch' supports symbol ids up to "
                f"{_BATCH_MAX_STRIDE - 1}, got alphabet bound {stride}; "
                "use strategy='exact' for larger symbol spaces"
            )
        codes = a[valid_pos]
        codes *= stride
        codes += b[valid_pos]
        # Positions are < 2**pbits and codes < stride², so when both fit
        # in 63 bits one plain sort of ``code << pbits | position`` puts
        # the occurrences in (code, position) order.
        pbits = seq.size.bit_length()
        packed = (stride * stride - 1).bit_length() + pbits <= 63
        # Generation-aware prefilter, for the rounds that cannot pack.
        # A round's best count never exceeds the previous round's (old
        # pairs only decay; a pair involving a fresh nonterminal occurs
        # at most as often as the rule that produced it), so pairs far
        # below the previous top cannot make this round's generation.
        # The Fibonacci-hash bucket counts upper-bound the true pair
        # counts (collisions only inflate), so filtering buckets below
        # ``floor_count`` never drops an eligible pair — if the
        # post-count threshold nevertheless lands below the floor (a >4x
        # top collapse in one round), the round is redone unfiltered.
        floor_count = min_frequency
        if prev_top is not None:
            floor_count = max(min_frequency, prev_top >> 3)
        while True:
            use_filter = (
                not packed
                and codes.size >= _BATCH_PREFILTER_MIN
                and (floor_count > min_frequency or prev_filter_rate >= 0.25)
            )
            if use_filter:
                table_bits = int(2 * codes.size - 1).bit_length()
                hashed = (
                    codes.view(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
                ) >> np.uint64(64 - table_bits)
                hashed = hashed.view(np.int64)
                busy = (
                    np.bincount(hashed, minlength=1 << table_bits)[hashed]
                    >= floor_count
                )
                round_pos, round_codes = valid_pos[busy], codes[busy]
                prev_filter_rate = 1.0 - round_codes.size / codes.size
            else:
                round_pos, round_codes = valid_pos, codes
                prev_filter_rate = 0.0
            if round_codes.size == 0:
                top = 0
            else:
                # Group equal codes, each group's occurrence positions
                # ascending (``round_pos`` is ascending, so the stable
                # argsort keeps them in that order too).
                if packed:
                    keys = round_codes << pbits
                    keys |= round_pos
                    keys.sort()
                    sorted_codes = keys >> pbits
                    occ_sorted = keys & ((1 << pbits) - 1)
                else:
                    by_code = np.argsort(round_codes, kind="stable")
                    sorted_codes = round_codes[by_code]
                    occ_sorted = round_pos[by_code]
                new_grp = np.empty(sorted_codes.size, dtype=bool)
                new_grp[0] = True
                np.not_equal(sorted_codes[1:], sorted_codes[:-1], out=new_grp[1:])
                starts = np.flatnonzero(new_grp)
                g_counts = np.diff(starts, append=sorted_codes.size)
                g_codes = sorted_codes[starts]
                # Effective counts: self-pairs (a, a) lose the odd
                # offsets of each overlapping run before eligibility.
                entry_live = np.ones(sorted_codes.size, dtype=bool)
                multi = np.flatnonzero(g_counts >= 2)
                self_groups = multi[
                    g_codes[multi] // stride == g_codes[multi] % stride
                ]
                eff_counts = g_counts.copy() if self_groups.size else g_counts
                for gi in self_groups.tolist():
                    lo, hi = starts[gi], starts[gi] + g_counts[gi]
                    entry_live[lo:hi] = _self_run_keep(occ_sorted[lo:hi])
                    eff_counts[gi] = np.count_nonzero(entry_live[lo:hi])
                top = int(eff_counts.max())
            threshold = max(
                min_frequency, math.ceil(top * _BATCH_GENERATION_FRACTION)
            )
            if not use_filter or floor_count <= threshold:
                break
            # The filter floor overshot this round's threshold: redo
            # the count without the generation floor.
            floor_count = min_frequency
            prev_filter_rate = 0.0
        if top < min_frequency:
            break
        prev_top = top
        eligible = np.flatnonzero(eff_counts >= threshold)
        order = np.lexsort((g_codes[eligible], -eff_counts[eligible]))
        if max_rules is not None:
            order = order[: max_rules - len(rules)]
        sel_groups = eligible[order]
        # Rank = priority: count descending, smaller pair code on ties.
        # Gather the live occurrences of the selected groups, rank by
        # rank (group g holds entries starts[g] .. starts[g] +
        # g_counts[g] - 1); the steps below do not depend on the order.
        sel_counts = g_counts[sel_groups]
        sel_ends = np.cumsum(sel_counts)
        entry = np.arange(int(sel_ends[-1])) + np.repeat(
            starts[sel_groups] - (sel_ends - sel_counts), sel_counts
        )
        occ_rank = np.repeat(np.arange(sel_groups.size), sel_counts)
        if self_groups.size:
            is_live = entry_live[entry]
            entry, occ_rank = entry[is_live], occ_rank[is_live]
        occ_pos = occ_sorted[entry]
        # Positional conflict resolution: survive iff strictly higher
        # priority than both neighbouring occurrence starts (index
        # seq.size is a never-assigned sentinel slot for the edges).
        pri = np.full(seq.size + 1, _NO_RANK, dtype=np.int64)
        pri[occ_pos] = occ_rank
        left = np.where(occ_pos > 0, occ_pos - 1, seq.size)
        keep = (occ_rank < pri[left]) & (occ_rank < pri[occ_pos + 1])
        kept_pos, kept_rank = occ_pos[keep], occ_rank[keep]
        survivors = (
            np.bincount(kept_rank, minlength=sel_groups.size) >= min_frequency
        )
        final = survivors[kept_rank]
        kept_pos, kept_rank = kept_pos[final], kept_rank[final]
        winner_ranks = np.flatnonzero(survivors)
        if winner_ranks.size == 0:
            break
        new_sym = np.full(sel_groups.size, -1, dtype=np.int64)
        new_sym[winner_ranks] = next_symbol + np.arange(winner_ranks.size)
        winner_codes = g_codes[sel_groups[winner_ranks]]
        rules.extend(
            zip(
                (winner_codes // stride).tolist(),
                (winner_codes % stride).tolist(),
                strict=True,
            )
        )
        next_symbol += int(winner_ranks.size)
        seq[kept_pos] = new_sym[kept_rank]
        stays = np.ones(seq.size, dtype=bool)
        stays[kept_pos + 1] = False
        seq = seq[stays]
    rule_arr = np.asarray(rules, dtype=np.int64).reshape(-1, 2)
    return Grammar(nt_base=nt_base, rules=rule_arr, final=seq)


class _RepairState:
    """Mutable working state of the RePair main loop."""

    def __init__(self, symbols: list[int], forbidden: int):
        self.forbidden = forbidden
        self.sym = symbols
        n = len(symbols)
        self.next = list(range(1, n + 1))
        self.prev = list(range(-1, n - 1))
        self.positions: dict[tuple[int, int], set[int]] = defaultdict(set)
        for i in range(n - 1):
            self._index_pair(i, i + 1)
        self.heap: list[tuple[int, tuple[int, int]]] = [
            (-len(occ), pair) for pair, occ in self.positions.items() if len(occ) >= 2
        ]
        heapq.heapify(self.heap)

    # -- pair index maintenance ---------------------------------------------------

    def _index_pair(self, i: int, j: int) -> None:
        """Register the adjacent pair starting at position ``i``."""
        a, b = self.sym[i], self.sym[j]
        if a == self.forbidden or b == self.forbidden:
            return
        self.positions[(a, b)].add(i)

    def _unindex_pair(self, i: int, j: int) -> None:
        """Remove the occurrence of the pair starting at ``i``."""
        a, b = self.sym[i], self.sym[j]
        if a == self.forbidden or b == self.forbidden:
            return
        occ = self.positions.get((a, b))
        if occ is not None:
            occ.discard(i)

    # -- main-loop operations -------------------------------------------------------

    def pop_best(self, min_frequency: int) -> tuple[int, int] | None:
        """Return the currently most frequent pair, or ``None`` to stop.

        Lazy-heap discipline: a popped entry whose recorded count no
        longer matches the live occurrence count is either discarded
        (count fell below the threshold) or re-pushed with the corrected
        count.  Counts only decay between pushes, so every entry is
        corrected at most once per decay and the loop terminates.
        """
        heap = self.heap
        while heap:
            neg_count, pair = heapq.heappop(heap)
            occ = self.positions.get(pair)
            current = len(occ) if occ else 0
            if current < min_frequency:
                continue
            if current != -neg_count:
                heapq.heappush(heap, (-current, pair))
                continue
            return pair
        return None

    def replace_pair(self, pair: tuple[int, int], new_symbol: int) -> None:
        """Replace every live occurrence of ``pair`` with ``new_symbol``."""
        a, b = pair
        occ = self.positions.pop(pair, set())
        sym, nxt, prv = self.sym, self.next, self.prev
        size = len(sym)
        touched: set[tuple[int, int]] = set()
        # Only a self-pair (a, a) can have overlapping occurrences, and
        # only there does the classic left-to-right greedy matching
        # require ascending order.  For a != b the occurrences are
        # disjoint and the end state (rewritten sequence, occurrence
        # index, touched new pairs) is the same in any processing
        # order, so the O(k log k) sort per rule is skipped.
        for p in sorted(occ) if a == b else occ:
            q = nxt[p]
            # Revalidate: a previous replacement in this batch may have
            # consumed either half (overlap handling, e.g. "aaa").
            if sym[p] != a or q >= size or sym[q] != b:
                continue
            left = prv[p]
            right = nxt[q]
            # Detach the old context pairs.
            if left >= 0:
                self._unindex_pair(left, p)
            if right < size:
                self._unindex_pair(q, right)
            # Rewrite p as the new symbol; q becomes a hole.
            sym[p] = new_symbol
            sym[q] = _HOLE
            nxt[p] = right
            if right < size:
                prv[right] = p
            # Attach the new context pairs.
            if left >= 0:
                self._index_pair(left, p)
                touched.add((sym[left], new_symbol))
            if right < size:
                self._index_pair(p, right)
                touched.add((new_symbol, sym[right]))
        # Newly created pairs need heap entries; decayed neighbour pairs
        # do not (lazy validation on pop corrects them for free).
        for t in touched:
            occ_t = self.positions.get(t)
            if occ_t and len(occ_t) >= 2:
                heapq.heappush(self.heap, (-len(occ_t), t))

    def compact(self) -> list[int]:
        """Return the live symbols (the final string ``C``)."""
        return [s for s in self.sym if s != _HOLE]
