"""LKH-style TSP column reordering (Section 5.2, LKH).

The paper casts column reordering as a symmetric TSP over the
similarity graph (distances = negated similarities) and solves it with
Helsgaun's LKH code.  LKH is a Lin–Kernighan local-search solver; this
module substitutes a solver from the same family — nearest-neighbour
construction followed by 2-opt and Or-opt local search over candidate
neighbour lists — which reproduces the paper's qualitative findings:
tour quality at or near the best of the reordering algorithms, at a
running time orders of magnitude above PathCover (see the Table 3
benchmark, ``benchmarks/bench_table3_reordering.py``).  LKH itself is a
C program outside this package's numpy + scipy dependencies.

The "tour" is interpreted as an open path (the paper maximises the sum
of similarities of *adjacent* columns; no wrap-around edge is wanted),
so the objective reported and optimised is the open-path similarity
gain.
"""

from __future__ import annotations

import numpy as np

from repro.errors import MatrixFormatError


def tour_gain(csm: np.ndarray, order: np.ndarray) -> float:
    """Total similarity of adjacent column pairs along ``order``."""
    order = np.asarray(order)
    return float(csm[order[:-1], order[1:]].sum())


def tsp_order(
    csm: np.ndarray,
    neighbours: int = 10,
    max_rounds: int = 40,
    seed: int = 0,
) -> np.ndarray:
    """Column permutation from Lin–Kernighan-style local search.

    Parameters
    ----------
    csm:
        The (possibly pruned) similarity matrix.
    neighbours:
        Size of each node's candidate list; 2-opt moves only consider
        candidate pairs, the standard LKH speed lever.
    max_rounds:
        Upper bound on improvement sweeps (each sweep tries 2-opt and
        Or-opt moves for every node).
    seed:
        Seed for the randomised restart order (the search itself is
        deterministic given the seed).
    """
    m = csm.shape[0]
    if csm.shape != (m, m):
        raise MatrixFormatError(f"CSM must be square, got shape {csm.shape}")
    if m <= 2:
        return np.arange(m, dtype=np.int64)
    rng = np.random.default_rng(seed)

    order = _nearest_neighbour_tour(csm, start=int(rng.integers(m)))
    k = min(neighbours, m - 1)
    candidate = np.argpartition(-csm, k - 1, axis=1)[:, :k]

    for _ in range(max_rounds):
        improved = _two_opt_sweep(csm, order, candidate)
        improved |= _or_opt_sweep(csm, order)
        if not improved:
            break
    return order


def _nearest_neighbour_tour(csm: np.ndarray, start: int) -> np.ndarray:
    """Greedy construction: always append the most similar unused column."""
    m = csm.shape[0]
    used = np.zeros(m, dtype=bool)
    order = np.empty(m, dtype=np.int64)
    order[0] = start
    used[start] = True
    for t in range(1, m):
        sims = np.where(used, -np.inf, csm[order[t - 1]])
        nxt = int(np.argmax(sims))
        order[t] = nxt
        used[nxt] = True
    return order


def _two_opt_sweep(
    csm: np.ndarray, order: np.ndarray, candidate: np.ndarray
) -> bool:
    """One pass of 2-opt restricted to candidate neighbour pairs.

    Reversing ``order[a+1 .. b]`` replaces path edges
    ``(a, a+1)`` and ``(b, b+1)`` with ``(a, b)`` and ``(a+1, b+1)``;
    the move is taken when it increases total adjacent similarity.
    """
    m = order.size
    pos = np.empty(m, dtype=np.int64)
    pos[order] = np.arange(m)
    improved = False
    for a_pos in range(m - 1):
        a = order[a_pos]
        a_next = order[a_pos + 1]
        for b in candidate[a]:
            b_pos = pos[b]
            if b_pos <= a_pos + 1:
                continue
            gain_removed = csm[a, a_next]
            gain_added = csm[a, b]
            if b_pos + 1 < m:
                gain_removed += csm[b, order[b_pos + 1]]
                gain_added += csm[a_next, order[b_pos + 1]]
            if gain_added > gain_removed + 1e-15:
                order[a_pos + 1 : b_pos + 1] = order[a_pos + 1 : b_pos + 1][::-1]
                pos[order] = np.arange(m)
                improved = True
                break
    return improved


def _or_opt_sweep(csm: np.ndarray, order: np.ndarray) -> bool:
    """One pass of Or-opt: relocate segments of length 1–3.

    A segment is cut out (reconnecting its former neighbours) and
    re-inserted after the position that maximises the gain.
    """
    m = order.size
    improved = False
    for seg_len in (1, 2, 3):
        if m <= seg_len + 1:
            continue
        i = 0
        while i + seg_len <= m:
            gain_cut = _cut_gain(csm, order, i, seg_len)
            best_gain, best_at = 0.0, -1
            seg_first, seg_last = order[i], order[i + seg_len - 1]
            for t in range(m - 1):
                if i - 1 <= t <= i + seg_len - 1:
                    continue
                u, v = order[t], order[t + 1]
                delta = (
                    csm[u, seg_first] + csm[seg_last, v] - csm[u, v] - gain_cut
                )
                if delta > best_gain + 1e-15:
                    best_gain, best_at = delta, t
            if best_at >= 0:
                seg = order[i : i + seg_len].copy()
                rest = np.concatenate([order[:i], order[i + seg_len :]])
                insert_after = np.flatnonzero(rest == order[best_at])[0]
                order[:] = np.concatenate(
                    [rest[: insert_after + 1], seg, rest[insert_after + 1 :]]
                )
                improved = True
            i += 1
    return improved


def _cut_gain(csm: np.ndarray, order: np.ndarray, i: int, seg_len: int) -> float:
    """Similarity change from removing ``order[i:i+seg_len]`` and healing."""
    m = order.size
    lost = 0.0
    if i > 0:
        lost += csm[order[i - 1], order[i]]
    if i + seg_len < m:
        lost += csm[order[i + seg_len - 1], order[i + seg_len]]
    healed = 0.0
    if i > 0 and i + seg_len < m:
        healed = csm[order[i - 1], order[i + seg_len]]
    return lost - healed
