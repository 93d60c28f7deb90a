"""Maximum-Weight-Matching column reordering (Section 5.2, MWM).

The paper builds a bipartite graph ``BG`` with ``2m`` nodes: column
``i`` appears once as a potential *predecessor* (left side) and once as
a potential *successor* (right side).  For every pair ``i < j`` an edge
``(left_i, right_j)`` of weight ``CSM[i][j]`` is inserted — choosing it
means "column ``i`` immediately precedes column ``j``".  A maximum
weight matching then gives each column at most one predecessor and one
successor; because edges are oriented ``i < j``, cycles cannot occur,
so the matched edges decompose into disjoint chains that are
concatenated into the final permutation.

A matching on that bipartite graph is an assignment problem: with the
strict upper triangle of the CSM as the ``m × m`` weight matrix (zero
where there is no edge), a maximum-weight perfect assignment, less its
zero-weight pairs, is a maximum weight matching.  scipy's compiled
``linear_sum_assignment`` solves it.
"""

from __future__ import annotations

import numpy as np

from repro.reorder.similarity import _check_square


def matched_pairs(csm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(left, right)`` column ids of a maximum weight matching: column
    ``left[k]`` immediately precedes column ``right[k] > left[k]``."""
    # Imported here: scipy.optimize costs tens of MB of resident memory,
    # and ``import repro``, the CLI and the server must not pay for it.
    from scipy.optimize import linear_sum_assignment

    _check_square(csm)
    weights = np.triu(np.clip(csm, 0.0, None), k=1)
    left, right = linear_sum_assignment(weights, maximize=True)
    matched = weights[left, right] > 0
    return left[matched], right[matched]


def matching_order(csm: np.ndarray) -> np.ndarray:
    """Column permutation from the bipartite maximum weight matching."""
    left, right = matched_pairs(csm)
    m = csm.shape[0]
    successor = np.full(m, -1, dtype=np.int64)
    successor[left] = right
    has_predecessor = np.zeros(m, dtype=bool)
    has_predecessor[right] = True
    order: list[int] = []
    seen = np.zeros(m, dtype=bool)
    # Chains start at columns with no predecessor; scanning starts in
    # ascending id order keeps the output deterministic.
    for start in range(m):
        if has_predecessor[start] or seen[start]:
            continue
        cur = start
        while cur != -1 and not seen[cur]:
            order.append(cur)
            seen[cur] = True
            cur = successor[cur]
    # Safety net: anything not reached (cannot happen with i<j edges,
    # but guards against malformed similarity input).
    for c in range(m):
        if not seen[c]:
            order.append(c)
    return np.asarray(order, dtype=np.int64)
