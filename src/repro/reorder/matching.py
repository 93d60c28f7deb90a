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
"""

from __future__ import annotations

import numpy as np

from repro.reorder.similarity import similarity_edges


def matching_order(csm: np.ndarray) -> np.ndarray:
    """Column permutation from the bipartite maximum weight matching."""
    # Imported here: MWM is the only user of networkx, which ``import
    # repro`` and the server must not need.
    import networkx as nx

    m = csm.shape[0]
    graph = nx.Graph()
    graph.add_nodes_from(("L", i) for i in range(m))
    graph.add_nodes_from(("R", j) for j in range(m))
    for w, i, j in similarity_edges(csm):
        graph.add_edge(("L", i), ("R", j), weight=w)
    matching = nx.max_weight_matching(graph)
    successor = np.full(m, -1, dtype=np.int64)
    has_predecessor = np.zeros(m, dtype=bool)
    for a, b in matching:
        left, right = (a, b) if a[0] == "L" else (b, a)
        i, j = left[1], right[1]
        successor[i] = j
        has_predecessor[j] = True
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
