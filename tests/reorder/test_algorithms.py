"""Tests for the four column-reordering algorithms (Section 5.2)."""

import numpy as np
import pytest

from repro.reorder.matching import matched_pairs, matching_order
from repro.reorder.path_cover import path_cover_order, path_cover_plus_order
from repro.reorder.similarity import column_similarity_matrix
from repro.reorder.tsp import tour_gain, tsp_order

ALL_ALGORITHMS = [
    pytest.param(path_cover_order, id="pathcover"),
    pytest.param(path_cover_plus_order, id="pathcover+"),
    pytest.param(matching_order, id="mwm"),
    pytest.param(tsp_order, id="lkh"),
]


def _block_csm(m: int, groups: list[list[int]], within: float = 0.9) -> np.ndarray:
    """A CSM with strongly similar column groups, zero across groups."""
    csm = np.zeros((m, m))
    for group in groups:
        for a in group:
            for b in group:
                if a != b:
                    csm[a, b] = within
    return csm


class TestAllAlgorithms:
    @pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
    def test_output_is_permutation(self, algorithm, structured_matrix):
        csm = column_similarity_matrix(structured_matrix)
        order = algorithm(csm)
        assert sorted(order.tolist()) == list(range(csm.shape[0]))

    @pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
    def test_groups_become_adjacent(self, algorithm):
        # Columns {0,5} and {2,7} are strongly similar; every algorithm
        # must place each pair adjacently.
        csm = np.zeros((8, 8))
        for a, b in [(0, 5), (2, 7)]:
            csm[a, b] = csm[b, a] = 1.0
        order = algorithm(csm).tolist()
        assert abs(order.index(0) - order.index(5)) == 1
        assert abs(order.index(2) - order.index(7)) == 1

    @pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
    def test_empty_similarity_is_safe(self, algorithm):
        order = algorithm(np.zeros((6, 6)))
        assert sorted(order.tolist()) == list(range(6))

    @pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
    def test_deterministic(self, algorithm, structured_matrix):
        csm = column_similarity_matrix(structured_matrix)
        assert np.array_equal(algorithm(csm), algorithm(csm))

    @pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
    def test_single_column(self, algorithm):
        assert algorithm(np.zeros((1, 1))).tolist() == [0]

    @pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
    def test_two_columns(self, algorithm):
        csm = np.array([[0.0, 0.4], [0.4, 0.0]])
        assert sorted(algorithm(csm).tolist()) == [0, 1]


class TestPathCover:
    def test_heaviest_edges_chosen_first(self):
        csm = np.zeros((4, 4))
        csm[0, 1] = csm[1, 0] = 0.9
        csm[1, 2] = csm[2, 1] = 0.5
        csm[2, 3] = csm[3, 2] = 0.8
        order = path_cover_order(csm).tolist()
        # All three edges are compatible as one path 0-1-2-3.
        assert order in ([0, 1, 2, 3], [3, 2, 1, 0])

    def test_no_vertex_exceeds_degree_two(self):
        # Star similarity: centre 0 similar to everyone — a path can
        # use at most two of those edges.
        csm = np.zeros((5, 5))
        csm[0, 1:] = csm[1:, 0] = 0.9
        order = path_cover_order(csm).tolist()
        pos = order.index(0)
        neighbours = {order[pos - 1] if pos else None, order[pos + 1] if pos < 4 else None}
        assert len([n for n in neighbours if n is not None]) <= 2

    def test_cycle_avoided(self):
        # Triangle: only two of the three edges may be used.
        csm = _block_csm(3, [[0, 1, 2]])
        order = path_cover_order(csm)
        assert sorted(order.tolist()) == [0, 1, 2]

    def test_plus_variant_also_covers(self):
        csm = _block_csm(9, [[0, 3, 6], [1, 4, 7]])
        order = path_cover_plus_order(csm)
        assert sorted(order.tolist()) == list(range(9))


class TestMatching:
    def test_chains_follow_i_before_j(self):
        # Edge (i, j) means i precedes j; 0->2 and 2 has no successor.
        csm = np.zeros((3, 3))
        csm[0, 2] = csm[2, 0] = 0.9
        order = matching_order(csm).tolist()
        assert order.index(0) < order.index(2)

    def test_predecessor_and_successor_both_allowed(self):
        # Chain 0 -> 1 -> 2 uses column 1 as both successor and
        # predecessor (the bipartite trick of Section 5.2).
        csm = np.zeros((3, 3))
        csm[0, 1] = csm[1, 0] = 1.0
        csm[1, 2] = csm[2, 1] = 0.9
        order = matching_order(csm).tolist()
        assert order == [0, 1, 2]

    def test_matched_weight_equals_brute_force(self, rng):
        def best_weight(csm, i=0, used=0):
            # The heaviest matching that gives columns i.. a successor.
            if i == len(csm):
                return 0.0
            best = best_weight(csm, i + 1, used)
            for j in range(i + 1, len(csm)):
                if csm[i, j] > 0 and not used >> j & 1:
                    best = max(
                        best, csm[i, j] + best_weight(csm, i + 1, used | 1 << j)
                    )
            return best

        for _ in range(200):
            m = int(rng.integers(2, 7))
            upper = np.triu(rng.random((m, m)) * (rng.random((m, m)) < 0.6), k=1)
            csm = upper + upper.T
            left, right = matched_pairs(csm)
            assert np.all(left < right)
            assert len(set(left)) == len(left) and len(set(right)) == len(right)
            assert csm[left, right].sum() == pytest.approx(best_weight(csm))

    def test_serving_imports_do_not_load_scipy_optimize(self):
        # MWM imports scipy's assignment solver when it runs: at import
        # time it would add tens of MB to every server process.
        import os
        import subprocess
        import sys

        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        code = (
            "import sys, repro, repro.cli, repro.serve.server; "
            "print('scipy.optimize' in sys.modules)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


class TestTsp:
    def test_finds_optimal_on_block_instance(self):
        groups = [[0, 2, 4], [1, 3, 5]]
        csm = _block_csm(6, groups)
        order = tsp_order(csm)
        # Optimal open path keeps each group contiguous: gain = 4*0.9.
        assert tour_gain(csm, order) == pytest.approx(4 * 0.9)

    def test_improves_over_identity(self, rng):
        m = 12
        sym = rng.random((m, m))
        sym = (sym + sym.T) / 2
        np.fill_diagonal(sym, 0.0)
        order = tsp_order(sym)
        assert tour_gain(sym, order) >= tour_gain(sym, np.arange(m))

    def test_tour_gain_helper(self):
        csm = np.array([[0.0, 0.3, 0.0], [0.3, 0.0, 0.5], [0.0, 0.5, 0.0]])
        assert tour_gain(csm, np.array([0, 1, 2])) == pytest.approx(0.8)

    def test_neighbour_list_bound_respected(self, rng):
        m = 20
        sym = rng.random((m, m))
        sym = (sym + sym.T) / 2
        np.fill_diagonal(sym, 0.0)
        order = tsp_order(sym, neighbours=3, max_rounds=5)
        assert sorted(order.tolist()) == list(range(m))
