"""Shared infrastructure for the table/figure benchmarks.

Every ``bench_*.py`` file regenerates one table or figure of the paper:

=========================================  =====================================
file                                        paper artefact
=========================================  =====================================
``bench_table1_compression.py``             Table 1 (compression ratios)
``bench_table2_mvm.py``                     Table 2 (peak memory / time per iteration)
``bench_figure3_scaling.py``                Figure 3 (multithread scaling)
``bench_table3_reordering.py``              Table 3 (reordering × k)
``bench_table4_reordered_and_cla.py``       Table 4 (blockwise reorder + CLA)
``bench_figure4_improvement.py``            Figure 4 (peak-memory improvement)
=========================================  =====================================

``pytest benchmarks/ --benchmark-only`` times the underlying operations;
running a file as a script (``python benchmarks/bench_table1_compression.py``)
prints the full paper-style table to stdout; nothing records it.

Matrices are scaled-down synthetics (see ``repro.datasets``); the row
counts below keep the whole suite in the minutes range while leaving
enough redundancy for the compression effects to show.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import get_dataset

#: Scaled row counts per dataset used by all benchmarks.
BENCH_ROWS = {
    "susy": 1500,
    "higgs": 1500,
    "airline78": 2000,
    "covtype": 1500,
    "census": 1500,
    "optical": 600,
    "mnist2m": 600,
}

#: The subset used by the heavier timing benchmarks.
TIMING_DATASETS = ("census", "airline78", "covtype")


def bench_matrix(name: str) -> np.ndarray:
    """The benchmark-scale dense matrix for a dataset."""
    return np.asarray(get_dataset(name, n_rows=BENCH_ROWS[name]).matrix)


@pytest.fixture(scope="session")
def dataset_matrix():
    """Session-cached dataset accessor for the benchmark tests."""
    cache: dict[str, np.ndarray] = {}

    def get(name: str) -> np.ndarray:
        if name not in cache:
            cache[name] = bench_matrix(name)
        return cache[name]

    return get
