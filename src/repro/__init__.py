"""repro — grammar-compressed matrices with compressed-domain MVM.

A faithful, self-contained Python reproduction of

    Ferragina, Gagie, Köppl, Manzini, Navarro, Striani, Tosoni.
    "Improving Matrix-vector Multiplication via Lossless
    Grammar-Compressed Matrices".  VLDB 2022 (arXiv:2203.14540).

Quickstart
----------
Every representation the paper compares — dense, CSR, CSR-IV, CSRV,
CLA, the three grammar encodings, row-blocked — speaks one protocol
(:class:`repro.formats.MatrixFormat`) and is built through one factory:

>>> import numpy as np
>>> import repro
>>> M = np.kron(np.eye(4), np.full((8, 3), 2.5))   # repetitive matrix
>>> gm = repro.compress(M, format="re_ans")
>>> x = np.ones(M.shape[1])
>>> bool(np.allclose(gm @ x, M @ x))
True
>>> gm.size_bytes() < M.nbytes
True
>>> len(repro.formats.available()) >= 7
True

``gm @ x`` / ``y @ gm``, ``right_multiply`` / ``left_multiply``, the
batched panel kernels (``right_multiply_matrix(X, out=..., executor=...,
panel_width=...)``), ``size_bytes`` / ``size_breakdown``
and ``save_matrix`` / ``load_matrix`` work identically for every name
in :func:`repro.formats.available`.  The historical per-class entry
points (``GrammarCompressedMatrix.compress``, ``CSRVMatrix.from_dense``,
``CLAMatrix.compress``, ``compress_with_reordering``) remain as thin
delegates of the registry's builders.

Package map
-----------
- :mod:`repro.formats` — the matrix protocol and the format registry
  every other layer dispatches through;
- :mod:`repro.core` — CSRV, RePair, grammar MVM, blocked matrices;
- :mod:`repro.encoders` — bit-packed vectors and the rANS coder;
- :mod:`repro.baselines` — dense / CSR / CSR-IV / gzip / xz;
- :mod:`repro.cla` — the Compressed Linear Algebra baseline;
- :mod:`repro.reorder` — column-similarity scoring and the four
  reordering algorithms;
- :mod:`repro.datasets` — synthetic stand-ins for the paper's seven
  evaluation matrices;
- :mod:`repro.bench` — the Eq. (4) workload harness (now iterating
  registered formats via :func:`repro.bench.bench_formats`) and the
  memory model;
- :mod:`repro.io` — lossless serialization for every registered format;
- :mod:`repro.shard` — row-sharded compression: per-shard format
  selection by density profile, scatter-gather multiply, and lazy
  shard-by-shard serving;
- :mod:`repro.solve` — compressed-domain iterative solvers (power
  iteration, PageRank, CG/ridge, top-k subspace) over the protocol
  kernels; callable as ``repro.solve(matrix, algorithm=..., ...)``;
- :mod:`repro.serve` — the serving engine: matrix registry, batched
  panel multiplication, real parallel executor, async solver jobs
  (``/jobs``), and the HTTP API behind ``python -m repro serve``.
"""

from repro import formats, solve
from repro._version import __version__
from repro.baselines import CSRIVMatrix, CSRMatrix, DenseMatrix, GzipMatrix, XzMatrix
from repro.bench import bench_formats, run_iterations
from repro.cla import CLAMatrix
from repro.core import (
    BlockedMatrix,
    CSRVMatrix,
    Grammar,
    GrammarCompressedMatrix,
    empirical_entropy,
    repair_compress,
)
from repro.datasets import get_dataset, list_datasets
from repro.errors import ReproError
from repro.formats import MatrixFormat, compress
from repro.io import load_matrix, save_matrix
from repro.reorder import compress_with_reordering, reorder_columns
from repro.shard import (
    LazyShardedMatrix,
    ShardedMatrix,
    ShardPlan,
    build_sharded,
    plan_shards,
)

__all__ = [
    "compress",
    "formats",
    "solve",
    "MatrixFormat",
    "CSRVMatrix",
    "Grammar",
    "repair_compress",
    "GrammarCompressedMatrix",
    "BlockedMatrix",
    "empirical_entropy",
    "DenseMatrix",
    "CSRMatrix",
    "CSRIVMatrix",
    "GzipMatrix",
    "XzMatrix",
    "CLAMatrix",
    "reorder_columns",
    "compress_with_reordering",
    "ShardedMatrix",
    "LazyShardedMatrix",
    "ShardPlan",
    "plan_shards",
    "build_sharded",
    "get_dataset",
    "list_datasets",
    "run_iterations",
    "bench_formats",
    "save_matrix",
    "load_matrix",
    "ReproError",
    "__version__",
]
