"""``repro.serve`` — the compressed-matrix serving engine.

The reproduction's core answers one multiplication at a time from the
CLI; this subsystem turns it into a queryable service, the ROADMAP's
production-scale direction:

- :mod:`repro.serve.registry` — named ``.gcmx`` store with lazy
  loading;
- :mod:`repro.serve.residency` — one LRU of loaded matrices and shards
  under one byte budget, with guarded, single-flight loads;
- :mod:`repro.serve.batch` — batched panel multiplication (one kernel
  call for ``k`` vectors) across every representation;
- :mod:`repro.serve.executor` — a persistent thread pool over the
  row shards and blocks of a :class:`~repro.shard.ShardedMatrix` (and
  CLA's column groups), replacing the seed's simulated (LPT)
  parallelism;
- :mod:`repro.serve.jobs` — asynchronous :mod:`repro.solve` jobs
  (submit a named algorithm, poll status/result/trace) running on
  background workers over the same registry and executor;
- :mod:`repro.serve.server` — the HTTP JSON API behind
  ``python -m repro serve`` (``http.server`` with ``orjson`` as the
  codec, imported only when a server is built);
- :mod:`repro.serve.stats` — per-matrix request counters and latency
  percentiles for ``/stats``.
"""

from repro.serve.batch import batch_left_multiply, batch_right_multiply
from repro.serve.executor import BlockExecutor
from repro.serve.jobs import JobManager
from repro.serve.registry import MatrixRegistry
from repro.serve.server import MatrixServer
from repro.serve.stats import ServeStats

__all__ = [
    "BlockExecutor",
    "JobManager",
    "MatrixRegistry",
    "MatrixServer",
    "ServeStats",
    "batch_left_multiply",
    "batch_right_multiply",
]
