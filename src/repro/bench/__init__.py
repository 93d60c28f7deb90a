"""Benchmark harness: the Eq. (4) workload, memory model and reporting.

- :mod:`repro.bench.harness` — the alternating left/right
  multiplication loop the paper times (Eq. 4), with per-iteration
  timing and correctness checking against a dense reference;
- :mod:`repro.bench.memory` — the analytic peak-memory model used for
  the paper's "peak mem %" columns (it replaces the paper's Unix
  ``time`` RSS, which in a Python process measures the interpreter;
  see that module);
- :mod:`repro.bench.reporting` — plain-text table rendering shared by
  the ``benchmarks/`` scripts.
"""

from repro.bench.harness import (
    FormatBenchResult,
    IterationResult,
    bench_formats,
    run_iterations,
)
from repro.bench.memory import peak_mvm_bytes, representation_bytes
from repro.bench.reporting import format_table, ratio_pct

__all__ = [
    "run_iterations",
    "bench_formats",
    "IterationResult",
    "FormatBenchResult",
    "representation_bytes",
    "peak_mvm_bytes",
    "format_table",
    "ratio_pct",
]
