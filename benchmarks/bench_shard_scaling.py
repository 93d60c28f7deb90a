"""Shard scaling: parallel shard builds and scatter-gather MVM vs shard count.

The sharding layer (:mod:`repro.shard`) trades one monolithic RePair
build and one registry entry for ``s`` independent per-shard builds and
``s`` independently loadable sections.  This benchmark measures the two
scaling claims behind that trade:

- **build** — wall-clock to compress the same matrix into 1, 2, 4, 8
  shards, sequentially and on a :class:`~repro.serve.executor.BlockExecutor`
  pool (shard builds are embarrassingly parallel);
- **multiply** — single-vector and ``k``-panel scatter-gather MVM
  latency per shard count (1 thread vs a worker pool), with dense
  parity asserted on every configuration.

Run as a script::

    PYTHONPATH=src python benchmarks/bench_shard_scaling.py
    PYTHONPATH=src python benchmarks/bench_shard_scaling.py --quick \
        --output bench_shard_scaling.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from statistics import median

import numpy as np

from repro.bench.reporting import format_table
from repro.datasets import get_dataset
from repro.serve.executor import BlockExecutor
from repro.shard import build_sharded, plan_shards

SCHEMA = "bench_shard_scaling/v1"

SHARD_COUNTS = (1, 2, 4, 8)

#: Panel width of the serving workload.
K_VECTORS = 32


def _median_time(fn, repeats: int) -> tuple[float, object]:
    times, result = [], None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return median(times), result


def run(dataset: str, n_rows: int, workers: int, repeats: int) -> dict:
    matrix = np.asarray(get_dataset(dataset, n_rows=n_rows).matrix)
    x = np.linspace(-1.0, 1.0, matrix.shape[1])
    panel = np.linspace(-1.0, 1.0, matrix.shape[1] * K_VECTORS).reshape(
        matrix.shape[1], K_VECTORS
    )
    expected_x = matrix @ x
    expected_panel = matrix @ panel
    rows = []
    with BlockExecutor(workers) as executor:
        for n_shards in SHARD_COUNTS:
            plan = plan_shards(matrix, n_shards=n_shards)
            build_seq, sharded = _median_time(
                lambda: build_sharded(matrix, plan=plan), 1
            )
            build_par, _ = _median_time(
                lambda: build_sharded(matrix, plan=plan, executor=executor), 1
            )
            mvm_1t, result = _median_time(
                lambda: sharded.right_multiply(x), repeats
            )
            assert np.allclose(result, expected_x)
            mvm_exec, result = _median_time(
                lambda: sharded.right_multiply(x, executor=executor), repeats
            )
            assert np.allclose(result, expected_x)
            panel_1t, result = _median_time(
                lambda: sharded.right_multiply_matrix(panel), repeats
            )
            assert np.allclose(result, expected_panel)
            rows.append(
                {
                    "n_shards": n_shards,
                    "formats": list(sharded.shard_formats),
                    "size_bytes": sharded.size_bytes(),
                    "build_seconds_sequential": build_seq,
                    "build_seconds_parallel": build_par,
                    "mvm_seconds_1_thread": mvm_1t,
                    "mvm_seconds_executor": mvm_exec,
                    "panel_seconds_k32": panel_1t,
                }
            )
    return {
        "schema": SCHEMA,
        "dataset": dataset,
        "shape": list(matrix.shape),
        "workers": workers,
        "repeats": repeats,
        "rows": rows,
    }


def print_report(report: dict) -> None:
    table = [
        [
            r["n_shards"],
            ",".join(sorted(set(r["formats"]))),
            f"{r['size_bytes']:,}",
            f"{1000 * r['build_seconds_sequential']:.1f}",
            f"{1000 * r['build_seconds_parallel']:.1f}",
            f"{1000 * r['mvm_seconds_1_thread']:.3f}",
            f"{1000 * r['mvm_seconds_executor']:.3f}",
            f"{1000 * r['panel_seconds_k32']:.3f}",
        ]
        for r in report["rows"]
    ]
    print(
        format_table(
            [
                "shards", "formats", "bytes", "build ms", "par build ms",
                "mvm ms", "exec mvm ms", f"panel k={K_VECTORS} ms",
            ],
            table,
            title=(
                f"{report['dataset']} {tuple(report['shape'])}, "
                f"{report['workers']} workers"
            ),
        )
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dataset", default="covtype")
    parser.add_argument("--rows", type=int, default=3000)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument(
        "--quick", action="store_true",
        help="small profile for CI smoke (400 rows, 2 repeats)",
    )
    parser.add_argument("--output", default=None, help="write JSON report")
    args = parser.parse_args(argv)
    if args.quick:
        args.rows, args.repeats = 400, 2
    report = run(args.dataset, args.rows, args.workers, args.repeats)
    print_report(report)
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(report, fh, indent=2)
        print(f"report written to {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
