"""``python3 -m servebench --workload NAME --seed N --seconds S --trace 0|1``.

Prints every metric by name and unit; the last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``
holding the end-to-end metrics (``--trace 0``) or the per-layer
metrics (``--trace 1``).  Exits 1 when any answer was wrong, refused
or timed out, and 2 without a result when the repository's ``src/``
is missing.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
#: Scratch space inside the checkout: per-run stores (deleted at exit)
#: and the traced runs' span files.
WORK = REPO / ".servebench"


def parse_args(argv=None) -> argparse.Namespace:
    from servebench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(prog="python3 -m servebench")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--seconds", type=float, default=20.0,
        help="planned measured time; the request count is seconds x the "
        "workload's planned rate",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="row-count multiplier for toy runs (tests); 1 is the benchmark",
    )
    args = parser.parse_args(argv)
    if not 0.0 < args.scale <= 1.0:
        parser.error("--scale must be in (0, 1]")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _exit_on_sigterm(_signum, _frame) -> None:
    raise SystemExit(143)


def _print_metrics(title: str, metrics: dict, units: dict) -> None:
    print(title)
    for name, unit in units.items():
        value, note = metrics[name]
        print(f"  {name:<30} {value:>14.6g} {unit:<6} {note}")


def run(args: argparse.Namespace) -> int:
    from servebench.client import run_http
    from servebench.metrics import (
        END_TO_END_UNITS,
        PER_LAYER_UNITS,
        end_to_end,
        layer_table,
        per_layer,
    )
    from servebench.replay import replay
    from servebench.workloads import prepare, reingest

    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        prepared = prepare(
            args.workload, args.seed, args.seconds, args.scale, run_dir / "store"
        )
        spec = prepared.spec
        print(
            f"servebench {spec.name} seed={args.seed} seconds={args.seconds:g} "
            f"trace={args.trace} scale={args.scale:g}"
        )
        print(f"  parameters: {json.dumps(spec.describe())}")
        print(f"  sequence: {len(prepared.requests)} requests, {prepared.n_jobs} jobs")
        http = run_http(prepared, SRC, run_dir)
        reingest(prepared, run_dir / "reingest")
        attempted, failed = http.tally.attempted, http.tally.failed
        e2e = end_to_end(prepared, http)
        _print_metrics("end to end (HTTP, untraced):", e2e, END_TO_END_UNITS)
        metrics, units = e2e, END_TO_END_UNITS
        if args.trace:
            rep = replay(prepared)
            attempted += rep.attempted
            failed += rep.failed
            metrics, units = per_layer(prepared, http, rep), PER_LAYER_UNITS
            print("per layer (in-process replay with the benchmark's spans):")
            for line in layer_table(prepared, http, rep):
                print(line)
            _print_metrics("per-layer metrics:", metrics, units)
            spans = WORK / "traces" / f"{spec.name}-seed{args.seed}.jsonl"
            prepared.tracer.write_jsonl(spans)
            print(f"  spans: {spans}")
        print(f"  failed_frac {failed / attempted:.6g} ({failed}/{attempted})")
        print(
            json.dumps(
                {
                    "correct": failed == 0,
                    "attempted": attempted,
                    "failed": failed,
                    "metrics": {
                        name: {"value": metrics[name][0], "unit": unit}
                        for name, unit in units.items()
                    },
                }
            )
        )
        return 0 if failed == 0 else 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"servebench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
