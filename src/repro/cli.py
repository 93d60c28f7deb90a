"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``datasets``
    List the available synthetic datasets and their profiles.
``compress IN.npy OUT.gcmx``
    Compress a dense ``.npy`` matrix into any registered format
    (``--format``, with ``--variant`` as the historical alias; plus
    blocks, reordering and ``--strategy exact|batch`` RePair options).
    Choices come from :func:`repro.formats.available`.
``info FILE.gcmx``
    Describe a compressed matrix file.
``decompress FILE.gcmx OUT.npy``
    Expand back to a dense ``.npy`` file.
``multiply FILE.gcmx X.npy``
    Compute ``y = Mx`` (or ``xᵗ = yᵗM`` with ``--left``) from the
    compressed file and print/save the result.  ``--workers N`` runs
    the row blocks or shards of a partitioned matrix (or CLA's column
    groups) on a real :class:`repro.serve.executor.BlockExecutor` pool.
``shard IN.npy OUT.gcmx``
    Split a dense matrix into row shards, compress each shard
    independently (``--format`` for one format everywhere; by default
    each shard keeps the smallest encoding after one RePair run, the
    Section 4.2 choice blocked ``auto`` makes per block), and write one
    sharded container file.  ``--workers N`` compresses shards in
    parallel.
``solve ALGO FILE.gcmx``
    Run a named iterative algorithm (``power``, ``pagerank``, ``cg``,
    ``ridge``, ``topk`` — see :mod:`repro.solve`) on a compressed
    file, entirely in the compressed domain, and report the
    convergence trace.  ``--workers N`` shares one executor pool
    across every iteration.
``bench NAME``
    Run the Eq. (4) workload on one synthetic dataset and report
    size/time/peak-memory for every representation.  ``--workers N``
    switches from the simulated LPT timings to measured wall-clock on
    a real executor pool.
``serve ROOT``
    Serve a directory of ``.gcmx`` files over the HTTP JSON API
    (``/matrices``, ``/multiply``, ``/jobs``, ``/stats`` — see
    :mod:`repro.serve.server`).  ``--job-workers N`` sets how many
    asynchronous solver jobs run concurrently;
    ``--request-deadline-ms`` puts a latency budget on every request
    (expiry answers 504 with ``Retry-After``); ``/metrics`` and
    ``/trace/<id>`` expose the observability layer (:mod:`repro.obs`),
    with ``--trace-log PATH`` appending every trace as JSONL.
``verify PATH``
    Check the CRC32 checksum footers of one ``.gcmx`` file or every
    ``.gcmx`` file under a directory (sharded containers are verified
    section by section).  Exit status 1 when any file fails.
    Outcomes are recorded in the directory's store catalog when one
    exists.
``store init|list|reindex ROOT``
    Manage a matrix store (:mod:`repro.store`): ``init`` creates the
    SQLite catalog and indexes existing ``.gcmx`` files, ``list``
    prints the catalog rows, ``reindex`` re-syncs rows after
    out-of-band file changes.  ``compress``/``shard`` take ``--store``
    to catalog their output as they write it, and ``serve --store``
    registers matrices from the catalog (O(rows) cold start) —
    optionally mmap-backed via ``serve --mmap``.
``analyze [PATHS...]``
    Run the project-specific static-analysis suite
    (:mod:`repro.analyze` — kind tags, lock discipline, exception
    boundaries, kernel contracts, executor plumbing, retry discipline,
    catalog SQL, counter discipline) against the committed baseline in
    ``analysis/baseline.json``.

``repro --version`` prints the package version
(:mod:`repro._version`, the same figure ``/stats`` reports).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro import formats
from repro import solve as solve_api
from repro._version import __version__
from repro.bench.harness import bench_formats
from repro.core import repair
from repro.bench.memory import peak_mvm_pct
from repro.bench.reporting import format_table, ratio_pct
from repro.core.blocked import BLOCK_FORMATS, BlockedMatrix
from repro.datasets import PROFILES, get_dataset, list_datasets
from repro.errors import ReproError
from repro.io.serialize import load_matrix, save_matrix
from repro.reorder.pipeline import compress_with_reordering
from repro.shard.matrix import ShardedMatrix

#: Default formats benched by ``python -m repro bench`` — the paper's
#: Table 2 line-up (every other registered format can be requested via
#: ``--formats``).
DEFAULT_BENCH_FORMATS = ("csrv", "re_32", "re_iv", "re_ans", "auto")


def _cmd_datasets(_args) -> int:
    rows = []
    for name in list_datasets():
        p = PROFILES[name]
        rows.append(
            [
                name,
                f"{p.paper_rows:,}",
                p.paper_cols,
                f"{p.paper_density:.1%}",
                f"{p.paper_distinct:,}",
                p.default_rows,
            ]
        )
    print(
        format_table(
            ["name", "paper rows", "cols", "density", "distinct", "synthetic rows"],
            rows,
            title="Synthetic stand-ins for the paper's evaluation matrices",
        )
    )
    return 0


def _cmd_compress(args) -> int:
    matrix = np.load(args.input)
    fmt = args.format
    strategy_opts = {}
    if args.strategy != "exact":
        if not formats.get(fmt).runs_repair:
            repair_formats = [
                name for name in formats.available() if formats.get(name).runs_repair
            ]
            print(
                f"--strategy {args.strategy} requires a grammar format "
                f"({', '.join(repair_formats)}), got {fmt!r}",
                file=sys.stderr,
            )
            return 1
        if args.reorder:
            print("--strategy cannot be combined with --reorder", file=sys.stderr)
            return 1
        strategy_opts["strategy"] = args.strategy
    if args.reorder:
        if fmt not in BLOCK_FORMATS:
            print(
                f"--reorder requires a row-block format "
                f"({', '.join(BLOCK_FORMATS)}), got {fmt!r}",
                file=sys.stderr,
            )
            return 1
        result = compress_with_reordering(
            matrix, variant=fmt, n_blocks=args.blocks
        )
        compressed = result.matrix
        print(f"reordering winner: {result.method}")
    elif args.blocks > 1:
        if fmt not in BLOCK_FORMATS:
            print(
                f"--blocks > 1 requires a row-block format "
                f"({', '.join(BLOCK_FORMATS)}), got {fmt!r}",
                file=sys.stderr,
            )
            return 1
        name = "auto" if fmt == "auto" else "blocked"
        opts = {} if fmt == "auto" else {"variant": fmt}
        compressed = formats.compress(
            matrix, format=name, n_blocks=args.blocks, **opts, **strategy_opts
        )
    else:
        compressed = formats.compress(matrix, format=fmt, **strategy_opts)
    save_matrix(compressed, args.output)
    _maybe_catalog(args, provenance={"command": "compress", "input": args.input})
    dense = matrix.size * 8
    print(
        f"{args.input} ({matrix.shape[0]}x{matrix.shape[1]}) -> {args.output}: "
        f"{compressed.size_bytes():,} bytes "
        f"({ratio_pct(compressed.size_bytes(), dense):.2f}% of dense)"
    )
    return 0


def _cmd_shard(args) -> int:
    from repro.serve.executor import BlockExecutor
    from repro.shard import build_sharded, plan_shards

    matrix = np.load(args.input)
    try:
        plan = plan_shards(
            matrix,
            n_shards=args.shards,
            target_rows=args.target_rows,
            target_bytes=args.target_bytes,
            format=args.format,
        )
    except ReproError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    if args.workers > 1:
        with BlockExecutor(args.workers) as executor:
            sharded = build_sharded(matrix, plan=plan, executor=executor)
    else:
        sharded = build_sharded(matrix, plan=plan)
    save_matrix(sharded, args.output)
    _maybe_catalog(args, provenance={"command": "shard", "input": args.input})
    rows = [
        [d["shard"], d["rows"], shard.format_name, f"{shard.size_bytes():,}"]
        for d, shard in zip(plan.describe(), sharded.shards, strict=True)
    ]
    print(
        format_table(
            ["shard", "rows", "format", "bytes"],
            rows,
            title=f"{args.input} -> {args.output} ({plan.n_shards} shards)",
        )
    )
    dense = matrix.size * 8
    print(
        f"total: {sharded.size_bytes():,} bytes "
        f"({ratio_pct(sharded.size_bytes(), dense):.2f}% of dense)"
    )
    return 0


def _cmd_info(args) -> int:
    matrix = load_matrix(args.file)
    n, m = matrix.shape
    print(f"file    : {args.file}")
    print(f"type    : {type(matrix).__name__}")
    print(f"format  : {matrix.format_name}")
    print(f"shape   : {n} x {m}")
    print(f"bytes   : {matrix.size_bytes():,} "
          f"({ratio_pct(matrix.size_bytes(), 8 * n * m):.2f}% of dense)")
    if isinstance(matrix, ShardedMatrix):
        kinds: dict[str, int] = {}
        for label in matrix.shard_formats:
            kinds[label] = kinds.get(label, 0) + 1
        parts = "blocks" if isinstance(matrix, BlockedMatrix) else "shards"
        print(f"{parts:<8}: {matrix.n_shards} ({kinds})")
    if hasattr(matrix, "variant"):
        print(f"variant : {matrix.variant}")
        print(f"|C|     : {matrix.c_length:,}")
        print(f"|R|     : {matrix.n_rules:,}")
    print(f"peak mem: {peak_mvm_pct(matrix, threads=1):.2f}% of dense during MVM")
    return 0


def _cmd_decompress(args) -> int:
    matrix = load_matrix(args.file)
    dense = matrix.to_dense()
    np.save(args.output, dense)
    print(f"{args.file} -> {args.output}: {dense.shape[0]}x{dense.shape[1]} doubles")
    return 0


def _cmd_multiply(args) -> int:
    matrix = load_matrix(args.file)
    vector = np.load(args.vector)
    direction = "left" if args.left else "right"
    method = getattr(matrix, f"{direction}_multiply")
    if args.workers > 1:
        from repro.serve.executor import BlockExecutor

        with BlockExecutor(args.workers) as executor:
            result = method(vector, executor=executor)
    else:
        result = method(vector)
    if args.output:
        np.save(args.output, result)
        print(f"result ({result.size} entries) saved to {args.output}")
    else:
        np.set_printoptions(threshold=20)
        print(result)
    return 0


def _cmd_solve(args) -> int:
    matrix = load_matrix(args.file)
    params: dict = {}
    # Only forward what the user set: each algorithm keeps its own
    # defaults (iteration caps and tolerances differ per algorithm).
    if args.iterations is not None:
        params["iterations"] = args.iterations
    if args.tol is not None:
        params["tol"] = args.tol
    if args.algorithm == "pagerank" and args.damping is not None:
        params["damping"] = args.damping
    if args.algorithm == "cg" and args.ridge is not None:
        params["ridge"] = args.ridge
    if args.algorithm == "ridge" and args.alpha is not None:
        params["alpha"] = args.alpha
    if args.algorithm == "topk":
        if args.k is not None:
            params["k"] = args.k
        if args.seed is not None:
            params["seed"] = args.seed
    if args.algorithm in ("cg", "ridge"):
        if args.b is not None:
            params["b"] = np.load(args.b)
        else:
            print("no --b given; solving against b = ones(n_rows)")
            params["b"] = np.ones(matrix.shape[0])

    executor = None
    if args.workers > 1:
        from repro.serve.executor import BlockExecutor

        executor = BlockExecutor(args.workers)
        params["executor"] = executor
    try:
        result = solve_api.solve(matrix, algorithm=args.algorithm, **params)
    except ReproError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    finally:
        if executor is not None:
            executor.shutdown()

    latency = result.trace.latency_summary()
    print(
        format_table(
            ["algorithm", "converged", "iterations", "residual", "total s",
             "p50 ms", "p99 ms"],
            [[
                result.algorithm,
                str(result.converged),
                result.iterations,
                f"{result.residual:.3e}",
                f"{result.total_seconds:.3f}",
                f"{latency.get('p50_ms', float('nan')):.3f}",
                f"{latency.get('p99_ms', float('nan')):.3f}",
            ]],
            title=f"{args.algorithm} on {args.file} "
            f"({matrix.shape[0]}x{matrix.shape[1]}, {matrix.format_name})",
        )
    )
    for key, value in result.extras.items():
        print(f"{key}: {value}")
    if args.output:
        np.save(args.output, np.asarray(result.x))
        print(f"solution ({np.asarray(result.x).shape}) saved to {args.output}")
    return 0


def _cmd_bench(args) -> int:
    dataset = get_dataset(args.name, n_rows=args.rows)
    matrix = np.asarray(dataset.matrix)
    dense = matrix.size * 8
    if args.workers:
        model, threads = "executor", args.workers
        timing_label = f"{args.workers} executor workers"
    else:
        model, threads = "simulated", args.threads
        timing_label = f"{args.threads} simulated threads"
    names = (
        [n.strip() for n in args.formats.split(",") if n.strip()]
        if args.formats
        else list(DEFAULT_BENCH_FORMATS)
    )
    unknown = [n for n in names if n not in formats.available()]
    if unknown:
        print(
            f"unknown format(s) {', '.join(unknown)}; registered: "
            f"{', '.join(formats.available())}",
            file=sys.stderr,
        )
        return 1
    entries = bench_formats(
        matrix,
        names=names,
        iterations=args.iterations,
        threads=threads,
        n_blocks=args.blocks,
        parallel_model=model,
    )
    rows = [
        [
            entry.format,
            ratio_pct(entry.size_bytes, dense),
            peak_mvm_pct(entry.matrix, threads=threads),
            f"{1000 * entry.result.seconds_per_iter:.3f}",
        ]
        for entry in entries
    ]
    print(
        format_table(
            ["variant", "size %", "peak mem %", "ms/iter"],
            rows,
            title=(
                f"{args.name} ({matrix.shape[0]}x{matrix.shape[1]}), "
                f"{args.blocks} blocks, {timing_label}"
            ),
        )
    )
    return 0


def _maybe_catalog(args, provenance: dict) -> None:
    """Register a just-written ``.gcmx`` in its directory's catalog.

    Active under ``--store``: the output's parent directory becomes (or
    already is) a store root, and the file's catalog row is written in
    the same command that wrote its bytes.
    """
    if not getattr(args, "store", False):
        return
    from pathlib import Path

    from repro.store import MatrixStore

    out = Path(args.output)
    store = MatrixStore(out.parent)
    store.register_file(out, provenance=provenance)
    print(f"cataloged {out.stem!r} in {store.catalog.path}")


def _cmd_store(args) -> int:
    from repro.store import MatrixStore, is_store

    if args.action == "init":
        existed = is_store(args.root)
        store = MatrixStore(args.root)
        report = store.reindex()
        verb = "reopened" if existed else "initialised"
        print(
            f"{verb} store at {store.root} "
            f"({len(store)} matrices, schema v{store.catalog.schema_version()})"
        )
        for key in ("added", "refreshed", "removed", "corrupt"):
            if report[key]:
                print(f"  {key}: {', '.join(report[key])}")
        return 0
    if not is_store(args.root):
        print(
            f"{args.root} has no catalog — run `repro store init {args.root}`",
            file=sys.stderr,
        )
        return 1
    store = MatrixStore(args.root, create=False)
    if args.action == "reindex":
        report = store.reindex()
        changed = sum(len(v) for v in report.values())
        print(
            f"reindexed {store.root}: "
            + ", ".join(f"{len(v)} {k}" for k, v in report.items())
        )
        for key, names in report.items():
            for name in names:
                print(f"  {key}: {name}")
        return 1 if report["corrupt"] else 0
    # action == "list"
    rows = [
        [
            e.name,
            e.format,
            f"{e.shape[0]}x{e.shape[1]}",
            f"{e.file_bytes:,}",
            e.integrity,
            str(len(store.catalog.shards(e.name)) or ""),
        ]
        for e in store.entries()
    ]
    print(
        format_table(
            ["name", "format", "shape", "bytes", "integrity", "shards"],
            rows,
            title=f"{store.root} (schema v{store.catalog.schema_version()})",
        )
    )
    return 0


def _cmd_verify(args) -> int:
    from pathlib import Path

    from repro.errors import SerializationError
    from repro.resilience.integrity import verify_file

    from repro.resilience.integrity import INTEGRITY_FAILED
    from repro.store import MatrixStore, is_store

    root = Path(args.path)
    if root.is_dir():
        paths = sorted(root.rglob("*.gcmx"))
        if not paths:
            print(f"no .gcmx files found under {root}", file=sys.stderr)
            return 1
    else:
        paths = [root]

    # Verification outcomes flow back into the directory's catalog (if
    # one exists) so `repro verify` keeps store rows honest.
    stores: dict = {}

    def _sync(path, state, shard_states=None) -> None:
        parent = path.parent
        if parent not in stores:
            stores[parent] = (
                MatrixStore(parent, create=False) if is_store(parent) else None
            )
        store = stores[parent]
        if store is not None and store.get(path.stem) is not None:
            store.catalog.set_integrity(
                path.stem, state,
                tuple(shard_states) if shard_states is not None else None,
            )

    failures = 0
    for path in paths:
        try:
            report = verify_file(path, deep=not args.shallow)
        except FileNotFoundError:
            print(f"{path}: FAIL  no such file", file=sys.stderr)
            failures += 1
            continue
        except SerializationError as exc:
            print(f"{path}: FAIL  {exc}", file=sys.stderr)
            _sync(path, INTEGRITY_FAILED)
            failures += 1
            continue
        _sync(path, report["integrity"], report.get("shards"))
        detail = f"{report['integrity']}, {report['file_bytes']:,} bytes"
        if "shards" in report:
            detail += f", {len(report['shards'])} shard sections checked"
        print(f"{path}: OK    {detail}")
    if failures:
        print(f"{failures} of {len(paths)} file(s) failed", file=sys.stderr)
        return 1
    return 0


def _cmd_analyze(args) -> int:
    from repro.analyze.cli import run_from_args

    return run_from_args(args)


def _cmd_serve(args) -> int:
    from repro.serve.registry import MatrixRegistry
    from repro.serve.server import MatrixServer

    budget = (
        int(args.budget_mb * 1024 * 1024) if args.budget_mb is not None else None
    )
    store = None
    if args.store:
        from repro.store import MatrixStore

        store = MatrixStore(args.root)
        if not len(store):
            # Fresh catalog over an existing directory: index it once
            # so `serve --store DIR` works on any .gcmx directory.
            store.reindex()
    try:
        registry = MatrixRegistry(
            root=None if store is not None else args.root,
            byte_budget=budget,
            retain_plans=not args.no_plan_cache,
            lazy_shards=not args.eager_shards,
            store=store,
            mmap=args.mmap,
        )
    except (ReproError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return 1
    if not len(registry):
        print(f"no .gcmx files found under {args.root}", file=sys.stderr)
        return 1
    try:
        server = MatrixServer(
            registry,
            workers=args.workers,
            host=args.host,
            port=args.port,
            job_workers=args.job_workers,
            request_deadline_ms=args.request_deadline_ms,
            trace_log=args.trace_log,
        )
    except OSError as exc:
        print(
            f"cannot bind {args.host}:{args.port}: {exc}", file=sys.stderr
        )
        return 1
    except ReproError as exc:  # bad option values (e.g. --job-workers 0)
        print(str(exc), file=sys.stderr)
        return 1
    except ImportError as exc:  # orjson, the server's JSON codec
        print(f"repro serve needs orjson: {exc}", file=sys.stderr)
        return 1
    names = ", ".join(registry.names())
    print(f"serving {len(registry)} matrices ({names}) on {server.url}")
    print(
        "endpoints: GET /matrices  POST /multiply  POST /jobs  "
        "GET /jobs/<id>  GET /stats  GET /healthz"
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Grammar-compressed matrices with compressed-domain MVM",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list synthetic datasets").set_defaults(
        fn=_cmd_datasets
    )

    p = sub.add_parser("compress", help="compress a dense .npy matrix")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument(
        "--format", "--variant", dest="format", default="re_ans",
        choices=formats.available(),
        help="target representation (any registered format; "
        "--variant is the historical alias)",
    )
    p.add_argument("--blocks", type=int, default=1)
    p.add_argument("--reorder", action="store_true", help="Section 5.3 pipeline")
    p.add_argument(
        "--strategy", default="exact", choices=repair.STRATEGIES,
        help="RePair formulation for grammar formats: 'exact' (reference "
        "heap loop) or 'batch' (vectorised rounds, ~10x faster at scale)",
    )
    p.add_argument(
        "--store", action="store_true",
        help="register the output in its directory's store catalog "
        "(creating the catalog if needed)",
    )
    p.set_defaults(fn=_cmd_compress)

    p = sub.add_parser(
        "shard", help="row-shard a dense .npy into a sharded container"
    )
    p.add_argument("input")
    p.add_argument("output")
    group = p.add_mutually_exclusive_group()
    group.add_argument(
        "--shards", type=int, default=None, help="explicit shard count"
    )
    group.add_argument(
        "--target-rows", type=int, default=None, help="rows per shard"
    )
    group.add_argument(
        "--target-bytes", type=int, default=None,
        help="dense bytes per shard (rows are sized to fit)",
    )
    p.add_argument(
        "--format", default=None, choices=formats.available(),
        help="one format for every shard (default: each shard keeps the "
        "smallest of csrv, re_32, re_iv and re_ans after one RePair run)",
    )
    p.add_argument(
        "--workers", type=int, default=1,
        help="compress shards in parallel on an executor pool",
    )
    p.add_argument(
        "--store", action="store_true",
        help="register the output in its directory's store catalog "
        "(creating the catalog if needed)",
    )
    p.set_defaults(fn=_cmd_shard)

    p = sub.add_parser("info", help="describe a compressed file")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_info)

    p = sub.add_parser("decompress", help="expand to a dense .npy file")
    p.add_argument("file")
    p.add_argument("output")
    p.set_defaults(fn=_cmd_decompress)

    p = sub.add_parser("multiply", help="y = Mx from the compressed file")
    p.add_argument("file")
    p.add_argument("vector", help=".npy vector")
    p.add_argument("--left", action="store_true", help="compute xᵗ = yᵗM")
    p.add_argument("--output", help="save result as .npy")
    p.add_argument(
        "--workers", type=int, default=1,
        help="run row blocks on a real executor pool of N workers",
    )
    p.set_defaults(fn=_cmd_multiply)

    p = sub.add_parser(
        "solve", help="run an iterative algorithm on a compressed file"
    )
    p.add_argument("algorithm", choices=solve_api.available())
    p.add_argument("file", help="compressed .gcmx matrix")
    p.add_argument(
        "--iterations", type=int, default=None, help="iteration cap "
        "(default: the algorithm's own)",
    )
    p.add_argument(
        "--tol", type=float, default=None,
        help="convergence tolerance (default: the algorithm's own)",
    )
    p.add_argument(
        "--damping", type=float, default=None, help="pagerank damping factor"
    )
    p.add_argument(
        "--ridge", type=float, default=None, help="cg ridge (λ) shift"
    )
    p.add_argument(
        "--alpha", type=float, default=None, help="ridge regularisation weight"
    )
    p.add_argument("--k", type=int, default=None, help="topk subspace size")
    p.add_argument("--seed", type=int, default=None, help="topk start seed")
    p.add_argument(
        "--b", default=None, metavar="VEC.npy",
        help="right-hand side for cg/ridge (default: ones)",
    )
    p.add_argument(
        "--output", default=None, help="save the solution vector as .npy"
    )
    p.add_argument(
        "--workers", type=int, default=1,
        help="executor pool shared across every iteration",
    )
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("bench", help="run Eq.(4) on a synthetic dataset")
    p.add_argument("name", choices=list_datasets())
    p.add_argument("--rows", type=int, default=None)
    p.add_argument("--blocks", type=int, default=8)
    p.add_argument("--threads", type=int, default=8)
    p.add_argument("--iterations", type=int, default=10)
    p.add_argument(
        "--workers", type=int, default=0,
        help="measure on a real executor pool of N workers instead of "
        "the simulated LPT timings",
    )
    p.add_argument(
        "--formats", default=None,
        help="comma-separated registered formats to bench "
        f"(default: {','.join(DEFAULT_BENCH_FORMATS)})",
    )
    p.set_defaults(fn=_cmd_bench)

    p = sub.add_parser("serve", help="serve .gcmx files over HTTP JSON")
    p.add_argument("root", help="directory of .gcmx files")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8753)
    p.add_argument(
        "--budget-mb", type=float, default=None,
        help="LRU residency budget in MiB (default: unlimited)",
    )
    p.add_argument(
        "--workers", type=int, default=1,
        help="block-level parallelism per request",
    )
    p.add_argument(
        "--no-plan-cache", action="store_true",
        help="disable multiplication-plan retention (served re_iv/re_ans "
        "then re-decode and re-plan on every request, as the paper's "
        "cost model does)",
    )
    p.add_argument(
        "--eager-shards", action="store_true",
        help="materialise sharded containers whole at load time instead "
        "of streaming shards on demand under the byte budget",
    )
    p.add_argument(
        "--job-workers", type=int, default=1,
        help="background workers for asynchronous /jobs solver runs",
    )
    p.add_argument(
        "--request-deadline-ms", type=int, default=None,
        help="latency budget per request in milliseconds; expiry "
        "answers 504 with a Retry-After header (default: none)",
    )
    p.add_argument(
        "--trace-log", default=None, metavar="PATH",
        help="append every recorded request/job trace to PATH as JSON "
        "lines, beyond the bounded in-memory /trace ring",
    )
    p.add_argument(
        "--store", action="store_true",
        help="treat ROOT as a matrix store: register matrices from its "
        "SQLite catalog (O(rows) cold start, indexing the directory "
        "first if the catalog is empty) instead of scanning headers",
    )
    p.add_argument(
        "--mmap", action="store_true",
        help="open payloads as zero-copy views over mmap-ed files where "
        "the format supports it (copy-load fallback otherwise)",
    )
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser(
        "verify", help="check .gcmx checksum footers (file or directory)"
    )
    p.add_argument("path", help="one .gcmx file or a directory to scan")
    p.add_argument(
        "--shallow", action="store_true",
        help="skip per-shard section checks inside sharded containers",
    )
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser(
        "store",
        help="manage a matrix store's SQLite catalog",
    )
    p.add_argument(
        "action", choices=("init", "list", "reindex"),
        help="init: create/refresh the catalog; list: catalog rows; "
        "reindex: rebuild rows from the .gcmx files on disk",
    )
    p.add_argument("root", help="store root directory")
    p.set_defaults(fn=_cmd_store)

    from repro.analyze.cli import add_arguments as _add_analyze_arguments

    p = sub.add_parser(
        "analyze",
        help="run the project-specific static-analysis suite",
    )
    _add_analyze_arguments(p)
    p.set_defaults(fn=_cmd_analyze)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
