"""The paper's benchmark workload: alternating left/right MVM (Eq. 4).

Each iteration computes::

    y_i = M x_i,    z_iᵗ = y_iᵗ M,    x_{i+1} = z_i / ‖z_i‖_∞

which "mimics the most costly operations of the conjugate gradient
method" (Section 4.2).  The harness times the loop, optionally checks
every iterate against a dense reference, and reports the modelled peak
memory.

The loop itself now lives in :func:`repro.solve.power_iteration` (the
Eq. (4) iteration *is* the power method on ``MᵗM``); this harness is a
thin timing/verification wrapper around that driver — except for the
``"simulated"`` parallel model, whose per-block LPT bookkeeping stays
local.  Plan retention is left **off**, matching the paper's per-call
cost model (the serving layer opts in separately).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.bench.memory import peak_mvm_bytes, peak_mvm_pct
from repro.errors import MatrixFormatError
from repro.shard.matrix import LazyShardedMatrix, ShardedMatrix


@dataclass(frozen=True)
class IterationResult:
    """Outcome of :func:`run_iterations`.

    Attributes
    ----------
    iterations:
        Number of Eq. (4) iterations executed.
    seconds_per_iter:
        Mean wall-clock seconds per iteration.
    total_seconds:
        Total loop time.
    final_x:
        The final normalised iterate ``x``.
    peak_bytes / peak_pct:
        Modelled peak memory (absolute and as % of the dense size).
    max_error:
        Largest infinity-norm deviation from the dense reference
        (``nan`` when no reference was requested).
    """

    iterations: int
    seconds_per_iter: float
    total_seconds: float
    final_x: np.ndarray
    peak_bytes: int
    peak_pct: float
    max_error: float


def run_iterations(
    matrix,
    iterations: int = 10,
    threads: int = 1,
    x0: np.ndarray | None = None,
    reference: np.ndarray | None = None,
    parallel_model: str = "executor",
) -> IterationResult:
    """Run the Eq. (4) loop on any matrix representation.

    Parameters
    ----------
    matrix:
        Any object with ``right_multiply`` / ``left_multiply`` and
        ``shape`` (all representations in this package qualify).
    iterations:
        Loop count (the paper uses 500; benchmarks here use less —
        the per-iteration mean is what is compared).
    threads:
        The paper's thread count: it sizes the executor pool, the LPT
        model's worker count and the modelled peak memory.
    x0:
        Starting vector; defaults to all ones.
    reference:
        Optional dense matrix; when given, every ``y`` and ``z`` is
        checked against numpy and the max deviation reported.
    parallel_model:
        ``"executor"`` (the default) measures the loop on one
        persistent :class:`repro.serve.executor.BlockExecutor` of
        ``threads`` workers, handed to every format — the serving
        configuration, pool startup paid once; at ``threads=1`` no
        pool is built and the loop runs serially.  ``"simulated"``
        multiplies the blocks of a row-partitioned (blocked or
        sharded) matrix sequentially and reports the LPT-schedule
        makespan on ``threads`` workers, the model the multithread
        benchmarks use to reproduce the paper's Figure 3/Table 2
        timing shape; any other matrix is measured as under
        ``"executor"``.
    """
    n, m = matrix.shape
    if iterations < 1:
        raise MatrixFormatError(f"iterations must be >= 1, got {iterations}")
    if threads < 1:
        raise MatrixFormatError(f"threads must be >= 1, got {threads}")
    if parallel_model not in ("executor", "simulated"):
        raise MatrixFormatError(
            f"unknown parallel_model {parallel_model!r}; "
            "expected 'executor' or 'simulated'"
        )
    partitioned = isinstance(matrix, (ShardedMatrix, LazyShardedMatrix))
    simulate = parallel_model == "simulated" and partitioned
    executor = None
    if threads > 1 and not simulate:
        from repro.serve.executor import BlockExecutor

        executor = BlockExecutor(workers=threads)
    x = np.ones(m, dtype=np.float64) if x0 is None else np.asarray(x0, dtype=np.float64).copy()
    if x.size != m:
        raise MatrixFormatError(f"x0 has length {x.size}, expected {m}")
    max_error = float("nan")
    if reference is not None:
        reference = np.asarray(reference, dtype=np.float64)
        max_error = 0.0

    # Timing noise control: a GC pause landing in one block's window
    # would otherwise dominate the simulated makespan (max over blocks).
    import gc

    simulated_iters: list[float] = []
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        if simulate:
            for _ in range(iterations):
                from repro.bench.parallel import (
                    lpt_makespan,
                    simulated_left_multiply,
                    simulated_right_multiply,
                )

                y, d_right = simulated_right_multiply(matrix, x)
                z, d_left = simulated_left_multiply(matrix, y)
                simulated_iters.append(
                    lpt_makespan(d_right, threads) + lpt_makespan(d_left, threads)
                )
                if reference is not None:
                    max_error = max(
                        max_error,
                        float(np.max(np.abs(y - reference @ x), initial=0.0)),
                        float(np.max(np.abs(z - y @ reference), initial=0.0)),
                    )
                norm = float(np.max(np.abs(z), initial=0.0))
                x = z / norm if norm > 0 else z
        else:
            # The measured loop is the solve layer's power iteration —
            # same arithmetic, same normalization — run for exactly
            # ``iterations`` rounds (tol=None disables early stopping)
            # with plan retention off (the paper's per-call cost model).
            from repro.solve.algorithms import power_iteration

            def observer(_k, x_k, y, z):
                nonlocal max_error
                if reference is not None:
                    max_error = max(
                        max_error,
                        float(np.max(np.abs(y - reference @ x_k), initial=0.0)),
                        float(np.max(np.abs(z - y @ reference), initial=0.0)),
                    )

            solved = power_iteration(
                matrix,
                iterations=iterations,
                tol=None,
                x0=x,
                executor=executor,
                retain_plans=False,
                observer=observer,
            )
            x = solved.x
        total = time.perf_counter() - start
    finally:
        if gc_was_enabled:
            gc.enable()
        if executor is not None:
            executor.shutdown()
    if simulate:
        # Median over iterations: robust to residual scheduler noise.
        per_iter = float(np.median(simulated_iters))
    else:
        per_iter = total / iterations
    reported = per_iter * iterations

    return IterationResult(
        iterations=iterations,
        seconds_per_iter=reported / iterations,
        total_seconds=total,
        final_x=x,
        peak_bytes=peak_mvm_bytes(matrix, threads),
        peak_pct=peak_mvm_pct(matrix, threads),
        max_error=max_error,
    )


@dataclass(frozen=True)
class FormatBenchResult:
    """One row of :func:`bench_formats`.

    Attributes
    ----------
    format:
        Registry name of the benchmarked representation.
    matrix:
        The built representation (for size inspection).
    size_bytes:
        Its :meth:`size_bytes` (convenience copy).
    result:
        The :class:`IterationResult` of its Eq. (4) run.
    """

    format: str
    matrix: object
    size_bytes: int
    result: IterationResult


def bench_formats(
    matrix: np.ndarray,
    names: list[str] | tuple[str, ...] | None = None,
    iterations: int = 10,
    threads: int = 1,
    n_blocks: int = 1,
    parallel_model: str = "executor",
    reference: np.ndarray | None = None,
    build_opts: dict | None = None,
) -> list[FormatBenchResult]:
    """Run the Eq. (4) workload over registered matrix formats.

    ``names`` defaults to every format in the registry
    (:func:`repro.formats.available`) — a new registration is
    benchmarked without touching this module.  When ``n_blocks > 1``,
    names that are valid row-block formats (``csrv``, the grammar
    variants, ``auto``) are built as a blocked matrix of that many
    blocks — the configuration the paper's multithreaded comparisons
    use; everything else is built whole.  ``build_opts`` is forwarded
    to every builder (e.g. ``{"strategy": "batch"}`` to benchmark the
    vectorised RePair output); pass options every benched format
    accepts.
    """
    from repro import formats as format_registry
    from repro.core.blocked import BLOCK_FORMATS, BlockedMatrix

    dense = np.asarray(matrix, dtype=np.float64)
    if names is None:
        names = format_registry.available()
    build_opts = dict(build_opts or {})
    results = []
    for name in names:
        if n_blocks > 1 and name in BLOCK_FORMATS:
            built = BlockedMatrix.compress(
                dense, variant=name, n_blocks=n_blocks, **build_opts
            )
        elif n_blocks > 1 and format_registry.get(name).cls is BlockedMatrix:
            # "blocked" itself (and any future blocked spec): its builder
            # takes n_blocks directly.
            built = format_registry.compress(
                dense, format=name, n_blocks=n_blocks, **build_opts
            )
        else:
            built = format_registry.compress(dense, format=name, **build_opts)
        result = run_iterations(
            built,
            iterations=iterations,
            threads=threads,
            parallel_model=parallel_model,
            reference=reference,
        )
        results.append(
            FormatBenchResult(
                format=name,
                matrix=built,
                size_bytes=int(built.size_bytes()),
                result=result,
            )
        )
    return results
