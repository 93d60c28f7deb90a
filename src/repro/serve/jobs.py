"""Asynchronous solver jobs over the serving registry.

A ``/multiply`` request answers in one round-trip; an iterative
workload (PageRank over a sharded matrix, a few hundred CG rounds) can
run for seconds to minutes — far too long to hold an HTTP connection
open.  This module is the serving engine's job layer:

- ``POST /jobs`` *submits* a named :mod:`repro.solve` algorithm against
  a registered matrix and returns a job id immediately (submission
  validates the algorithm name and matrix registration, so bad
  requests fail fast with a typed 4xx rather than a failed job);
- a small pool of background worker threads drains the queue, loading
  each job's matrix through the registry (lazily-sharded entries
  stream shard-by-shard under the byte budget, exactly as ``/multiply``
  does) and running the solver with the server's persistent
  :class:`~repro.serve.executor.BlockExecutor`;
- ``GET /jobs/<id>`` *polls* status, and — once finished — the result
  payload including the per-iteration convergence/latency trace
  (:meth:`repro.solve.SolveResult.to_payload`);
- ``/stats`` gains the manager's counters (submitted / queued /
  running / done / failed).

Everything is stdlib (``queue`` + ``threading``); jobs live in memory
for the server's lifetime, bounded by ``max_jobs`` retained records
(oldest *finished* jobs are dropped first, like the latency windows).

The pool is self-healing: a *watchdog* thread notices worker threads
that died mid-job (a hard crash sails through ``_run``'s
``except Exception`` boundary — :class:`~repro.resilience.faults`
simulates exactly this), fails the orphaned job with a typed
:class:`~repro.errors.WorkerLostError` message instead of leaving it
``running`` forever, and starts a replacement worker.  ``close()``
joins with a timeout and *counts* workers that failed to stop
(``leaked_workers`` in :meth:`stats`) rather than silently leaking
them.  Jobs may carry a ``deadline_ms`` budget; the solver checks it
every iteration (:func:`repro.resilience.policy.deadline_scope`).
"""

from __future__ import annotations

import itertools
import logging
import queue
import threading
from collections import OrderedDict
from time import perf_counter, time
from typing import Any

from repro.errors import ReproError, SerializationError, SolveError
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Trace, TraceStore, new_trace_id, span, trace_scope
from repro.resilience import faults as _faults
from repro.resilience.policy import Deadline, deadline_scope

_LOG = logging.getLogger("repro.serve.jobs")

#: Lifecycle states a job moves through (in order; ``failed`` is the
#: error terminal).
JOB_STATES = ("queued", "running", "done", "failed")

#: Default cap on retained job records.
DEFAULT_MAX_JOBS = 1024


class Job:
    """One submitted solver run and its lifecycle record."""

    def __init__(
        self,
        job_id: str,
        algorithm: str,
        matrix: str,
        params: dict,
        deadline_ms: int | None = None,
        trace_id: str | None = None,
    ) -> None:
        self.id = job_id
        self.algorithm = algorithm
        self.matrix = matrix
        self.params = params
        self.deadline_ms = deadline_ms
        #: The id of the trace the background run records under —
        #: minted at submission so the ``202`` response already carries
        #: it and the client can fetch ``/trace/<id>`` once done.
        self.trace_id = trace_id or new_trace_id()
        self.status = "queued"
        self.submitted_at = time()
        self.started_at: float | None = None
        self.finished_at: float | None = None
        self.seconds: float | None = None
        self.result: dict | None = None
        self.error: str | None = None

    @property
    def finished(self) -> bool:
        return self.status in ("done", "failed")

    def describe(self, include_result: bool = True) -> dict:
        """JSON-ready job record (``GET /jobs/<id>``)."""
        out = {
            "id": self.id,
            "algorithm": self.algorithm,
            "matrix": self.matrix,
            "params": self.params,
            "status": self.status,
            "trace_id": self.trace_id,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "seconds": self.seconds,
        }
        if self.deadline_ms is not None:
            out["deadline_ms"] = self.deadline_ms
        if self.error is not None:
            out["error"] = self.error
        if include_result and self.result is not None:
            out["result"] = self.result
        return out


class JobManager:
    """Background solver workers over a :class:`~repro.serve.registry.MatrixRegistry`.

    Parameters
    ----------
    registry:
        The serving registry jobs load their matrices through (shared
        with ``/multiply``, so residency budgets and shard streaming
        apply to jobs too).
    executor:
        Optional shared :class:`~repro.serve.executor.BlockExecutor`
        forwarded to every solver run.
    workers:
        Worker thread count — how many jobs run concurrently.
    max_jobs:
        Retained job records; the oldest finished jobs are dropped
        beyond this (running/queued jobs are never dropped).
    watchdog_interval:
        Seconds between watchdog sweeps for dead workers.
    join_timeout:
        Seconds :meth:`close` waits per worker before declaring it
        leaked.
    """

    def __init__(
        self,
        registry: Any,
        executor: Any = None,
        workers: int = 1,
        max_jobs: int = DEFAULT_MAX_JOBS,
        watchdog_interval: float = 1.0,
        join_timeout: float = 5.0,
        metrics: MetricsRegistry | None = None,
        traces: TraceStore | None = None,
    ) -> None:
        if workers < 1:
            raise ReproError(f"job workers must be >= 1, got {workers}")
        if max_jobs < 1:
            raise ReproError(f"max_jobs must be >= 1, got {max_jobs}")
        self.registry = registry
        self.executor = executor
        self.workers = int(workers)
        self.max_jobs = int(max_jobs)
        self.watchdog_interval = float(watchdog_interval)
        self.join_timeout = float(join_timeout)
        self._lock = threading.Lock()
        self._jobs: OrderedDict[str, Job] = OrderedDict()
        self._queue: queue.Queue[Job | None] = queue.Queue()
        self._ids = itertools.count(1)
        self._thread_seq = itertools.count()
        self._threads: list[threading.Thread] = []
        #: thread name → the job that thread is currently running.
        self._active: dict[str, Job] = {}
        self._watchdog_thread: threading.Thread | None = None
        self._stop = threading.Event()
        self._closed = False
        #: finished background runs record their trace here (the
        #: server passes its ``/trace/<id>`` store).
        self.traces = traces
        if metrics is None:
            metrics = MetricsRegistry()  # standalone manager: private sink
        events = metrics.counter(
            "repro_job_events_total",
            "Job lifecycle events by kind (submitted/completed/failed/"
            "orphaned) plus pool repairs (worker_restarted/worker_leaked).",
            labels=("event",),
        )
        self._c_submitted = events.labels(event="submitted")
        self._c_completed = events.labels(event="completed")
        self._c_failed = events.labels(event="failed")
        self._c_orphaned = events.labels(event="orphaned")
        self._c_restarted = events.labels(event="worker_restarted")
        self._c_leaked = events.labels(event="worker_leaked")
        self._h_job_seconds = metrics.histogram(
            "repro_job_seconds",
            "Wall time of finished background jobs in seconds.",
            buckets=(0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 15.0, 60.0, 300.0),
        )

    # -- lifecycle ---------------------------------------------------------------

    def _spawn_worker_locked(self) -> None:
        """Start one worker thread (caller holds the lock)."""
        thread = threading.Thread(
            target=self._worker,
            name=f"repro-job-{next(self._thread_seq)}",
            daemon=True,
        )
        thread.start()
        self._threads.append(thread)

    def _ensure_workers_locked(self) -> None:
        """Start the worker pool on first use (caller holds the lock)."""
        if self._threads:
            return
        for _ in range(self.workers):
            self._spawn_worker_locked()
        if self._watchdog_thread is None:
            self._watchdog_thread = threading.Thread(
                target=self._watchdog, name="repro-job-watchdog", daemon=True
            )
            self._watchdog_thread.start()

    def close(self) -> None:
        """Stop the workers (running jobs finish; queued jobs drain).

        Joins each worker with ``join_timeout``; a worker still alive
        after that (a hung solver) is *counted* as leaked
        (``leaked_workers`` in :meth:`stats`) and logged — the daemon
        thread cannot be killed, but it must not go unnoticed.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            threads, self._threads = self._threads, []
        self._stop.set()
        for _ in threads:
            self._queue.put(None)
        for thread in threads:
            thread.join(timeout=self.join_timeout)
            if thread.is_alive():
                self._c_leaked.inc()
                _LOG.warning(
                    "job worker %s failed to stop within %.1fs and was "
                    "leaked", thread.name, self.join_timeout,
                )
        watchdog = self._watchdog_thread
        if watchdog is not None:
            watchdog.join(timeout=self.join_timeout)

    # -- watchdog ---------------------------------------------------------------

    def _watchdog(self) -> None:
        """Reap dead workers: fail their orphaned jobs, start spares."""
        while not self._stop.wait(self.watchdog_interval):
            self._reap_dead_workers()

    def _reap_dead_workers(self) -> None:
        """One watchdog sweep (separate method so tests can force it)."""
        with self._lock:
            if self._closed:
                return
            dead = [t for t in self._threads if not t.is_alive()]
            for thread in dead:
                self._threads.remove(thread)
                orphan = self._active.pop(thread.name, None)
                if orphan is not None and orphan.status == "running":
                    orphan.error = (
                        "WorkerLostError: worker thread "
                        f"{thread.name} died while running this job"
                    )
                    orphan.finished_at = time()
                    if orphan.started_at is not None:
                        orphan.seconds = orphan.finished_at - orphan.started_at
                    orphan.status = "failed"
                    self._c_failed.inc()
                    self._c_orphaned.inc()
                    _LOG.warning(
                        "worker %s died mid-job; failed orphaned job %s",
                        thread.name, orphan.id,
                    )
                self._spawn_worker_locked()
                self._c_restarted.inc()

    # -- submission and lookup ------------------------------------------------------

    def submit(
        self,
        algorithm: str,
        matrix: str,
        params: dict | None = None,
        deadline_ms: int | None = None,
    ) -> Job:
        """Queue one solver run; returns the (already-listed) job.

        ``deadline_ms`` caps the job's execution time: the solver
        checks the budget every iteration and the job fails with a
        typed ``DeadlineExceededError`` record when it expires.

        Raises the typed errors the HTTP layer maps to 4xx responses:
        :class:`~repro.errors.UnknownAlgorithmError` for a bad
        algorithm name, :class:`~repro.errors.SerializationError` for
        an unregistered matrix, :class:`~repro.errors.SolveError` for
        malformed params.
        """
        # Imported lazily: repro.solve.driver reuses serve.stats, so a
        # module-level import here would be circular.
        from repro.solve.api import get_algorithm

        get_algorithm(algorithm)  # typed UnknownAlgorithmError on miss
        if matrix not in self.registry:
            raise SerializationError(f"no matrix registered under {matrix!r}")
        params = dict(params or {})
        for key in params:
            if not isinstance(key, str):
                raise SolveError(f"params keys must be strings, got {key!r}")
        for reserved in ("executor", "retain_plans"):
            if reserved in params:
                raise SolveError(
                    f"params may not carry {reserved!r}; the server's "
                    "own executor and plan-retention policy apply"
                )
        if deadline_ms is not None:
            if not isinstance(deadline_ms, int) or isinstance(deadline_ms, bool):
                raise SolveError(
                    f"deadline_ms must be an integer, got {deadline_ms!r}"
                )
            if deadline_ms < 1:
                raise SolveError(
                    f"deadline_ms must be >= 1, got {deadline_ms}"
                )
        with self._lock:
            if self._closed:
                raise ReproError("job manager is closed")
            job = Job(
                f"job-{next(self._ids)}", algorithm, matrix, params,
                deadline_ms=deadline_ms,
            )
            self._jobs[job.id] = job
            self._c_submitted.inc()
            self._trim()
            self._ensure_workers_locked()
            # Enqueued under the same lock as the closed check: a job
            # can never slip in behind close()'s shutdown sentinels and
            # sit "queued" forever with no worker left to drain it.
            self._queue.put(job)
        return job

    def get(self, job_id: str) -> Job:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise SerializationError(f"no job with id {job_id!r}")
        return job

    def jobs(self) -> list[Job]:
        """Every retained job, oldest first."""
        with self._lock:
            return list(self._jobs.values())

    def _trim(self) -> None:
        # Called under self._lock.
        while len(self._jobs) > self.max_jobs:
            victim = next(
                (j for j in self._jobs.values() if j.finished), None
            )
            if victim is None:
                break  # everything live is queued/running — keep it all
            del self._jobs[victim.id]

    # -- execution -------------------------------------------------------------------

    def _worker(self) -> None:
        while True:
            job = self._queue.get()
            if job is None:
                return
            try:
                self._run(job)
            except _faults.WorkerDeathFault:
                # Simulated hard crash: the thread exits with the job
                # still "running" and its ``_active`` entry in place —
                # exactly the orphan state the watchdog must detect.
                return

    def _run(self, job: Job) -> None:
        from repro.solve.api import solve

        thread_name = threading.current_thread().name
        with self._lock:
            self._active[thread_name] = job
        job.status = "running"
        job.started_at = time()
        # Worker-death injection point: WorkerDeathFault is a
        # BaseException, so neither this method's except-Exception
        # boundary nor the solver can absorb it.
        _faults.before_worker_run(
            _faults.SITE_JOB_RUN, f"{job.algorithm}:{job.matrix}"
        )
        start = perf_counter()
        payload = error = None
        deadline = (
            Deadline.after(job.deadline_ms / 1000.0)
            if job.deadline_ms is not None
            else None
        )
        # The worker runs under the trace id minted at submission, so
        # ``GET /trace/<id>`` (from the 202 payload) shows the whole
        # background run: registry load, shard streams, solver spans.
        trace = Trace(name=f"job {job.algorithm}", trace_id=job.trace_id)
        trace.root.set("job_id", job.id)
        trace.root.set("matrix", job.matrix)
        try:
            with trace_scope(trace), deadline_scope(deadline):
                matrix = self.registry.get(job.matrix)
                # Follow the registry's plan-retention setting: a server
                # started with --no-plan-cache must not have jobs silently
                # re-enable retention (and grow uncharged plan memory) on
                # its resident matrices.
                run_params = {
                    "retain_plans": getattr(self.registry, "retain_plans", True),
                    **job.params,
                }
                with span(
                    "job.solve", algorithm=job.algorithm, matrix=job.matrix
                ):
                    result = solve(
                        matrix,
                        algorithm=job.algorithm,
                        executor=self.executor,
                        **run_params,
                    )
                payload = result.to_payload()
        except Exception as exc:  # noqa: BLE001 — a job must not kill its worker
            # TypeError covers unknown algorithm kwargs in params — a
            # client mistake recorded on the job; anything rarer is
            # recorded the same way so the job never polls as
            # "running" forever over a dead thread.
            error = f"{type(exc).__name__}: {exc}"
            trace.root.set("error", error)
        with self._lock:
            self._active.pop(thread_name, None)
        # ``status`` is the publication point pollers key off, so every
        # other field is in place before it flips to a terminal state.
        job.seconds = perf_counter() - start
        job.finished_at = time()
        self._h_job_seconds.observe(job.seconds)
        if self.traces is not None:
            trace.root.set("status", "done" if error is None else "failed")
            self.traces.record(trace)
        if error is None:
            job.result = payload
            job.status = "done"
            self._c_completed.inc()
        else:
            job.error = error
            job.status = "failed"
            self._c_failed.inc()
        # Solver iterations may have streamed shards in past the
        # budget (like /multiply); re-apply it now.
        try:
            self.registry.enforce_budget(keep=job.matrix)
        except ReproError:
            pass

    # -- accounting ------------------------------------------------------------------

    def stats(self) -> dict[str, int]:
        """Counters for ``/stats``."""
        with self._lock:
            by_state = {state: 0 for state in JOB_STATES}
            for job in self._jobs.values():
                by_state[job.status] += 1
            return {
                "workers": self.workers,
                "submitted": int(self._c_submitted.value),
                "completed": int(self._c_completed.value),
                "failed": int(self._c_failed.value),
                "queued": by_state["queued"],
                "running": by_state["running"],
                "retained": len(self._jobs),
                "workers_restarted": int(self._c_restarted.value),
                "jobs_orphaned": int(self._c_orphaned.value),
                "leaked_workers": int(self._c_leaked.value),
            }
