"""Fault tolerance for the serving stack: integrity, policies, fault injection.

The throughput layers (sharding, retained plans, async jobs) assume every
byte on disk is intact, every load finishes, and every worker thread
survives its job.  This package is where those assumptions become
*checked* properties:

:mod:`repro.resilience.integrity`
    CRC32 checksum footers on GCMX blobs — written by
    :func:`repro.io.serialize.saves_matrix`, verified on every load
    (whole files and individual shard sections), raising a typed
    :class:`~repro.errors.IntegrityError` on mismatch.  Footer-less
    payloads from before this layer still load (``"unverified"``).

:mod:`repro.resilience.policy`
    Composable failure policies: :class:`RetryPolicy` (bounded
    exponential backoff with deterministic jitter), :class:`Deadline`
    budgets (plumbed through requests via :func:`deadline_scope` /
    :func:`current_deadline` so shard loads and solver iterations can
    stop work that can no longer answer in time), and
    :class:`CircuitBreaker` (closed → open → half-open) guarding
    registry and shard loads.

:mod:`repro.resilience.faults`
    A deterministic, seeded fault-injection harness.  A
    :class:`FaultPlan` (corrupt-bytes / truncate / slow-load /
    fail-N-times / worker-death rules) installs into monkeypatch-free
    hook points in :mod:`repro.io.serialize`,
    :mod:`repro.shard.matrix`, and :mod:`repro.serve.jobs`; the chaos
    battery in ``tests/resilience`` and the ``chaos-smoke`` CI job
    drive the whole serving stack through every scenario.

Degradation itself lives where the state lives:
:class:`repro.shard.LazyShardedMatrix` retries and quarantines broken
shards, :class:`repro.serve.registry.MatrixRegistry` breakers failing
entries, and :class:`repro.serve.jobs.JobManager`'s watchdog restarts
dead workers — all of it observable through ``describe()`` states and
``/stats`` counters.
"""

from repro.resilience.faults import (
    FaultPlan,
    FaultRule,
    fault_injection,
    install_fault_plan,
    uninstall_fault_plan,
)
from repro.resilience.integrity import (
    FOOTER_BYTES,
    INTEGRITY_PRESENT,
    INTEGRITY_UNVERIFIED,
    INTEGRITY_VERIFIED,
    append_footer,
    split_footer,
    strip_footer,
    verify_blob,
    verify_file,
)
from repro.resilience.policy import (
    CircuitBreaker,
    Deadline,
    RetryPolicy,
    check_deadline,
    current_deadline,
    deadline_scope,
)

__all__ = [
    "FOOTER_BYTES",
    "INTEGRITY_PRESENT",
    "INTEGRITY_UNVERIFIED",
    "INTEGRITY_VERIFIED",
    "CircuitBreaker",
    "Deadline",
    "FaultPlan",
    "FaultRule",
    "RetryPolicy",
    "append_footer",
    "check_deadline",
    "current_deadline",
    "deadline_scope",
    "fault_injection",
    "install_fault_plan",
    "split_footer",
    "strip_footer",
    "uninstall_fault_plan",
    "verify_blob",
    "verify_file",
]
