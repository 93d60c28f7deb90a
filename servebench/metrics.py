"""Metric definitions: end-to-end from the HTTP run, per-layer from the replay.

Every workload reports every metric.  A per-layer metric of a layer a
workload never enters (a job layer on the ``mvm-*`` workloads, a shard
layer on unsharded matrices) reads 0.
"""

from __future__ import annotations

from collections import defaultdict
from statistics import median

import numpy as np

from servebench.client import HttpResult
from servebench.replay import Replay
from servebench.workloads import OPS, Prepared

MIB = 2**20

END_TO_END_UNITS = {
    "setup_s": "s",
    "ingest_s": "s",
    "stored_pct": "%",
    "right_p50_ms": "ms",
    "right_p90_ms": "ms",
    "left_p50_ms": "ms",
    "left_p90_ms": "ms",
    "vectors_per_s": "1/s",
    "rss_peak_mb": "MiB",
    "cpu_ms_per_op": "ms",
}

#: The layers one ``/multiply`` passes through, in the server's order;
#: each span name ``x`` gives the per-op metric ``x_ms``.
REQUEST_LAYERS = (
    "server.decode",
    "registry.get",
    "server.panel",
    "batch.kernel",
    "registry.budget",
    "server.encode",
)

#: Per-request layer metrics; each is reported per op (``.right``/``.left``).
PER_OP_UNITS = {
    "server.decode_ms": "ms",
    "server.panel_ms": "ms",
    "server.encode_ms": "ms",
    "server.request_kb": "KiB",
    "server.response_kb": "KiB",
    "server.unattributed_ms": "ms",
    "registry.get_ms": "ms",
    "registry.budget_ms": "ms",
    "batch.kernel_ms": "ms",
    "core.workspace_mb": "MiB",
}

OTHER_LAYER_UNITS = {
    "registry.hit_ratio": "ratio",
    "registry.evictions": "count",
    "core.rules": "count",
    "core.c_len": "count",
    "core.decode_ms": "ms",
    "core.plan_build_ms": "ms",
    "core.plan_mb": "MiB",
    "io.load_ms": "ms",
    "shard.load_ms": "ms",
    "shard.loads_per_job": "count",
    "shard.evictions_per_job": "count",
    "solve.iterations": "count",
    "solve.iter_ms": "ms",
    "jobs.queue_wait_ms": "ms",
    "jobs.run_s": "s",
    "job_p50_s": "s",
    "store.open_ms": "ms",
    "ingest.compress_s": "s",
    "ingest.store_add_s": "s",
    "trace.overhead_pct": "%",
}

PER_LAYER_UNITS = {
    **{f"{name}.{op}": unit for name, unit in PER_OP_UNITS.items() for op in OPS},
    **OTHER_LAYER_UNITS,
}

def p50(values) -> float:
    return float(np.percentile(values, 50)) if len(values) else 0.0


def p90(values) -> float:
    return float(np.percentile(values, 90)) if len(values) else 0.0


def end_to_end(prepared: Prepared, http: HttpResult) -> dict[str, tuple[float, str]]:
    """The client-view metrics, ``name → (value, note)``."""
    tally = http.tally
    ms = {op: [s * 1000.0 for s in tally.latencies[op]] for op in OPS}
    ops = tally.attempted
    jobs_wall = f" (job loop {http.jobs_wall_s:.2f} s)" if prepared.n_jobs else ""
    jobs_cpu = f" (job loop {http.jobs_cpu_s:.2f} s)" if prepared.n_jobs else ""
    out = {
        "setup_s": (median(http.setup_s), f"median of {len(http.setup_s)} launches"),
        "ingest_s": (
            prepared.ingest_s,
            "mean of the medians of rounds of "
            + " and ".join(str(len(r)) for r in prepared.ingest_rounds)
            + " builds",
        ),
        "stored_pct": (prepared.stored_pct, "store bytes / dense float64 bytes"),
    }
    for op in OPS:
        out[f"{op}_p50_ms"] = (p50(ms[op]), f"n={len(ms[op])}")
        out[f"{op}_p90_ms"] = (p90(ms[op]), f"n={len(ms[op])}")
    out["vectors_per_s"] = (
        tally.vectors / http.wall_s,
        f"{tally.vectors} vectors in {http.wall_s:.2f} s{jobs_wall}",
    )
    out["rss_peak_mb"] = (http.rss_peak_mb, "server VmHWM")
    out["cpu_ms_per_op"] = (
        1000.0 * http.cpu_s / max(1, ops),
        f"{http.cpu_s:.2f} s server CPU{jobs_cpu} / {ops} ops",
    )
    return out


def _by_request(replay: Replay) -> dict[int, dict[str, float]]:
    """request index → layer span name → seconds."""
    table: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for sp in replay.tracer.spans:
        if sp.name in REQUEST_LAYERS and isinstance(sp.request, int):
            table[sp.request][sp.name] += sp.seconds
    return table


def _group_sums(replay: Replay, prefix: str) -> dict[str, list[float]]:
    """span name → its seconds summed per group, for the groups (ingest
    repeats, cold passes) whose request id starts with ``prefix``."""
    groups: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for sp in replay.tracer.spans:
        if isinstance(sp.request, str) and sp.request.startswith(prefix):
            groups[sp.request][sp.name] += sp.seconds
    out: dict[str, list[float]] = defaultdict(list)
    for spans in groups.values():
        for name, seconds in spans.items():
            out[name].append(seconds)
    return out


def layer_p50s(replay: Replay) -> dict[str, dict[str, float]]:
    """op → request layer span name → p50 milliseconds."""
    table = _by_request(replay)
    out = {}
    for op in OPS:
        rows = [table[i] for i, info in replay.requests.items() if info[0] == op]
        out[op] = {
            layer: p50([1000.0 * row[layer] for row in rows])
            for layer in REQUEST_LAYERS
        }
    return out


def per_layer(
    prepared: Prepared, http: HttpResult, replay: Replay
) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, ``name → (value, note)``."""
    out: dict[str, tuple[float, str]] = {}
    layers = layer_p50s(replay)
    client = end_to_end(prepared, http)
    k = prepared.spec.k
    for op in OPS:
        infos = [info for info in replay.requests.values() if info[0] == op]
        note = f"n={len(infos)}"
        for layer in REQUEST_LAYERS:
            out[f"{layer}_ms.{op}"] = (layers[op][layer], note)
        out[f"server.request_kb.{op}"] = (p50([i[2] / 1024 for i in infos]), note)
        out[f"server.response_kb.{op}"] = (p50([i[3] / 1024 for i in infos]), note)
        out[f"core.workspace_mb.{op}"] = (
            p50([prepared.matrices[i[1]].max_rules * k * 8 / MIB for i in infos]),
            "|R| x k x 8 bytes",
        )
        out[f"server.unattributed_ms.{op}"] = (
            client[f"{op}_p50_ms"][0] - sum(layers[op].values()),
            "client p50 - sum of layer p50s",
        )

    matrices = [info[1] for info in replay.requests.values()]
    out["core.rules"] = (p50([prepared.matrices[m].rules for m in matrices]), "|R|")
    out["core.c_len"] = (p50([prepared.matrices[m].c_len for m in matrices]), "|C|")

    before, after = http.stats_before["registry"], http.stats_after["registry"]
    hits = after["hits"] - before["hits"]
    lookups = hits + after["misses"] - before["misses"]
    out["registry.hit_ratio"] = (hits / lookups if lookups else 0.0, f"{lookups} lookups")
    out["registry.evictions"] = (
        float(after["evictions"] - before["evictions"]), "whole-matrix, /stats"
    )

    cold = _group_sums(replay, "cold-")
    note = f"one cold pass over the working set, p50 of {len(replay.plan_bytes)}"
    for name, metric in (
        ("io.load", "io.load_ms"),
        ("shard.load", "shard.load_ms"),
        ("core.decode", "core.decode_ms"),
        ("core.plan_build", "core.plan_build_ms"),
    ):
        out[metric] = (1000.0 * p50(cold.get(name, [])), note)
    out["core.plan_mb"] = (p50(replay.plan_bytes) / MIB, "MvmPlan.nbytes, working set")

    jobs = http.stats_jobs["registry"]
    n_jobs = prepared.n_jobs
    note = f"/stats over the HTTP run's {n_jobs} jobs"
    for counter in ("loads", "evictions"):
        change = jobs[f"shard_{counter}"] - before[f"shard_{counter}"]
        out[f"shard.{counter}_per_job"] = (change / n_jobs if n_jobs else 0.0, note)
    out["solve.iterations"] = (
        p50(replay.iterations), f"replay, {len(replay.iterations)} jobs"
    )
    iterations = replay.tracer.durations("solve.iteration")
    out["solve.iter_ms"] = (1000.0 * p50(iterations), f"n={len(iterations)}")

    served = http.tally.jobs
    note = f"HTTP run, n={len(served)}"
    out["jobs.queue_wait_ms"] = (p50([1000.0 * j["queue_wait_s"] for j in served]), note)
    out["jobs.run_s"] = (p50([j["run_s"] for j in served]), note)
    out["job_p50_s"] = (p50([j["latency_s"] for j in served]), note)

    opens = replay.tracer.durations("store.open")
    out["store.open_ms"] = (1000.0 * p50(opens), f"p50 of {len(opens)}")
    ingest = _group_sums(replay, "ingest-")
    note = f"all matrices, median of {len(ingest['ingest.compress'])} ingests"
    out["ingest.compress_s"] = (median(ingest["ingest.compress"]), note)
    out["ingest.store_add_s"] = (median(ingest["ingest.store_add"]), note)
    out["trace.overhead_pct"] = (replay.overhead_pct, "replay with vs without spans")
    return out


def layer_table(prepared: Prepared, http: HttpResult, replay: Replay) -> list[str]:
    """Per op: each layer's p50, the sum of layers against the client p50."""
    layers = layer_p50s(replay)
    e2e = end_to_end(prepared, http)
    client = {op: e2e[f"{op}_p50_ms"][0] for op in OPS}
    lines = [f"{'per request (p50, ms)':<28}" + "".join(f"{op:>20}" for op in OPS)]

    def row(label: str, values: dict[str, float]) -> str:
        cells = [
            f"{values[op]:>11.3f} {100.0 * values[op] / (client[op] or 1.0):>6.1f} %"
            for op in OPS
        ]
        return f"  {label:<26}" + "".join(cells)

    for layer in REQUEST_LAYERS:
        lines.append(row(layer, {op: layers[op][layer] for op in OPS}))
    total = {op: sum(layers[op].values()) for op in OPS}
    lines.append(row("sum of layers", total))
    lines.append(row("client p50 (HTTP, untraced)", client))
    lines.append(row("server.unattributed", {op: client[op] - total[op] for op in OPS}))
    return lines
