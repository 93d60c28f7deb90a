"""The three workloads: seeded data, store ingest, request pools and sequences.

Everything a run sends is fixed by ``(workload, seed, seconds, scale)``:

- each matrix is a fixed :mod:`repro.datasets` synthetic draw whose
  rows the run's seed permutes (see :func:`dense_matrix`);
- every request carries one of a small seeded pool of panels per
  ``(matrix, op)``, whose dense products are computed here, at set-up;
- the request sequence (which matrix, which op, which pool panel) is
  drawn from the seed, and its length is ``seconds × rate`` — the run
  ends when the sequence is answered, not at a wall-clock deadline.

The server only ever sees the store written by :func:`prepare` and the
encoded request bodies.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from pathlib import Path
from statistics import fmean, median

import numpy as np

from servebench.spans import Tracer

#: The two ``/multiply`` directions, in sequence order.
OPS = ("right", "left")

#: Seeded request panels kept per ``(matrix, op)``.
POOL_SIZE = 4

#: PageRank settings every ``pagerank-stream`` job submits.
PAGERANK_PARAMS = {"tol": 1e-10}
PAGERANK_DAMPING = 0.85

#: Smallest row count a ``--scale`` shrink may produce.
MIN_ROWS = 64

#: Generator seed of the synthetic draws every run permutes.
DATASET_SEED = 0

#: The workload's matrices are built in two rounds, one before the
#: measured phase and one after it, each repeated until it has taken at
#: least ``INGEST_SECONDS``; ``ingest_s`` averages the two rounds, so
#: one run samples the machine's speed twice.
INGEST_SECONDS = 2.0


@dataclass(frozen=True)
class MatrixSpec:
    """One stored matrix: a synthetic draw in one physical format.

    ``shards > 0`` stores a row-sharded container of that many
    ``format`` shards; ``square`` keeps ``rows`` as given under
    ``--scale`` (the PageRank matrix must stay square).
    """

    name: str
    dataset: str
    rows: int
    format: str
    shards: int = 0
    square: bool = False


@dataclass(frozen=True)
class WorkloadSpec:
    """A fixed, fully parameterised traffic mix.

    ``order`` is ``"uniform"`` (each request a seeded pick over
    matrices × ops) or ``"alternate"`` (each client sends right, left,
    right, ...).  ``rate`` and ``job_rate`` are the planned requests
    and PageRank jobs per second: they set the sequence length for a
    given ``--seconds``.  With ``job_rate > 0`` the run first loops
    the PageRank jobs on one client, then sends the ``/multiply``
    sequence, so neither phase queues behind the other.
    ``budget_share`` sets the server's ``--budget-mb`` to that share of
    the smallest shard's resident bytes, so every pass streams every
    shard in cold.
    ``replay_requests`` / ``replay_jobs`` are the prefix lengths the
    traced in-process replay runs.
    """

    name: str
    why: str
    matrices: tuple[MatrixSpec, ...]
    k: int
    clients: int
    order: str
    rate: float
    job_rate: float = 0.0
    budget_share: float | None = None
    replay_requests: int = 0
    replay_jobs: int = 0

    def describe(self) -> dict:
        """The parameters a run prints and ``README.md`` documents."""
        return {
            "matrices": [
                f"{m.name}: {m.dataset} {m.rows} rows {m.format}"
                + (f" x{m.shards} shards" if m.shards else "")
                for m in self.matrices
            ],
            "k": self.k,
            "clients": self.clients,
            "order": self.order,
            "requests_per_s": self.rate,
            "jobs_per_s": self.job_rate,
        }


WORKLOADS: dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            name="mvm-k1",
            why=(
                "2 clients, k=1, seeded pick over mnist2m re_iv, census "
                "re_ans, airline78 re_32 x right/left: per-request fixed "
                "costs (transport, parse, lookup) dominate"
            ),
            matrices=(
                MatrixSpec("mnist2m", "mnist2m", 5000, "re_iv"),
                MatrixSpec("census", "census", 5000, "re_ans"),
                MatrixSpec("airline78", "airline78", 6000, "re_32"),
            ),
            k=1,
            clients=2,
            order="uniform",
            rate=54.0,
            replay_requests=240,
        ),
        # Runnable, but not in BENCHMARK.json: a third workload of 40-50 s
        # runs would take a full two-set validation close to the
        # benchmark's time limit (see RESULTS.md).
        WorkloadSpec(
            name="mvm-k16-wide",
            why=(
                "2 clients alternate right then left at k=16 on mnist2m "
                "5000x784 re_iv (a mini-batch gradient step): the panel "
                "kernel and the JSON wire format are the work"
            ),
            matrices=(MatrixSpec("mnist2m", "mnist2m", 5000, "re_iv"),),
            k=16,
            clients=2,
            order="alternate",
            rate=12.0,
            replay_requests=24,
        ),
        WorkloadSpec(
            name="pagerank-stream",
            why=(
                "1 client loops PageRank /jobs, then 2 send k=1 right/left, "
                "on 784x784 mnist2m in 8 re_ans shards under a tiny budget: "
                "shard load, rANS decode, plan build every pass"
            ),
            matrices=(
                MatrixSpec("web", "mnist2m", 784, "re_ans", shards=8, square=True),
            ),
            k=1,
            clients=2,
            order="alternate",
            # 200 queries at --seconds 20 (100 per op: a p90 with 10
            # samples beyond it), and enough jobs that the job loop is
            # more than half of the measured wall and server CPU time.
            rate=10.0,
            job_rate=1.4,
            budget_share=0.5,
            replay_requests=40,
            replay_jobs=3,
        ),
    )
}


@dataclass(frozen=True)
class Request:
    """One ``/multiply`` request of a run's fixed sequence: the ``slot``-th
    pool panel for ``(matrix, op)``."""

    index: int
    matrix: str
    op: str
    slot: int


@dataclass
class StoredMatrix:
    """What ingest built for one matrix, plus its dense reference."""

    spec: MatrixSpec
    dense: np.ndarray
    path: Path
    compress_s: float
    add_s: float
    rules: int
    c_len: int
    max_rules: int
    #: resident bytes per storage unit (the shards, or the one matrix)
    #: once plan retention is on — what the registry's budget charges.
    unit_bytes: list[int]


@dataclass
class Prepared:
    """A workload ready to run: store on disk, pools, sequence, references."""

    spec: WorkloadSpec
    store_root: Path
    matrices: dict[str, StoredMatrix]
    bodies: dict[tuple[str, str], list[bytes]]
    expected: dict[tuple[str, str], list[np.ndarray]]
    requests: list[Request]
    n_jobs: int
    pagerank: np.ndarray | None
    budget_mb: float | None
    #: seconds of every build (compress + store add of all matrices),
    #: one list per ingest round
    ingest_rounds: list[list[float]]
    stored_pct: float
    #: the run's span recorder (ingest spans so far; the replay adds more)
    tracer: Tracer

    @property
    def ingest_s(self) -> float:
        """The mean of the rounds' median builds.  A median over the
        pooled builds falls between the rounds when the machine's speed
        differs between them, and jumps with their build counts."""
        return fmean(median(r) for r in self.ingest_rounds)


def _rng(seed: int, *labels: str) -> np.random.Generator:
    """A generator for one purpose of one run (stable across processes)."""
    keys = [seed] + [zlib.crc32(label.encode()) for label in labels]
    return np.random.default_rng(np.random.SeedSequence(keys))


def dense_matrix(spec: MatrixSpec, seed: int, scale: float) -> np.ndarray:
    """One stored matrix: a fixed synthetic draw, rows permuted by ``seed``.

    The served data differs per seed, while what the measured costs
    depend on does not: the grammar's size, the rANS alphabet of its
    final string and the PageRank iteration count come out the same
    for every permutation.  Independent draws per seed moved ``census``
    ``re_ans`` ingest between 0.15 and 1.6 s.  A sharded matrix is
    permuted within each row shard, so every shard holds the same rows
    for every seed; moving rows between shards moved its ingest by 30 %.
    """
    from repro.datasets import get_dataset

    rows = spec.rows if spec.square else max(MIN_ROWS, round(spec.rows * scale))
    base = get_dataset(spec.dataset, n_rows=rows, seed=DATASET_SEED).matrix
    rng = _rng(seed, spec.name, "rows")
    # np.array_split cuts the same row ranges as the shard planner.
    shards = np.array_split(np.arange(rows), max(1, spec.shards))
    return base[np.concatenate([rng.permutation(shard) for shard in shards])]


def _build(spec: MatrixSpec, dense: np.ndarray):
    """``repro.compress`` with batch RePair (row shards for containers)."""
    import repro

    if spec.shards:
        return repro.build_sharded(
            dense, n_shards=spec.shards, format=spec.format, strategy="batch"
        )
    return repro.compress(dense, format=spec.format, strategy="batch")


def _units(matrix) -> list:
    return list(matrix.shards) if hasattr(matrix, "shards") else [matrix]


def ingest(
    store, spec: MatrixSpec, dense: np.ndarray, tracer: Tracer
) -> StoredMatrix:
    """Compress one matrix and add it to the store, timing both steps."""
    with tracer.span("ingest.compress", matrix=spec.name) as compress:
        matrix = _build(spec, dense)
    with tracer.span("ingest.store_add", matrix=spec.name) as add:
        path = store.add(spec.name, matrix)
    units = _units(matrix)
    unit_bytes = []
    for unit in units:
        unit.enable_plan_retention(True)
        unit_bytes.append(unit.size_bytes() + unit.resident_overhead_bytes())
    return StoredMatrix(
        spec=spec,
        dense=dense,
        path=Path(path),
        compress_s=compress.seconds,
        add_s=add.seconds,
        rules=sum(u.n_rules for u in units),
        c_len=sum(u.c_length for u in units),
        max_rules=max(u.n_rules for u in units),
        unit_bytes=unit_bytes,
    )


def _ingest_round(
    store, spec: WorkloadSpec, dense: dict, tracer: Tracer, rounds: list[list[float]]
) -> dict[str, StoredMatrix]:
    """Build every matrix of the workload into ``store`` until the round
    is long enough; appends the round's build seconds to ``rounds``."""
    done = sum(len(r) for r in rounds)
    builds: list[float] = []
    while not builds or sum(builds) < INGEST_SECONDS:
        with tracer.span("ingest", request=f"ingest-{done + len(builds)}"):
            stored = {
                m.name: ingest(store, m, dense[m.name], tracer) for m in spec.matrices
            }
        builds.append(sum(m.compress_s + m.add_s for m in stored.values()))
    rounds.append(builds)
    return stored


def reingest(prepared: Prepared, root: Path) -> None:
    """The second ingest round, into a scratch store nothing serves."""
    from repro.store import MatrixStore

    dense = {name: m.dense for name, m in prepared.matrices.items()}
    _ingest_round(
        MatrixStore(root), prepared.spec, dense, prepared.tracer, prepared.ingest_rounds
    )


def products(dense: np.ndarray, panel: np.ndarray, op: str) -> np.ndarray:
    """Dense reference for a ``(k, L)`` panel of row vectors."""
    return panel @ dense.T if op == "right" else panel @ dense


def products_match(got, expected: np.ndarray) -> bool:
    """Compressed-domain results agree with dense up to summation order."""
    got = np.asarray(got, dtype=np.float64)
    if got.shape != expected.shape:
        return False
    scale = max(1.0, float(np.abs(expected).max(initial=0.0)))
    return bool(np.allclose(got, expected, rtol=1e-9, atol=1e-9 * scale))


def dense_pagerank(dense: np.ndarray, damping: float = PAGERANK_DAMPING) -> np.ndarray:
    """The PageRank vector :func:`repro.solve.algorithms.pagerank` converges
    to, iterated densely far past the jobs' tolerance."""
    n = dense.shape[0]
    v = np.full(n, 1.0 / n)
    degree = dense.sum(axis=1)
    dangling = degree <= 0.0
    inv_degree = np.where(dangling, 0.0, 1.0 / np.where(dangling, 1.0, degree))
    r = v.copy()
    for _ in range(2000):
        r_new = damping * ((r * inv_degree) @ dense + r[dangling].sum() * v)
        r_new += (1.0 - damping) * v
        r_new /= r_new.sum()
        done = np.abs(r_new - r).sum() <= 1e-13
        r = r_new
        if done:
            break
    return r


def rank_matches(got, expected: np.ndarray) -> bool:
    """A job's rank vector agrees with the dense fixed point (tol=1e-10)."""
    got = np.asarray(got, dtype=np.float64)
    return got.shape == expected.shape and bool(
        np.allclose(got, expected, rtol=1e-6, atol=1e-9)
    )


def request_sequence(spec: WorkloadSpec, n: int, seed: int) -> list[Request]:
    """The run's fixed ``/multiply`` sequence; request ``i`` goes to client
    ``i % clients``, and the traced replay runs it in index order."""
    rng = _rng(seed, spec.name, "sequence")
    slots = rng.integers(POOL_SIZE, size=n)
    if spec.order == "uniform":
        choices = [(m.name, op) for m in spec.matrices for op in OPS]
        picks = [choices[i] for i in rng.integers(len(choices), size=n)]
    else:
        name = spec.matrices[0].name
        picks = [(name, OPS[(i // spec.clients) % 2]) for i in range(n)]
    return [
        Request(i, name, op, int(slots[i])) for i, (name, op) in enumerate(picks)
    ]


def prepare(
    name: str, seed: int, seconds: float, scale: float, root: Path
) -> Prepared:
    """Build the store under ``root`` and everything the run will send."""
    from repro.store import MatrixStore

    spec = WORKLOADS[name]
    tracer = Tracer()
    store = MatrixStore(root)
    dense = {m.name: dense_matrix(m, seed, scale) for m in spec.matrices}
    rounds: list[list[float]] = []
    stored = _ingest_round(store, spec, dense, tracer, rounds)

    dense_bytes = sum(m.dense.nbytes for m in stored.values())
    stored_pct = 100.0 * store.total_bytes() / dense_bytes

    rng = _rng(seed, name, "panels")
    bodies: dict[tuple[str, str], list[bytes]] = {}
    expected: dict[tuple[str, str], list[np.ndarray]] = {}
    for mname, m in stored.items():
        n_rows, n_cols = m.dense.shape
        for op in OPS:
            length = n_cols if op == "right" else n_rows
            panels = [rng.standard_normal((spec.k, length)) for _ in range(POOL_SIZE)]
            bodies[(mname, op)] = [
                json.dumps({"matrix": mname, "op": op, "vectors": p.tolist()}).encode()
                for p in panels
            ]
            expected[(mname, op)] = [products(m.dense, p, op) for p in panels]

    n_requests = max(2 * spec.clients, round(seconds * spec.rate))
    n_jobs = max(1, round(seconds * spec.job_rate)) if spec.job_rate else 0
    pagerank = None
    if n_jobs:
        pagerank = dense_pagerank(next(iter(stored.values())).dense)
    budget_mb = None
    if spec.budget_share is not None:
        smallest = min(b for m in stored.values() for b in m.unit_bytes)
        budget_mb = spec.budget_share * smallest / 2**20
    return Prepared(
        spec=spec,
        store_root=root,
        matrices=stored,
        bodies=bodies,
        expected=expected,
        requests=request_sequence(spec, n_requests, seed),
        n_jobs=n_jobs,
        pagerank=pagerank,
        budget_mb=budget_mb,
        ingest_rounds=rounds,
        stored_pct=stored_pct,
        tracer=tracer,
    )
