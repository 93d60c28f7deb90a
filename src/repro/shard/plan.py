"""Row-range shard planning with per-shard format selection.

The blocked representation (Section 4.1) already splits rows, but every
block shares one RePair run configuration and one serialized container.
Sharding is the next scaling axis the ROADMAP calls for: each shard is
an *independent first-class matrix* — compressed with its own format
choice, serialized as its own GCMX section, loadable (and evictable) on
its own by the serving registry.

:func:`plan_shards` turns a dense matrix into a :class:`ShardPlan`:

- **row ranges** — sized by an explicit shard count (``n_shards``), a
  row target (``target_rows``), or a byte target (``target_bytes``,
  measured against the dense footprint of a shard);
- **per-shard formats** — either one explicit format for every shard,
  or (default) :func:`select_format`'s density profile: sparse slices
  go to CSR, dense repetitive slices to the grammar encodings, dense
  irregular slices to CSRV.

The planner never touches the compressors — it is pure numpy over the
row slices — so planning a large matrix is cheap enough to run before
deciding whether to shard at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.repair import REPAIR_OPTIONS
from repro.errors import MatrixFormatError

#: Density below which a shard is handed to plain CSR (sparse enough
#: that neither the value-code indirection nor RePair pays off).
SPARSE_DENSITY = 0.20

#: Maximum distinct-to-nonzero ratio for a shard to count as
#: *repetitive* (worth a RePair pass).  The paper's matrices have very
#: few distinct values per column block, which is exactly when the
#: grammar representations win Table 1.
REPETITIVE_DISTINCT_RATIO = 0.25

#: Formats the profile selector chooses between.
PROFILE_FORMATS = ("csr", "csrv", "re_ans")


@dataclass(frozen=True)
class ShardSpec:
    """One planned shard: its row range, format, and profile stats."""

    index: int
    row_start: int
    row_stop: int
    format: str
    build_opts: dict = field(default_factory=dict)
    density: float = 0.0
    distinct: int = 0

    @property
    def n_rows(self) -> int:
        return self.row_stop - self.row_start


@dataclass(frozen=True)
class ShardPlan:
    """A full partition of a matrix into contiguous row shards."""

    shape: tuple[int, int]
    shards: tuple[ShardSpec, ...]

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    @property
    def row_offsets(self) -> np.ndarray:
        """``offsets[i]:offsets[i+1]`` is shard ``i``'s row range."""
        return np.array(
            [s.row_start for s in self.shards] + [self.shape[0]],
            dtype=np.int64,
        )

    @property
    def formats(self) -> tuple[str, ...]:
        return tuple(s.format for s in self.shards)

    def describe(self) -> list[dict]:
        """One summary dict per shard (CLI tables, manifests, logs)."""
        return [
            {
                "shard": s.index,
                "rows": f"{s.row_start}:{s.row_stop}",
                "n_rows": s.n_rows,
                "format": s.format,
                "density": round(s.density, 4),
                "distinct": s.distinct,
            }
            for s in self.shards
        ]


def profile_slice(block: np.ndarray) -> tuple[float, int]:
    """``(density, n_distinct_nonzeros)`` of one dense row slice."""
    block = np.asarray(block)
    if block.size == 0:
        return 0.0, 0
    nonzeros = block[block != 0]
    return nonzeros.size / block.size, int(np.unique(nonzeros).size)


def select_format(block: np.ndarray) -> str:
    """Pick a shard format from the slice's density profile.

    - density below :data:`SPARSE_DENSITY` → ``csr`` (pure sparsity
      machinery, no dictionary);
    - repetitive (few distinct nonzeros relative to their count, see
      :data:`REPETITIVE_DISTINCT_RATIO`) → ``re_ans`` (the grammar
      pays for itself exactly when values and row patterns repeat);
    - otherwise → ``csrv`` (dictionary-coded rows without RePair).
    """
    density, distinct = profile_slice(block)
    nnz = max(1, round(density * np.asarray(block).size))
    if density < SPARSE_DENSITY:
        return "csr"
    if distinct / nnz <= REPETITIVE_DISTINCT_RATIO:
        return "re_ans"
    return "csrv"


def _row_boundaries(
    n_rows: int,
    n_cols: int,
    n_shards: int | None,
    target_rows: int | None,
    target_bytes: int | None,
) -> list[tuple[int, int]]:
    chosen = sum(x is not None for x in (n_shards, target_rows, target_bytes))
    if chosen > 1:
        raise MatrixFormatError(
            "give at most one of n_shards / target_rows / target_bytes"
        )
    if target_bytes is not None:
        if target_bytes < 1:
            raise MatrixFormatError(
                f"target_bytes must be >= 1, got {target_bytes}"
            )
        target_rows = max(1, target_bytes // (8 * max(1, n_cols)))
    if target_rows is not None:
        if target_rows < 1:
            raise MatrixFormatError(
                f"target_rows must be >= 1, got {target_rows}"
            )
        n_shards = -(-n_rows // target_rows)  # ceil
    if n_shards is None:
        n_shards = min(4, n_rows)  # a sensible default partition
    if not 1 <= n_shards <= n_rows:
        raise MatrixFormatError(
            f"n_shards must be in [1, {n_rows}] for {n_rows} rows, "
            f"got {n_shards}"
        )
    # Near-equal contiguous ranges, first shards one row longer.
    base, extra = divmod(n_rows, n_shards)
    bounds, start = [], 0
    for i in range(n_shards):
        stop = start + base + (1 if i < extra else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


def plan_shards(
    dense,
    n_shards: int | None = None,
    target_rows: int | None = None,
    target_bytes: int | None = None,
    format: str | None = None,
    build_opts: dict | None = None,
) -> ShardPlan:
    """Plan a row-sharded partition of ``dense``.

    Parameters
    ----------
    n_shards / target_rows / target_bytes:
        Mutually exclusive sizing knobs (default: ``min(4, n_rows)``
        shards).  ``target_bytes`` is measured against the shard's
        *dense* footprint — a conservative ceiling every compressed
        format undercuts.
    format:
        One registered format name applied to every shard, or ``None``
        (default) for per-shard :func:`select_format` profiling.
    build_opts:
        Extra options forwarded to every shard's builder, except that
        RePair's options (:data:`repro.core.repair.REPAIR_OPTIONS`)
        reach only the shards whose format runs RePair.
    """
    dense = np.asarray(dense, dtype=np.float64)
    if dense.ndim != 2 or min(dense.shape) < 1:
        raise MatrixFormatError(
            f"shard planning needs a 2-D matrix, got shape {dense.shape}"
        )
    from repro import formats as _registry

    if format is not None:
        if format not in _registry.available():
            raise MatrixFormatError(
                f"unknown shard format {format!r}; registered formats: "
                f"{', '.join(_registry.available())}"
            )
    n, m = dense.shape
    opts = dict(build_opts or {})
    plain_opts = {k: v for k, v in opts.items() if k not in REPAIR_OPTIONS}
    shards = []
    for i, (start, stop) in enumerate(
        _row_boundaries(n, m, n_shards, target_rows, target_bytes)
    ):
        block = dense[start:stop]
        density, distinct = profile_slice(block)
        shard_format = format or select_format(block)
        shards.append(
            ShardSpec(
                index=i,
                row_start=start,
                row_stop=stop,
                format=shard_format,
                build_opts=(
                    opts if _registry.get(shard_format).runs_repair else plain_opts
                ),
                density=density,
                distinct=distinct,
            )
        )
    return ShardPlan(shape=(n, m), shards=tuple(shards))
