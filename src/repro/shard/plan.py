"""Row-range shard planning.

The blocked representation (Section 4.1) already splits rows, but every
block shares one value array ``V`` and one serialized container.
Sharding is the next scaling axis: each shard is an *independent
first-class matrix* — compressed on its own, serialized as its own GCMX
section, loadable (and evictable) on its own by the serving registry.

:func:`plan_shards` turns a dense matrix into a :class:`ShardPlan` of
contiguous row ranges, sized by an explicit shard count (``n_shards``),
a row target (``target_rows``), or a byte target (``target_bytes``,
measured against the dense footprint of a shard).  A plan either names
one format for every shard or leaves each shard's format open
(``None``, the default); :func:`repro.shard.build_sharded` then builds
an open shard with :func:`repro.core.blocked.compress_part`'s measured
``auto`` choice (Section 4.2), the same one blocked ``auto`` makes per
row block.

The planner reads only the matrix's shape, so planning a large matrix
costs nothing before deciding whether to shard at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.repair import REPAIR_OPTIONS
from repro.errors import MatrixFormatError


@dataclass(frozen=True)
class ShardSpec:
    """One planned shard: its row range and format (``None``: open)."""

    index: int
    row_start: int
    row_stop: int
    format: str | None
    build_opts: dict = field(default_factory=dict)

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
    def formats(self) -> tuple[str | None, ...]:
        return tuple(s.format for s in self.shards)

    def describe(self) -> list[dict]:
        """One summary dict per shard (CLI tables, manifests, logs)."""
        return [
            {
                "shard": s.index,
                "rows": f"{s.row_start}:{s.row_stop}",
                "n_rows": s.n_rows,
                "format": s.format,
            }
            for s in self.shards
        ]


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
        (default) to leave each shard's format open for the builder's
        measured choice.  ``"auto"`` is that choice, so it leaves the
        format open too.
    build_opts:
        Extra options forwarded to every shard's builder, except that
        RePair's options (:data:`repro.core.repair.REPAIR_OPTIONS`)
        reach only the shards whose format runs RePair.  An open shard
        may become a grammar, so it gets every option.
    """
    dense = np.asarray(dense)
    if dense.ndim != 2 or min(dense.shape) < 1:
        raise MatrixFormatError(
            f"shard planning needs a 2-D matrix, got shape {dense.shape}"
        )
    opts = dict(build_opts or {})
    if format == "auto":
        format = None
    if format is not None:
        from repro import formats as _registry

        if format not in _registry.available():
            raise MatrixFormatError(
                f"unknown shard format {format!r}; registered formats: "
                f"{', '.join(_registry.available())}"
            )
        if not _registry.get(format).runs_repair:
            opts = {k: v for k, v in opts.items() if k not in REPAIR_OPTIONS}
    n, m = dense.shape
    shards = tuple(
        ShardSpec(
            index=i, row_start=start, row_stop=stop, format=format,
            build_opts=opts,
        )
        for i, (start, stop) in enumerate(
            _row_boundaries(n, m, n_shards, target_rows, target_bytes)
        )
    )
    return ShardPlan(shape=(n, m), shards=shards)
