"""repro.shard — row-sharded compression and scatter-gather serving.

Splits a dense matrix into contiguous row shards, compresses each shard
independently through the format registry (by default each shard keeps
the smallest encoding after one RePair run, the per-partition choice of
Section 4.2 that row blocks make too), and serves the logical matrix
through scatter-gather multiplication.  The serving registry loads
sharded container files shard-by-shard: their shards share one LRU and
one byte budget with whole matrices (:mod:`repro.serve.residency`), so
cold *shards* are evicted, never the sharded matrix itself.
"""

from repro.shard.matrix import LazyShardedMatrix, ShardedMatrix, build_sharded
from repro.shard.plan import ShardPlan, ShardSpec, plan_shards

__all__ = [
    "ShardedMatrix",
    "LazyShardedMatrix",
    "build_sharded",
    "ShardPlan",
    "ShardSpec",
    "plan_shards",
]
