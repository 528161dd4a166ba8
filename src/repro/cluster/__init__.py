"""Sharded content-based access: K Glimpse shards, one engine facade.

The paper argues HAC's CBA seam is general enough to host *any* search
system (§2.2); this package cashes that in for scale-out.  A
:class:`ShardedSearchCluster` partitions documents across independent
:class:`~repro.cba.engine.CBAEngine` shards by rendezvous hashing
(:class:`ShardMap`), queries them scatter-gather over the simulated RPC
substrate, and merges per-shard bitmaps into answers bit-identical to a
monolithic engine — degrading to partial results (``missing_shards``)
when shards are unreachable instead of failing.

``open_backend("cluster:<K>")`` (:mod:`repro.cba.backend`) builds the
factory :class:`~repro.core.hacfs.HacFileSystem` takes as ``backend=``, so
semantic directories, the consistency cascade, and ``ssync`` run unchanged
against shards.
"""

from repro.cluster.coordinator import (ClusterSnapshotView, RebalancePlan,
                                       ShardedSearchCluster)
from repro.cluster.shard import SearchShard, ShardProbe
from repro.cluster.shardmap import Move, ShardMap

__all__ = [
    "ClusterSnapshotView",
    "Move",
    "RebalancePlan",
    "SearchShard",
    "ShardMap",
    "ShardProbe",
    "ShardedSearchCluster",
]

