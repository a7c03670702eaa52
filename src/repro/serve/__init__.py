"""Online serving: embedding snapshots, top-K indexes, request front end.

The offline stack (train → evaluate) hands a trained backbone to this
package, which freezes it into a snapshot directory.  Every snapshot
on disk is a shard set — user and item partitions with per-shard
manifests under a content-hashed ``shards.json`` — and the unsharded
snapshot is the 1×1 set, which
:func:`~repro.serve.snapshot.export_snapshot` writes;
:func:`~repro.serve.snapshot.export_sharded_snapshot` writes any other
shard count.  :func:`~repro.serve.shard.load_snapshot` opens every set
as the one memory-mappable type,
:class:`~repro.serve.shard.ShardedSnapshot`.

:class:`~repro.serve.service.RecommendationService` answers batched
user requests through the scatter-gather
:class:`~repro.serve.router.ShardedTopKIndex` whatever the shard
count: each item shard holds the same scorer over its own rows, so the
routed answer is bit-identical to the single-table
:class:`~repro.serve.index.ExactTopKIndex` over a 1×1 set's whole
tables (see ``docs/sharding.md``).

A refresh is a re-export plus a swap:
:meth:`RecommendationService.refresh` /
:meth:`~repro.serve.runtime.ServingRuntime.refresh` take a newly
exported snapshot (or its directory, loaded verified and quarantined
on damage) and swap the served version atomically between
micro-batches (see ``docs/live_index.md``).  A re-export publishes
over the live directory without ever leaving it unloadable.

The serving path is hardened for partial failure: the sharded router
takes a :class:`~repro.serve.resilience.ResilienceConfig` (per-shard
deadlines, jittered retries, hedged backup requests, circuit breakers)
and reports shard loss as **explicit degraded results**
(``TopKResult.coverage`` / ``Recommendation.degraded``) — never a
silently-wrong top-k.  :mod:`repro.serve.faults` provides a
deterministic, seeded fault-injection harness for chaos testing (see
``docs/robustness.md``).

Typical flow (also available as ``repro export`` / ``repro recommend``)::

    from repro.serve import export_snapshot, load_snapshot
    from repro.serve import RecommendationService

    export_snapshot(trained_model, dataset, "snapshots/mf-bsl")
    service = RecommendationService(load_snapshot("snapshots/mf-bsl"))
    for rec in service.recommend([3, 14, 15], k=10):
        print(rec.user_id, rec.items)
"""

from repro.serve.faults import (FAULT_KINDS, FaultEvent, FaultPlan, FaultSpec,
                                FaultyService, FaultyShardIndex, InjectedFault,
                                ManualClock, corrupt_array_file)
from repro.serve.index import PANEL_WIDTH, ExactTopKIndex, TopKResult
from repro.serve.resilience import (BreakerConfig, BreakerOpenError,
                                    CircuitBreaker, ResilienceConfig,
                                    ShardCallError)
from repro.serve.router import RouterStats, ShardedTopKIndex
from repro.serve.runtime import (AsyncRequest, DeadlineExceeded, OverloadError,
                                 RuntimeConfig, RuntimeStats, ServingRuntime,
                                 WorkerCrashed)
from repro.serve.service import (LRUCache, Recommendation,
                                 RecommendationService, ServiceStats,
                                 ShardedRecommendationService)
from repro.serve.shard import (ItemShard, ItemShardIndex, ShardedSnapshot,
                               UserShard, load_sharded_snapshot,
                               load_snapshot)
from repro.serve.snapshot import (SHARD_SCHEMA, SHARDED_SCHEMA,
                                  ShardedManifest, ShardManifest,
                                  SnapshotIntegrityError,
                                  export_sharded_snapshot,
                                  export_sharded_source_snapshot,
                                  export_snapshot, partition_ids,
                                  quarantine_snapshot)

__all__ = [
    "SHARD_SCHEMA", "SHARDED_SCHEMA", "ShardManifest", "ShardedManifest",
    "export_snapshot", "load_snapshot",
    "partition_ids", "export_sharded_snapshot",
    "export_sharded_source_snapshot",
    "PANEL_WIDTH", "TopKResult", "ExactTopKIndex",
    "UserShard", "ItemShard", "ItemShardIndex", "ShardedSnapshot",
    "load_sharded_snapshot",
    "RouterStats", "ShardedTopKIndex", "ShardedRecommendationService",
    "Recommendation", "ServiceStats", "LRUCache", "RecommendationService",
    "OverloadError", "RuntimeConfig", "RuntimeStats", "AsyncRequest",
    "ServingRuntime",
    "SnapshotIntegrityError", "quarantine_snapshot",
    "FAULT_KINDS", "FaultSpec", "FaultEvent", "FaultPlan", "InjectedFault",
    "FaultyShardIndex", "FaultyService", "corrupt_array_file",
    "ManualClock",
    "ResilienceConfig", "BreakerConfig", "CircuitBreaker",
    "ShardCallError", "BreakerOpenError",
    "DeadlineExceeded", "WorkerCrashed",
]
