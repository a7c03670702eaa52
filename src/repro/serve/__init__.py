"""Online serving: embedding snapshots, top-K indexes, request front end.

The offline stack (train → evaluate) hands a trained backbone to this
package, which freezes it into a memory-mappable
:class:`~repro.serve.snapshot.EmbeddingSnapshot`, retrieves over it with
a :class:`~repro.serve.index.TopKIndex` holding an exact (float64) or
int8 **scorer**, and answers batched user requests through
:class:`~repro.serve.service.RecommendationService`.

For horizontal scale the same state can be exported **sharded**
(:func:`~repro.serve.snapshot.export_sharded_snapshot`): user and item
partitions with per-shard manifests under a content-hashed
``shards.json``, read back by :mod:`repro.serve.shard`.  The same
service serves it: handed a sharded snapshot it builds the
scatter-gather :class:`~repro.serve.router.ShardedTopKIndex`, whose
item shards hold the same scorers over their own rows, so the exact
path is bit-identical to the single-process index (see
``docs/sharding.md``).

Live state evolves without full re-exports through
:mod:`repro.serve.delta`: content-hash-chained **delta snapshots**
(:func:`~repro.serve.delta.export_delta` /
:func:`~repro.serve.delta.apply_deltas`) capture row upserts and
deletes against a base version, and
:meth:`RecommendationService.refresh` /
:meth:`~repro.serve.runtime.ServingRuntime.refresh` swap the served
version atomically between micro-batches (see ``docs/live_index.md``).

The serving path is hardened for partial failure: the sharded router
takes a :class:`~repro.serve.resilience.ResilienceConfig` (per-shard
deadlines, jittered retries, hedged backup requests, circuit breakers)
and reports shard loss as **explicit degraded results**
(``TopKResult.coverage`` / ``Recommendation.degraded``) or a
:class:`~repro.serve.resilience.PartialResultError` in strict mode —
never a silently-wrong top-k.  :mod:`repro.serve.faults` provides a
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

from repro.serve.delta import (DELTA_SCHEMA, Delta, DeltaManifest, DeltaOps,
                               LiveState, apply_deltas, diff_states,
                               export_delta, export_state, is_delta,
                               load_delta, replay_deltas, write_delta)
from repro.serve.faults import (FAULT_KINDS, FaultEvent, FaultPlan, FaultSpec,
                                FaultyIndex, FaultyService, FaultyShardIndex,
                                InjectedFault, ManualClock, corrupt_array_file)
from repro.serve.index import (PANEL_WIDTH, ExactTopKIndex,
                               QuantizedTopKIndex, TopKIndex, TopKResult,
                               build_index)
from repro.serve.resilience import (BreakerConfig, BreakerOpenError,
                                    CircuitBreaker, PartialResultError,
                                    ResilienceConfig, ShardCallError)
from repro.serve.router import RouterStats, ShardedTopKIndex
from repro.serve.runtime import (AsyncRequest, DeadlineExceeded, OverloadError,
                                 RuntimeConfig, RuntimeStats, ServingRuntime,
                                 WorkerCrashed)
from repro.serve.service import (LRUCache, PendingRequest, Recommendation,
                                 RecommendationService, ServiceStats,
                                 ShardedRecommendationService)
from repro.serve.shard import (ItemShard, ItemShardIndex, ShardedSnapshot,
                               UserShard, load_sharded_snapshot)
from repro.serve.snapshot import (SHARD_SCHEMA, SHARDED_SCHEMA,
                                  SNAPSHOT_SCHEMA, EmbeddingSnapshot,
                                  ShardManifest, ShardedManifest,
                                  SnapshotIntegrityError, SnapshotManifest,
                                  export_sharded_snapshot,
                                  export_sharded_source_snapshot,
                                  export_snapshot, is_sharded_snapshot,
                                  load_snapshot, partition_ids,
                                  quarantine_snapshot)

__all__ = [
    "SNAPSHOT_SCHEMA", "SHARD_SCHEMA", "SHARDED_SCHEMA",
    "SnapshotManifest", "ShardManifest", "ShardedManifest",
    "EmbeddingSnapshot", "export_snapshot", "load_snapshot",
    "partition_ids", "export_sharded_snapshot",
    "export_sharded_source_snapshot", "is_sharded_snapshot",
    "PANEL_WIDTH", "TopKResult", "TopKIndex", "ExactTopKIndex",
    "QuantizedTopKIndex", "build_index",
    "UserShard", "ItemShard", "ItemShardIndex", "ShardedSnapshot",
    "load_sharded_snapshot",
    "RouterStats", "ShardedTopKIndex", "ShardedRecommendationService",
    "Recommendation", "ServiceStats", "LRUCache", "PendingRequest",
    "RecommendationService",
    "OverloadError", "RuntimeConfig", "RuntimeStats", "AsyncRequest",
    "ServingRuntime",
    "DELTA_SCHEMA", "DeltaManifest", "DeltaOps", "Delta", "LiveState",
    "diff_states", "export_delta", "write_delta", "export_state",
    "is_delta", "load_delta", "replay_deltas", "apply_deltas",
    "SnapshotIntegrityError", "quarantine_snapshot",
    "FAULT_KINDS", "FaultSpec", "FaultEvent", "FaultPlan", "InjectedFault",
    "FaultyShardIndex", "FaultyIndex", "FaultyService", "corrupt_array_file",
    "ManualClock",
    "ResilienceConfig", "BreakerConfig", "CircuitBreaker",
    "PartialResultError", "ShardCallError", "BreakerOpenError",
    "DeadlineExceeded", "WorkerCrashed",
]
