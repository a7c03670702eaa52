"""Fault-tolerance bench: availability and tail latency under faults.

One (dataset, model, loss) cell is trained and exported **sharded**,
then a seeded :class:`~repro.serve.faults.FaultPlan` makes one shard
misbehave while a fixed request stream runs through the scatter-gather
service twice per fault level:

* ``policy="baseline"`` — deadline only (no retries, no hedging, no
  breaker): a slow shard call burns its whole per-shard budget and the
  request is served **degraded** (explicit partial coverage, never a
  silently-wrong top-k);
* ``policy="resilient"`` — the full policy from
  :class:`~repro.serve.resilience.ResilienceConfig`: jittered retries,
  hedged backup requests after ``hedge_ms``, and a per-shard circuit
  breaker.  A straggler primary is raced by a hedge, so only
  *both-slow* draws (probability ``rate**2``) still degrade.

Two scenarios cover the two failure families:

* ``slow_shard`` — latency faults at each of ``fault_rates`` on one
  shard (the headline sweep: availability / p99 vs fault rate);
* ``dead_shard`` — a hard-failing shard (``error`` faults at rate 1.0):
  every request is explicitly degraded either way, but the breaker
  converts per-request retry burn into instant open-circuit skips
  (``breaker_open_skips``).

**Availability** is strict: the fraction of requests answered with
*full* shard coverage within ``slo_ms``.  Degraded answers and SLO
misses both count against it — the row also reports ``degraded_rate``
separately so explicit partials are visible, not folded into errors.

CLI: ``python -m repro.cli bench faults`` (or ``make bench-faults``)
writes ``BENCH_faults.json``; the committed file is validated by
``scripts/check_bench.py`` and pinned by ``tests/test_faults.py``.
"""

from __future__ import annotations

import pathlib
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from repro.experiments.perf import (_flag, _payload, _request_stream,
                                    _train_cell)

__all__ = ["FAULTS_SCHEMA", "FaultsPerfConfig", "run_faults_suite",
           "summarize_faults"]

#: Schema of the fault-tolerance payload (``BENCH_faults.json``).
FAULTS_SCHEMA = "bsl-faults-bench/v1"

#: Serving policies each scenario is measured under.
POLICIES = ("baseline", "resilient")


@dataclass
class FaultsPerfConfig:
    """Knobs for one fault-tolerance sweep.

    The injected ``latency_ms`` must comfortably exceed ``slo_ms`` and
    ``deadline_ms`` (a straggler that still beats the SLO would make
    every policy look equally available), and ``hedge_ms`` must sit well
    under ``deadline_ms`` so the hedge has budget left to win.
    """

    dataset: str = "yelp2018-small"
    model: str = "mf"
    loss: str = "bsl"
    epochs: int = 8
    dim: int = 64
    k: int = 10
    shards: int = _flag(4, "item shards of the exported snapshot (shard 1 "
                           "is made faulty)")
    requests: int = _flag(400, "sequential one-user requests per "
                               "(scenario, policy)")
    slo_ms: float = _flag(15.0, "full-coverage answers slower than this do "
                                "not count as available")
    deadline_ms: float = _flag(12.0, "per-shard deadline budget across all "
                                     "attempts of one call")
    hedge_ms: float = _flag(2.0, "resilient policy: hedge launch delay")
    retries: int = _flag(1, "resilient policy: retry count")
    latency_ms: float = _flag(25.0, "injected straggler sleep (slow_shard "
                                    "rows)")
    fault_rates: tuple = _flag((0.0, 0.05, 0.1, 0.2),
                               "comma-separated slow-shard fault rates")
    breaker_threshold: int = _flag(5, "resilient policy: consecutive "
                                      "failures that open the breaker")
    breaker_reset_s: float = 0.25
    seed: int = 0


def _resilience(config: FaultsPerfConfig, policy: str):
    """The :class:`ResilienceConfig` one measured policy serves under."""
    from repro.serve.resilience import BreakerConfig, ResilienceConfig
    if policy == "baseline":
        return ResilienceConfig(deadline_ms=config.deadline_ms, retries=0,
                                hedge_ms=None, breaker=None,
                                seed=config.seed)
    return ResilienceConfig(
        deadline_ms=config.deadline_ms, retries=config.retries,
        hedge_ms=config.hedge_ms,
        breaker=BreakerConfig(failure_threshold=config.breaker_threshold,
                              reset_timeout_s=config.breaker_reset_s),
        seed=config.seed)


def _drive(service, users: np.ndarray, *, k: int,
           slo_ms: float) -> dict:
    """Serve ``users`` one request at a time; count the three outcomes.

    ``ok`` requires full coverage *and* the SLO — a degraded answer is
    explicit partial service, an exception is an error, and everything
    is accounted (no request may simply vanish).
    """
    latencies = []
    ok = degraded = errors = 0
    for user in users:
        start = time.perf_counter()
        try:
            rec = service.recommend([int(user)], k=k)[0]
        except Exception:
            errors += 1
            latencies.append(1e3 * (time.perf_counter() - start))
            continue
        elapsed_ms = 1e3 * (time.perf_counter() - start)
        latencies.append(elapsed_ms)
        if rec.degraded:
            degraded += 1
        elif elapsed_ms <= slo_ms:
            ok += 1
    lat = np.asarray(latencies)
    return {
        "requests": int(len(users)),
        "ok": int(ok),
        "availability": ok / len(users),
        "degraded_rate": degraded / len(users),
        "error_rate": errors / len(users),
        "mean_ms": float(lat.mean()),
        "p50_ms": float(np.percentile(lat, 50)),
        "p99_ms": float(np.percentile(lat, 99)),
    }


def _measure_cell(sharded, users, *, config: FaultsPerfConfig,
                  scenario: str, policy: str, spec) -> dict:
    """One (scenario, policy) row: fresh router, faulty shard 1, drive."""
    from repro.serve.faults import FaultPlan, FaultyShardIndex
    from repro.serve.router import ShardedTopKIndex
    from repro.serve.service import RecommendationService
    plan = FaultPlan(config.seed, {"shard:1": spec})
    router = ShardedTopKIndex(sharded, kind="exact", chunk_users=1,
                              resilience=_resilience(config, policy))
    router.shard_indexes[1] = FaultyShardIndex(
        router.shard_indexes[1], plan, "shard:1")
    service = RecommendationService(sharded, index=router,
                                    cache_size=0, max_batch=1)
    try:
        row = _drive(service, users, k=config.k, slo_ms=config.slo_ms)
    finally:
        router.close()
    stats = router.stats
    row.update({
        "kind": "faults",
        "scenario": scenario,
        "policy": policy,
        "fault_kind": spec.kind,
        "fault_rate": float(spec.rate),
        "injected_latency_ms": float(spec.latency_ms),
        "k": config.k,
        "shards": config.shards,
        "slo_ms": config.slo_ms,
        "deadline_ms": config.deadline_ms,
        "retries": int(stats.retries),
        "hedges": int(stats.hedges),
        "hedge_wins": int(stats.hedge_wins),
        "shard_failures": int(stats.shard_failures),
        "breaker_open_skips": int(stats.breaker_open_skips),
        "faults_fired": len(plan.events()),
    })
    return row


def run_faults_suite(config: FaultsPerfConfig | None = None) -> dict:
    """Train, export sharded, and sweep fault levels × policies."""
    from repro.serve import export_sharded_snapshot, load_sharded_snapshot
    from repro.serve.faults import FaultSpec

    config = config or FaultsPerfConfig()
    dataset, model = _train_cell(config)
    # Distinct users with the cache off, so every request exercises the
    # fan-out path.
    users = _request_stream(dataset.num_users, config.requests, config.seed)
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp) / "sharded"
        export_sharded_snapshot(model, dataset, out, shards=config.shards,
                                partition_by="item",
                                model_name=config.model)
        sharded = load_sharded_snapshot(out)
        for rate in config.fault_rates:
            spec = FaultSpec("latency", rate=float(rate),
                             latency_ms=config.latency_ms)
            for policy in POLICIES:
                results.append(_measure_cell(
                    sharded, users, config=config, scenario="slow_shard",
                    policy=policy, spec=spec))
        dead = FaultSpec("error", rate=1.0)
        for policy in POLICIES:
            results.append(_measure_cell(
                sharded, users, config=config, scenario="dead_shard",
                policy=policy, spec=dead))
        snapshot_version = sharded.version
    return _payload(FAULTS_SCHEMA, config, results,
                    snapshot_version=snapshot_version)


def summarize_faults(payload: dict) -> str:
    """Human-readable availability table for one faults payload."""
    lines = [f"faults suite on {payload['dataset']} "
             f"(schema {payload['schema']}, "
             f"snapshot {payload['snapshot_version']})"]
    for row in payload["results"]:
        if row["kind"] != "faults":
            continue
        lines.append(
            f"  {row['scenario']:<10} rate {row['fault_rate']:>4.2f} "
            f"{row['policy']:<9}: avail {100 * row['availability']:>6.2f}%  "
            f"degraded {100 * row['degraded_rate']:>5.2f}%  "
            f"p99 {row['p99_ms']:>6.2f} ms  "
            f"hedges {row['hedges']:>3} (won {row['hedge_wins']:>3})  "
            f"breaker skips {row['breaker_open_skips']:>3}")
    return "\n".join(lines)
