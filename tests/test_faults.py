"""Chaos harness + resilient serving: determinism, breakers, soak.

The acceptance contract of the fault-tolerant serving path:

* the :class:`~repro.serve.faults.FaultPlan` schedule is a pure
  function of its seed — same seed, same faults, bit-for-bit, however
  threads interleave;
* under injected faults **every request resolves** — a full result, an
  explicitly degraded result, or a typed error — never a hang and
  never a silently-wrong top-k;
* a corrupted snapshot cannot be swapped in: ``refresh`` verifies,
  quarantines the damage, and keeps serving the last-good version;
* the committed ``BENCH_faults.json`` keeps showing that hedging +
  breakers hold availability at the one-slow-shard level.
"""

import json
import pathlib
import threading

import numpy as np
import pytest

from repro.losses import get_loss
from repro.models import get_model
from repro.serve import (BreakerConfig, CircuitBreaker, ExactTopKIndex,
                         FaultEvent, FaultPlan, FaultSpec, FaultyService,
                         FaultyShardIndex, InjectedFault, ManualClock,
                         RecommendationService, ResilienceConfig,
                         RuntimeConfig,
                         ServingRuntime, ShardedRecommendationService,
                         ShardedTopKIndex, SnapshotIntegrityError,
                         corrupt_array_file, export_sharded_snapshot,
                         export_snapshot, load_sharded_snapshot,
                         load_snapshot)
from repro.serve.faults import _draw
from repro.serve.runtime import DeadlineExceeded, OverloadError
from repro.train import TrainConfig, train_model

REPO_ROOT = pathlib.Path(__file__).parent.parent

SHARDS = 3


@pytest.fixture(scope="module")
def sharded_cell(tiny_dataset, tmp_path_factory):
    """(dataset, unsharded snapshot, sharded snapshot) on 'tiny'."""
    model = get_model("mf", tiny_dataset, dim=8, rng=0)
    config = TrainConfig(epochs=2, batch_size=64, n_negatives=8,
                         eval_every=0, patience=0, seed=0)
    train_model(model, get_loss("bsl"), tiny_dataset, config)
    flat_dir = tmp_path_factory.mktemp("faults-flat")
    snapshot = export_snapshot(model, tiny_dataset, flat_dir,
                               model_name="mf")
    sharded_dir = tmp_path_factory.mktemp("faults-sharded")
    export_sharded_snapshot(model, tiny_dataset, sharded_dir,
                            shards=SHARDS, partition_by="item",
                            model_name="mf")
    sharded = load_sharded_snapshot(sharded_dir)
    return tiny_dataset, snapshot, sharded


def make_router(sharded, resilience, *, faulty_shard=None, plan=None,
                workers=None, warm=False):
    """Resilient router with shard ``faulty_shard`` wrapped in ``plan``.

    ``warm`` answers one request before the fault wrapper goes in: a
    fresh router's first call starts its pool threads, which under CPU
    load can overrun a tight shard deadline on one run and not the next.
    """
    router = ShardedTopKIndex(sharded, chunk_users=64,
                              workers=workers, resilience=resilience)
    if warm:
        router.topk(np.zeros(1, dtype=np.int64), k=5)
    if faulty_shard is not None:
        router.shard_indexes[faulty_shard] = FaultyShardIndex(
            router.shard_indexes[faulty_shard], plan,
            f"shard:{faulty_shard}")
    return router


# ----------------------------------------------------------------------
# FaultPlan: the deterministic schedule
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_decisions_are_pure_functions_of_seed(self):
        spec = {"shard": [FaultSpec("latency", 0.3, latency_ms=0.0),
                          FaultSpec("error", 0.2)]}
        a, b = FaultPlan(7, spec), FaultPlan(7, spec)
        for key in range(200):
            for point in ("shard:0", "shard:1", "shard:2"):
                assert a.decide(point, key) == b.decide(point, key)

    def test_different_seeds_differ(self):
        spec = {"svc": FaultSpec("error", 0.5)}
        a, b = FaultPlan(1, spec), FaultPlan(2, spec)
        decisions_a = [bool(a.decide("svc", k)) for k in range(64)]
        decisions_b = [bool(b.decide("svc", k)) for k in range(64)]
        assert decisions_a != decisions_b

    def test_rate_bounds(self):
        never = FaultPlan(0, {"p": FaultSpec("error", 0.0)})
        always = FaultPlan(0, {"p": FaultSpec("error", 1.0)})
        assert all(not never.decide("p", k) for k in range(50))
        assert all(always.decide("p", k) for k in range(50))

    def test_prefix_matching_and_exact_precedence(self):
        plan = FaultPlan(0, {"shard": FaultSpec("error", 1.0),
                             "shard:1": FaultSpec("latency", 1.0,
                                                  latency_ms=0.0)})
        # Exact point wins over the prefix family.
        assert [e.kind for e in plan.decide("shard:1", 0)] == ["latency"]
        # Unlisted members of the family inherit the prefix spec.
        assert [e.kind for e in plan.decide("shard:9", 0)] == ["error"]
        assert plan.decide("other:0", 0) == []

    def test_fire_raises_injected_fault_and_records(self):
        plan = FaultPlan(0, {"p": FaultSpec("error", 1.0)})
        with pytest.raises(InjectedFault):
            plan.fire("p", 3)
        assert plan.events() == (FaultEvent("p", 3, "error", 0.0),)
        plan.reset_events()
        assert plan.events() == ()

    def test_event_log_replays_identically(self):
        spec = {"shard": [FaultSpec("latency", 0.4, latency_ms=0.0),
                          FaultSpec("error", 0.15)]}

        def run(plan):
            for key in range(120):
                for point in ("shard:0", "shard:1"):
                    try:
                        plan.fire(point, key)
                    except InjectedFault:
                        pass
            return plan.events()

        assert run(FaultPlan(42, spec)) == run(FaultPlan(42, spec))

    def test_concurrent_firing_same_event_set(self):
        spec = {"p": FaultSpec("error", 0.5)}
        serial = FaultPlan(9, spec)
        for key in range(200):
            try:
                serial.fire("p", key)
            except InjectedFault:
                pass
        threaded = FaultPlan(9, spec)

        def worker(keys):
            for key in keys:
                try:
                    threaded.fire("p", key)
                except InjectedFault:
                    pass

        threads = [threading.Thread(target=worker,
                                    args=(range(i, 200, 4),))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert threaded.events() == serial.events()

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FaultSpec("nope", 0.5)
        with pytest.raises(ValueError):
            FaultSpec("error", 1.5)
        with pytest.raises(ValueError):
            FaultSpec("latency", 0.5, latency_ms=-1.0)

    def test_draw_is_uniformish(self):
        draws = [_draw(0, "p", k, 0) for k in range(2000)]
        assert all(0.0 <= d < 1.0 for d in draws)
        assert abs(np.mean(draws) - 0.5) < 0.05


class TestCorruptArrayFile:
    def test_damage_is_deterministic_and_past_header(self, tmp_path):
        data = np.arange(256, dtype=np.float64)
        for name in ("a.npy", "b.npy"):
            np.save(tmp_path / name, data)
        corrupt_array_file(tmp_path / "a.npy", seed=3)
        corrupt_array_file(tmp_path / "b.npy", seed=3)
        damaged_a = (tmp_path / "a.npy").read_bytes()
        assert damaged_a == (tmp_path / "b.npy").read_bytes()
        clean = np.save(tmp_path / "c.npy", data) or \
            (tmp_path / "c.npy").read_bytes()
        assert damaged_a[:128] == clean[:128]
        assert damaged_a != clean
        # Still parses as .npy — the damage is the silent kind.
        loaded = np.load(tmp_path / "a.npy")
        assert not np.array_equal(loaded, data)


# ----------------------------------------------------------------------
# Circuit breaker (fake clock, no sleeping)
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def make(self, **overrides):
        clock = ManualClock()
        defaults = dict(failure_threshold=3, reset_timeout_s=10.0)
        defaults.update(overrides)
        return CircuitBreaker(BreakerConfig(**defaults), name="t",
                              clock=clock), clock

    def test_closed_until_threshold(self):
        breaker, _ = self.make()
        for _ in range(2):
            assert breaker.allow()
            breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()

    def test_success_resets_failure_streak(self):
        breaker, _ = self.make()
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_open_to_half_open_after_timeout(self):
        breaker, clock = self.make()
        for _ in range(3):
            breaker.record_failure()
        assert breaker.state == "open"
        clock.advance(9.9)
        assert breaker.state == "open"
        clock.advance(0.2)
        assert breaker.state == "half-open"

    def test_half_open_admits_limited_probes(self):
        """Half-open admits exactly one probe while it is in flight."""
        breaker, clock = self.make()
        for _ in range(3):
            breaker.record_failure()
        clock.advance(10.0)
        assert breaker.allow()       # the one admitted probe
        assert not breaker.allow()   # a second caller is rejected
        assert not breaker.allow()
        assert breaker.state == "half-open"

    def test_probe_successes_close(self):
        """One probe decides: its success closes the breaker at once."""
        breaker, clock = self.make()
        for _ in range(3):
            breaker.record_failure()
        clock.advance(10.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()
        assert breaker.allow()       # closed: no probe limit

    def test_probe_failure_reopens_and_restarts_timer(self):
        breaker, clock = self.make()
        for _ in range(3):
            breaker.record_failure()
        clock.advance(10.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        clock.advance(5.0)
        assert breaker.state == "open"   # timer restarted at re-open
        clock.advance(5.0)
        assert breaker.state == "half-open"

    def test_config_validation(self):
        for bad in (dict(failure_threshold=0), dict(reset_timeout_s=0.0)):
            with pytest.raises(ValueError):
                BreakerConfig(**bad)


class TestResilienceConfigValidation:
    @pytest.mark.parametrize("bad", [
        dict(deadline_ms=0.0), dict(retries=-1), dict(deadline_ms=-1.0),
        dict(hedge_ms=-1.0), dict(hedge_ms=0.0),
    ])
    def test_bad_knobs_rejected(self, bad):
        with pytest.raises(ValueError):
            ResilienceConfig(**bad)


# ----------------------------------------------------------------------
# Resilient routing: parity, degraded modes, hedging, breakers
# ----------------------------------------------------------------------
class TestResilientParity:
    def test_no_faults_bit_identical_to_fail_stop(self, sharded_cell):
        dataset, snapshot, sharded = sharded_cell
        users = np.arange(dataset.num_users, dtype=np.int64)
        plain = ShardedTopKIndex(sharded, chunk_users=64)
        resilient = make_router(sharded, ResilienceConfig(
            deadline_ms=5000.0, retries=1,
            breaker=BreakerConfig()))
        try:
            want = plain.topk(users, k=10)
            got = resilient.topk(users, k=10)
        finally:
            plain.close()
            resilient.close()
        np.testing.assert_array_equal(got.items, want.items)
        np.testing.assert_array_equal(got.scores, want.scores)
        assert got.coverage == 1.0 and got.failed_shards == ()

    def test_hedged_path_still_exact(self, sharded_cell):
        dataset, _, sharded = sharded_cell
        users = np.arange(dataset.num_users, dtype=np.int64)
        plain = ShardedTopKIndex(sharded, chunk_users=64)
        plan = FaultPlan(5, {"shard:1": FaultSpec("latency", 0.5,
                                                  latency_ms=30.0)})
        hedged = make_router(
            sharded,
            ResilienceConfig(deadline_ms=5000.0, retries=0, hedge_ms=2.0),
            faulty_shard=1, plan=plan)
        try:
            want = plain.topk(users, k=10)
            got = hedged.topk(users, k=10)
        finally:
            plain.close()
            hedged.close()
        np.testing.assert_array_equal(got.items, want.items)
        np.testing.assert_array_equal(got.scores, want.scores)
        assert got.coverage == 1.0


class TestDegradedResults:
    def dead_router(self, sharded):
        plan = FaultPlan(0, {"shard:1": FaultSpec("error", 1.0)})
        return make_router(sharded,
                           ResilienceConfig(deadline_ms=200.0, retries=1),
                           faulty_shard=1, plan=plan)

    def test_dead_shard_yields_explicit_partial(self, sharded_cell):
        dataset, _, sharded = sharded_cell
        users = np.arange(dataset.num_users, dtype=np.int64)
        router = self.dead_router(sharded)
        try:
            result = router.topk(users, k=10)
        finally:
            router.close()
        assert result.failed_shards == (1,)
        lost = len(router.shard_indexes[1]._wrapped.shard)
        assert result.coverage == pytest.approx(
            1.0 - lost / sharded.manifest.num_items)
        # No item owned by the dead shard may appear in the answer.
        dead_items = set(
            np.asarray(sharded.item_shards[1].ids).tolist())
        served = set(result.items[result.items >= 0].tolist())
        assert not served & dead_items
        assert router.stats.shard_failures >= 1
        assert router.stats.degraded_chunks >= 1

    def test_slow_shard_degrades_at_deadline(self, sharded_cell):
        dataset, _, sharded = sharded_cell
        plan = FaultPlan(0, {"shard:1": FaultSpec("latency", 1.0,
                                                  latency_ms=100.0)})
        router = make_router(
            sharded, ResilienceConfig(deadline_ms=20.0, retries=1),
            faulty_shard=1, plan=plan)
        try:
            result = router.topk(np.arange(8, dtype=np.int64), k=5)
        finally:
            router.close()
        assert result.failed_shards == (1,)
        assert result.coverage < 1.0

    def test_all_shards_dead_pads_everything(self, sharded_cell):
        dataset, _, sharded = sharded_cell
        plan = FaultPlan(0, {"shard": FaultSpec("error", 1.0)})
        router = ShardedTopKIndex(
            sharded, chunk_users=64,
            resilience=ResilienceConfig(deadline_ms=200.0, retries=0))
        for s in range(SHARDS):
            router.shard_indexes[s] = FaultyShardIndex(
                router.shard_indexes[s], plan, f"shard:{s}")
        try:
            result = router.topk(np.arange(4, dtype=np.int64), k=5)
        finally:
            router.close()
        assert result.coverage == 0.0
        assert (result.items == -1).all()
        assert np.isneginf(result.scores).all()

    def test_degraded_recommendations_flagged_not_cached(self,
                                                         sharded_cell):
        dataset, _, sharded = sharded_cell
        router = self.dead_router(sharded)
        service = ShardedRecommendationService(sharded, index=router,
                                               cache_size=64)
        try:
            recs = service.recommend([0, 1, 2], k=5)
            assert all(r.degraded for r in recs)
            assert all(r.coverage < 1.0 for r in recs)
            assert len(service.cache) == 0
            assert service.stats.degraded_served == 3
            # The shard recovers: full answers flow — and cache — again.
            router.shard_indexes[1] = router.shard_indexes[1]._wrapped
            recs = service.recommend([0, 1, 2], k=5)
            assert all(not r.degraded for r in recs)
            assert all(r.coverage == 1.0 for r in recs)
            assert len(service.cache) == 3
        finally:
            router.close()


class TestResilientFanoutBranches:
    """The resilient shard call on both branches of the router's one
    fan-out loop: sequential (``workers=1``) and pooled (``workers=3``).
    ``workers=None`` would run whichever the core count picks."""

    @pytest.mark.parametrize("workers", (1, 3))
    def test_no_faults_bit_identical_to_fail_stop(self, sharded_cell,
                                                  workers):
        dataset, _, sharded = sharded_cell
        users = np.arange(dataset.num_users, dtype=np.int64)
        plain = ShardedTopKIndex(sharded, chunk_users=64, workers=1)
        resilient = make_router(sharded, ResilienceConfig(
            deadline_ms=5000.0, retries=1, breaker=BreakerConfig()),
            workers=workers)
        try:
            want = plain.topk(users, k=10)
            got = resilient.topk(users, k=10)
            pooled = resilient._pool is not None
        finally:
            plain.close()
            resilient.close()
        assert pooled == (workers > 1)
        np.testing.assert_array_equal(got.items, want.items)
        np.testing.assert_array_equal(got.scores, want.scores)
        assert got.coverage == 1.0 and got.failed_shards == ()

    @pytest.mark.parametrize("workers", (1, 3))
    def test_dead_shard_yields_explicit_partial(self, sharded_cell,
                                                workers):
        dataset, _, sharded = sharded_cell
        users = np.arange(dataset.num_users, dtype=np.int64)
        plan = FaultPlan(0, {"shard:1": FaultSpec("error", 1.0)})
        router = make_router(
            sharded, ResilienceConfig(deadline_ms=200.0, retries=1),
            faulty_shard=1, plan=plan, workers=workers)
        try:
            result = router.topk(users, k=10)
        finally:
            router.close()
        # The wrapper installed after construction is the one called.
        assert router.shard_indexes[1].calls >= 1
        assert result.failed_shards == (1,)
        lost = len(router.shard_indexes[1]._wrapped.shard)
        assert result.coverage == pytest.approx(
            1.0 - lost / sharded.manifest.num_items)
        dead_items = set(np.asarray(sharded.item_shards[1].ids).tolist())
        assert not set(result.items[result.items >= 0].tolist()) & dead_items
        assert router.stats.shard_failures >= 1


class TestHedging:
    def test_hedges_mask_stragglers(self, sharded_cell):
        dataset, _, sharded = sharded_cell
        plan = FaultPlan(11, {"shard:1": FaultSpec("latency", 0.5,
                                                   latency_ms=50.0)})
        router = make_router(
            sharded,
            ResilienceConfig(deadline_ms=5000.0, retries=0, hedge_ms=2.0),
            faulty_shard=1, plan=plan)
        try:
            import time
            start = time.perf_counter()
            for user in range(16):
                result = router.topk(np.array([user]), k=5)
                assert result.coverage == 1.0
            elapsed = time.perf_counter() - start
        finally:
            router.close()
        assert router.stats.hedges > 0
        assert router.stats.hedge_wins > 0
        # 16 straggler-free requests must not cost 16 full stragglers.
        assert elapsed < 16 * 50e-3


class TestBreakerIntegration:
    def test_dead_shard_opens_breaker_and_skips(self, sharded_cell):
        dataset, _, sharded = sharded_cell
        plan = FaultPlan(0, {"shard:1": FaultSpec("error", 1.0)})
        router = make_router(
            sharded,
            ResilienceConfig(deadline_ms=200.0, retries=0,
                             breaker=BreakerConfig(failure_threshold=2,
                                                   reset_timeout_s=60.0)),
            faulty_shard=1, plan=plan)
        try:
            for user in range(6):
                router.topk(np.array([user]), k=5)
        finally:
            router.close()
        assert router.breakers[1].state == "open"
        assert router.stats.breaker_open_skips >= 3
        # The wrapped shard stopped being called once the breaker opened.
        assert router.shard_indexes[1].calls <= 3
        # Healthy shards' breakers stay closed.
        assert router.breakers[0].state == "closed"


# ----------------------------------------------------------------------
# Soaks: every request resolves; same seed, same run
# ----------------------------------------------------------------------
# A replay is a function of the plan only while no stall can flip a call:
# a healthy shard call (~1 ms) must finish inside the 100 ms deadline and
# a 400 ms latency fault must not, with margin on both sides for a whole-
# process pause on a loaded host (25 ms against 120 ms flipped calls
# under 40 ms pauses; these margins held under 60 ms ones).
SOAK_SPECS = {"shard:1": [FaultSpec("latency", 0.06, latency_ms=400.0),
                          FaultSpec("error", 0.10)]}


def run_sync_soak(sharded, num_users, *, seed, requests=300):
    """Sequential chaos soak; returns (outcomes, fault events)."""
    plan = FaultPlan(seed, SOAK_SPECS)
    router = make_router(
        sharded,
        ResilienceConfig(deadline_ms=100.0, retries=1),
        faulty_shard=1, plan=plan, warm=True)
    service = ShardedRecommendationService(sharded, index=router,
                                           cache_size=0)
    outcomes = []
    try:
        for i in range(requests):
            rec = service.recommend([i % num_users], k=5)[0]
            assert rec.degraded == (rec.coverage < 1.0)
            outcomes.append(("degraded" if rec.degraded else "ok",
                             round(rec.coverage, 12)))
    finally:
        router.close()
    return outcomes, plan.events()


class TestDeterministicSoak:
    def test_same_seed_identical_run(self, sharded_cell):
        dataset, _, sharded = sharded_cell
        first = run_sync_soak(sharded, dataset.num_users, seed=123)
        second = run_sync_soak(sharded, dataset.num_users, seed=123)
        assert first == second
        outcomes, events = first
        assert len(outcomes) == 300          # every request resolved
        assert any(o[0] == "degraded" for o in outcomes)
        assert any(o[0] == "ok" for o in outcomes)
        assert len(events) > 0

    def test_different_seed_different_schedule(self, sharded_cell):
        dataset, _, sharded = sharded_cell
        _, events_a = run_sync_soak(sharded, dataset.num_users, seed=1,
                                    requests=120)
        _, events_b = run_sync_soak(sharded, dataset.num_users, seed=2,
                                    requests=120)
        assert events_a != events_b


class TestRuntimeChaosSoak:
    def test_async_soak_every_future_resolves(self, sharded_cell):
        dataset, snapshot, _ = sharded_cell
        plan = FaultPlan(77, {"svc": [
            FaultSpec("error", 0.15),
            FaultSpec("latency", 0.05, latency_ms=30.0)]})
        service = FaultyService(RecommendationService(snapshot),
                                plan, "svc")
        config = RuntimeConfig(slo_ms=50.0, max_queue=64, initial_batch=4,
                               max_batch=16, window=8, deadline_ms=500.0)
        handles = []
        with ServingRuntime(service, config) as runtime:
            for i in range(200):
                try:
                    handles.append(runtime.submit(i % dataset.num_users,
                                                  k=5))
                except OverloadError:
                    handles.append(None)  # shed at admission: resolved
            served = errored = 0
            for handle in handles:
                if handle is None:
                    continue
                try:
                    rec = handle.result(timeout=10.0)
                    assert rec.items is not None
                    served += 1
                except (InjectedFault, DeadlineExceeded):
                    errored += 1
            health = runtime.health()
        assert served > 0 and errored > 0
        assert served + errored == sum(1 for h in handles
                                       if h is not None)
        # Injected service errors fail futures — never the worker.
        assert health["worker_crashes"] == 0
        assert health["ok"]


# ----------------------------------------------------------------------
# Corrupt snapshot: quarantine and fall back to last-good
# ----------------------------------------------------------------------
class TestCorruptRefreshFallback:
    def test_refresh_rejects_quarantines_keeps_serving(self, tiny_dataset,
                                                       tmp_path):
        model = get_model("mf", tiny_dataset, dim=8, rng=0)
        config = TrainConfig(epochs=1, batch_size=64, n_negatives=8,
                             eval_every=0, patience=0, seed=0)
        train_model(model, get_loss("bsl"), tiny_dataset, config)
        export_snapshot(model, tiny_dataset, tmp_path / "v1",
                        model_name="mf")
        service = RecommendationService(load_snapshot(tmp_path / "v1"))
        good_version = service.snapshot.version
        baseline = service.recommend([0, 1], k=5)

        train_model(model, get_loss("bsl"), tiny_dataset, config)
        export_snapshot(model, tiny_dataset, tmp_path / "v2",
                        model_name="mf")
        corrupt_array_file(tmp_path / "v2" / "item-shard-00"
                           / "item_embeddings.npy", seed=0)

        with pytest.raises(SnapshotIntegrityError) as excinfo:
            service.refresh(tmp_path / "v2")
        # Last-good version still serves, bit-identically.
        assert service.snapshot.version == good_version
        after = service.recommend([0, 1], k=5)
        for a, b in zip(baseline, after):
            np.testing.assert_array_equal(a.items, b.items)
        # The damage was moved aside, not left in the publish path.
        assert not (tmp_path / "v2").exists()
        quarantined = excinfo.value.quarantined_to
        assert quarantined is not None and quarantined.exists()
        assert service.stats.refresh_rejected == 1

        # A repaired export at the same path swaps in normally.
        export_snapshot(model, tiny_dataset, tmp_path / "v2",
                        model_name="mf")
        service.refresh(tmp_path / "v2")
        assert service.snapshot.version != good_version

    def test_sharded_refresh_rejects_corruption(self, tiny_dataset,
                                                sharded_cell, tmp_path):
        _, _, sharded = sharded_cell
        service = ShardedRecommendationService(sharded)
        good_version = service.snapshot.version

        model = get_model("mf", tiny_dataset, dim=8, rng=1)
        export_sharded_snapshot(model, tiny_dataset, tmp_path / "next",
                                shards=SHARDS, partition_by="item",
                                model_name="mf")
        shard_dir = next((tmp_path / "next").glob("item-shard-*"))
        corrupt_array_file(shard_dir / "item_embeddings.npy", seed=0)

        with pytest.raises(SnapshotIntegrityError):
            service.refresh(tmp_path / "next")
        assert service.snapshot.version == good_version
        assert not (tmp_path / "next").exists()


# ----------------------------------------------------------------------
# The committed benchmark stays honest
# ----------------------------------------------------------------------
class TestBenchFaultsPin:
    @pytest.fixture(scope="class")
    def payload(self):
        return json.loads((REPO_ROOT / "BENCH_faults.json").read_text())

    def row(self, payload, scenario, policy, rate):
        for row in payload["results"]:
            if (row["scenario"] == scenario and row["policy"] == policy
                    and row["fault_rate"] == pytest.approx(rate)):
                return row
        raise AssertionError(
            f"no ({scenario}, {policy}, rate={rate}) row committed")

    def test_schema_and_scenarios(self, payload):
        assert payload["schema"] == "bsl-faults-bench/v1"
        scenarios = {r["scenario"] for r in payload["results"]}
        assert scenarios == {"slow_shard", "dead_shard"}

    def test_headline_availability_with_hedging_and_breakers(self,
                                                             payload):
        resilient = self.row(payload, "slow_shard", "resilient", 0.1)
        assert resilient["availability"] >= 0.99
        assert resilient["hedge_wins"] > 0

    def test_resilient_beats_baseline_at_every_fault_level(self, payload):
        for rate in (0.05, 0.1, 0.2):
            baseline = self.row(payload, "slow_shard", "baseline", rate)
            resilient = self.row(payload, "slow_shard", "resilient", rate)
            assert resilient["availability"] > baseline["availability"]
            assert resilient["p99_ms"] < baseline["p99_ms"]

    def test_dead_shard_is_explicit_and_breaker_guarded(self, payload):
        for policy in ("baseline", "resilient"):
            row = self.row(payload, "dead_shard", policy, 1.0)
            assert row["degraded_rate"] == 1.0   # explicit, not silent
            assert row["error_rate"] == 0.0
        assert self.row(payload, "dead_shard", "resilient",
                        1.0)["breaker_open_skips"] > 0
