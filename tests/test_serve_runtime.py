"""ServingRuntime: admission, shedding, adaptive batching, breakdown."""

import threading
import time

import numpy as np
import pytest

from repro.serve import (AsyncRequest, BreakerConfig, ExactTopKIndex,
                         OverloadError, RecommendationService,
                         ResilienceConfig, RuntimeConfig, RuntimeStats,
                         ServingRuntime, ShardedRecommendationService,
                         export_sharded_snapshot)
from repro.serve import runtime as runtime_module
from repro.serve.runtime import MIN_BATCH, RESERVOIR_SEED, RESERVOIR_SIZE


@pytest.fixture()
def service(tiny_mf_snapshot):
    _, snapshot = tiny_mf_snapshot
    return RecommendationService(snapshot)


def fast_config(**overrides):
    """Small queue/window so tests exercise the controller quickly."""
    defaults = dict(slo_ms=50.0, max_queue=64, initial_batch=4,
                    max_batch=32, window=8)
    defaults.update(overrides)
    return RuntimeConfig(**defaults)


class TestConfigValidation:
    @pytest.mark.parametrize("bad", [
        dict(slo_ms=0.0), dict(slo_ms=-1.0), dict(max_queue=0),
        dict(max_batch=0, initial_batch=0),
        dict(initial_batch=8, max_batch=4),
        dict(initial_batch=0), dict(initial_batch=512),
        dict(window=0),
    ])
    def test_bad_knobs_rejected(self, bad):
        with pytest.raises(ValueError):
            RuntimeConfig(**bad)

    def test_defaults_valid(self):
        config = RuntimeConfig()
        assert MIN_BATCH <= config.initial_batch <= config.max_batch

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("cls, field", [
        (RuntimeConfig, "slo_ms"), (RuntimeConfig, "deadline_ms"),
        (ResilienceConfig, "deadline_ms"), (ResilienceConfig, "hedge_ms"),
        (BreakerConfig, "reset_timeout_s"),
    ])
    def test_non_finite_durations_rejected(self, cls, field, value):
        """``x <= 0`` lets NaN through: a NaN deadline never expires and
        a NaN reset timeout never half-opens.  Positive *and finite*."""
        with pytest.raises(ValueError, match=field):
            cls(**{field: value})

    @pytest.mark.parametrize("value", [1.5, 2.0, True])
    @pytest.mark.parametrize("cls, field", [
        (RuntimeConfig, "max_queue"), (RuntimeConfig, "max_batch"),
        (RuntimeConfig, "initial_batch"), (RuntimeConfig, "window"),
        (RuntimeConfig, "max_restarts"), (ResilienceConfig, "retries"),
        (BreakerConfig, "failure_threshold"),
    ])
    def test_counts_must_be_integers(self, cls, field, value):
        """``retries=1.5`` used to construct and then fail in
        ``range(retries + 1)`` outside the degraded-result handling; a
        float equal to an integer and a bool are refused too."""
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            cls(**{field: value})

    def test_config_is_frozen(self):
        """The runtime reads its config live: a NaN assigned after the
        checks would freeze the batch controller."""
        import dataclasses
        config = RuntimeConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.slo_ms = float("nan")
        assert config.slo_ms == 50.0


class TestSubmitAndResults:
    def test_results_match_direct_recommend(self, tiny_mf_snapshot, service):
        _, snapshot = tiny_mf_snapshot
        users = list(range(12))
        with ServingRuntime(service, fast_config()) as runtime:
            handles = [runtime.submit(u, k=7) for u in users]
            results = [h.result(timeout=10.0) for h in handles]
        want = ExactTopKIndex(snapshot).topk(np.array(users), k=7)
        for row, rec in enumerate(results):
            assert rec.user_id == users[row]
            np.testing.assert_array_equal(rec.items, want.items[row])
            np.testing.assert_array_equal(rec.scores, want.scores[row])

    def test_mixed_request_shapes_grouped(self, service):
        with ServingRuntime(service, fast_config()) as runtime:
            a = runtime.submit(0, k=3)
            b = runtime.submit(1, k=9)
            c = runtime.submit(2, k=3, filter_seen=False)
            assert len(a.result(timeout=10.0).items) == 3
            assert len(b.result(timeout=10.0).items) == 9
            assert len(c.result(timeout=10.0).items) == 3

    def test_stats_count_admitted_and_completed(self, service):
        with ServingRuntime(service, fast_config()) as runtime:
            handles = [runtime.submit(u, k=5) for u in range(20)]
            for handle in handles:
                handle.result(timeout=10.0)
        stats = runtime.stats
        assert stats.admitted == 20 and stats.completed == 20
        assert stats.rejected == 0 and stats.shed_rate == 0.0
        assert 0 < stats.batches <= 20
        assert stats.mean_batch == pytest.approx(20 / stats.batches)

    def test_request_timestamps_and_latency(self, service):
        with ServingRuntime(service, fast_config()) as runtime:
            handle = runtime.submit(3, k=5)
            handle.result(timeout=10.0)
        assert handle.done
        assert handle.enqueued_at <= handle.started_at <= handle.finished_at
        assert handle.latency_ms >= handle.service_ms >= 0.0
        assert handle.latency_ms == pytest.approx(
            handle.queue_ms + handle.service_ms)

    def test_unfinished_request_reports_zero_latency(self):
        request = AsyncRequest(0, 10, True)
        assert not request.done
        assert request.queue_ms == request.service_ms == 0.0
        assert request.latency_ms == 0.0

    def test_result_timeout_raises(self, service):
        runtime = ServingRuntime(service, fast_config())  # never started
        handle = runtime.submit(0, k=5)
        with pytest.raises(TimeoutError):
            handle.result(timeout=0.01)

    def test_worker_error_propagates_to_waiters(self, service):
        with ServingRuntime(service, fast_config()) as runtime:
            handle = runtime.submit(10 ** 9, k=5)  # out-of-range user id
            with pytest.raises(ValueError):
                handle.result(timeout=10.0)


class TestOverload:
    def test_full_queue_sheds_with_overload_error(self, service):
        runtime = ServingRuntime(service, fast_config(max_queue=4))
        for u in range(4):
            runtime.submit(u, k=5)
        with pytest.raises(OverloadError, match="shed"):
            runtime.submit(99, k=5)
        assert runtime.stats.rejected == 1
        assert runtime.stats.shed_rate == pytest.approx(0.2)
        runtime.start()
        runtime.stop()
        assert runtime.stats.completed == 4  # shed request never served

    def test_shed_rate_zero_without_traffic(self):
        assert RuntimeStats().shed_rate == 0.0
        assert RuntimeStats().mean_batch == 0.0


class TestLifecycle:
    def test_stop_drains_admitted_requests(self, service):
        runtime = ServingRuntime(service, fast_config())
        handles = [runtime.submit(u, k=5) for u in range(10)]
        runtime.start()
        runtime.stop()
        assert all(h.done for h in handles)
        assert runtime.pending == 0
        assert not runtime.running

    def test_start_stop_idempotent(self, service):
        runtime = ServingRuntime(service, fast_config())
        runtime.start()
        runtime.start()
        assert runtime.running
        runtime.stop()
        runtime.stop()
        assert not runtime.running

    def test_restart_after_stop(self, service):
        runtime = ServingRuntime(service, fast_config())
        with runtime:
            runtime.submit(0, k=5).result(timeout=10.0)
        with runtime:
            runtime.submit(1, k=5).result(timeout=10.0)
        assert runtime.stats.completed == 2

    def test_repr_mentions_state(self, service):
        runtime = ServingRuntime(service, fast_config())
        assert "running=False" in repr(runtime)
        assert "slo_ms=50.0" in repr(runtime)


class TestAdaptiveBatching:
    def test_batch_grows_under_slo_headroom(self, service):
        """A fast service leaves p99 far under the SLO: the controller
        must grow the batch multiplicatively toward max_batch."""
        config = fast_config(slo_ms=10_000.0, initial_batch=2, max_batch=32,
                             window=4)
        with ServingRuntime(service, config) as runtime:
            for u in range(40):
                runtime.submit(u % 50, k=5).result(timeout=10.0)
        assert runtime.stats.grows > 0
        assert runtime.batch_size > config.initial_batch

    def test_batch_shrinks_when_slo_violated(self, service):
        """An impossibly tight SLO forces shrink toward MIN_BATCH."""
        config = fast_config(slo_ms=1e-6, initial_batch=16, window=4)
        with ServingRuntime(service, config) as runtime:
            handles = [runtime.submit(u % 50, k=5) for u in range(40)]
            for handle in handles:
                handle.result(timeout=10.0)
        assert runtime.stats.shrinks > 0
        assert runtime.batch_size < 16

    def test_batch_stays_within_bounds(self, service):
        config = fast_config(slo_ms=10_000.0, initial_batch=2, max_batch=8,
                             window=2)
        with ServingRuntime(service, config) as runtime:
            handles = [runtime.submit(u % 50, k=5) for u in range(60)]
            for handle in handles:
                handle.result(timeout=10.0)
        assert MIN_BATCH <= runtime.batch_size <= config.max_batch

    @pytest.mark.parametrize("p99_over_slo, batch, grows, shrinks", [
        (1.5, 4, 0, 1),   # slo_ms < p99 < 2 x slo_ms: shrink
        (0.5, 16, 1, 0),  # p99 < HEADROOM x slo_ms: grow
        (0.8, 8, 0, 0),   # in between: hold
    ])
    def test_controller_step_from_window_p99(self, service, p99_over_slo,
                                             batch, grows, shrinks):
        """One controller step over a planted latency window: any p99
        above ``slo_ms`` shrinks the batch, one under ``HEADROOM *
        slo_ms`` (0.7) grows it, and the band between holds it."""
        config = fast_config(slo_ms=20.0, initial_batch=8, window=4)
        runtime = ServingRuntime(service, config)
        runtime._latencies.extend([p99_over_slo * config.slo_ms]
                                  * config.window)
        runtime._adapt()
        assert runtime.batch_size == batch
        assert (runtime.stats.grows, runtime.stats.shrinks) == (grows,
                                                                 shrinks)

    def test_adaptation_counters_exposed(self, service):
        with ServingRuntime(service, fast_config(window=4)) as runtime:
            for u in range(12):
                runtime.submit(u, k=5).result(timeout=10.0)
        assert runtime.stats.grows + runtime.stats.shrinks >= 0
        quantiles = runtime.latency_quantiles()
        assert set(quantiles) == {"p50_ms", "p99_ms"}
        assert all(v >= 0.0 for v in quantiles.values())


class TestBreakdown:
    def test_unsharded_breakdown_terms(self, service):
        with ServingRuntime(service, fast_config()) as runtime:
            handles = [runtime.submit(u, k=5) for u in range(16)]
            for handle in handles:
                handle.result(timeout=10.0)
        breakdown = runtime.breakdown()
        for term in ("queue_ms", "service_ms", "sweep_ms", "mean_batch",
                     "batch_size"):
            assert term in breakdown
        assert breakdown["queue_ms"] >= 0.0
        assert breakdown["service_ms"] > 0.0
        assert breakdown["sweep_ms"] > 0.0
        assert "gather_ms" not in breakdown  # no router underneath

    def test_sharded_breakdown_includes_router_split(self, tiny_dataset,
                                                     tiny_mf_snapshot,
                                                     tmp_path):
        model, _ = tiny_mf_snapshot
        sharded = export_sharded_snapshot(model, tiny_dataset, tmp_path,
                                          shards=3)
        service = ShardedRecommendationService(sharded, cache_size=0)
        with ServingRuntime(service, fast_config()) as runtime:
            handles = [runtime.submit(u, k=5) for u in range(16)]
            for handle in handles:
                handle.result(timeout=10.0)
        breakdown = runtime.breakdown()
        for term in ("gather_ms", "score_ms", "merge_ms"):
            assert term in breakdown
            assert breakdown[term] >= 0.0

    def test_concurrent_submitters_all_answered(self, service):
        """Multiple client threads submitting at once: every request is
        answered exactly once and counters stay consistent."""
        errors = []

        def client(runtime, base):
            try:
                handles = [runtime.submit((base + i) % 50, k=5)
                           for i in range(10)]
                for handle in handles:
                    handle.result(timeout=10.0)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        with ServingRuntime(service, fast_config()) as runtime:
            threads = [threading.Thread(target=client, args=(runtime, b))
                       for b in (0, 10, 20)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert not errors
        assert runtime.stats.completed == 30
        assert runtime.stats.admitted == 30


class TestLatencyReservoir:
    """latency_quantiles() samples a bounded *seeded* reservoir, so the
    lifetime estimate is deterministic for a given request order and
    never grows with the soak length."""

    def test_sample_is_bounded_by_capacity(self, service, monkeypatch):
        monkeypatch.setattr(runtime_module, "RESERVOIR_SIZE", 16)
        with ServingRuntime(service, fast_config()) as runtime:
            for u in range(80):
                runtime.submit(u % 50, k=5).result(timeout=10.0)
        assert len(runtime._reservoir) == 16
        assert runtime._reservoir.seen == runtime.stats.completed == 80
        quantiles = runtime.latency_quantiles()
        assert quantiles["p50_ms"] >= 0.0
        assert quantiles["p99_ms"] >= quantiles["p50_ms"]

    def test_under_capacity_keeps_every_sample(self, service):
        with ServingRuntime(service, fast_config()) as runtime:
            for u in range(10):
                runtime.submit(u, k=5).result(timeout=10.0)
        assert len(runtime._reservoir) == 10
        assert runtime._reservoir.seen == 10

    def test_selection_is_seed_deterministic(self):
        """Which *positions* of the latency stream survive is a pure
        function of (capacity, seed) — replaying the same stream through
        a twin reservoir keeps identical samples."""
        from repro.obs.metrics import Reservoir
        twin = Reservoir(capacity=RESERVOIR_SIZE, seed=RESERVOIR_SEED)
        mirror = Reservoir(capacity=RESERVOIR_SIZE, seed=RESERVOIR_SEED)
        stream = [float(i % 97) for i in range(3 * RESERVOIR_SIZE)]
        for v in stream:
            twin.add(v)
            mirror.add(v)
        assert twin.values() == mirror.values()
        assert len(twin) == RESERVOIR_SIZE
        assert twin.seen == len(stream)


# ----------------------------------------------------------------------
# Robustness: deadlines, worker supervision, health (docs/robustness.md)
# ----------------------------------------------------------------------
class _SlowService:
    """Delegating wrapper whose every ``recommend`` sleeps first."""

    def __init__(self, inner, delay_s: float):
        self._inner = inner
        self._delay_s = delay_s

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def recommend(self, users, k=10, filter_seen=True):
        time.sleep(self._delay_s)
        return self._inner.recommend(users, k=k, filter_seen=filter_seen)


class _PoisonService:
    """Delegating wrapper that raises for batches containing ``bad``."""

    def __init__(self, inner, bad: int):
        self._inner = inner
        self._bad = bad

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def recommend(self, users, k=10, filter_seen=True):
        if self._bad in list(users):
            raise ValueError(f"poisoned request for user {self._bad}")
        return self._inner.recommend(users, k=k, filter_seen=filter_seen)


class TestResultTimeout:
    def test_result_expires_while_pending(self, service):
        runtime = ServingRuntime(service, fast_config())
        handle = runtime.submit(0, k=5)  # no worker started yet
        with pytest.raises(TimeoutError, match="still pending"):
            handle.result(timeout=0.05)
        assert not handle.done
        runtime.start()
        runtime.stop()
        assert handle.result(timeout=5.0).user_id == 0


class TestQueueDeadlines:
    def test_deadline_validation(self):
        with pytest.raises(ValueError):
            RuntimeConfig(deadline_ms=0.0)
        with pytest.raises(ValueError):
            RuntimeConfig(max_restarts=-1)

    def test_expired_requests_fail_with_deadline_exceeded(self, service):
        from repro.serve import DeadlineExceeded
        slow = _SlowService(service, 0.05)
        config = fast_config(deadline_ms=20.0, initial_batch=2,
                             max_batch=2, window=1024)
        with ServingRuntime(slow, config) as runtime:
            handles = [runtime.submit(u, k=5) for u in range(8)]
            served = expired = 0
            for handle in handles:
                try:
                    handle.result(timeout=10.0)
                    served += 1
                except DeadlineExceeded:
                    expired += 1
        # The first batch is picked up fresh; everything queued behind
        # a 50 ms batch has blown its 20 ms deadline at pickup.
        assert served >= 1 and expired >= 1
        assert served + expired == 8
        assert runtime.stats.deadline_expired == expired

    def test_no_deadline_by_default(self, service):
        with ServingRuntime(service, fast_config()) as runtime:
            handle = runtime.submit(0, k=5)
            assert handle.deadline_at is None
            handle.result(timeout=10.0)


class TestWorkerSupervision:
    def test_service_exception_fails_batch_not_worker(self, service):
        poison = _PoisonService(service, bad=3)
        config = fast_config(initial_batch=1, max_batch=1)
        with ServingRuntime(poison, config) as runtime:
            ok = runtime.submit(0, k=5)
            bad = runtime.submit(3, k=5)
            after = runtime.submit(1, k=5)
            assert ok.result(timeout=10.0).user_id == 0
            with pytest.raises(ValueError, match="poisoned"):
                bad.result(timeout=10.0)
            # The worker survived the service error and kept serving.
            assert after.result(timeout=10.0).user_id == 1
            health = runtime.health()
        assert health["ok"]
        assert health["worker_crashes"] == 0

    def test_crash_fails_backlog_with_cause_then_restarts(self, service):
        from repro.serve import WorkerCrashed
        runtime = ServingRuntime(service, fast_config())
        handles = [runtime.submit(u, k=5) for u in range(5)]
        original = runtime._collect_batch
        state = {"fired": False}

        def boom_once():
            if not state["fired"]:
                state["fired"] = True
                raise RuntimeError("dropped the batch")
            return original()

        runtime._collect_batch = boom_once
        runtime.start()
        for handle in handles:
            with pytest.raises(WorkerCrashed, match="dropped the batch"):
                handle.result(timeout=10.0)
            assert isinstance(handle._error.__cause__, RuntimeError)
        # The supervisor restarted the loop in place; new work serves.
        assert runtime.submit(7, k=5).result(timeout=10.0).user_id == 7
        runtime.stop()
        assert runtime.stats.worker_crashes == 1
        assert runtime.stats.worker_restarts == 1
        assert runtime.health()["worker_restarts"] == 1

    def test_fail_stop_refuses_work_until_restarted(self, service):
        from repro.serve import WorkerCrashed
        runtime = ServingRuntime(service,
                                 fast_config(max_restarts=0))

        def always_boom():
            raise RuntimeError("kaboom")

        runtime._collect_batch = always_boom
        runtime.start()
        for _ in range(400):
            if runtime._fatal is not None:
                break
            time.sleep(0.005)
        health = runtime.health()
        assert not health["ok"]
        assert "kaboom" in health["fatal"]
        with pytest.raises(WorkerCrashed, match="fail-stopped"):
            runtime.submit(0, k=5)
        # An explicit operator start() clears the fatal state.
        del runtime._collect_batch
        runtime.start()
        assert runtime.health()["ok"]
        assert runtime.submit(1, k=5).result(timeout=10.0).user_id == 1
        runtime.stop()

    def test_health_probe_reports_liveness(self, service):
        runtime = ServingRuntime(service, fast_config())
        idle = runtime.health()
        assert not idle["ok"] and not idle["running"]
        assert idle["fatal"] is None
        with runtime:
            live = runtime.health()
            assert live["ok"] and live["running"]
            assert live["snapshot_version"] == service.snapshot.version
            assert live["pending"] == 0


class TestRefreshRacesStop:
    def test_refresh_concurrent_with_stop_never_hangs(
            self, tiny_mf_snapshot, tiny_mf_snapshot_next):
        from repro.serve import RecommendationService
        _, snap_a = tiny_mf_snapshot
        _, snap_b = tiny_mf_snapshot_next
        service = RecommendationService(snap_a)
        runtime = ServingRuntime(service, fast_config())
        runtime.start()
        done = threading.Event()
        errors = []

        def do_refresh():
            try:
                runtime.refresh(snap_b, timeout=10.0)
            except Exception as exc:  # noqa: BLE001 - recorded, asserted
                errors.append(exc)
            finally:
                done.set()

        refresher = threading.Thread(target=do_refresh)
        refresher.start()
        runtime.stop()
        assert done.wait(10.0), "refresh hung across stop()"
        refresher.join()
        assert not errors
        assert service.snapshot.version == snap_b.version


# ----------------------------------------------------------------------
# Admission hits: the cache answers in submit(), batches carry misses
# ----------------------------------------------------------------------
BURST_BATCH = 8


def burst_config():
    """A controller pinned at ``BURST_BATCH``: full batches are exactly
    that tall."""
    return fast_config(slo_ms=1e9, initial_batch=BURST_BATCH,
                       max_batch=BURST_BATCH, window=1024)


class _RecommendSpy:
    """Records the user ids of every ``service.recommend`` call."""

    def __init__(self, service):
        self.calls = []
        self._recommend = service.recommend
        service.recommend = self

    def __call__(self, users, k=10, filter_seen=True):
        self.calls.append([int(u) for u in users])
        return self._recommend(users, k=k, filter_seen=filter_seen)


class TestAdmissionHits:
    def test_hit_is_answered_in_submit_without_a_worker(self, service):
        runtime = ServingRuntime(service, fast_config())  # never started
        want = service.recommend_one(5, k=7)
        handle = runtime.submit(5, k=7)
        assert handle.done and runtime.pending == 0
        rec = handle.result(timeout=0)
        assert rec.from_cache and rec.user_id == 5
        assert rec.items.tobytes() == want.items.tobytes()
        assert rec.scores.tobytes() == want.scores.tobytes()
        miss = runtime.submit(6, k=7)
        assert not miss.done and runtime.pending == 1
        assert runtime.stats.admission_hits == 1
        runtime.start()
        runtime.stop()
        assert miss.result(timeout=0).user_id == 6

    def test_hit_timestamps_put_its_lookup_in_queue_time(self, service):
        service.recommend_one(5, k=7)
        runtime = ServingRuntime(service, fast_config())
        handle = runtime.submit(5, k=7)
        assert handle.enqueued_at <= handle.started_at == handle.finished_at
        assert handle.service_ms == 0.0
        assert handle.latency_ms == handle.queue_ms

    def test_batches_carry_only_queued_misses(self, service):
        warm = list(range(10))
        service.recommend(warm, k=5)
        cold = list(range(20, 40))
        burst = [u for pair in zip(warm + warm, cold) for u in pair]
        spy = _RecommendSpy(service)
        sweeps = service.stats.index_sweeps
        runtime = ServingRuntime(service, burst_config())
        handles = [runtime.submit(u, k=5) for u in burst]
        assert runtime.pending == len(cold)
        runtime.start()
        runtime.stop()
        assert [u for call in spy.calls for u in call] == cold
        assert service.stats.index_sweeps - sweeps \
            == -(-len(cold) // BURST_BATCH)
        assert [h.result(timeout=0).user_id for h in handles] == burst

    def test_drain_reconciles_every_counter(self, service):
        service.recommend(list(range(10)), k=5)
        burst = [u % 25 for u in range(60)]  # hits, misses, repeat misses
        runtime = ServingRuntime(service, burst_config())
        handles = [runtime.submit(u, k=5) for u in burst]
        runtime.start()
        runtime.stop()
        for handle in handles:
            handle.result(timeout=0)
        stats = runtime.stats
        assert stats.admitted == stats.completed == len(burst)
        hits = sum(u < 10 for u in burst)
        assert stats.admission_hits == hits
        assert stats.batches == -(-(len(burst) - hits) // BURST_BATCH)
        assert stats.mean_batch == pytest.approx(
            (stats.completed - stats.admission_hits) / stats.batches)
        assert stats.mean_batch < len(burst) / stats.batches
        assert stats.queue_s + stats.service_s == pytest.approx(
            1e-3 * sum(h.latency_ms for h in handles), rel=1e-9)
        served = service.stats
        assert served.cache_hits + served.cache_misses == served.users_served
        assert len(runtime._reservoir) == len(burst)

    def test_hits_stay_out_of_the_controller_window(self, service):
        service.recommend(list(range(10)), k=5)
        runtime = ServingRuntime(service, fast_config(window=4))
        for u in range(10):
            runtime.submit(u, k=5).result(timeout=0)
        assert len(runtime._latencies) == 0 and runtime._since_adapt == 0
        assert runtime.stats.grows == runtime.stats.shrinks == 0
        assert runtime._reservoir.seen == 10

    def test_no_admission_hit_from_the_retired_version(
            self, tiny_mf_snapshot, tiny_mf_snapshot_next):
        _, snap_a = tiny_mf_snapshot
        _, snap_b = tiny_mf_snapshot_next
        with ServingRuntime(RecommendationService(snap_a),
                            fast_config()) as runtime:
            runtime.submit(0, k=5).result(timeout=10.0)
            old = runtime.submit(0, k=5)
            assert old.done
            assert old.result(timeout=0).snapshot_version == snap_a.version
            runtime.refresh(snap_b, timeout=10.0)
            fresh = runtime.submit(0, k=5)
            assert fresh.result(timeout=10.0).snapshot_version \
                == snap_b.version
            hit = runtime.submit(0, k=5)
            assert hit.done
            assert hit.result(timeout=0).snapshot_version == snap_b.version
        assert runtime.stats.admission_hits == 2

    def test_full_queue_sheds_misses_not_hits(self, service):
        service.recommend_one(0, k=5)
        runtime = ServingRuntime(service, fast_config(max_queue=2))
        runtime.submit(1, k=5)
        runtime.submit(2, k=5)
        assert runtime.submit(0, k=5).done
        with pytest.raises(OverloadError, match="shed"):
            runtime.submit(3, k=5)
        assert runtime.stats.rejected == 1
        runtime.start()
        runtime.stop()

    def test_hits_get_no_deadline(self, service):
        service.recommend_one(0, k=5)
        runtime = ServingRuntime(service, fast_config(deadline_ms=1.0))
        assert runtime.submit(0, k=5).deadline_at is None
        assert runtime.submit(1, k=5).deadline_at is not None
        runtime.start()
        runtime.stop()

    def test_fail_stopped_runtime_refuses_hits(self, service):
        from repro.serve import WorkerCrashed
        service.recommend_one(0, k=5)
        runtime = ServingRuntime(service,
                                 fast_config(max_restarts=0))
        runtime._fatal = RuntimeError("kaboom")
        with pytest.raises(WorkerCrashed, match="fail-stopped"):
            runtime.submit(0, k=5)
        assert runtime.stats.admitted == 0

    def test_cache_disabled_queues_every_request(self, tiny_mf_snapshot):
        _, snapshot = tiny_mf_snapshot
        service = RecommendationService(snapshot, cache_size=0)
        service.recommend_one(0, k=5)
        runtime = ServingRuntime(service, fast_config())
        handles = [runtime.submit(0, k=5) for _ in range(3)]
        assert runtime.pending == 3 and not any(h.done for h in handles)
        runtime.start()
        runtime.stop()
        assert runtime.stats.admission_hits == 0
        assert runtime.stats.mean_batch == pytest.approx(
            3 / runtime.stats.batches)


class TestInvalidRequests:
    def test_bad_request_fails_alone(self, service):
        """An out-of-range id batched with valid users used to fail the
        whole micro-batch; it now fails through its own future."""
        runtime = ServingRuntime(service, burst_config())
        bad_user = service.snapshot.manifest.num_users
        handles = {u: runtime.submit(u, k=5) for u in (1, 2)}
        bad = runtime.submit(bad_user, k=5)
        handles[3] = runtime.submit(3, k=5)
        no_k = runtime.submit(4, k=0)
        assert bad.done and no_k.done
        assert runtime.pending == 3
        runtime.start()
        runtime.stop()
        for user, handle in handles.items():
            assert handle.result(timeout=0).user_id == user
        with pytest.raises(ValueError, match="user ids must lie in"):
            bad.result(timeout=0)
        with pytest.raises(ValueError, match="k must be positive"):
            no_k.result(timeout=0)
        assert runtime.stats.batches == 1
        assert runtime.stats.admitted == runtime.stats.completed == 3
