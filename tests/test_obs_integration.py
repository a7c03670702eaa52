"""End-to-end observability: stats views, span/counter reconciliation.

Satellite 6 of the observability PR: the span trees captured under
``tracing()`` and the ``RuntimeStats`` counters are two projections of
the **same clock readings** (the instrumented call sites reuse the
span's ``start_s``/``end_s`` instead of reading the clock twice), so a
breakdown derived from spans must reconcile with ``breakdown()`` —
not just approximately, but up to float-summation order.
"""

import json

import pytest

from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.trace import Tracer, tracing
from repro.serve import RecommendationService, ServingRuntime
from repro.serve.runtime import RuntimeConfig

pytestmark = pytest.mark.filterwarnings("ignore")


@pytest.fixture()
def fresh_registry():
    with use_registry(MetricsRegistry()) as registry:
        yield registry


@pytest.fixture()
def traced(monkeypatch):
    """Fresh enabled tracer installed as the process-global one."""
    import repro.obs.trace as trace_mod
    tracer = Tracer(keep=256)
    monkeypatch.setattr(trace_mod, "_TRACER", tracer)
    tracer.enabled = True
    return tracer


class TestServiceStatsView:
    def test_invariant_and_registry_visibility(self, tiny_mf_snapshot,
                                               fresh_registry):
        _, snapshot = tiny_mf_snapshot
        service = RecommendationService(snapshot, cache_size=64)
        users = [0, 1, 2, 1, 0]
        service.recommend(users, k=5)
        service.recommend(users, k=5)
        stats = service.stats
        # the pinned pre-registry invariant still holds on the view
        assert stats.cache_hits + stats.cache_misses == stats.users_served
        assert stats.users_served == 10
        assert stats.requests == 2
        # ... and the same counts are visible through the registry
        labels = stats.obs_labels
        hits = fresh_registry.counter("serve.service.cache_hits",
                                      labels=labels)
        misses = fresh_registry.counter("serve.service.cache_misses",
                                        labels=labels)
        assert hits.value == stats.cache_hits
        assert misses.value == stats.cache_misses

    def test_two_services_get_distinct_series(self, tiny_mf_snapshot,
                                              fresh_registry):
        _, snapshot = tiny_mf_snapshot
        a = RecommendationService(snapshot, cache_size=0)
        b = RecommendationService(snapshot, cache_size=0)
        a.recommend([0, 1], k=5)
        assert a.stats.users_served == 2
        assert b.stats.users_served == 0
        assert a.stats.obs_labels != b.stats.obs_labels

    def test_disabled_registry_view_still_counts_nothing(
            self, tiny_mf_snapshot):
        from repro.obs.metrics import NULL_REGISTRY
        _, snapshot = tiny_mf_snapshot
        with use_registry(NULL_REGISTRY):
            service = RecommendationService(snapshot, cache_size=0)
            service.recommend([0, 1, 2], k=5)
            # null instruments: the view reads 0 but serving still works
            assert service.stats.users_served == 0
            assert service.stats.obs_labels is None


class TestServiceTrace:
    def test_recommend_root_span_with_sweep_child(self, tiny_mf_snapshot,
                                                  fresh_registry, traced):
        _, snapshot = tiny_mf_snapshot
        service = RecommendationService(snapshot, cache_size=0)
        service.recommend([0, 1, 2], k=5)
        root = traced.last_trace()
        assert root.name == "serve.service.recommend"
        assert root.meta == {"users": 3, "k": 5}
        sweeps = root.find("serve.service.sweep")
        assert len(sweeps) == 1
        # the sweep span reuses the exact readings that fed sweep_s
        assert (sweeps[0].end_s - sweeps[0].start_s
                == service.stats.sweep_s)

    def test_cache_hit_request_has_no_sweep(self, tiny_mf_snapshot,
                                            fresh_registry, traced):
        _, snapshot = tiny_mf_snapshot
        service = RecommendationService(snapshot, cache_size=64)
        service.recommend([0], k=5)
        service.recommend([0], k=5)  # pure cache hit
        root = traced.last_trace()
        assert root.name == "serve.service.recommend"
        assert root.find("serve.service.sweep") == []


class TestRuntimeReconciliation:
    def _drive(self, snapshot, n_requests=24):
        service = RecommendationService(snapshot, cache_size=0)
        config = RuntimeConfig(slo_ms=100.0, initial_batch=4, max_batch=8,
                               window=8)
        with ServingRuntime(service, config) as runtime:
            handles = [runtime.submit(i % snapshot.manifest.num_users, k=5)
                       for i in range(n_requests)]
            for handle in handles:
                handle.result(timeout=10.0)
            breakdown = runtime.breakdown()
            stats = runtime.stats
            return runtime, breakdown, stats

    def test_span_derived_service_time_reconciles_exactly(
            self, tiny_mf_snapshot, fresh_registry, traced):
        """sum(batch-span duration × batch size) == stats.service_s.

        Both sides accumulate the identical per-batch terms in the
        identical order from the identical clock readings, so the
        equality is float-exact, not approximate.
        """
        _, snapshot = tiny_mf_snapshot
        _runtime, _breakdown, stats = self._drive(snapshot)
        batch_spans = [root for root in traced.traces()
                       if root.name == "serve.runtime.batch"]
        assert batch_spans
        assert sum(span.meta["batch"] for span in batch_spans) \
            == stats.completed
        service_s = 0.0
        for span in batch_spans:
            service_s += (span.end_s - span.start_s) * span.meta["batch"]
        assert service_s == stats.service_s

    def test_queue_plus_service_equals_latency(self, tiny_mf_snapshot,
                                               fresh_registry, traced):
        """Per request, queue wait + in-batch service time *is* the
        end-to-end latency; summed, the counters must agree with the
        recorded latency samples (and both bound the wall clock)."""
        import time
        _, snapshot = tiny_mf_snapshot
        wall_start = time.perf_counter()
        runtime, breakdown, stats = self._drive(snapshot)
        wall_s = time.perf_counter() - wall_start
        latency_sum_s = 1e-3 * fresh_registry.histogram(
            "serve.runtime.latency_ms",
            labels=stats.obs_labels).sum
        assert stats.queue_s + stats.service_s \
            == pytest.approx(latency_sum_s, rel=1e-9)
        # means: queue_ms + service_ms is mean latency ≤ wall time
        assert breakdown["queue_ms"] + breakdown["service_ms"] \
            <= 1e3 * wall_s
        assert breakdown["queue_ms"] >= 0.0
        assert breakdown["service_ms"] > 0.0

    def test_refresh_attribution_matches_spans(self, tiny_mf_snapshot,
                                               fresh_registry, traced):
        _, snapshot = tiny_mf_snapshot
        service = RecommendationService(snapshot, cache_size=16)
        with ServingRuntime(service) as runtime:
            runtime.submit(0, k=5).result(timeout=10.0)
            runtime.refresh(snapshot)
            runtime.submit(1, k=5).result(timeout=10.0)
            stats = runtime.stats
            breakdown = runtime.breakdown()
        refresh_spans = [root for root in traced.traces()
                         if root.name == "serve.runtime.refresh"]
        assert len(refresh_spans) == 1
        assert stats.refreshes == 1
        span = refresh_spans[0]
        assert span.end_s - span.start_s == stats.refresh_s
        assert breakdown["refresh_ms"] == pytest.approx(
            1e3 * stats.refresh_s)


class TestCLITrace:
    def test_recommend_trace_prints_span_tree(self, tiny_mf_snapshot,
                                              capsys):
        from repro.cli import main
        _, snapshot = tiny_mf_snapshot
        rc = main(["recommend", "--snapshot", str(snapshot.path),
                   "--users", "0,1", "--k", "5", "--trace"])
        assert rc == 0
        shown = capsys.readouterr().out
        assert "serve.service.recommend" in shown
        assert "serve.service.sweep" in shown
        assert "ms" in shown

    def test_metrics_verb_renders_prom(self, capsys):
        from repro.cli import main
        rc = main(["metrics", "--format", "prom"])
        assert rc == 0
        # the process registry has instruments from earlier tests; the
        # exposition itself must be well-formed either way
        from repro.obs.export import prom
        shown = capsys.readouterr().out
        assert prom.validate_exposition(shown) == []

    def test_metrics_verb_json_out(self, tmp_path, capsys):
        from repro.cli import main
        out = tmp_path / "metrics.json"
        rc = main(["metrics", "--format", "json", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == "bsl-obs-metrics/v1"
        assert isinstance(payload["metrics"], list)


class TestRouterTrace:
    def test_sharded_route_records_phase_spans(self, tmp_path,
                                               fresh_registry, traced):
        from repro.data import load_dataset
        from repro.losses import get_loss
        from repro.models import MF
        from repro.serve import (ShardedRecommendationService,
                                 export_sharded_snapshot,
                                 load_sharded_snapshot)
        from repro.train import TrainConfig, train_model

        dataset = load_dataset("tiny")
        model = MF(dataset.num_users, dataset.num_items, dim=8, rng=0)
        train_model(model, get_loss("bsl"), dataset,
                    TrainConfig(epochs=1, batch_size=64, n_negatives=4,
                                eval_every=0, patience=0, seed=0))
        export_sharded_snapshot(model, dataset, tmp_path, shards=2,
                                model_name="mf")
        sharded = load_sharded_snapshot(tmp_path)
        service = ShardedRecommendationService(sharded, cache_size=0,
                                               workers=0)
        service.recommend([0, 1, 2, 3], k=5)
        root = traced.last_trace()
        assert root.name == "serve.service.recommend"
        phases = {span.name for span, _ in root.walk()}
        assert {"serve.router.gather", "serve.router.score",
                "serve.router.merge"} <= phases
        # the recorded phase intervals are the stats' own readings
        gather = root.find("serve.router.gather")
        stats = service.router_stats
        assert sum(s.end_s - s.start_s for s in gather) \
            == pytest.approx(stats.gather_s, rel=1e-9)


class TestIVFTelemetry:
    """Both IVF kinds run the one chunk pipeline, so both feed the
    ``ann.ivf.*`` counters and spans (IVF-PQ's fork once fed neither)."""

    @pytest.mark.parametrize("kind", ["ivf", "ivfpq"])
    def test_topk_moves_counters_and_records_spans(
            self, kind, tiny_mf_snapshot, tmp_path, fresh_registry, traced):
        import numpy as np

        from repro.ann import build_ann_index
        from repro.serve.index import scoring_ready_users

        _, snapshot = tiny_mf_snapshot
        index = build_ann_index(snapshot, tmp_path, kind=kind, nlist=4,
                                default_nprobe=2, seed=0, pq_m=4)
        users = np.array([5, 0, 17, 5, 42, 3], dtype=np.int64)
        k = 5
        # Candidate widths from the generator API the router consumes.
        indptr, _ = index.data.candidates_csr(
            scoring_ready_users(np.asarray(snapshot.users)[users],
                                snapshot.scoring),
            np.diff(snapshot.seen_indptr)[users], k, index.nprobe, True,
            snapshot.scoring)
        queries = fresh_registry.counter("ann.ivf.queries")
        candidates = fresh_registry.counter("ann.ivf.candidates")
        before = queries.value, candidates.value
        index.topk(users, k=k)
        assert queries.value - before[0] == len(users)
        assert candidates.value - before[1] == int(np.diff(indptr).sum())
        recorded = {span.name for root in traced.traces()
                    for span, _ in root.walk()}
        assert {"ann.ivf.plan", "ann.ivf.score"} <= recorded
