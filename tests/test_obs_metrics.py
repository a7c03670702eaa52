"""Metrics core: instruments, registry semantics, exporters, reservoir.

Pins the contracts ``docs/observability.md`` documents:

* exact counts under concurrency (instruments are lock-protected);
* deterministic histogram quantiles — a pure function of the bucket
  counts, invariant under observation order and merge association;
* get-or-create instruments keyed by name and labels, kind-checked;
* well-formed Prometheus v0.0.4 / JSON expositions.
"""

import json
import math
import threading

import pytest

from repro.obs.export import json as json_export
from repro.obs.export import prom
from repro.obs.metrics import (DEFAULT_BOUNDARIES, Counter, Gauge, Histogram,
                               MetricsRegistry, Reservoir, get_registry,
                               set_registry, use_registry)


class TestCounter:
    def test_inc_defaults_to_one(self):
        c = Counter("t.c")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_rejects_negative(self):
        c = Counter("t.c")
        with pytest.raises(ValueError, match="only go up"):
            c.inc(-1)

    def test_threaded_sums_are_exact(self):
        """≥4 writer threads, exact total — no lost updates."""
        c = Counter("t.c")
        per_thread, n_threads = 10_000, 6

        def work():
            for _ in range(per_thread):
                c.inc()

        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == per_thread * n_threads


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge("t.g")
        g.set(10)
        g.inc(5)
        g.dec(3)
        assert g.value == 12


class TestHistogram:
    def test_count_sum_and_buckets(self):
        h = Histogram("t.h")
        for v in (0.5, 1.0, 2.0, 1e-9, 1e9):
            h.observe(v)
        assert h.count == 5
        assert h.sum == pytest.approx(0.5 + 1.0 + 2.0 + 1e-9 + 1e9)
        # underflow lands in bucket 0, overflow in the extra last bucket
        counts = h.bucket_counts()
        assert len(counts) == len(DEFAULT_BOUNDARIES) + 1
        assert counts[-1] == 1  # the 1e9 observation
        assert sum(counts) == 5

    def test_threaded_observations_are_exact(self):
        h = Histogram("t.h")
        per_thread, n_threads = 5_000, 4

        def work():
            for i in range(per_thread):
                h.observe(1.0 + (i % 7))

        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert h.count == per_thread * n_threads
        assert sum(h.bucket_counts()) == per_thread * n_threads

    def test_quantile_is_deterministic_under_order(self):
        """Quantiles depend only on the counts: shuffled observation
        order yields bit-identical estimates."""
        values = [0.1 * (i % 50) + 0.01 for i in range(1000)]
        a, b = Histogram("t.a"), Histogram("t.b")
        for v in values:
            a.observe(v)
        for v in reversed(values):
            b.observe(v)
        for q in (0.0, 0.1, 0.5, 0.9, 0.99, 1.0):
            assert a.quantile(q) == b.quantile(q)

    def test_quantile_is_upper_bucket_edge(self):
        h = Histogram("t.h")
        h.observe(3.0)
        edge = h.quantile(0.5)
        # the reported edge is the smallest boundary >= the observation
        assert edge >= 3.0
        assert edge == min(b for b in DEFAULT_BOUNDARIES if b >= 3.0)

    def test_quantile_finite_on_overflow(self):
        h = Histogram("t.h")
        h.observe(1e12)  # beyond the last boundary
        assert math.isfinite(h.quantile(0.99))
        assert h.quantile(0.99) == DEFAULT_BOUNDARIES[-1]

    def test_quantile_empty_and_bad_q(self):
        h = Histogram("t.h")
        assert h.quantile(0.5) == 0.0
        with pytest.raises(ValueError, match="quantile"):
            h.quantile(1.5)

    def test_merge_is_associative_and_lossless(self):
        streams = ([0.01 * i for i in range(100)],
                   [0.5 + 0.03 * i for i in range(80)],
                   [10.0 + i for i in range(60)])
        parts = []
        union = Histogram("t.u")
        for stream in streams:
            h = Histogram("t.p")
            for v in stream:
                h.observe(v)
                union.observe(v)
            parts.append(h)
        a, b, c = parts
        left = a.merge(b).merge(c)
        right = a.merge(b.merge(c))
        assert left.bucket_counts() == right.bucket_counts()
        # merged quantiles equal those of one histogram fed everything
        for q in (0.1, 0.5, 0.9, 0.99):
            assert left.quantile(q) == union.quantile(q)
            assert right.quantile(q) == union.quantile(q)
        assert left.count == union.count
        assert left.sum == pytest.approx(union.sum)

    def test_merge_rejects_mismatched_boundaries(self):
        a = Histogram("t.a", boundaries=(1.0, 2.0))
        b = Histogram("t.b", boundaries=(1.0, 3.0))
        with pytest.raises(ValueError, match="boundaries"):
            a.merge(b)

    def test_rejects_bad_boundaries(self):
        with pytest.raises(ValueError, match="increasing"):
            Histogram("t.h", boundaries=(1.0, 1.0))
        with pytest.raises(ValueError, match="finite"):
            Histogram("t.h", boundaries=(1.0, float("inf")))

    def test_snapshot_lists_nonempty_buckets_only(self):
        h = Histogram("t.h")
        h.observe(1.0)
        h.observe(1e12)
        snap = h.snapshot()
        assert snap["count"] == 2
        assert len(snap["buckets"]) == 2
        assert snap["buckets"][-1]["le"] == "+Inf"


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        a = reg.counter("x.y", "help")
        b = reg.counter("x.y")
        assert a is b

    def test_labels_split_time_series(self):
        reg = MetricsRegistry()
        a = reg.counter("x.y", labels={"instance": "0"})
        b = reg.counter("x.y", labels={"instance": "1"})
        assert a is not b

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x.y")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("x.y")

    def test_bad_names_rejected(self):
        reg = MetricsRegistry()
        for bad in ("", "Upper.case", "1leading.digit", "trailing.dot.",
                    "spa ce"):
            with pytest.raises(ValueError, match="bad instrument name"):
                reg.counter(bad)

    def test_next_instance_increments_per_prefix(self):
        reg = MetricsRegistry()
        assert reg.next_instance("a") == "0"
        assert reg.next_instance("a") == "1"
        assert reg.next_instance("b") == "0"

    def test_collect_sorted(self):
        reg = MetricsRegistry()
        reg.counter("z.last")
        reg.counter("a.first")
        assert [i.name for i in reg.collect()] == ["a.first", "z.last"]


class TestGlobalRegistry:
    def test_use_registry_scopes_and_restores(self):
        before = get_registry()
        fresh = MetricsRegistry()
        with use_registry(fresh) as active:
            assert active is fresh
            assert get_registry() is fresh
        assert get_registry() is before

    def test_set_registry_none_restores_default(self):
        default = get_registry()
        previous = set_registry(MetricsRegistry())
        try:
            assert get_registry() is not default
            set_registry(None)
            assert get_registry() is default
        finally:
            set_registry(previous)


class TestReservoir:
    def test_deterministic_for_same_seed(self):
        a, b = Reservoir(capacity=32, seed=7), Reservoir(capacity=32, seed=7)
        for i in range(1000):
            a.add(float(i))
            b.add(float(i))
        assert a.values() == b.values()
        assert a.seen == b.seen == 1000

    def test_bounded_and_uniformish(self):
        r = Reservoir(capacity=64, seed=0)
        for i in range(10_000):
            r.add(float(i))
        assert len(r) == 64
        assert r.seen == 10_000
        # retained values come from the whole stream, not just the head
        assert max(r.values()) > 5000

    def test_keeps_everything_under_capacity(self):
        r = Reservoir(capacity=100, seed=0)
        for i in range(50):
            r.add(i)
        assert sorted(r.values()) == list(range(50))

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            Reservoir(capacity=0)


@pytest.fixture()
def populated_registry():
    reg = MetricsRegistry()
    reg.counter("serve.test.requests", "requests served").inc(41)
    reg.counter("serve.test.requests", "requests served",
                labels={"instance": "1"}).inc(1)
    reg.gauge("ann.test.staleness", "index staleness").set(0.25)
    h = reg.histogram("serve.test.latency_ms", "request latency")
    for v in (0.5, 1.0, 2.0, 1e9):
        h.observe(v)
    return reg


class TestPromExporter:
    def test_render_validates_clean(self, populated_registry):
        text = prom.render(populated_registry)
        assert prom.validate_exposition(text) == []

    def test_families_and_suffixes(self, populated_registry):
        text = prom.render(populated_registry)
        assert "# TYPE serve_test_requests_total counter" in text
        assert 'serve_test_requests_total 41' in text
        assert 'serve_test_requests_total{instance="1"} 1' in text
        assert "# TYPE ann_test_staleness gauge" in text
        assert "# TYPE serve_test_latency_ms histogram" in text
        assert 'serve_test_latency_ms_bucket{le="+Inf"} 4' in text
        assert "serve_test_latency_ms_count 4" in text

    def test_buckets_are_cumulative(self, populated_registry):
        text = prom.render(populated_registry)
        counts = []
        for line in text.splitlines():
            if line.startswith("serve_test_latency_ms_bucket"):
                counts.append(float(line.rsplit(" ", 1)[1]))
        assert counts == sorted(counts)
        assert counts[-1] == 4  # +Inf sees every observation

    def test_help_lines_unique_per_family(self, populated_registry):
        text = prom.render(populated_registry)
        helps = [line for line in text.splitlines()
                 if line.startswith("# HELP serve_test_requests_total")]
        assert len(helps) == 1  # two label sets, one family header

    def test_validator_flags_malformed_exposition(self):
        bad = ("# TYPE my_metric counter\n"
               "# TYPE my_metric gauge\n"
               "undeclared_sample 1\n"
               "not a sample line at all\n")
        problems = prom.validate_exposition(bad)
        assert problems  # duplicate TYPE + undeclared/malformed samples


class TestJsonExporter:
    def test_schema_and_roundtrip(self, populated_registry):
        payload = json.loads(json_export.render(populated_registry))
        assert payload["schema"] == json_export.SCHEMA
        names = {m["name"] for m in payload["metrics"]}
        assert {"serve.test.requests", "ann.test.staleness",
                "serve.test.latency_ms"} <= names
        hist = next(m for m in payload["metrics"]
                    if m["name"] == "serve.test.latency_ms")
        assert hist["count"] == 4
        assert hist["buckets"][-1]["le"] == "+Inf"
