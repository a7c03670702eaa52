"""Unified observability layer: metrics registry + request tracing.

Zero-dependency (stdlib-only) telemetry substrate shared by the serving
and training stacks:

* :mod:`repro.obs.metrics` — thread-safe ``Counter``/``Gauge``/
  ``Histogram`` instruments behind a process-global but swappable
  :class:`MetricsRegistry`.  Histograms use fixed log-spaced bucket
  boundaries so quantile estimates are deterministic and mergeable
  across shards and workers.
* :mod:`repro.obs.trace` — request-scoped ``Span`` trees on the
  monotonic clock, opt-in via :func:`tracing`, JSON-serializable.
* :mod:`repro.obs.export` — Prometheus v0.0.4 text exposition
  (:mod:`repro.obs.export.prom`) and JSON snapshots
  (:mod:`repro.obs.export.json`).

Instrument names follow ``<layer>.<component>.<metric>`` (for example
``serve.service.cache_hits``); span names follow
``<layer>.<component>.<phase>`` — see ``docs/observability.md``.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Reservoir,
    get_registry,
    set_registry,
    use_registry,
)
from repro.obs.trace import (
    Span,
    Tracer,
    format_span_tree,
    get_tracer,
    tracing,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Reservoir",
    "get_registry",
    "set_registry",
    "use_registry",
    "Span",
    "Tracer",
    "format_span_tree",
    "get_tracer",
    "tracing",
]
