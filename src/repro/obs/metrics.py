"""Thread-safe metrics core: Counter / Gauge / Histogram + registry.

Design constraints (see ``docs/observability.md``):

* **Zero dependencies.** Pure stdlib — the serving hot path must be
  able to import this without pulling in numpy.
* **Deterministic, mergeable histograms.** Every histogram uses a
  *fixed* log-spaced boundary ladder, so a quantile estimate is a pure
  function of the per-bucket counts.  Merging two histograms is just
  adding their count vectors — associative and commutative — which is
  what lets per-shard / per-worker histograms be combined without any
  loss relative to observing into one shared instrument.
* **Swappable global registry.** Call sites fetch instruments from
  :func:`get_registry`; a test or bench lane scopes a fresh registry
  with :func:`use_registry`.  There is no off switch: every instrument
  counts, so every stats view reads what happened.
"""

from __future__ import annotations

import bisect
import contextlib
import math
import random
import re
import threading

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_BOUNDARIES",
    "MetricsRegistry",
    "Reservoir",
    "get_registry",
    "set_registry",
    "use_registry",
]

# ``layer.component.metric`` — lowercase, digits and underscores inside
# segments, dots between them.  The Prometheus exporter maps dots to
# underscores, so this charset round-trips into every exposition format.
_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)*$")

# Fixed ladder: 16 buckets per decade over [1e-6, 1e6] (values in any
# unit — seconds, milliseconds, rows — land somewhere sensible), plus an
# implicit overflow bucket.  Fixed boundaries are what make quantiles
# deterministic and merges associative, so instruments never accept
# custom ladders silently: pass ``boundaries=`` explicitly or get this.
DEFAULT_BOUNDARIES = tuple(10.0 ** (k / 16.0) for k in range(-96, 97))


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(
            f"bad instrument name {name!r}: want dot-separated lowercase "
            "segments like 'serve.service.cache_hits'")
    return name


class Counter:
    """Monotonically increasing count (floats allowed for second-sums)."""

    kind = "counter"
    __slots__ = ("name", "help", "labels", "_lock", "_value")

    def __init__(self, name: str = "", help: str = "",  # noqa: A002
                 labels: tuple = ()):
        self.name = name
        self.help = help
        self.labels = labels
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount=1) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got inc({amount})")
        with self._lock:
            self._value += amount

    @property
    def value(self):
        return self._value

    def _set(self, value) -> None:
        """Backdoor for registry-backed stats views' setters and for
        ``reset()``-style APIs.  Not part of the public counter
        contract — counters only go up through :meth:`inc`."""
        with self._lock:
            self._value = value

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, value={self._value})"


class Gauge:
    """A value that can go up and down (staleness, batch size, ...)."""

    kind = "gauge"
    __slots__ = ("name", "help", "labels", "_lock", "_value")

    def __init__(self, name: str = "", help: str = "",  # noqa: A002
                 labels: tuple = ()):
        self.name = name
        self.help = help
        self.labels = labels
        self._lock = threading.Lock()
        self._value = 0

    def set(self, value) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount=1) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount=1) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self):
        return self._value

    _set = set

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, value={self._value})"


class Histogram:
    """Fixed-boundary histogram with deterministic quantile estimates.

    Bucket ``i`` counts observations ``v`` with
    ``boundaries[i-1] < v <= boundaries[i]`` (bucket 0 additionally
    absorbs everything at or below the first boundary, including zeros
    and negatives); one extra overflow bucket catches values above the
    last boundary.  :meth:`quantile` returns the *upper edge* of the
    bucket holding the target rank — a deterministic, conservative
    estimate that depends only on the counts, so it is stable across
    runs and invariant under merge order.
    """

    kind = "histogram"
    __slots__ = ("name", "help", "labels", "boundaries", "_lock",
                 "_counts", "_count", "_sum")

    def __init__(self, name: str = "", help: str = "",  # noqa: A002
                 labels: tuple = (), boundaries=None):
        if boundaries is None:
            boundaries = DEFAULT_BOUNDARIES
        boundaries = tuple(float(b) for b in boundaries)
        if not boundaries:
            raise ValueError("histogram needs at least one boundary")
        if any(b2 <= b1 for b1, b2 in zip(boundaries, boundaries[1:])):
            raise ValueError("boundaries must be strictly increasing")
        if not all(math.isfinite(b) for b in boundaries):
            raise ValueError("boundaries must be finite")
        self.name = name
        self.help = help
        self.labels = labels
        self.boundaries = boundaries
        self._lock = threading.Lock()
        self._counts = [0] * (len(boundaries) + 1)
        self._count = 0
        self._sum = 0.0

    def observe(self, value) -> None:
        idx = bisect.bisect_left(self.boundaries, value)
        with self._lock:
            self._counts[idx] += 1
            self._count += 1
            self._sum += value

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def bucket_counts(self) -> list:
        """Per-bucket (non-cumulative) counts; last entry is overflow."""
        with self._lock:
            return list(self._counts)

    def quantile(self, q: float) -> float:
        """Upper bucket edge at rank ``ceil(q * count)``; 0.0 if empty.

        Overflow observations report the last boundary — the estimate
        stays finite by construction (``scripts/check_bench.py`` rejects
        non-finite numbers in committed benchmark files).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile wants q in [0, 1], got {q}")
        with self._lock:
            count = self._count
            counts = list(self._counts)
        if count == 0:
            return 0.0
        target = max(1, math.ceil(q * count))
        cum = 0
        for idx, n in enumerate(counts):
            cum += n
            if cum >= target:
                return self.boundaries[min(idx, len(self.boundaries) - 1)]
        return self.boundaries[-1]  # unreachable; counts sum to count

    def quantiles(self, qs=(0.5, 0.9, 0.99)) -> dict:
        return {q: self.quantile(q) for q in qs}

    def merge(self, other: "Histogram") -> "Histogram":
        """Combine two sub-histograms into a new one (counts just add).

        Requires identical boundary ladders; the result's quantiles
        equal those of a single histogram fed both observation streams,
        and the operation is associative — merge order cannot change
        any estimate.
        """
        if self.boundaries != other.boundaries:
            raise ValueError("cannot merge histograms with different "
                             "bucket boundaries")
        merged = Histogram(self.name, self.help, self.labels,
                           boundaries=self.boundaries)
        with self._lock:
            mine = list(self._counts)
            my_count, my_sum = self._count, self._sum
        with other._lock:
            theirs = list(other._counts)
            their_count, their_sum = other._count, other._sum
        merged._counts = [a + b for a, b in zip(mine, theirs)]
        merged._count = my_count + their_count
        merged._sum = my_sum + their_sum
        return merged

    def snapshot(self) -> dict:
        """JSON-friendly state: count, sum, and non-empty buckets only
        (``le`` upper edge -> count; the overflow bucket reports
        ``le`` = ``"+Inf"``)."""
        with self._lock:
            counts = list(self._counts)
            count, total = self._count, self._sum
        buckets = []
        for idx, n in enumerate(counts):
            if n:
                le = (self.boundaries[idx] if idx < len(self.boundaries)
                      else "+Inf")
                buckets.append({"le": le, "count": n})
        return {"count": count, "sum": total, "buckets": buckets}

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, count={self._count})"


class MetricsRegistry:
    """Get-or-create instrument store, keyed on ``(name, labels)``.

    One real instrument per name+labels combination, kind-checked.
    Swap the process-global registry (:func:`get_registry`) with
    :func:`set_registry` or scope a replacement with
    :func:`use_registry`.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._instruments = {}
        self._kinds = {}
        self._helps = {}
        self._instances = {}

    # ------------------------------------------------------------------
    def counter(self, name: str, help: str = "",  # noqa: A002
                labels: dict | None = None) -> Counter:
        return self._get(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "",  # noqa: A002
              labels: dict | None = None) -> Gauge:
        return self._get(Gauge, name, help, labels)

    def histogram(self, name: str, help: str = "",  # noqa: A002
                  labels: dict | None = None,
                  boundaries=None) -> Histogram:
        return self._get(Histogram, name, help, labels,
                         boundaries=boundaries)

    def _get(self, cls, name, help_text, labels, **kwargs):
        _check_name(name)
        label_items = tuple(sorted((labels or {}).items()))
        for key, value in label_items:
            if not isinstance(key, str) or not isinstance(value, str):
                raise TypeError(f"labels must be str -> str, got "
                                f"{key!r}={value!r}")
        with self._lock:
            existing_kind = self._kinds.get(name)
            if existing_kind is not None and existing_kind != cls.kind:
                raise ValueError(
                    f"instrument {name!r} already registered as "
                    f"{existing_kind}, cannot reuse it as {cls.kind}")
            instrument = self._instruments.get((name, label_items))
            if instrument is None:
                instrument = cls(name, help_text, label_items, **kwargs)
                self._instruments[(name, label_items)] = instrument
                self._kinds[name] = cls.kind
                if help_text:
                    self._helps.setdefault(name, help_text)
            return instrument

    # ------------------------------------------------------------------
    def next_instance(self, prefix: str) -> str:
        """Process-unique instance index for ``prefix`` ("0", "1", ...).

        Stats views label their instruments with this so two services in
        one process never write to the same time series.
        """
        with self._lock:
            idx = self._instances.get(prefix, 0)
            self._instances[prefix] = idx + 1
            return str(idx)

    def collect(self) -> list:
        """All instruments, sorted by (name, labels) for stable output."""
        with self._lock:
            items = sorted(self._instruments.items())
        return [instrument for _key, instrument in items]

    def help_for(self, name: str) -> str:
        return self._helps.get(name, "")

    def snapshot(self) -> list:
        """JSON-friendly dump of every instrument."""
        out = []
        for instrument in self.collect():
            entry = {"name": instrument.name, "kind": instrument.kind,
                     "labels": dict(instrument.labels)}
            if instrument.kind == "histogram":
                entry.update(instrument.snapshot())
            else:
                entry["value"] = instrument.value
            out.append(entry)
        return out

    def reset(self) -> None:
        """Drop every instrument (tests and fresh bench lanes)."""
        with self._lock:
            self._instruments.clear()
            self._kinds.clear()
            self._helps.clear()
            self._instances.clear()

    def __repr__(self) -> str:
        return f"MetricsRegistry(instruments={len(self._instruments)})"


_DEFAULT_REGISTRY = MetricsRegistry()
_registry = _DEFAULT_REGISTRY


def get_registry() -> MetricsRegistry:
    """The process-global registry."""
    return _registry


def set_registry(registry: MetricsRegistry | None) -> MetricsRegistry:
    """Swap the global registry; returns the previous one.

    ``set_registry(None)`` restores the built-in default registry.
    """
    global _registry
    previous = _registry
    _registry = _DEFAULT_REGISTRY if registry is None else registry
    return previous


@contextlib.contextmanager
def use_registry(registry: MetricsRegistry | None):
    """Scope a registry swap: ``with use_registry(MetricsRegistry()):``."""
    previous = set_registry(registry)
    try:
        yield get_registry()
    finally:
        set_registry(previous)


class Reservoir:
    """Fixed-size uniform sample of a stream (Vitter's algorithm R).

    Seeded and deterministic: the same value stream through the same
    seed yields the same retained sample.  Memory is bounded by
    ``capacity`` regardless of how many values are offered, which is
    what keeps long serving soaks from growing RSS while still letting
    quantiles summarize the *whole* lifetime, not just a recent window.
    """

    __slots__ = ("capacity", "_rng", "_values", "_seen", "_lock")

    def __init__(self, capacity: int = 2048, seed: int = 0):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._rng = random.Random(seed)
        self._values = []
        self._seen = 0
        self._lock = threading.Lock()

    def add(self, value) -> None:
        with self._lock:
            self._seen += 1
            if len(self._values) < self.capacity:
                self._values.append(value)
            else:
                slot = self._rng.randrange(self._seen)
                if slot < self.capacity:
                    self._values[slot] = value

    def values(self) -> list:
        with self._lock:
            return list(self._values)

    @property
    def seen(self) -> int:
        """Total values offered (not just the retained sample)."""
        return self._seen

    def __len__(self) -> int:
        return len(self._values)

    def __repr__(self) -> str:
        return (f"Reservoir(capacity={self.capacity}, "
                f"kept={len(self._values)}, seen={self._seen})")
