"""Registry-backed stats views.

The serving stack predates the metrics registry; its public telemetry
objects (``ServiceStats``, ``RouterStats``, ``RuntimeStats``) started
as plain mutable dataclasses read and written attribute-style.
:class:`RegistryBackedStats` re-homes those fields as *views over
registry counters*: each declared field becomes a property whose
getter reads the instrument and whose setter writes it, so attribute
reads in tests and derived properties keep working while every count
is simultaneously visible to the exporters.

Increments go through :meth:`RegistryBackedStats.inc`, never ``+=``:
``stats.x += n`` is a read and a separate write, so two threads bumping
the same field lose updates, while ``inc`` adds under the counter's
lock.  The setter stays for reset-style writes.

Each view instance labels its instruments with a process-unique
``instance`` index so two services in one process never share a time
series.
"""

from __future__ import annotations

from repro.obs.metrics import get_registry

__all__ = ["RegistryBackedStats"]


def _field_property(field: str) -> property:
    def _get(self):
        return self._instruments[field].value

    def _set(self, value):
        self._instruments[field]._set(value)

    return property(_get, _set)


class RegistryBackedStats:
    """Subclass with ``_PREFIX`` and ``_COUNTERS = {field: help}``.

    Construction fetches one counter per field from the *current*
    global registry (``<prefix>.<field>``, labeled with a fresh
    ``instance`` index) and accepts keyword initial values for
    dataclass-constructor compatibility.
    """

    _PREFIX = ""
    _COUNTERS: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        for field in cls._COUNTERS:
            setattr(cls, field, _field_property(field))

    def __init__(self, **initial):
        registry = get_registry()
        labels = {"instance": registry.next_instance(self._PREFIX)}
        #: instance labels of this view's instruments — owners reuse
        #: these for their *other* instruments (latency histograms,
        #: gauges) so one service is one instance across every family.
        self.obs_labels = labels
        self._instruments = {
            field: registry.counter(f"{self._PREFIX}.{field}", help_text,
                                    labels=labels)
            for field, help_text in self._COUNTERS.items()}
        for field, value in initial.items():
            if field not in self._COUNTERS:
                raise TypeError(
                    f"{type(self).__name__} has no field {field!r}")
            if value:
                self._instruments[field]._set(value)

    def inc(self, field: str, amount=1) -> None:
        """Add ``amount`` to ``field`` atomically (one locked add)."""
        self._instruments[field].inc(amount)

    def __repr__(self) -> str:
        body = ", ".join(f"{field}={getattr(self, field)!r}"
                         for field in self._COUNTERS)
        return f"{type(self).__name__}({body})"
