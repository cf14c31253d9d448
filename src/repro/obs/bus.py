"""The observation bus: one fan-out point for runtime events.

The CMS dispatcher (and the subsystems it hands a recorder to — the
SMC manager, the degradation ladder) publish events through the bus
instead of writing into :class:`~repro.cms.trace.EventTrace` directly.
The trace is simply one sink among several: the ring buffer keeps its
debugging role, and the JSONL telemetry sink streams every event from
the same publication.  No sink counts events: each event's run total
is a :class:`~repro.cms.stats.CMSStats` counter, bumped at the site
that publishes it.

The sink protocol is exactly ``EventTrace.record``'s signature —
``record(event, eip=None, detail="")`` — so an ``EventTrace`` *is* a
valid sink with no adapter, and the bus itself can be passed anywhere
a trace recorder is expected.
"""

from __future__ import annotations


class ObservationBus:
    """Duck-typed EventTrace fan-out."""

    def __init__(self) -> None:
        self._sinks = []

    def add_sink(self, sink) -> None:
        """Attach a sink exposing ``record(event, eip, detail)``."""
        self._sinks.append(sink)

    def remove_sink(self, sink) -> None:
        self._sinks.remove(sink)

    def record(self, event, eip=None, detail: str = "") -> None:
        for sink in self._sinks:
            sink.record(event, eip, detail)
