"""Observability: metrics, phase timing, hot-spots, JSONL telemetry.

See DESIGN notes in each module.  The split is deliberate:

* :mod:`repro.obs.metrics` — deterministic counters/gauges/histograms;
* :mod:`repro.obs.phases` — the only wall-clock consumer;
* :mod:`repro.obs.hotspots` — per-region attribution for ``top``;
* :mod:`repro.obs.telemetry` — schema-versioned JSONL with rotation;
* :mod:`repro.obs.bus` — the fan-out the EventTrace and telemetry
  share;
* :mod:`repro.obs.core` — the facade the dispatcher drives.
"""

from repro.obs.bus import ObservationBus
from repro.obs.core import Observability
from repro.obs.hotspots import SORT_KEYS, HotSpotProfiler, RegionProfile
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    CounterMetric,
    GaugeMetric,
    HistogramMetric,
    MetricsRegistry,
)
from repro.obs.phases import PhaseProfiler, PhaseStat
from repro.obs.telemetry import SCHEMA_VERSION, TelemetrySink, read_jsonl

__all__ = [
    "ObservationBus",
    "Observability",
    "SORT_KEYS",
    "HotSpotProfiler",
    "RegionProfile",
    "DEFAULT_BUCKETS",
    "CounterMetric",
    "GaugeMetric",
    "HistogramMetric",
    "MetricsRegistry",
    "PhaseProfiler",
    "PhaseStat",
    "SCHEMA_VERSION",
    "TelemetrySink",
    "read_jsonl",
]
