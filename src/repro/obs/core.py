"""The per-system observability facade.

One :class:`Observability` instance bundles the four pillars —
metrics registry, phase profiler, hot-spot profiler, telemetry sink —
behind the handful of calls the dispatcher makes.  Phase timing is
installed from outside (:meth:`Observability.install`).  The system
holds ``None`` instead when ``CMSConfig.obs_enabled`` is off, so the
disabled cost is one attribute test at each hot-spot note.
"""

from __future__ import annotations

from repro.obs.hotspots import HotSpotProfiler
from repro.obs.metrics import MetricsRegistry
from repro.obs.phases import PhaseProfiler
from repro.obs.telemetry import TelemetrySink

# (owner attribute of the system, "" for itself; method names; phase).
# A call made inside another timed call nests under it, so
# ``jit-compile`` and the inline ``smc-service`` sit under ``execute``.
_TIMED = (
    ("", ("_interp_step",), "interpret"),
    ("", ("_maybe_translate", "_retranslate"), "translate"),
    ("", ("_handle_fault",), "fault-service"),
    ("jit", ("run",), "execute"),
    ("jit", ("ensure_compiled",), "jit-compile"),
    ("cpu", ("rollback",), "rollback"),
    ("cpu", ("protection_service",), "smc-service"),
    ("smc", ("on_protection_fault",), "smc-service"),
    ("auditor", ("audit",), "audit"),
)


class Observability:
    """Metrics + phases + hot-spots + telemetry for one CMS instance."""

    def __init__(self, config) -> None:
        self.registry = MetricsRegistry()
        self.phases = PhaseProfiler()
        self.hotspots = HotSpotProfiler()
        self.telemetry = (
            TelemetrySink(config.obs_jsonl_path)
            if config.obs_jsonl_path
            else None
        )
        self._dispatch_instr = self.registry.histogram(
            "dispatch.guest_instructions"
        )
        self._dispatch_mols = self.registry.histogram("dispatch.molecules")
        self._region_sizes = self.registry.histogram(
            "translation.guest_instructions"
        )

    def event_sinks(self) -> list:
        """The bus sinks this facade contributes: the telemetry sink,
        which streams every event.  The registry counts none; its
        ``stats.*`` counters come from ``finalize``."""
        return [self.telemetry] if self.telemetry is not None else []

    def install(self, system) -> None:
        """Replace each method ``_TIMED`` names, on its owning instance,
        with a timed wrapper; callers reach it through that instance."""
        for attr, names, phase in _TIMED:
            owner = getattr(system, attr) if attr else system
            for name in names:
                setattr(owner, name, self._timed(phase, getattr(owner, name)))

    def _timed(self, phase: str, fn):
        """``fn`` with every call timed under ``phase``."""
        phases = self.phases

        def timed(*args, **kwargs):
            with phases.phase(phase):
                return fn(*args, **kwargs)

        return timed

    # -- dispatcher feed ---------------------------------------------------

    def note_dispatch(
        self, entry_eip: int, instructions: int, molecules: int, entered
    ) -> None:
        """One dispatch entered at ``entry_eip``; ``entered`` lists the
        translations it ran, each credited its own molecules."""
        self.hotspots.note_dispatch(entry_eip, instructions)
        self.hotspots.note_executed(entered)
        self._dispatch_instr.observe(instructions)
        self._dispatch_mols.observe(molecules)

    def note_fault(self, entry_eip: int) -> None:
        self.hotspots.note_fault(entry_eip)

    def note_rollback(self, entry_eip: int) -> None:
        self.hotspots.note_rollback(entry_eip)

    def note_translation(
        self, entry_eip: int, guest_instructions: int
    ) -> None:
        self.hotspots.note_translation(entry_eip)
        self._region_sizes.observe(guest_instructions)

    def note_interp(self, instructions: int = 1) -> None:
        self.hotspots.note_interp(instructions)

    def dispatch_summary(self) -> dict:
        """Deterministic dispatch-size quantiles for per-run records.

        Interpolated from the fixed power-of-two histogram buckets, so
        the values depend only on the observation multiset — safe to
        gate exactly in CI (see the scenario matrix).
        """
        return {
            "count": self._dispatch_instr.count,
            "p50_instructions": round(self._dispatch_instr.quantile(0.5), 6),
            "p99_instructions": round(self._dispatch_instr.quantile(0.99), 6),
            "p50_molecules": round(self._dispatch_mols.quantile(0.5), 6),
            "p99_molecules": round(self._dispatch_mols.quantile(0.99), 6),
        }

    # -- finalization ------------------------------------------------------

    def finalize(self, stats_dict: dict, run_info: dict | None = None) -> None:
        """Fold the ``CMSStats`` run totals into the registry as
        ``stats.*`` counters and emit the summary record."""
        self.registry.set_counters(stats_dict, prefix="stats.")
        if self.telemetry is None:
            return
        self.telemetry.emit(
            "run-summary",
            {
                "run": run_info or {},
                "metrics": self.registry.snapshot(),
                "phases": self.phases.snapshot(),
                "hotspots": self.hotspots.snapshot(),
            },
        )
        self.telemetry.flush()
