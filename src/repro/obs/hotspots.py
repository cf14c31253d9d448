"""Per-region hot-spot profiler behind ``repro-cms top``.

Attributes retired guest instructions, executed host molecules,
dispatches, faults, and (re)translations to translated regions (keyed
by entry EIP).  A dispatch — its count and the guest instructions it
retired, measured around the translation execution — is credited to
the region the dispatcher entered, even when the work chained on into
successors.  Molecules are credited to the region that executed them:
each translation the dispatch entered earns the growth of its own
``executions_molecules``, which both execution engines advance.  So the
data is exact for translated code; instructions retired in the
interpreter are tracked as a single untranslated pool (the interpreter
has no region notion — its per-anchor profile already lives in
``ExecutionProfile``).

Everything here is counter-based and deterministic; ranking two runs
of the same workload produces the same table.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Valid ``repro-cms top --sort`` keys, mapping to attributes below.
SORT_KEYS = ("instructions", "molecules", "dispatches", "faults", "entries")


@dataclass
class RegionProfile:
    """Accumulated hot-spot data for one translated region."""

    entry_eip: int
    instructions: int = 0  # guest instructions retired by its dispatches
    molecules: int = 0  # host molecules executed in the region itself
    dispatches: int = 0  # dispatcher entries into the region
    faults: int = 0  # host faults attributed to the region
    translations: int = 0  # times (re)translated
    rollbacks: int = 0

    @property
    def entries(self) -> int:
        return self.dispatches


class HotSpotProfiler:
    """Region-granular execution accounting."""

    def __init__(self) -> None:
        self._regions: dict[int, RegionProfile] = {}
        self.interp_instructions = 0  # untranslated pool
        # translation id -> executions_molecules already credited
        self._credited: dict[int, int] = {}

    def _region(self, entry_eip: int) -> RegionProfile:
        region = self._regions.get(entry_eip)
        if region is None:
            region = self._regions[entry_eip] = RegionProfile(entry_eip)
        return region

    # -- feed (called by the dispatcher when observability is on) ----------

    def note_dispatch(self, entry_eip: int, instructions: int) -> None:
        region = self._region(entry_eip)
        region.dispatches += 1
        region.instructions += instructions

    def note_executed(self, translations) -> None:
        """Credit each translation's region the molecules it executed
        since it was last credited."""
        credited = self._credited
        for translation in dict.fromkeys(translations):
            done = translation.executions_molecules
            region = self._region(translation.entry_eip)
            region.molecules += done - credited.get(translation.id, 0)
            credited[translation.id] = done

    def note_fault(self, entry_eip: int) -> None:
        self._region(entry_eip).faults += 1

    def note_rollback(self, entry_eip: int) -> None:
        self._region(entry_eip).rollbacks += 1

    def note_translation(self, entry_eip: int) -> None:
        self._region(entry_eip).translations += 1

    def note_interp(self, instructions: int = 1) -> None:
        self.interp_instructions += instructions

    # -- reporting ---------------------------------------------------------

    def top(
        self, count: int = 10, sort: str = "instructions"
    ) -> list[RegionProfile]:
        if sort not in SORT_KEYS:
            raise ValueError(
                f"sort key {sort!r} not one of {', '.join(SORT_KEYS)}"
            )
        ranked = sorted(
            self._regions.values(),
            key=lambda r: (-getattr(r, sort), r.entry_eip),
        )
        return ranked[:count]

    def snapshot(self, count: int = 20) -> dict:
        return {
            "interp_instructions": self.interp_instructions,
            "regions": [
                {
                    "entry_eip": region.entry_eip,
                    "instructions": region.instructions,
                    "molecules": region.molecules,
                    "dispatches": region.dispatches,
                    "faults": region.faults,
                    "translations": region.translations,
                    "rollbacks": region.rollbacks,
                }
                for region in self.top(count)
            ],
        }
