"""One counter source: each event's run total is its ``CMSStats`` counter.

Every counted runtime event is counted once, by the counter bumped at
the site that publishes the event on the observation bus.  A tally sink
on ``system.bus`` counts the events of a whole run, and each counter
must equal the tally of its events: a site that counts without
publishing, publishes without counting, or counts twice fails here.

``quarantines`` and ``storm_demotions`` are left out on purpose: a
storm demotion straight into quarantine counts a demotion but records
``QUARANTINE``, and re-quarantining a quarantined region records the
event without counting a new quarantine.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro import CMSConfig
from repro.cms.system import CodeMorphingSystem
from repro.cms.trace import Event
from repro.scenarios.matrix import get
from repro.scenarios.runner import SLICE_INSTRUCTIONS, _build_machine
from repro.workloads import get_workload

BUDGET = 60_000
SEED = 0

# (CMSStats counter, the event kinds it counts)
AGREEMENT = (
    ("group_reactivations", (Event.GROUP_REACTIVATE,)),
    ("smc_invalidations", (Event.SMC_INVALIDATE,)),
    ("translations_made", (Event.TRANSLATE, Event.RETRANSLATE)),
    ("retranslations", (Event.RETRANSLATE,)),
    ("chain_patches", (Event.CHAIN,)),
    ("revalidations_armed", (Event.REVALIDATE_ARM,)),
    ("revalidations_passed", (Event.REVALIDATE_PASS,)),
    ("genuine_guest_faults", (Event.GENUINE_FAULT,)),
    ("speculative_guest_faults", (Event.SPECULATIVE_FAULT,)),
    ("contained_errors", (Event.CONTAINED_ERROR,)),
    ("audit_repairs", (Event.AUDIT_REPAIR,)),
)


class _Tally:
    """Bus sink counting events by kind."""

    def __init__(self) -> None:
        self.counts: Counter = Counter()

    def record(self, event, eip=None, detail: str = "") -> None:
        self.counts[event] += 1


def _tallied(system: CodeMorphingSystem) -> Counter:
    tally = _Tally()
    system.bus.add_sink(tally)
    return tally.counts


def _assert_agreement(stats, counts: Counter) -> None:
    for counter, events in AGREEMENT:
        tallied = sum(counts[event] for event in events)
        assert getattr(stats, counter) == tallied, counter
    assert sum(stats.faults.values()) == counts[Event.FAULT]


def _audit_after_a_missed_invalidation(system: CodeMorphingSystem) -> None:
    """Leave one resident translation invalid, as a missed invalidation
    would, so the closing audit makes at least one repair."""
    resident = system.tcache.translations()
    assert resident
    resident[0].valid = False
    system.health_report(run_audit=True)
    assert system.stats.audit_repairs >= 1


@pytest.mark.parametrize("name, chaos_rate", [
    ("guest-jit", 0.0),
    ("soak", 0.0),
    ("task-switch", 0.0),
    ("paging", 0.0),
    ("guest-jit", 0.02),
])
def test_scenario_events_match_their_counters(name, chaos_rate):
    prog = get(name).build(BUDGET, SEED)
    machine, entry = _build_machine(prog, SEED)
    config = CMSConfig(chaos_rate=chaos_rate, chaos_seed=3)
    system = CodeMorphingSystem(machine, config)
    counts = _tallied(system)
    system.state.eip = entry
    # Slice-driven with an audit between slices, as the scenario runner.
    while machine.instructions_retired < prog.max_instructions:
        if not system.run_slice(SLICE_INSTRUCTIONS):
            break
        system.health_report(run_audit=True)
    system.finalize_run()
    _audit_after_a_missed_invalidation(system)
    stats = system.stats
    assert stats.translations_made > 0 and stats.smc_invalidations > 0
    if chaos_rate:
        assert stats.contained_errors > 0
    _assert_agreement(stats, counts)


def test_blt_driver_self_check_reactivations_are_counted_once():
    """The BLT driver rotates one routine's versions under self-checking
    translations, so versions come back through both admit sites: the
    dispatcher's pre-translation group probe and the self-check
    failure path."""
    workload = get_workload("blt_driver")
    machine, entry = workload.build_machine()
    system = CodeMorphingSystem(machine, CMSConfig())
    counts = _tallied(system)
    on_self_check_fail = system.smc.on_self_check_fail
    from_self_check = []

    def spy(translation):
        replacement = on_self_check_fail(translation)
        from_self_check.append(replacement is not None)
        return replacement

    system.smc.on_self_check_fail = spy
    result = system.run(entry, max_instructions=workload.max_instructions)
    assert result.halted
    assert any(from_self_check)
    assert system.stats.group_reactivations > sum(from_self_check)
    _assert_agreement(system.stats, counts)
