"""Differential scenario runner: oracle vs CMS, with pass/perf records.

Each scenario runs twice from identical machines (same seeded disk
image, same assembled program): once under the interpreter-only oracle
and once under the full CMS.  The CMS side is driven through
``run_slice`` so a RuntimeAuditor sweep and ``HealthReport`` check run
between slices — the soak scenario's whole reason to exist — and the
final architectural states are compared with the fuzz oracle's masked
rules (stack scratch arenas zeroed; ``interrupts_delivered`` ignored
for scenarios that legitimately leave delivery counts unpinned).

The per-scenario record separates *gateable* facts from *advisory*
ones: ``counters`` and ``dispatch`` are pure functions of the guest
program and the CMS policies, so CI compares them exactly against the
committed baseline; ``timing`` (wall seconds, speedup) varies with the
host and is advisory only.  ``record_fingerprint`` drops the timing
section, so two runs of the same scenario at the same seed must be
byte-identical — the determinism contract the tests pin.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import replace

from repro.cms.config import CMSConfig
from repro.cms.system import CodeMorphingSystem
from repro.fuzz.oracle import RunOutcome, capture_outcome, compare
from repro.machine import Machine
from repro.scenarios.base import Scenario, ScenarioProgram
from repro.scenarios.matrix import SCENARIOS, get

DISK_SEED_SALT = 0x51CC
SLICE_INSTRUCTIONS = 5_000  # guest instructions between health sweeps

# Stats keys containing any of these are host-timing-dependent; they
# stay out of the gateable counters section.
TIMING_MARKERS = ("seconds", "ips", "speedup", "slowdown")

# Counters that depend on process history rather than the guest
# program: the template JIT's compiled-code cache is module-global, so
# its hit count differs between a cold and a warm process.
PROCESS_DEPENDENT = ("jit_code_cache_hits",)


def seed_disk(machine: Machine, prog: ScenarioProgram, seed: int) -> None:
    """Give ``machine`` the disk image ``prog`` gets at ``seed``."""
    if prog.disk_sectors:
        rng = random.Random(seed ^ DISK_SEED_SALT)
        machine.disk.set_image(bytes(rng.randrange(256) for _
                                     in range(prog.disk_sectors * 512)))


def _build_machine(prog: ScenarioProgram, seed: int) -> tuple[Machine, int]:
    machine = Machine()
    seed_disk(machine, prog, seed)
    entry = machine.load_source(prog.source)
    return machine, entry


def _outcome(system: CodeMorphingSystem, prog: ScenarioProgram,
             result) -> RunOutcome:
    """``capture_outcome`` with the scenario's masks; ``result`` is the
    run's ``RunResult`` and carries nothing the system does not."""
    return capture_outcome(system, prog.ram_masks)


def _mmu_record(machine: Machine) -> dict:
    """Gateable MMU/TLB facts from the CMS leg.

    ``translations``/``faults`` are architectural (walks the guest OS
    paid for); ``probes``/``probe_walks`` are CMS-internal mapping
    checks, and their difference — ``probe_walks_saved`` — is how many
    probe walks the software TLB absorbed.  All of these are pure
    functions of the guest program and the CMS policies, so they live
    inside the fingerprint.
    """
    mmu = machine.mmu
    return {
        "translations": mmu.translations,
        "faults": mmu.faults,
        "walks": mmu.walks,
        "tlb_hits": mmu.tlb_hits,
        "tlb_invalidations": mmu.tlb_invalidations,
        "probes": mmu.probes,
        "probe_walks": mmu.probe_walks,
        "probe_walks_saved": mmu.probes - mmu.probe_walks,
        "mapping_epoch": mmu.mapping_epoch,
    }


def _counters(stats_dict: dict) -> dict:
    return {key: value for key, value in sorted(stats_dict.items())
            if isinstance(value, (int, float))
            and key not in PROCESS_DEPENDENT
            and not any(marker in key for marker in TIMING_MARKERS)}


def run_scenario(scenario: Scenario, budget: int, seed: int,
                 config: CMSConfig | None = None,
                 chaos_rate: float = 0.0, chaos_seed: int = 0) -> dict:
    """Run one scenario differentially; return its pass/perf record."""
    base = config if config is not None else CMSConfig()
    prog = scenario.build(budget, seed)

    # Reference leg: the interpreter-only oracle.
    machine, entry = _build_machine(prog, seed)
    oracle = CodeMorphingSystem(machine, base.interpreter_only())
    started = time.perf_counter()
    ref_result = oracle.run(entry, max_instructions=prog.max_instructions)
    interp_seconds = time.perf_counter() - started
    ref = _outcome(oracle, prog, ref_result)

    # CMS leg: slice-driven, with a runtime-audit sweep and health
    # check between slices.
    cms_config = replace(base, obs_enabled=True,
                         chaos_rate=chaos_rate, chaos_seed=chaos_seed)
    machine, entry = _build_machine(prog, seed)
    system = CodeMorphingSystem(machine, cms_config)
    system.state.eip = entry
    started = time.perf_counter()
    sweeps = 0
    alive = True
    while alive and machine.instructions_retired < prog.max_instructions:
        alive = system.run_slice(SLICE_INSTRUCTIONS)
        if alive:
            system.health_report(run_audit=True)
            sweeps += 1
    cms_result = system.finalize_run()
    cms_seconds = time.perf_counter() - started
    cms = _outcome(system, prog, cms_result)
    health = system.health_report(run_audit=True)

    diffs = compare(ref, cms)
    if not scenario.pin_interrupts:
        diffs = [d for d in diffs
                 if not d.startswith("interrupts_delivered:")]

    return {
        "title": scenario.title,
        "pass": not diffs,
        "diffs": diffs,
        "pin_interrupts": scenario.pin_interrupts,
        "sweeps": sweeps,
        "health": {
            "healthy": health.healthy,
            "contained_errors": health.contained_errors,
            "quarantines": health.quarantines,
            "audit_runs": health.audit_runs,
            "audit_repairs": health.audit_repairs,
            "chaos_injected": health.chaos_injected,
        },
        "counters": _counters(system.stats.as_dict(cms_config.cost)),
        "mmu": _mmu_record(machine),
        "dispatch": system.obs.dispatch_summary(),
        "timing": {
            "interp_seconds": round(interp_seconds, 4),
            "cms_seconds": round(cms_seconds, 4),
            "speedup": round(interp_seconds / cms_seconds, 4)
            if cms_seconds else 0.0,
        },
    }


def run_matrix(budget: int, seed: int, names=None,
               config: CMSConfig | None = None,
               chaos_rate: float = 0.0, chaos_seed: int = 0) -> dict:
    """Run the (selected) matrix; return the BENCH_scenarios report."""
    chosen = [get(name) for name in names] if names else list(SCENARIOS)
    report = {
        "benchmark": "scenarios",
        "budget": budget,
        "seed": seed,
        "scenarios": {},
    }
    for scenario in chosen:
        report["scenarios"][scenario.name] = run_scenario(
            scenario, budget, seed, config=config,
            chaos_rate=chaos_rate, chaos_seed=chaos_seed)
    return report


def all_passed(report: dict) -> bool:
    return all(record["pass"] for record in report["scenarios"].values())


def record_fingerprint(record: dict) -> str:
    """Canonical JSON of a record minus its host-timing section."""
    trimmed = {key: value for key, value in record.items()
               if key != "timing"}
    return json.dumps(trimmed, sort_keys=True)
