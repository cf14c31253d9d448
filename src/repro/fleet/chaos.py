"""Fleet-level chaos: seeded failure injection with containment proof.

Three fleet-scale failure modes, mirroring the CMS-level
:class:`~repro.cms.degrade.ChaosMonkey` one level up:

* ``kill-tenant`` — an uncontained exception is raised inside one
  tenant's slice at a seeded round; the supervisor must quarantine
  exactly that tenant, restart it from its last good snapshot under
  backoff, and the restarted tenant must reconverge to the same
  architectural outcome a solo run produces.
* ``corrupt-shared-entry`` — bytes of one stored shared-cache payload
  are flipped (checksum left intact); the next import attempt must
  reject the entry, poison its key, and never offer it again.  A
  tenant kill follows so the victim's cold rescan actually attempts
  the import.
* ``storm-one-tenant`` — one tenant runs with an aggressive
  CMS-level chaos rate; its own ladder must absorb the storm while
  sibling tenants stay byte-identical to their solo runs.

``run_fleet_campaign`` drives seeded trials of all three against the
differential reference (the pure interpreter, as in
:mod:`repro.fuzz.oracle`): any tenant whose final architectural state
differs from its solo reference is a *contamination*, and the campaign
fails.  Every fourth trial generates per-tenant injection plans
(``generate(..., tenant=...)``), so asynchronous device events hit
each tenant on independent schedules.
"""

from __future__ import annotations

import random
import tempfile
from dataclasses import dataclass, field, replace

from repro.cms.config import CMSConfig
from repro.fleet.config import FleetConfig, TenantSpec
from repro.fleet.supervisor import FleetSupervisor
from repro.fleet.tenant import Tenant
from repro.fuzz.genprog import FuzzProgram, generate
from repro.fuzz.inject import FaultInjector
from repro.fuzz.oracle import capture_outcome, compare, execute

FLEET_CHAOS_MODES = ("kill-tenant", "corrupt-shared-entry",
                     "storm-one-tenant")

#: Same eager thresholds the fuzz oracle uses: short programs must
#: actually exercise translated (and shared) paths.
_TRIAL_BASE = CMSConfig(translation_threshold=4, fault_threshold=2)

_STORM_RATE = 0.05


class FleetChaosError(RuntimeError):
    """The injected tenant-killing failure."""


@dataclass
class FleetChaosPlan:
    """One trial's seeded failure schedule."""

    mode: str
    victim: int  # tenant id
    trigger_round: int
    corrupt_index: int = 0

    def arm(self, supervisor: FleetSupervisor) -> None:
        """Install the plan via the supervisor's before-slice hook."""
        fired = {"kill": False, "corrupt": False}

        def before_slice(sup: FleetSupervisor, tenant: Tenant,
                         round_clock: int) -> None:
            if self.mode == "corrupt-shared-entry":
                # Corrupt as soon as the store has something to corrupt,
                # then kill the victim on its next slice — the cold
                # rescan after restart must attempt (and reject) the
                # corrupted entry.
                if not fired["corrupt"] and \
                        round_clock >= self.trigger_round and \
                        sup.share is not None and len(sup.share) > 0:
                    sup.share.corrupt_entry(self.corrupt_index)
                    fired["corrupt"] = True
                if fired["corrupt"] and not fired["kill"] and \
                        tenant.spec.tenant_id == self.victim:
                    fired["kill"] = True
                    raise FleetChaosError(
                        f"{self.mode} @round {round_clock}")
            elif self.mode == "kill-tenant" and not fired["kill"] and \
                    tenant.spec.tenant_id == self.victim and \
                    round_clock >= self.trigger_round:
                fired["kill"] = True
                raise FleetChaosError(
                    f"{self.mode} @round {round_clock}")

        supervisor.before_slice = before_slice


@dataclass
class FleetTrialReport:
    """One trial's observed containment behavior."""

    seed: int
    mode: str
    victim: int
    restarts: int
    poisoned: int
    imported: int
    divergences: list[str] = field(default_factory=list)
    uncontained: int = 0

    @property
    def ok(self) -> bool:
        return not self.divergences and self.uncontained == 0


@dataclass
class FleetCampaignResult:
    """Aggregate over a seeded trial sequence."""

    trials: int = 0
    kills: int = 0
    corruptions: int = 0
    storms: int = 0
    restarts: int = 0
    poisoned: int = 0
    imported: int = 0
    injected_trials: int = 0
    contaminations: list[str] = field(default_factory=list)
    uncontained: int = 0

    @property
    def ok(self) -> bool:
        return not self.contaminations and self.uncontained == 0


#: Fuzz programs retire a few hundred guest instructions, so slices
#: must be small for a trial to span enough scheduling rounds that a
#: mid-run kill, corruption, or storm actually interleaves with the
#: victim's execution.
_TRIAL_SLICE = 48


def _trial_fleet_config(snapshot_dir: str) -> FleetConfig:
    return FleetConfig(
        slice_guest_instructions=_TRIAL_SLICE,
        slice_wall_budget=0.0,  # deterministic trials
        snapshot_dir=snapshot_dir,
        snapshot_interval_slices=2,
        share_refresh_rounds=1,
        restart_backoff_rounds=1,
        max_restarts=4,
    )


def run_fleet_trial(seed: int, tenants: int = 3,
                    max_instructions: int = 400_000,
                    inject: bool = False) -> FleetTrialReport:
    """One seeded containment trial; see the module docstring."""
    rng = random.Random(seed)
    mode = FLEET_CHAOS_MODES[rng.randrange(len(FLEET_CHAOS_MODES))]
    victim = rng.randrange(tenants)
    programs: list[FuzzProgram] = []
    specs: list[TenantSpec] = []
    for tenant_id in range(tenants):
        program = generate(seed, inject=inject, tenant=tenant_id)
        config = _TRIAL_BASE
        if mode == "storm-one-tenant" and tenant_id == victim:
            config = replace(config, chaos_rate=_STORM_RATE,
                             chaos_seed=seed)
        programs.append(program)
        specs.append(TenantSpec(
            tenant_id=tenant_id,
            source=program.source,
            name=f"t{tenant_id}",
            max_instructions=max_instructions,
            config=config,
        ))

    # Solo interpreter references (also sizes the trigger round so the
    # injected failure lands *mid-run*, not after the victim halts).
    references = [execute(program, _TRIAL_BASE.interpreter_only(),
                          max_instructions) for program in programs]
    victim_rounds = max(
        1, references[victim].guest_instructions // _TRIAL_SLICE)
    plan = FleetChaosPlan(
        mode=mode,
        victim=victim,
        trigger_round=rng.randint(1, max(1, victim_rounds - 1)),
        corrupt_index=rng.randrange(8),
    )

    with tempfile.TemporaryDirectory(prefix="fleet-trial-") as tmp:
        supervisor = FleetSupervisor(specs, _trial_fleet_config(tmp))
        plan.arm(supervisor)
        for tenant, program in zip(supervisor.tenants, programs):
            if program.plan is not None:
                tenant.machine_hook = (
                    lambda machine, _plan=program.plan:
                    FaultInjector(machine, _plan))
        result = supervisor.run(max_rounds=20_000)

    report = FleetTrialReport(
        seed=seed,
        mode=mode,
        victim=victim,
        restarts=sum(t.restarts for t in supervisor.tenants),
        poisoned=len(supervisor.share.poisoned_keys)
        if supervisor.share is not None else 0,
        imported=sum(t.imported_translations
                     for t in supervisor.tenants),
        uncontained=result.health.uncontained,
    )
    # Differential check: every tenant against its solo interpreter
    # reference.  Any difference is a containment failure — either the
    # chaos leaked into architectural state or a sibling was touched.
    for tenant, program, reference in zip(supervisor.tenants, programs,
                                          references):
        if tenant.state.value != "done":
            report.divergences.append(
                f"seed {seed} mode {mode}: tenant "
                f"{tenant.spec.tenant_id} ended {tenant.state.value} "
                f"(last error: {tenant.last_error})")
            continue
        diffs = compare(reference, capture_outcome(tenant.system,
                                                   program.ram_masks()))
        for diff in diffs:
            report.divergences.append(
                f"seed {seed} mode {mode} tenant "
                f"{tenant.spec.tenant_id}: {diff}")
    return report


def run_fleet_campaign(trials: int, seed: int, tenants: int = 3,
                       max_instructions: int = 400_000,
                       inject_every: int = 4,
                       on_trial=None,
                       stop_on_failure: bool = True
                       ) -> FleetCampaignResult:
    """Run ``trials`` seeded fleet chaos trials (the CI fleet lane)."""
    result = FleetCampaignResult()
    for index in range(trials):
        inject = inject_every > 0 and \
            index % inject_every == inject_every - 1
        trial_seed = seed * 1_000_003 + index
        report = run_fleet_trial(trial_seed, tenants=tenants,
                                 max_instructions=max_instructions,
                                 inject=inject)
        result.trials += 1
        if inject:
            result.injected_trials += 1
        if report.mode == "kill-tenant":
            result.kills += 1
        elif report.mode == "corrupt-shared-entry":
            result.corruptions += 1
        else:
            result.storms += 1
        result.restarts += report.restarts
        result.poisoned += report.poisoned
        result.imported += report.imported
        result.contaminations.extend(report.divergences)
        result.uncontained += report.uncontained
        if on_trial is not None:
            on_trial(report)
        if report.divergences and stop_on_failure:
            break
    return result
