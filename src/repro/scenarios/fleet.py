"""Fleet-hosted adversarial scenarios: one guest per tenant.

The per-process scenario runner (:mod:`repro.scenarios.runner`) drives
one adversarial guest under one CMS.  This module hosts the same guests
*under the fleet supervisor* instead — N tenants, each running its own
seed-varied instance of a scenario class (by default ``paging``, whose
guest reprograms its MMU continuously), sharing the supervisor's
translation store and cooperative scheduler.  Every tenant is then
compared against a solo interpreter-only reference built from the same
program and the same seeded disk image, so a mapping-coherency bug that
only shows up under slice preemption or cross-tenant scheduling still
has an exact architectural oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cms.config import CMSConfig
from repro.cms.system import CodeMorphingSystem
from repro.fleet.config import FleetConfig, TenantSpec
from repro.fleet.supervisor import FleetSupervisor
from repro.fuzz.oracle import RunOutcome, capture_outcome, compare
from repro.scenarios.base import Scenario, ScenarioProgram
from repro.scenarios.matrix import get
from repro.scenarios.runner import _build_machine, seed_disk


@dataclass
class ScenarioFleetReport:
    """Outcome of one fleet-hosted scenario run."""

    scenario: str
    tenants: int
    budget: int
    seed: int
    rounds: int
    restarts: int
    uncontained: int
    imported_translations: int
    divergences: list[str] = field(default_factory=list)
    tenant_rows: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences and self.uncontained == 0


def _reference(prog: ScenarioProgram, seed: int,
               base: CMSConfig) -> RunOutcome:
    machine, entry = _build_machine(prog, seed)
    oracle = CodeMorphingSystem(machine, base.interpreter_only())
    oracle.run(entry, max_instructions=prog.max_instructions)
    return capture_outcome(oracle, prog.ram_masks)


def run_scenario_fleet(scenario: Scenario | str = "paging",
                       tenants: int = 3, budget: int = 9_000,
                       seed: int = 0,
                       config: CMSConfig | None = None,
                       fleet: FleetConfig | None = None
                       ) -> ScenarioFleetReport:
    """Host ``tenants`` seed-varied scenario guests under the fleet.

    Tenant ``t`` runs ``scenario.build(budget, seed + t)`` with the disk
    image the solo runner would give ``seed + t``, so each tenant has an
    exact solo interpreter reference to diverge from.
    """
    if isinstance(scenario, str):
        scenario = get(scenario)
    base = config if config is not None else CMSConfig()
    fleet_config = fleet if fleet is not None else FleetConfig()

    programs: list[ScenarioProgram] = []
    specs: list[TenantSpec] = []
    for tenant_id in range(tenants):
        prog = scenario.build(budget, seed + tenant_id)
        programs.append(prog)
        specs.append(TenantSpec(
            tenant_id=tenant_id,
            source=prog.source,
            name=f"{scenario.name}-{tenant_id}",
            max_instructions=prog.max_instructions,
            config=base,
        ))

    references = [_reference(prog, seed + tenant_id, base)
                  for tenant_id, prog in enumerate(programs)]

    supervisor = FleetSupervisor(specs, fleet_config)
    for tenant, prog, tenant_id in zip(supervisor.tenants, programs,
                                       range(tenants)):
        tenant.machine_hook = (
            lambda machine, _prog=prog, _seed=seed + tenant_id:
            seed_disk(machine, _prog, _seed))
    result = supervisor.run()

    report = ScenarioFleetReport(
        scenario=scenario.name,
        tenants=tenants,
        budget=budget,
        seed=seed,
        rounds=result.rounds,
        restarts=sum(t.restarts for t in supervisor.tenants),
        uncontained=result.health.uncontained,
        imported_translations=sum(t.imported_translations
                                  for t in supervisor.tenants),
        tenant_rows=[t.describe() for t in supervisor.tenants],
    )
    for tenant, prog, reference in zip(supervisor.tenants, programs,
                                       references):
        if tenant.state.value != "done":
            report.divergences.append(
                f"tenant {tenant.spec.tenant_id} ended "
                f"{tenant.state.value} (last error: {tenant.last_error})")
            continue
        diffs = compare(reference,
                        capture_outcome(tenant.system, prog.ram_masks))
        if not scenario.pin_interrupts:
            diffs = [d for d in diffs
                     if not d.startswith("interrupts_delivered:")]
        for diff in diffs:
            report.divergences.append(
                f"tenant {tenant.spec.tenant_id}: {diff}")
    return report
