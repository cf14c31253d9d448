"""System-wide statistics and the molecules-per-instruction metric.

The paper's simulator "provides accurate dynamic molecule counts but not
cycle accuracy"; its headline metric is "molecules executed per x86
instruction".  ``CMSStats.total_molecules`` is host molecules actually
executed plus molecule-equivalent charges for CMS-native activities
(interpretation, translation, fault service), per the ``CostModel``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.cms.config import CostModel


@dataclass
class CMSStats:
    """Counters accumulated during one run."""

    # Execution volume.
    guest_instructions: int = 0  # retired (interpreted + committed)
    interp_instructions: int = 0
    recovery_interp_instructions: int = 0
    host_molecules: int = 0
    dispatches: int = 0
    chains_followed: int = 0
    chain_patches: int = 0
    indirect_chains: int = 0  # inline-cache installs for computed exits

    # Translation activity.
    translations_made: int = 0
    guest_instructions_translated: int = 0
    retranslations: int = 0
    group_reactivations: int = 0

    # The scheduler cost model's completion-time estimate summed over
    # every translation made: the static schedule-quality metric the
    # perf gate tracks alongside wall clock.
    modeled_cycles_translated: int = 0
    # Molecules emitted over every translation made: the code size the
    # self-checking benchmark compares (§3.6.3).
    molecules_translated: int = 0

    # Exceptional events.
    rollbacks: int = 0
    interrupts_delivered: int = 0
    guest_exceptions_delivered: int = 0
    faults: Counter = field(default_factory=Counter)  # by HostFaultKind name
    speculative_guest_faults: int = 0
    genuine_guest_faults: int = 0
    protection_faults: int = 0
    fg_miss_services: int = 0
    smc_invalidations: int = 0
    revalidations_armed: int = 0
    revalidations_passed: int = 0
    fuel_exits: int = 0
    # Paging coherency (§3.6.1 under an active MMU): chains severed
    # because a page-table mutation touched a translated code page.
    mapping_unchains: int = 0

    # Failure containment & graceful degradation (PR 3).
    contained_errors: int = 0  # internal failures stopped at a boundary
    quarantines: int = 0  # regions demoted to interpret-only
    quarantine_readmissions: int = 0  # probation expiries (re-admitted)
    storm_demotions: int = 0  # ladder rungs descended by storms
    ladder_promotions: int = 0  # rungs re-climbed on clean streaks
    audit_runs: int = 0
    audit_repairs: int = 0
    chaos_injected: int = 0  # chaos-mode faults raised (and contained)

    # Persistent snapshots (PR 5).
    snapshot_translations_loaded: int = 0  # revalidated and re-registered
    snapshot_translations_dropped: int = 0  # failed load-time revalidation
    snapshot_group_versions: int = 0  # retired versions re-parked in groups
    controller_pruned: int = 0  # stale controller keys removed (not repairs)

    # Template JIT (PR 6).  Dispatch/compile volume plus a bailout
    # census: every time the JIT path hands control back to the
    # simulated VLIW (or exits for a cause the dispatcher must handle),
    # the reason is tallied by name.
    jit_dispatches: int = 0
    jit_compiles: int = 0
    jit_compile_failures: int = 0
    jit_code_cache_hits: int = 0  # compile skipped via shared code cache
    jit_bailouts: Counter = field(default_factory=Counter)  # by reason

    def as_dict(self, cost: CostModel | None = None) -> dict:
        """Flat counter mapping for the metrics registry and telemetry.

        Fault counts are flattened as ``faults.<KIND>``; passing the
        cost model additionally includes the derived molecule totals so
        a telemetry record is self-contained.
        """
        out: dict = {}
        for name, value in vars(self).items():
            if name == "faults":
                for kind, count in sorted(value.items()):
                    out[f"faults.{kind}"] = count
            elif name == "jit_bailouts":
                for reason, count in sorted(value.items()):
                    out[f"jit_bailouts.{reason}"] = count
            else:
                out[name] = value
        if cost is not None:
            out["total_molecules"] = self.total_molecules(cost)
            out["molecules_per_instruction"] = round(
                self.molecules_per_instruction(cost), 6)
        return out

    def total_molecules(self, cost: CostModel) -> int:
        """Molecule-equivalents for the whole run."""
        return (
            self.host_molecules
            + (self.interp_instructions + self.recovery_interp_instructions)
            * cost.interp_per_instruction
            + self.guest_instructions_translated
            * cost.translate_per_instruction
            + self.rollbacks * cost.rollback
            + self.dispatches * cost.dispatch_lookup
            + sum(self.faults.values()) * cost.fault_service
            + self.fg_miss_services * cost.fine_grain_install
            + (self.interrupts_delivered + self.guest_exceptions_delivered)
            * cost.interrupt_delivery
            + self.chain_patches * cost.chain_patch
        )

    def molecules_per_instruction(self, cost: CostModel) -> float:
        if self.guest_instructions == 0:
            return 0.0
        return self.total_molecules(cost) / self.guest_instructions

    def summary(self, cost: CostModel) -> str:
        lines = [
            f"guest instructions   {self.guest_instructions:>12}",
            f"  interpreted        {self.interp_instructions:>12}"
            f" (+{self.recovery_interp_instructions} recovery)",
            f"host molecules       {self.host_molecules:>12}",
            f"total molecule-equiv {self.total_molecules(cost):>12}",
            f"mol / instr          "
            f"{self.molecules_per_instruction(cost):>12.2f}",
            f"translations         {self.translations_made:>12}"
            f" ({self.retranslations} adaptive,"
            f" {self.group_reactivations} group hits)",
            f"dispatches           {self.dispatches:>12}"
            f" ({self.chains_followed} chained)",
            f"rollbacks            {self.rollbacks:>12}",
            f"interrupts           {self.interrupts_delivered:>12}",
            f"guest exceptions     {self.guest_exceptions_delivered:>12}",
        ]
        if self.faults:
            fault_list = ", ".join(
                f"{name}={count}" for name, count in sorted(
                    self.faults.items())
            )
            lines.append(f"host faults          {fault_list}")
        if self.contained_errors or self.quarantines or self.storm_demotions:
            lines.append(
                f"containment          {self.contained_errors:>12}"
                f" ({self.quarantines} quarantines,"
                f" {self.storm_demotions} storm demotions,"
                f" {self.ladder_promotions + self.quarantine_readmissions}"
                f" promotions)"
            )
        if self.audit_runs:
            lines.append(f"self-audits          {self.audit_runs:>12}"
                         f" ({self.audit_repairs} repairs)")
        if self.jit_dispatches:
            lines.append(
                f"jit dispatches       {self.jit_dispatches:>12}"
                f" ({self.jit_compiles} compiles,"
                f" {self.jit_compile_failures} failures,"
                f" {sum(self.jit_bailouts.values())} bailouts)"
            )
        if self.snapshot_translations_loaded or \
                self.snapshot_translations_dropped:
            lines.append(
                f"snapshot warm start  "
                f"{self.snapshot_translations_loaded:>12}"
                f" loaded ({self.snapshot_translations_dropped} dropped,"
                f" {self.snapshot_group_versions} group versions)"
            )
        return "\n".join(lines)


@dataclass
class HealthReport:
    """Self-audit + containment snapshot of one CMS instance.

    Built by :meth:`CodeMorphingSystem.health_report`; rendered by the
    ``repro-health`` CLI.  ``healthy`` means the run needed no audit
    repairs and contained nothing — degraded-but-contained runs are
    still *safe* (that is the whole point), just not pristine.
    """

    contained_errors: int
    quarantines: int
    quarantined_regions: list[int]
    storm_demotions: int
    promotions: int
    tier_census: dict[str, int]
    audit_runs: int
    audit_repairs: int
    audit_findings: list[str]
    chaos_injected: int
    incidents: list[str]

    @property
    def healthy(self) -> bool:
        return self.contained_errors == 0 and self.audit_repairs == 0

    @property
    def degraded(self) -> bool:
        return bool(self.quarantined_regions) or any(
            count for name, count in self.tier_census.items()
            if name != "AGGRESSIVE"
        )

    def describe(self) -> str:
        status = "HEALTHY" if self.healthy else "CONTAINED"
        lines = [
            f"status               {status}"
            f"{' (degraded tiers active)' if self.degraded else ''}",
            f"contained errors     {self.contained_errors:>8}"
            f" ({self.chaos_injected} chaos-injected)",
            f"quarantines          {self.quarantines:>8}"
            f" ({len(self.quarantined_regions)} still quarantined)",
            f"storm demotions      {self.storm_demotions:>8}",
            f"ladder promotions    {self.promotions:>8}",
            f"self-audit runs      {self.audit_runs:>8}"
            f" ({self.audit_repairs} repairs)",
        ]
        census = ", ".join(f"{name}={count}"
                           for name, count in self.tier_census.items()
                           if count)
        lines.append(f"tier census          {census or '(no regions)'}")
        if self.quarantined_regions:
            addrs = ", ".join(f"{a:#x}" for a in self.quarantined_regions[:8])
            lines.append(f"quarantined at       {addrs}")
        for finding in self.audit_findings[:10]:
            lines.append(f"  audit: {finding}")
        for incident in self.incidents[-10:]:
            lines.append(f"  incident: {incident}")
        return "\n".join(lines)
