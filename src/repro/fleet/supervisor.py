"""The fleet supervisor: cooperative slices, watchdogs, containment.

Single-threaded, deterministic round-robin: each round every runnable
tenant gets one guest-instruction slice through
:meth:`~repro.cms.system.CodeMorphingSystem.run_slice`.  Three layers
keep one tenant from taking the fleet down:

1. **The slice itself** — a dispatch is fuel-bounded (FUEL exit rolls
   back), and the slice yields at its guest budget, so a runaway
   tenant costs at most one slice before the scheduler moves on.
2. **The watchdog** — a host-wall deadline preempts a slice between
   dispatches (``should_preempt``), and repeated zero-progress slices
   mark a stall; either accumulates strikes that quarantine the tenant
   through the same path an uncontained exception takes.
3. **The containment boundary** — any exception escaping a tenant's
   slice (the CMS's own containment is the first line; this is the
   last) quarantines only that tenant, which later restarts from its
   last good warm snapshot under exponential backoff, circuit-breaking
   into interpret-only parking (or eviction) when restarts exhaust.

Wall-clock readings never enter any per-tenant ``MetricsRegistry``
(those stay deterministic); the supervisor owns its own latency
histograms, and their names carry timing markers so the perf gate
treats them as advisory.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.fleet.config import FleetConfig, TenantSpec
from repro.fleet.share import SharedTranslationService
from repro.fleet.tenant import Tenant, TenantState
from repro.obs.metrics import HistogramMetric
from repro.obs.telemetry import TelemetrySink

#: Bounds (microseconds) for the fleet-owned slice latency histogram.
_LATENCY_BOUNDS_US = tuple(int(10 * 2**i) for i in range(16))


@dataclass
class FleetHealth:
    """Aggregated fleet state (the ``repro-cms health --fleet`` view)."""

    rounds: int
    tenants: list[dict]
    share: dict
    negative_cache: int
    uncontained: int  # exceptions that escaped the supervisor (always 0)

    @property
    def healthy(self) -> bool:
        return self.uncontained == 0 and all(
            row.get("contained_errors", 0) == 0
            and row.get("audit_repairs", 0) == 0
            and row["state"] in ("running", "done")
            for row in self.tenants
        )

    def state_census(self) -> dict[str, int]:
        census: dict[str, int] = {}
        for row in self.tenants:
            census[row["state"]] = census.get(row["state"], 0) + 1
        return census

    def describe(self) -> str:
        census = ", ".join(f"{state}={count}" for state, count
                           in sorted(self.state_census().items()))
        lines = [
            f"fleet status         "
            f"{'HEALTHY' if self.healthy else 'DEGRADED'}",
            f"rounds               {self.rounds:>8}",
            f"tenants              {len(self.tenants):>8}  ({census})",
            f"shared cache         {self.share.get('published', 0):>8}"
            f" published, {self.share.get('imported', 0)} imported"
            f" (hit rate {self.share.get('hit_rate', 0.0):.2f})",
            f"share rejections     "
            f"{self.share.get('rejected_checksum', 0):>8} integrity,"
            f" {self.share.get('rejected_revalidation', 0)} revalidation"
            f" ({self.negative_cache} negative-cached)",
            f"uncontained errors   {self.uncontained:>8}",
        ]
        for row in self.tenants:
            tiers = row.get("tier_census") or {}
            degraded = ", ".join(f"{name}={count}" for name, count
                                 in tiers.items()
                                 if count and name != "AGGRESSIVE")
            lines.append(
                f"  {row['name']:<12} {row['state']:<11}"
                f" restarts={row['restarts']}"
                f" quarantines={row['quarantines']}"
                f" strikes={row['watchdog_strikes']}"
                f" imports={row['imported_translations']}"
                f" contained={row.get('contained_errors', 0)}"
                + (f" [{degraded}]" if degraded else "")
            )
        return "\n".join(lines)


@dataclass
class FleetResult:
    """Outcome of one supervised fleet run."""

    rounds: int
    wall_seconds: float
    tenants: list[Tenant]
    health: FleetHealth
    latency_us: HistogramMetric
    slice_instructions: HistogramMetric

    @property
    def total_guest_instructions(self) -> int:
        total = 0
        for tenant in self.tenants:
            if tenant.result is not None:
                total += tenant.result.guest_instructions
            elif tenant.system is not None:
                total += tenant.system.machine.instructions_retired
        return total

    def aggregate_ips(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.total_guest_instructions / self.wall_seconds


class FleetSupervisor:
    """Runs N tenants to completion under full fault isolation."""

    def __init__(self, specs: list[TenantSpec],
                 fleet: FleetConfig | None = None,
                 share: SharedTranslationService | None = None) -> None:
        self.fleet = fleet or FleetConfig()
        # An injected service lets a fleet warm-start from translations
        # published by an earlier run (the all-warm benchmark setup).
        if share is not None:
            self.share = share
        else:
            self.share = (SharedTranslationService()
                          if self.fleet.share_translations else None)
        self.tenants = [Tenant(spec, self.fleet) for spec in specs]
        self.rounds = 0
        self.uncontained = 0  # escapes of the last-resort boundary
        self.telemetry = (TelemetrySink(self.fleet.telemetry_path,
                                        source="fleet")
                          if self.fleet.telemetry_path else None)
        # Fleet-owned, wall-fed histograms.  Timing-marker names
        # ("..._us" carries "seconds"-class semantics via the explicit
        # *_seconds twin key in benchmark output) keep these advisory
        # in the perf gate; per-tenant registries never see a clock.
        self.latency_us = HistogramMetric(
            "fleet.slice_latency_us", _LATENCY_BOUNDS_US)
        self.slice_instructions = HistogramMetric(
            "fleet.slice_guest_instructions",
            tuple(2**i for i in range(18)))
        # Chaos hook: called as (supervisor, tenant, round) before each
        # slice; may raise inside the containment boundary.
        self.before_slice = None

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------

    def run(self, max_rounds: int | None = None) -> FleetResult:
        """Round-robin until every tenant is DONE/EVICTED (or parked
        tenants exhaust their budgets), bounded by ``max_rounds``."""
        limit = self.fleet.max_rounds if max_rounds is None else max_rounds
        start = time.perf_counter()
        for tenant in self.tenants:
            if tenant.system is None and tenant.state in (
                    TenantState.RUNNING, TenantState.PARKED):
                tenant.build(
                    interp_only=tenant.state is TenantState.PARKED)
                self._import_shared(tenant)
        while self.rounds < limit and any(t.live for t in self.tenants):
            try:
                self.step_round()
            except Exception as error:  # noqa: BLE001 — should not happen
                # A supervisor bug must still not kill serving tenants;
                # it is counted (campaigns assert this stays zero) and
                # the round clock advances so backoffs cannot wedge.
                self.uncontained += 1
                self._emit("fleet-uncontained", {
                    "round": self.rounds,
                    "error": f"{type(error).__name__}: {error}",
                })
                self.rounds += 1
        wall = time.perf_counter() - start
        health = self.health()
        return FleetResult(
            rounds=self.rounds,
            wall_seconds=wall,
            tenants=self.tenants,
            health=health,
            latency_us=self.latency_us,
            slice_instructions=self.slice_instructions,
        )

    def step_round(self) -> None:
        """One scheduling round: a slice for every runnable tenant."""
        for tenant in self.tenants:
            if tenant.state is TenantState.QUARANTINED:
                if tenant.try_restart(self.rounds):
                    self._import_shared(tenant)
                continue
            if not tenant.runnable:
                continue
            self._step(tenant)
        self.rounds += 1

    # ------------------------------------------------------------------
    # One slice, inside the fleet containment boundary
    # ------------------------------------------------------------------

    def _step(self, tenant: Tenant) -> None:
        remaining = tenant.instructions_remaining()
        if remaining <= 0:
            tenant.finish()
            self._publish(tenant)
            return
        budget = min(self.fleet.slice_guest_instructions, remaining)
        system = tenant.system
        machine = system.machine
        before = machine.instructions_retired
        deadline = self.fleet.slice_wall_budget
        preempted = [False]
        if deadline > 0.0:
            slice_start = time.perf_counter()

            def should_preempt() -> bool:
                if time.perf_counter() - slice_start > deadline:
                    preempted[0] = True
                    return True
                return False
        else:
            slice_start = time.perf_counter()
            should_preempt = None
        try:
            if self.before_slice is not None:
                self.before_slice(self, tenant, self.rounds)
            alive = system.run_slice(budget, should_preempt)
        except Exception as error:  # noqa: BLE001 — the fleet boundary
            self._contain(tenant, error)
            return
        elapsed = time.perf_counter() - slice_start
        retired = machine.instructions_retired - before
        tenant.slices += 1
        tenant.slices_since_snapshot += 1
        self.latency_us.observe(max(0, int(elapsed * 1e6)))
        self.slice_instructions.observe(retired)
        if not alive:
            tenant.finish()
            self._publish(tenant)
            return
        self._watchdog(tenant, retired, preempted[0])
        if tenant.state is not TenantState.RUNNING:
            return
        if self.fleet.snapshot_interval_slices > 0 and \
                tenant.slices_since_snapshot >= \
                self.fleet.snapshot_interval_slices:
            self._checkpoint(tenant)
        if self.share is not None and \
                self.fleet.share_refresh_rounds > 0 and \
                self.rounds % self.fleet.share_refresh_rounds == 0:
            self._publish(tenant)
            self._import_shared(tenant)

    def _watchdog(self, tenant: Tenant, retired: int,
                  wall_preempted: bool) -> None:
        """Guest-clock and host-wall deadline accounting."""
        strikes = 0
        if wall_preempted:
            tenant.wall_preemptions += 1
            strikes += 1
        if retired == 0:
            tenant.stall_slices += 1
            if tenant.stall_slices >= self.fleet.watchdog_stall_slices:
                tenant.stall_slices = 0
                strikes += 1
        else:
            tenant.stall_slices = 0
        if strikes == 0:
            return
        tenant.watchdog_strikes += strikes
        if tenant.watchdog_strikes >= self.fleet.watchdog_strike_limit:
            self._quarantine(tenant, "watchdog: deadline strikes "
                                     f"{tenant.watchdog_strikes}")

    def _contain(self, tenant: Tenant, error: BaseException) -> None:
        reason = f"{type(error).__name__}: {error}"
        self._quarantine(tenant, reason)

    def _quarantine(self, tenant: Tenant, reason: str) -> None:
        tenant.quarantine(self.rounds, reason)
        self._emit("fleet-quarantine", {
            "tenant": tenant.spec.tenant_id,
            "name": tenant.spec.label,
            "reason": reason,
            "round": self.rounds,
            "resume_round": tenant.resume_round,
            "restarts": tenant.restarts,
        })

    def _checkpoint(self, tenant: Tenant) -> None:
        """Save a last-good snapshot; a failed save never hurts the
        tenant (it just keeps the previous good file)."""
        try:
            tenant.save_good_snapshot()
        except Exception:  # noqa: BLE001 — snapshot must never kill
            tenant.slices_since_snapshot = 0

    def _publish(self, tenant: Tenant) -> None:
        if self.share is None or tenant.system is None:
            return
        try:
            self.share.publish_from(tenant.system, tenant.spec.tenant_id)
        except Exception:  # noqa: BLE001 — sharing is best-effort
            pass

    def _import_shared(self, tenant: Tenant) -> None:
        if self.share is None or tenant.system is None:
            return
        try:
            imported, cursor = self.share.import_into(
                tenant.system, tenant.spec.tenant_id,
                cursor=tenant.share_cursor)
        except Exception:  # noqa: BLE001 — sharing is best-effort
            return
        tenant.share_cursor = cursor
        tenant.imported_translations += imported

    # ------------------------------------------------------------------
    # Health aggregation
    # ------------------------------------------------------------------

    def health(self) -> FleetHealth:
        rows = [tenant.describe() for tenant in self.tenants]
        share = self.share.stats.as_dict() if self.share is not None \
            else {}
        report = FleetHealth(
            rounds=self.rounds,
            tenants=rows,
            share=share,
            negative_cache=(self.share.negative_cache_size()
                            if self.share is not None else 0),
            uncontained=self.uncontained,
        )
        self._emit("fleet-health", {
            "rounds": report.rounds,
            "tenants": report.tenants,
            "share": report.share,
            "negative_cache": report.negative_cache,
            "uncontained": report.uncontained,
            "healthy": report.healthy,
        })
        return report

    def _emit(self, kind: str, payload: dict) -> None:
        if self.telemetry is None:
            return
        self.telemetry.emit(kind, payload)
        self.telemetry.flush()
