"""Failure containment and graceful degradation (PR 3).

The paper's contract is that CMS failures are never guest-visible: the
system recovers, retranslates more conservatively, and keeps running
(§3.1-§3.5).  This module turns that contract into machinery with three
pillars:

**Translation quarantine.**  Every translate/retranslate/chain/codegen
call runs inside a containment boundary.  An internal error — a
``TranslationError`` that escapes the normal fallback ladder, a bug in
the optimizer, an injected chaos fault — is recorded as an
:class:`Incident` and the region is quarantined: pinned to the
interpreter with a probation counter that later re-admits it at a
conservative tier.  The guest never sees anything worse than
interpreter-speed forward progress.

**Storm throttling.**  The one-shot ``fault_threshold`` adaptation in
:mod:`repro.cms.retranslation` handles individual recurring faults; it
cannot stop a *storm* — the same region faulting or being re-formed
repeatedly inside a short window (fault/retranslate ping-pong, SMC
invalidation ping-pong between overlapping translations).  The
:class:`DegradationManager` counts degrade-relevant events per region in
a sliding guest-instruction window and walks stormy regions down an
explicit ladder::

    AGGRESSIVE -> CONSERVATIVE -> NO_REORDER -> INTERP_ONLY

with exponential probation backoff at the bottom and decay-based
re-promotion (clean dispatches climb back up) so a transient storm does
not permanently tax a region.

**Self-auditing.**  :class:`RuntimeAuditor` periodically checks the
cross-structure invariants that keep the runtime sound — tcache entry
and page indexes, chain back-pointers, SMC page protection, group
membership — repairing what it can and quarantining what it cannot.
Results feed the :class:`~repro.cms.stats.HealthReport` behind the
``repro-health`` CLI.
"""

from __future__ import annotations

import enum
import hashlib
import random
from collections import deque
from dataclasses import dataclass, field

from repro.cms.config import CMSConfig
from repro.cms.stats import CMSStats
from repro.cms.trace import Event, EventTrace
from repro.translator.policies import TranslationPolicy


class Tier(enum.IntEnum):
    """The degradation ladder, most to least speculative."""

    AGGRESSIVE = 0  # whatever the adaptive controller accumulated
    CONSERVATIVE = 1  # no control speculation, small regions
    NO_REORDER = 2  # additionally no memory reordering at all
    INTERP_ONLY = 3  # quarantined: the region is never translated


class ChaosError(RuntimeError):
    """An injected internal failure (chaos mode)."""


class ContainmentError(RuntimeError):
    """Containment itself cannot make progress (never expected)."""


@dataclass
class Incident:
    """One contained internal failure."""

    stage: str  # translate / retranslate / chain / dispatch / audit ...
    entry_eip: int
    error: str  # exception type name
    detail: str
    clock: int  # guest instructions retired at containment time

    def describe(self) -> str:
        return (f"[{self.clock:>9}] {self.stage} @{self.entry_eip:#x} "
                f"{self.error}: {self.detail}")


@dataclass
class RegionHealth:
    """Per-region ladder state."""

    tier: int = 0
    strikes: int = 0  # quarantines so far (drives exponential backoff)
    probation: int = 0  # remaining visits before re-admission
    clean: int = 0  # consecutive clean dispatches since last event
    window: deque = field(default_factory=deque)  # event clocks
    events: int = 0  # lifetime degrade-relevant events


def derive_seed(base_seed: int, tenant: int, stream: str = "") -> int:
    """A per-``(base_seed, tenant, stream)`` RNG seed.

    sha256-mixed (never Python's salted ``hash``) so the derivation is
    stable across processes and uncorrelated between tenants: two
    tenants constructed from the same base config draw independent
    streams instead of faulting in lockstep.
    """
    material = f"{base_seed}:{tenant}:{stream}".encode("utf-8")
    return int.from_bytes(hashlib.sha256(material).digest()[:8], "big")


class ChaosMonkey:
    """Deterministic internal-failure injector for the chaos campaigns.

    Each ``maybe_raise`` call draws from a seeded stream; the decision
    sequence depends only on ``(seed, tenant, call order)`` so a chaos
    run is reproducible from its command line.  ``tenant`` decorrelates
    same-seed instances (fleet serving): tenant 0 keeps the historical
    stream, so existing single-instance campaigns replay unchanged.
    """

    def __init__(self, rate: float, seed: int, tenant: int = 0) -> None:
        self.rate = rate
        self._rng = random.Random(
            seed if tenant == 0 else derive_seed(seed, tenant, "chaos"))
        self.injected = 0

    def maybe_raise(self, stage: str) -> None:
        if self.rate > 0.0 and self._rng.random() < self.rate:
            self.injected += 1
            raise ChaosError(f"chaos injected at {stage}")


class DegradationManager:
    """Quarantine, storm detection, and the degradation ladder."""

    # Per-tier policy clamps (applied on top of the adaptive
    # controller's accumulated policy; never stored, so re-promotion
    # relaxes them automatically).
    _TIER_REGION_CAP = {Tier.CONSERVATIVE: 32, Tier.NO_REORDER: 16}
    _TIER_COMMIT_CAP = {Tier.CONSERVATIVE: 8, Tier.NO_REORDER: 4}
    MAX_BACKOFF_DOUBLINGS = 10

    def __init__(self, config: CMSConfig, stats: CMSStats,
                 trace: EventTrace | None = None,
                 clock=None) -> None:
        self.config = config
        self.stats = stats
        self.trace = trace if trace is not None else EventTrace(enabled=False)
        # Guest-time source for the storm window (guest instructions
        # retired); monotone and deterministic, unlike wall time.
        self._clock = clock if clock is not None else (lambda: 0)
        self._regions: dict[int, RegionHealth] = {}
        self.incidents: deque[Incident] = deque(maxlen=256)
        # Invoked with the entry eip whenever a region descends a rung,
        # so the owner can retire the now-too-aggressive translation.
        self.on_demote = None

    # ------------------------------------------------------------------
    # Region state
    # ------------------------------------------------------------------

    def _health(self, entry_eip: int) -> RegionHealth:
        health = self._regions.get(entry_eip)
        if health is None:
            health = RegionHealth(tier=self.config.degrade_tier_floor)
            self._regions[entry_eip] = health
        return health

    def tier_of(self, entry_eip: int) -> Tier:
        health = self._regions.get(entry_eip)
        if health is None:
            return Tier(self.config.degrade_tier_floor)
        return Tier(health.tier)

    def regions(self) -> dict[int, RegionHealth]:
        return self._regions

    def quarantined_regions(self) -> list[int]:
        return sorted(entry for entry, health in self._regions.items()
                      if health.tier >= Tier.INTERP_ONLY)

    # ------------------------------------------------------------------
    # Containment
    # ------------------------------------------------------------------

    def contain(self, stage: str, entry_eip: int,
                error: BaseException) -> Incident:
        """Record an internal failure and quarantine its region.

        The caller has already stopped the failing activity; after this
        returns, the region is interpret-only until probation expires.
        """
        incident = Incident(
            stage=stage,
            entry_eip=entry_eip,
            error=type(error).__name__,
            detail=str(error) or "(no message)",
            clock=self._clock(),
        )
        self.incidents.append(incident)
        self.stats.contained_errors += 1
        self.trace.record(Event.CONTAINED_ERROR, entry_eip,
                          f"{stage}: {incident.error}")
        self.quarantine(entry_eip, reason=f"{stage}:{incident.error}")
        return incident

    def quarantine(self, entry_eip: int, reason: str = "") -> None:
        """Pin a region to the interpreter with exponential probation."""
        health = self._health(entry_eip)
        if health.tier < Tier.INTERP_ONLY:
            health.tier = Tier.INTERP_ONLY
            self.stats.quarantines += 1
        doublings = min(health.strikes, self.MAX_BACKOFF_DOUBLINGS)
        health.probation = self.config.quarantine_probation * (2 ** doublings)
        health.strikes += 1
        health.clean = 0
        health.window.clear()
        self.trace.record(Event.QUARANTINE, entry_eip, reason)
        if self.on_demote is not None:
            self.on_demote(entry_eip)

    # ------------------------------------------------------------------
    # The ladder
    # ------------------------------------------------------------------

    def allow_translation(self, entry_eip: int) -> bool:
        """Gate for the dispatcher: may this region be translated?

        While quarantined, each consultation (one interpreter visit of a
        hot region) ticks the probation counter; at zero the region is
        re-admitted one rung up (NO_REORDER), not straight back to full
        speculation.
        """
        health = self._regions.get(entry_eip)
        if health is None or health.tier < Tier.INTERP_ONLY:
            return True
        health.probation -= 1
        if health.probation > 0:
            return False
        health.tier = Tier.NO_REORDER
        health.clean = 0
        health.window.clear()
        self.stats.quarantine_readmissions += 1
        self.trace.record(Event.LADDER_PROMOTE, entry_eip,
                          f"probation over -> {Tier.NO_REORDER.name}")
        return True

    def clamp(self, entry_eip: int,
              policy: TranslationPolicy) -> TranslationPolicy:
        """Apply the region's tier constraints on top of ``policy``."""
        tier = self.tier_of(entry_eip)
        if tier is Tier.AGGRESSIVE:
            return policy
        changes: dict = {
            "control_speculation": False,
            "max_instructions": min(policy.max_instructions,
                                    self._TIER_REGION_CAP.get(
                                        tier, self._TIER_REGION_CAP[
                                            Tier.NO_REORDER])),
            "commit_interval": min(policy.commit_interval,
                                   self._TIER_COMMIT_CAP.get(
                                       tier, self._TIER_COMMIT_CAP[
                                           Tier.NO_REORDER])),
        }
        if tier >= Tier.NO_REORDER:
            changes["reorder_memory"] = False
            changes["use_alias_hw"] = False
        return policy.with_(**changes)

    def note_degrade_event(self, entry_eip: int, kind: str) -> None:
        """Record a degrade-relevant event (fault rollback, adaptive
        retranslation, SMC invalidation) and demote on a storm."""
        if not self.config.failure_containment:
            return
        health = self._health(entry_eip)
        health.clean = 0
        health.events += 1
        now = self._clock()
        window = health.window
        window.append(now)
        horizon = now - self.config.storm_window
        while window and window[0] < horizon:
            window.popleft()
        if len(window) < self.config.storm_threshold:
            return
        window.clear()
        if health.tier >= Tier.INTERP_ONLY:
            return
        if health.tier + 1 >= Tier.INTERP_ONLY:
            self.stats.storm_demotions += 1
            self.quarantine(entry_eip, reason=f"storm:{kind}")
            return
        health.tier += 1
        self.stats.storm_demotions += 1
        self.trace.record(Event.LADDER_DEMOTE, entry_eip,
                          f"storm:{kind} -> {Tier(health.tier).name}")
        if self.on_demote is not None:
            self.on_demote(entry_eip)

    def note_clean_dispatch(self, entry_eip: int) -> None:
        """Decay-based re-promotion: clean dispatches climb the ladder."""
        health = self._regions.get(entry_eip)
        if health is None or health.tier == self.config.degrade_tier_floor \
                or health.tier >= Tier.INTERP_ONLY:
            return
        health.clean += 1
        # Deeper rungs need proportionally more evidence to climb.
        if health.clean < self.config.ladder_promote_clean * health.tier:
            return
        health.clean = 0
        health.tier = max(health.tier - 1, self.config.degrade_tier_floor)
        self.stats.ladder_promotions += 1
        self.trace.record(Event.LADDER_PROMOTE, entry_eip,
                          f"clean streak -> {Tier(health.tier).name}")

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def tier_census(self) -> dict[str, int]:
        census: dict[str, int] = {tier.name: 0 for tier in Tier}
        for health in self._regions.values():
            census[Tier(health.tier).name] += 1
        return census


class RuntimeAuditor:
    """Cheap periodic invariant audit over the live CMS structures.

    Checks (and where possible repairs) the links that PR 1/PR 2 bugs
    taught us can go stale: tcache entry/page indexes, chain
    back-pointers, SMC page protection masks, and group membership.
    Inconsistent state is repaired in place; every repair is counted and
    traced so a healthy run shows ``audit_repairs == 0``.
    """

    def __init__(self, system) -> None:
        self.system = system
        self.last_findings: list[str] = []

    # Each check returns a list of human-readable findings (repaired).

    def audit(self) -> list[str]:
        system = self.system
        system.stats.audit_runs += 1
        findings: list[str] = []
        findings += self._audit_entry_index()
        findings += self._audit_page_index()
        findings += self._audit_chains()
        findings += self._audit_groups()
        findings += self._audit_protection()
        self._audit_controller()
        if findings:
            system.stats.audit_repairs += len(findings)
            for finding in findings:
                system.bus.record(Event.AUDIT_REPAIR, None, finding)
        self.last_findings = findings
        return findings

    def _audit_controller(self) -> None:
        """Check the adaptive controller's keys against live regions.

        Stale keys are the *expected* residue of eviction and flushing,
        not corruption — so this prunes (counted in
        ``stats.controller_pruned``) without producing findings, and a
        long healthy run still reports ``audit_repairs == 0``.
        """
        self.system.prune_controller()

    def _audit_entry_index(self) -> list[str]:
        tcache = self.system.tcache
        findings = []
        for entry, translation in list(tcache._by_entry.items()):
            if translation.valid and translation.entry_eip == entry:
                continue
            if translation.entry_eip != entry:
                # An alias key: delete the alias itself — the
                # translation's true key (if any) is judged on its own.
                del tcache._by_entry[entry]
                findings.append(
                    f"entry index {entry:#x} aliased T{translation.id} "
                    f"(@{translation.entry_eip:#x})"
                )
                continue
            findings.append(
                f"entry index {entry:#x} held invalid T{translation.id}"
            )
            tcache.invalidate_translation(translation)
        return findings

    def _audit_page_index(self) -> list[str]:
        tcache = self.system.tcache
        findings = []
        resident = set(tcache._by_entry.values())
        for page in sorted(tcache._by_page):
            bucket = tcache._by_page[page]
            for translation in list(bucket):
                if translation in resident and page in translation.pages():
                    continue
                bucket.discard(translation)
                findings.append(
                    f"page {page:#x} indexed "
                    f"{'non-resident' if translation not in resident else 'non-covering'} "
                    f"T{translation.id}"
                )
            if not bucket:
                del tcache._by_page[page]
        for translation in resident:
            for page in translation.pages():
                bucket = tcache._by_page.setdefault(page, set())
                if translation not in bucket:
                    bucket.add(translation)
                    findings.append(
                        f"T{translation.id} missing from page {page:#x} index"
                    )
        return findings

    def _audit_chains(self) -> list[str]:
        tcache = self.system.tcache
        findings = []
        for translation in tcache.translations():
            for atom in translation.exit_atoms:
                target = atom.chained_translation
                if target is None:
                    continue
                if target.valid and tcache.lookup(target.entry_eip) is target:
                    continue
                findings.append(
                    f"T{translation.id} exit chained to "
                    f"{'dead' if not target.valid else 'non-resident'} "
                    f"T{target.id}"
                )
                atom.chained_translation = None
                if atom in target.incoming_chains:
                    target.incoming_chains.remove(atom)
            for atom in list(translation.incoming_chains):
                if atom.chained_translation is not translation:
                    translation.incoming_chains.remove(atom)
                    findings.append(
                        f"T{translation.id} held a stale incoming back-"
                        f"pointer"
                    )
        return findings

    def _audit_groups(self) -> list[str]:
        system = self.system
        findings = []
        for entry, group in list(system.groups._groups.items()):
            for snapshot, translation in list(group.items()):
                if system.tcache.lookup(entry) is translation:
                    # Simultaneously retired and resident: the resident
                    # copy wins; drop the group version.
                    del group[snapshot]
                    findings.append(
                        f"T{translation.id} @{entry:#x} both resident and "
                        f"retired in its group"
                    )
            if not group:
                del system.groups._groups[entry]
        return findings

    def _audit_protection(self) -> list[str]:
        system = self.system
        protection = system.protection
        findings = []
        pages: set[int] = set(protection.protected_pages())
        for translation in system.tcache.translations():
            pages.update(translation.pages())
        for page in sorted(pages):
            expected = self._expected_mask(page)
            if protection.page_mask(page) == expected:
                continue
            findings.append(
                f"page {page:#x} protection mask stale "
                f"({protection.page_mask(page):#x} != {expected:#x})"
            )
            system.smc.recompute_page(page)
        return findings

    def _expected_mask(self, page: int) -> int:
        """The mask recompute_page would build (kept in lockstep)."""
        from repro.memory.finegrain import granule_mask_for_range
        from repro.memory.physical import PAGE_SIZE

        mask = 0
        page_start = page * PAGE_SIZE
        for translation in self.system.tcache.translations_on_page(page):
            if translation.policy.self_check or translation.prologue_armed:
                continue
            for start, length in translation.code_ranges:
                lo = max(start, page_start)
                hi = min(start + length, page_start + PAGE_SIZE)
                if lo < hi:
                    mask |= granule_mask_for_range(lo - page_start,
                                                   hi - page_start)
        return mask
