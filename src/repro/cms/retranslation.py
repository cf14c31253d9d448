"""Adaptive retranslation controller (the heart of §3).

"CMS monitors recurring failures and generates a more conservative
translation when it deems the rate of failure to be excessive.  To
reduce the performance impact of conservative translations, CMS also
attempts to confine the causes of failures to retranslations of smaller
regions than the originals."

Escalation ladders per fault kind (each stage requires the fault to
recur ``fault_threshold`` times):

* alias violation (§3.5): narrow the region, then pin the faulting
  instruction's memory access to program order, then disable memory
  reordering for the region;
* speculative MMIO (§3.4): fence the faulting instruction as known-I/O
  (commit-fenced, never reordered);
* genuine guest fault (§3.2): narrow the region around the faulting
  instruction, ultimately pinning it to the interpreter (the paper's
  "zero-instruction translation that simply calls the interpreter");
* speculative guest fault: stop hoisting the faulting load, then give up
  control speculation for the region;
* store-buffer overflow: commit more often, then narrow;
* live page-table store (§3.6.1): pin the storing instruction to the
  interpreter, which makes the mutation visible to the next walk.

All adjustments go through ``TranslationPolicy.merge`` so that policies
only ever accumulate — the paper's defense against "bouncing between
translations with incomparable policies, neither of which solves both
problems".
"""

from __future__ import annotations

from collections import Counter

from repro.cache.tcache import Translation
from repro.cms.config import CMSConfig
from repro.host.faults import HostFault, HostFaultKind
from repro.translator.policies import TranslationPolicy

MIN_REGION = 12


class AdaptiveController:
    """Tracks failures and escalates translation policies."""

    def __init__(self, config: CMSConfig) -> None:
        self.config = config
        self._base = TranslationPolicy(
            reorder_memory=config.reorder_memory,
            use_alias_hw=config.use_alias_hw,
            control_speculation=config.control_speculation,
            max_instructions=config.max_region_instructions,
            commit_interval=config.commit_interval,
            self_check=config.force_self_check,
            group_enabled=config.translation_groups,
        )
        self._policies: dict[int, TranslationPolicy] = {}
        # entry -> (accumulated policy, base merged with it): the
        # dispatcher asks for a hot region's policy on every miss past
        # the threshold, and a frozen pair only needs merging once.
        self._merged: dict[int, tuple[TranslationPolicy,
                                      TranslationPolicy]] = {}
        self._site_faults: Counter = Counter()
        # entry -> sha256 of the code bytes the region's policy was
        # learned against.  When the guest reloads different code at the
        # same address, version-specific escalations (stop/no-reorder
        # addresses, region narrowing) must not carry over.
        self._code_ids: dict[int, str] = {}
        self.code_resets = 0
        self.pruned = 0

    # ------------------------------------------------------------------
    # Policy lookup
    # ------------------------------------------------------------------

    def base_policy(self) -> TranslationPolicy:
        return self._base

    def policy_for(self, entry_eip: int) -> TranslationPolicy:
        accumulated = self._policies.get(entry_eip)
        if accumulated is None:
            return self._base
        cached = self._merged.get(entry_eip)
        if cached is None or cached[0] is not accumulated:
            cached = (accumulated, self._base.merge(accumulated))
            self._merged[entry_eip] = cached
        return cached[1]

    def set_policy(self, entry_eip: int, policy: TranslationPolicy) -> None:
        """Record an accumulated policy (used by the SMC manager too)."""
        current = self._policies.get(entry_eip)
        self._policies[entry_eip] = (
            policy if current is None else current.merge(policy)
        )

    # ------------------------------------------------------------------
    # Fault accounting and escalation
    # ------------------------------------------------------------------

    def reset_region(self, entry_eip: int) -> None:
        """Forget a region's per-site fault counters (not its policy).

        Called when the degradation ladder quarantines the region: the
        accumulated *policy* stays (it solved real problems and must not
        bounce, §3), but stale partial counts must not push a freshly
        re-admitted region straight into another escalation.
        """
        for key in [k for k in self._site_faults if k[0] == entry_eip]:
            del self._site_faults[key]

    # ------------------------------------------------------------------
    # Code identity and lifetime (PR 5)
    # ------------------------------------------------------------------

    def observe_code(self, entry_eip: int, code_digest: str) -> None:
        """Tie the region's accumulated state to a code identity.

        Called whenever a translation is produced or reactivated for
        ``entry_eip``.  If the digest differs from the one the policy
        was learned against, the guest has loaded *different* code at
        the same address: version-specific escalations (stop /
        no-reorder / I/O-fence addresses, region narrowing, disabled
        speculation) are dropped and per-site fault counters reset.
        What survives is the address's SMC shape — self-checking,
        self-revalidation, stylized-store sites, grouping — which
        describes how the location is *rewritten*, not what any one
        version computes.  Within one code identity policies still only
        ever accumulate (the monotone-merge guarantee, §3).
        """
        previous = self._code_ids.get(entry_eip)
        if previous == code_digest:
            return
        self._code_ids[entry_eip] = code_digest
        if previous is None:
            return
        self.code_resets += 1
        accumulated = self._policies.pop(entry_eip, None)
        self._merged.pop(entry_eip, None)
        if accumulated is not None:
            base = self._base
            kept = base.with_(
                self_check=accumulated.self_check,
                self_revalidate=accumulated.self_revalidate,
                stylized_imm_addrs=accumulated.stylized_imm_addrs,
            )
            if kept != base:
                self._policies[entry_eip] = kept
        self.reset_region(entry_eip)

    def prune(self, live_policy_entries, live_site_entries) -> int:
        """Drop state for regions that are no longer live.

        ``live_policy_entries`` protects accumulated policies (and the
        code-identity map) — callers include everything that may
        re-translate soon, so a pruned policy can only belong to a
        region that would restart from the base policy anyway.
        ``live_site_entries`` protects partial fault counts, which are
        cheap to relearn and prunable more aggressively.  Returns the
        number of keys removed.
        """
        removed = 0
        for entry in [e for e in self._policies
                      if e not in live_policy_entries]:
            del self._policies[entry]
            self._merged.pop(entry, None)
            removed += 1
        for entry in [e for e in self._code_ids
                      if e not in live_policy_entries]:
            del self._code_ids[entry]
            removed += 1
        for key in [k for k in self._site_faults
                    if k[0] not in live_site_entries]:
            del self._site_faults[key]
            removed += 1
        self.pruned += removed
        return removed

    def policy_entries(self) -> set[int]:
        """Entries holding accumulated policy or code-identity state."""
        return set(self._policies) | set(self._code_ids)

    def site_fault_entries(self) -> set[int]:
        return {key[0] for key in self._site_faults}

    def export_state(self) -> dict:
        """JSON-friendly state for the persistent snapshot."""
        from repro.cache.persist import encode_policy

        site_faults = [
            [entry, kind.name, site, genuine, count]
            for (entry, kind, site, genuine), count
            in sorted(self._site_faults.items(),
                      key=lambda item: (item[0][0], item[0][1].name,
                                        item[0][2], item[0][3]))
            if count > 0
        ]
        return {
            "policies": {str(entry): encode_policy(policy)
                         for entry, policy
                         in sorted(self._policies.items())},
            "site_faults": site_faults,
            "code_ids": {str(entry): digest for entry, digest
                         in sorted(self._code_ids.items())},
        }

    def import_state(self, state: dict) -> None:
        """Merge snapshot state in (monotone: only via ``set_policy``)."""
        from repro.cache.persist import decode_policy

        for entry, encoded in state["policies"].items():
            self.set_policy(int(entry), decode_policy(encoded))
        for entry, kind_name, site, genuine, count in state["site_faults"]:
            key = (int(entry), HostFaultKind[kind_name], int(site),
                   bool(genuine))
            self._site_faults[key] += int(count)
        for entry, digest in state["code_ids"].items():
            self._code_ids.setdefault(int(entry), str(digest))

    def note_fault(self, translation: Translation, fault: HostFault,
                   genuine: bool | None) -> TranslationPolicy | None:
        """Record a fault; return a new policy if retranslation is due."""
        if not self.config.adaptive_retranslation:
            return None
        entry = translation.entry_eip
        site = fault.guest_addr if fault.guest_addr is not None else entry
        kind = fault.kind
        key = (entry, kind, site, bool(genuine))
        self._site_faults[key] += 1
        if self._site_faults[key] < self.config.fault_threshold:
            return None
        self._site_faults[key] = 0  # each stage re-arms the counter
        current = self.policy_for(entry)
        escalated = self._escalate(current, kind, site, genuine)
        if escalated is None or escalated == current:
            return None
        self.set_policy(entry, escalated)
        return self.policy_for(entry)

    def _escalate(self, policy: TranslationPolicy, kind: HostFaultKind,
                  site: int, genuine: bool | None) -> TranslationPolicy | None:
        if kind is HostFaultKind.ALIAS_VIOLATION:
            # Pin the faulting store to program order first — the
            # surgical fix that leaves the rest of the region fully
            # speculative — then cut the region, then give up reordering
            # for the whole region (§3.5).
            if site not in policy.no_reorder_addrs:
                return policy.with_(
                    no_reorder_addrs=policy.no_reorder_addrs | {site}
                )
            if policy.max_instructions > MIN_REGION:
                return policy.with_(
                    max_instructions=max(MIN_REGION,
                                         policy.max_instructions // 2)
                )
            return policy.with_(reorder_memory=False)
        if kind is HostFaultKind.SPEC_MMIO:
            return policy.with_(
                io_fence_addrs=policy.io_fence_addrs | {site}
            )
        if kind is HostFaultKind.GUEST_FAULT:
            if genuine:
                # Narrow around the genuinely faulting instruction so the
                # neighbours stay large and optimized (§3.2).
                if policy.max_instructions > MIN_REGION:
                    return policy.with_(
                        max_instructions=max(MIN_REGION,
                                             policy.max_instructions // 2)
                    )
                return policy.with_(
                    stop_addrs=policy.stop_addrs | {site}
                )
            if site not in policy.no_reorder_addrs:
                return policy.with_(
                    no_reorder_addrs=policy.no_reorder_addrs | {site}
                )
            return policy.with_(control_speculation=False)
        if kind is HostFaultKind.STOREBUF_OVERFLOW:
            if policy.commit_interval > 4:
                return policy.with_(
                    commit_interval=max(4, policy.commit_interval // 2)
                )
            return policy.with_(
                max_instructions=max(MIN_REGION,
                                     policy.max_instructions // 2)
            )
        if kind is HostFaultKind.MMU_MUTATION:
            return policy.with_(stop_addrs=policy.stop_addrs | {site})
        return None  # PROTECTION / SELF_CHECK are the SMC manager's job
