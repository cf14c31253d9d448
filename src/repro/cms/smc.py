"""Self-modifying-code management (paper §3.6).

The SMC manager owns the relationship between translations and the
protection state of the pages their guest code lives on, and implements
the adaptation ladder:

1. page/granule write protection with the fine-grain hardware cache
   (§3.6.1) — the default for every translation;
2. self-revalidating translations (§3.6.2) — for translations that take
   recurring *spurious* protection faults (data written next to code):
   the prologue is armed, protection is dropped, and the next entry
   re-verifies and re-protects;
3. self-checking translations (§3.6.3) — for genuinely changing code:
   pages stay unprotected and every entry (and loop back-edge) verifies
   the code bytes;
4. stylized-SMC immediate reloading (§3.6.4) — when the changing bytes
   are exactly immediate fields, combined with self-checking of the
   remaining bytes;
5. translation groups (§3.6.5) — retired versions are kept and
   reactivated when their bytes reappear.
"""

from __future__ import annotations

from collections import Counter

from repro.cache.groups import TranslationGroups
from repro.cache.tcache import Translation, TranslationCache
from repro.cms.config import CMSConfig
from repro.cms.stats import CMSStats
from repro.cms.trace import Event, EventTrace
from repro.host.faults import HostFault
from repro.isa.encoder import immediate_field_offset
from repro.memory.finegrain import GRANULE_SIZE
from repro.memory.physical import PAGE_SIZE, page_of
from repro.memory.protection import ProtectionMap, StoreClass


class SMCManager:
    """Protection bookkeeping and SMC adaptation decisions."""

    def __init__(self, config: CMSConfig, tcache: TranslationCache,
                 groups: TranslationGroups, protection: ProtectionMap,
                 machine, stats: CMSStats, controller, trace=None,
                 degrade=None) -> None:
        self.trace = trace if trace is not None else EventTrace(enabled=False)
        self.config = config
        self.tcache = tcache
        self.groups = groups
        self.protection = protection
        self.machine = machine
        self.stats = stats
        self.controller = controller
        # DegradationManager hook (optional so unit tests can build an
        # SMC manager in isolation): feeds invalidation storms into the
        # ladder and keeps group reactivation honest about tiers.
        self.degrade = degrade
        self._spurious_faults: Counter = Counter()  # per translation id
        self._genuine_smc: Counter = Counter()  # per entry eip
        self._smc_write_sites: dict[int, set[int]] = {}  # entry -> paddrs

    # ------------------------------------------------------------------
    # Protection lifecycle
    # ------------------------------------------------------------------

    def protect_translation(self, translation: Translation) -> None:
        """Apply write protection for a new translation's code bytes.

        Self-checking translations deliberately leave their pages
        unprotected (§3.6.3); armed self-revalidating translations have
        protection dropped until their prologue passes (§3.6.2).
        """
        if translation.policy.self_check or translation.prologue_armed:
            return
        for start, length in translation.code_ranges:
            self.protection.protect_range(start, length)

    def recompute_page(self, page: int) -> None:
        """Rebuild a page's protected-granule mask from live translations."""
        mask = 0
        page_start = page * PAGE_SIZE
        for translation in self.tcache.translations_on_page(page):
            if translation.policy.self_check or translation.prologue_armed:
                continue
            for start, length in translation.code_ranges:
                lo = max(start, page_start)
                hi = min(start + length, page_start + PAGE_SIZE)
                if lo < hi:
                    from repro.memory.finegrain import granule_mask_for_range

                    mask |= granule_mask_for_range(lo - page_start,
                                                   hi - page_start)
        self.protection.set_page_mask(page, mask)

    # ------------------------------------------------------------------
    # Inline fault service (classic handler-and-retry semantics)
    # ------------------------------------------------------------------

    def service_inline(self, fault: HostFault) -> bool:
        """Try to fix a protection fault so the store can retry in place.

        Returns True when the condition was repaired without needing a
        rollback: a fine-grain cache miss is filled from memory
        (§3.6.1), and a *spurious* code-granule fault (data written
        beside code) on translations that already carry a revalidation
        prologue arms the prologue and drops protection (§3.6.2 — "it
        enables the prologue and turns off protection to avoid the cost
        of faulting again").  Genuine self-modification, page-level
        faults, and spurious faults on translations without prologues
        return False and take the rollback + recovery path.
        """
        if fault.store_class is StoreClass.FAULT_MISS:
            self.protection.handle_miss(fault.page)
            self.stats.protection_faults += 1
            self.stats.fg_miss_services += 1
            return True
        if fault.store_class is not StoreClass.FAULT_CODE:
            return False
        assert fault.paddr is not None and fault.page is not None
        affected = self._affected_translations(fault)
        if not affected:
            # Stale protection state: rebuild the mask and retry.
            self.stats.protection_faults += 1
            self.recompute_page(fault.page)
            return True
        size = fault.access_size
        if any(t.overlaps(fault.paddr, size) for t in affected):
            return False  # genuine SMC: must invalidate, cannot retry
        if not all(t.prologue_label is not None for t in affected):
            return False  # someone lacks a prologue: recovery path decides
        self.stats.protection_faults += 1
        for translation in affected:
            self._arm_prologue(translation)
        return True

    def _affected_translations(self, fault: HostFault) -> list:
        granule_lo = fault.paddr - (fault.paddr % GRANULE_SIZE)
        granule_hi = ((fault.paddr + fault.access_size - 1) // GRANULE_SIZE
                      + 1) * GRANULE_SIZE
        return [
            t for t in self.tcache.translations_on_page(fault.page)
            if not t.policy.self_check and not t.prologue_armed
            and t.overlaps(granule_lo, granule_hi - granule_lo)
        ]

    # ------------------------------------------------------------------
    # Protection fault triage (host store path and interpreter path)
    # ------------------------------------------------------------------

    def on_protection_fault(self, fault: HostFault) -> None:
        """Handle a FAULT_CODE/FAULT_PAGE protection fault.

        (FAULT_MISS is serviced by the system before reaching here.)
        The faulting store has *not* executed; after this handler runs
        the dispatcher re-executes it (in the interpreter or on re-entry
        of a translation), so protection must be adjusted to let the
        store make progress exactly when that is the right outcome.
        """
        assert fault.page is not None and fault.paddr is not None
        self.stats.protection_faults += 1
        page = fault.page
        if fault.store_class is StoreClass.FAULT_PAGE:
            # No fine-grain hardware: the paper's original page-level
            # policy — every translation on the page is invalidated.
            for translation in self.tcache.translations_on_page(page):
                self._drop_for_smc(translation)
            self.recompute_page(page)
            return
        # FAULT_CODE: the store hits granules holding translated code.
        size = fault.access_size
        granule_lo = fault.paddr - (fault.paddr % GRANULE_SIZE)
        granule_hi = ((fault.paddr + size - 1) // GRANULE_SIZE + 1) \
            * GRANULE_SIZE
        affected = [
            t for t in self.tcache.translations_on_page(page)
            if t.overlaps(granule_lo, granule_hi - granule_lo)
        ]
        for translation in affected:
            writes_code = translation.overlaps(fault.paddr, size)
            if writes_code:
                self._on_genuine_smc(translation, fault.paddr, size)
            else:
                self._on_spurious_fault(translation)
        self.recompute_page(page)

    def _on_spurious_fault(self, translation: Translation) -> None:
        """Data written beside code in a protected granule (§3.6.2).

        Only reached when inline service declined, i.e. the translation
        has no prologue yet.  Below the threshold the translation stays
        (its code is unchanged; the store simply completes through the
        interpreter).  Once the faults recur, CMS flags the region as a
        self-revalidation candidate — "the next time it is encountered,
        it is re-translated" with a prologue — by accumulating the
        policy and dropping the prologue-less version once.
        """
        self._spurious_faults[translation.entry_eip] += 1
        if not self.config.self_revalidation:
            return  # keep the translation; pay the fault (ablation mode)
        if self._spurious_faults[translation.entry_eip] < \
                self.config.fault_threshold:
            return
        policy = self.controller.policy_for(translation.entry_eip).with_(
            self_revalidate=True
        )
        self.controller.set_policy(translation.entry_eip, policy)
        if translation.prologue_label is None:
            # Dropped outright (not retired): a group hit would only
            # resurrect the same prologue-less version.
            self.tcache.invalidate_translation(translation)
            self.stats.smc_invalidations += 1
            self.trace.record(Event.SMC_INVALIDATE, translation.entry_eip)

    def _arm_prologue(self, translation: Translation) -> None:
        """Drop protection and route the next entry through the prologue."""
        if translation.prologue_armed:
            return
        translation.prologue_armed = True
        translation.entry_label = translation.prologue_label
        self.stats.revalidations_armed += 1
        self.trace.record(Event.REVALIDATE_ARM, translation.entry_eip)
        for page in translation.pages():
            self.recompute_page(page)

    def on_prologue_success(self, translation: Translation) -> None:
        """Prologue verified the code: re-protect and disarm (§3.6.2)."""
        translation.prologue_armed = False
        translation.entry_label = "body"
        self.stats.revalidations_passed += 1
        self.protect_translation(translation)
        self.trace.record(Event.REVALIDATE_PASS, translation.entry_eip)

    def _on_genuine_smc(self, translation: Translation, paddr: int,
                        size: int) -> None:
        """The store will actually change translated code bytes."""
        entry = translation.entry_eip
        self._genuine_smc[entry] += 1
        self._smc_write_sites.setdefault(entry, set()).update(
            range(paddr, paddr + size)
        )
        self._drop_for_smc(translation)
        if self._genuine_smc[entry] < self.config.fault_threshold:
            return
        policy = self.controller.policy_for(entry)
        stylized = self._stylized_candidates(translation, entry)
        if stylized and self.config.stylized_smc:
            policy = policy.with_(
                self_check=True,
                stylized_imm_addrs=policy.stylized_imm_addrs | stylized,
            )
        else:
            policy = policy.with_(self_check=True)
        self.controller.set_policy(entry, policy)

    def _stylized_candidates(self, translation: Translation,
                             entry: int) -> frozenset[int]:
        """Instruction addresses whose *immediate fields* cover every
        observed SMC write byte (§3.6.4's stylized pattern)."""
        sites = self._smc_write_sites.get(entry)
        if not sites:
            return frozenset()
        from repro.isa.decoder import BytesFetcher, decode
        from repro.isa.exceptions import GuestException

        candidates: set[int] = set()
        covered: set[int] = set()
        for start, length in translation.code_ranges:
            try:
                data = self.machine.bus.read_code_bytes(start, length)
            except GuestException:
                return frozenset()
            fetcher = BytesFetcher(data, base=start)
            addr = start
            while addr < start + length:
                try:
                    instr = decode(fetcher, addr)
                except GuestException:
                    break
                offset = immediate_field_offset(instr)
                if offset is not None:
                    field = set(range(addr + offset, addr + offset + 4))
                    if field & sites:
                        candidates.add(addr)
                        covered |= field & sites
                addr += instr.length
        if covered >= sites:
            return frozenset(candidates)
        return frozenset()

    def _drop_for_smc(self, translation: Translation) -> None:
        """Invalidate a translation whose code is being rewritten,
        retiring it into its group when groups are enabled."""
        if self.config.translation_groups and \
                translation.policy.group_enabled:
            self.tcache.remove(translation)
            self.groups.retire(translation)
        else:
            self.tcache.invalidate_translation(translation)
        self.stats.smc_invalidations += 1
        self.trace.record(Event.SMC_INVALIDATE, translation.entry_eip)
        if self.degrade is not None:
            # Invalidate ping-pong between overlapping translations is a
            # storm the per-fault adaptation never sees: each round goes
            # through a *different* translation object.  The ladder
            # counts rounds per region and throttles the region itself.
            self.degrade.note_degrade_event(translation.entry_eip,
                                            "smc-invalidate")

    # ------------------------------------------------------------------
    # Self-check failures (§3.6.3 / §3.6.5)
    # ------------------------------------------------------------------

    def on_self_check_fail(self, translation: Translation) -> Translation | None:
        """A self-checking translation found its code bytes changed."""
        self._learn_from_diff(translation)
        self._drop_for_smc(translation)
        if not self.config.translation_groups:
            return None
        if self.degrade is not None and \
                self.degrade.tier_of(translation.entry_eip) > 0:
            # A degraded region must not short-circuit back to a cached
            # aggressive version; the dispatcher re-translates under the
            # tier's clamped policy instead.
            return None
        replacement = self.groups.match_current(
            translation.entry_eip, self._read_ranges
        )
        if replacement is None:
            return None
        self.tcache.insert(replacement)
        self.protect_translation(replacement)
        self.stats.group_reactivations += 1
        self.trace.record(Event.GROUP_REACTIVATE, replacement.entry_eip)
        return replacement

    def _learn_from_diff(self, translation: Translation) -> None:
        """Extend the stylized-SMC learning from a failed self-check.

        Once a region's pages are unprotected (self-checking policy),
        further modifications never take protection faults, so the
        write-site learning of ``_on_genuine_smc`` goes blind.  Diffing
        the snapshot against current memory recovers exactly which
        bytes changed; if the changes stay within immediate fields, the
        stylized set grows and the next translation masks them (§3.6.4).
        """
        from repro.isa.exceptions import GuestException

        entry = translation.entry_eip
        try:
            current = self._read_ranges(translation.code_ranges)
        except GuestException:
            return
        snapshot = translation.code_snapshot
        if len(current) != len(snapshot):
            return
        changed: set[int] = set()
        cursor = 0
        for start, length in translation.code_ranges:
            for i in range(length):
                if current[cursor + i] != snapshot[cursor + i]:
                    changed.add(start + i)
            cursor += length
        if not changed:
            return
        self._smc_write_sites.setdefault(entry, set()).update(changed)
        if not self.config.stylized_smc:
            return
        stylized = self._stylized_candidates(translation, entry)
        if stylized:
            policy = self.controller.policy_for(entry).with_(
                self_check=True,
                stylized_imm_addrs=(
                    self.controller.policy_for(entry).stylized_imm_addrs
                    | stylized
                ),
            )
            self.controller.set_policy(entry, policy)

    def try_group_reactivation(self, entry_eip: int) -> Translation | None:
        """Before translating, see if a retired version matches memory.

        A candidate is only reused when it is at least as conservative
        as the region's current accumulated policy — otherwise the
        adaptive escalation would be silently undone by a group hit.
        """
        if not self.config.translation_groups:
            return None
        replacement = self.groups.match_current(entry_eip, self._read_ranges)
        if replacement is None:
            return None
        required = self.controller.policy_for(entry_eip)
        if self.degrade is not None:
            required = self.degrade.clamp(entry_eip, required)
        if required.merge(replacement.policy) != replacement.policy:
            self.groups.retire(replacement)  # put it back; translate fresh
            return None
        self.tcache.insert(replacement)
        self.protect_translation(replacement)
        self.stats.group_reactivations += 1
        self.trace.record(Event.GROUP_REACTIVATE, entry_eip)
        return replacement

    def _read_ranges(self, ranges) -> bytes:
        return b"".join(
            self.machine.bus.read_code_bytes(start, length)
            for start, length in ranges
        )

    # ------------------------------------------------------------------
    # Bus store observer (DMA, disk, committed stores)
    # ------------------------------------------------------------------

    def on_ram_write(self, addr: int, size: int) -> None:
        """Invalidate translations whose code bytes were just rewritten.

        Self-checking translations are exempt: their entry/back-edge
        checks (and translation groups) own their coherency.  For DMA
        paging traffic this is the §3.6.1 rule ("DMA writes to a
        protected page invalidate all translations for the page"),
        refined to byte accuracy.
        """
        first_page = page_of(addr)
        last_page = page_of(addr + size - 1)
        touched_pages = []
        for page in range(first_page, last_page + 1):
            victims = [
                t for t in self.tcache.translations_on_page(page)
                if not t.policy.self_check and t.overlaps(addr, size)
            ]
            if victims:
                touched_pages.append(page)
            for translation in victims:
                self._drop_for_smc(translation)
        for page in touched_pages:
            self.recompute_page(page)

    # ------------------------------------------------------------------
    # Interpreter store servicing
    # ------------------------------------------------------------------

    def attach_interpreter(self, interpreter) -> None:
        """Service the interpreter's stores through
        ``on_interpreter_store``, filtered by the protected pages.

        ``check_store`` returns OK, counting nothing, for a store whose
        first and last pages are both unprotected, so the hook does
        nothing for it and the interpreter skips the call (the
        templates' inline ``pgs`` guard).
        """
        interpreter.store_hook = self.on_interpreter_store
        interpreter.store_hook_pages = self.protection._pages

    def on_interpreter_store(self, paddr: int, size: int) -> None:
        """Protection servicing for a store the interpreter will perform.

        The interpreter runs as native code on the real part, so its
        stores take the same protection faults; the fault handler runs
        inline and the store then proceeds (the interpreter can always
        make progress).
        """
        from repro.host.faults import HostFaultKind

        for _ in range(2):
            check = self.protection.check_store(paddr, size)
            if not check.faults:
                return
            fault = HostFault(
                kind=HostFaultKind.PROTECTION,
                paddr=paddr,
                store_class=check.store_class,
                page=check.page,
                access_size=size,
            )
            if not self.service_inline(fault):
                self.on_protection_fault(fault)
                return
