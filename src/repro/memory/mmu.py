"""Guest MMU: virtual-to-physical translation with precise page faults.

A deliberately small, x86-flavoured paging model: a single-level page
table (an array of 32-bit PTEs at ``page_table_base``, indexed by
virtual page number).  PTE bits: bit 0 = present, bit 1 = writable,
bits 12.. = frame base.  When paging is off, translation is identity.

This is enough substrate to exercise the phenomena the paper needs:
page faults raised out of translated code must be delivered precisely
(§3.2), and paging activity (e.g. a DMA disk read into a mapped page)
interacts with translation-cache coherency (§3.6.1).

Two kinds of state live here and must never mix:

* **Architectural** — ``paging_enabled``, ``page_table_base``, and the
  ``translations``/``faults`` counters.  These advance only for guest
  accesses.  The differential oracle compares registers, RAM and
  delivered exceptions, not these counters; the scenario records gate
  them exactly instead, and every counted fault is a #PF the
  interpreter delivers.  So host-side probes and code fetches must not
  bump them, and a #PF raised by a translated access
  (``speculative=True``) is not counted: the access is rolled back and,
  if the fault is genuine, the interpreter re-executes and counts it.
* **Host-side** — the software TLB, ``probe()``, and the
  ``tlb_hits``/``walks``/``probes``/``probe_walks`` stats.  The TLB is
  a pure cache over the guest page table: it caches present PTEs only
  and is invalidated through a bus store observer when
  anything (guest store, DMA, disk) writes inside the page-table span,
  and wholesale on ``set_page_table``/``enable_paging``/
  ``disable_paging``.  ``mapping_epoch`` counts those invalidations so
  the CMS can cheaply revalidate cached identity-mapping facts, and
  ``mapping_observers`` lets it unchain translations whose pages were
  remapped.

The TLB is always on.  The differential oracle cannot show it is
invisible, since the interpreter and CMS legs run this same MMU; a
property test does instead, checking every result and both
architectural counters against a walk that reads each PTE straight
from RAM.
"""

from __future__ import annotations

from typing import Callable

from repro.isa.exceptions import GuestException, page_fault
from repro.memory.bus import MemoryBus
from repro.memory.physical import PAGE_SHIFT, PAGE_SIZE

MASK32 = 0xFFFFFFFF

PTE_PRESENT = 0x1
PTE_WRITABLE = 0x2

# The page table spans one 4-byte PTE per possible VPN (2^20 of them
# under 32-bit addressing).  Stores landing anywhere in
# [page_table_base, page_table_base + PT_SPAN) are mapping mutations.
PT_SPAN = 4 << 20


class MMU:
    """Translates guest virtual addresses through the guest page table."""

    def __init__(self, bus: MemoryBus) -> None:
        self._bus = bus
        self.paging_enabled = False
        self.page_table_base = 0
        # Architectural counters (compared by the differential oracle).
        self.translations = 0
        self.faults = 0
        # Host-side TLB + stats (never architecturally visible).
        self.mapping_epoch = 0
        self.mapping_observers: list[Callable[[int | None], None]] = []
        self.tlb_hits = 0
        self.walks = 0
        self.probes = 0
        self.probe_walks = 0
        self.tlb_invalidations = 0
        self._tlb: dict[int, int] = {}
        self._observing = False

    def set_page_table(self, base: int) -> None:
        # PTEs are 4-byte entries; align the base down to 4 bytes.  (The
        # low two bits are ignored, like CR3's flag bits; the table
        # itself need not be page aligned in this model.)
        self.page_table_base = base & ~3 & MASK32
        self._mapping_changed(None)

    def enable_paging(self) -> None:
        if not self.paging_enabled:
            self.paging_enabled = True
            if not self._observing:
                # Lazy registration keeps paging-off workloads from
                # paying an observer call per store.
                # Unfiltered: the 4 MiB page-table span covers most of
                # RAM, and its base moves with set_page_table.
                self._bus.add_store_observer(self._on_ram_write, None)
                self._observing = True
            self._mapping_changed(None)

    def disable_paging(self) -> None:
        if self.paging_enabled:
            self.paging_enabled = False
            self._mapping_changed(None)

    # ------------------------------------------------------------------
    # Architectural translation
    # ------------------------------------------------------------------

    def translate(self, vaddr: int, is_write: bool,
                  speculative: bool = False) -> int:
        """Return the physical address for ``vaddr`` or raise #PF.

        A ``speculative`` access (translated code, before commit) raises
        the same #PF but leaves ``faults`` alone.
        """
        vaddr &= MASK32
        if not self.paging_enabled:
            return vaddr
        self.translations += 1
        vpn = vaddr >> PAGE_SHIFT
        pte = self._tlb.get(vpn)
        if pte is None:
            self.walks += 1
            pte = self._walk(vpn)
            if pte & PTE_PRESENT:
                self._tlb[vpn] = pte
        else:
            self.tlb_hits += 1
        if not pte & PTE_PRESENT:
            if not speculative:
                self.faults += 1
            raise page_fault(vaddr, is_write, present=False)
        if is_write and not pte & PTE_WRITABLE:
            if not speculative:
                self.faults += 1
            raise page_fault(vaddr, is_write, present=True)
        return (pte & ~(PAGE_SIZE - 1)) | (vaddr & (PAGE_SIZE - 1))

    def translate_range(self, vaddr: int, size: int, is_write: bool,
                        speculative: bool = False) -> int:
        """Translate an access that must not span a page boundary split.

        Multi-byte accesses that cross a page boundary are translated
        per-page on real hardware; we translate the first byte and, if
        the access spans pages, verify the second page too, returning
        the physical address of the first byte.  Contiguity across the
        boundary is the workload's problem (as on a real PC, split
        accesses to discontiguous frames are almost always bugs); the
        bus will read whatever physical bytes follow.
        """
        first = self.translate(vaddr, is_write, speculative)
        last_byte = vaddr + size - 1
        if (vaddr >> PAGE_SHIFT) != (last_byte >> PAGE_SHIFT):
            self.translate(last_byte, is_write, speculative)
        return first

    # ------------------------------------------------------------------
    # Host-side probes (non-architectural)
    # ------------------------------------------------------------------

    def probe(self, vaddr: int) -> int | None:
        """Host-side mapping probe: the physical address ``vaddr`` maps
        to, or None if unmapped/unwalkable.

        Never raises, and never touches the architectural
        ``translations``/``faults`` counters — CMS dispatch and region
        selection use this to test identity mappings without perturbing
        them.  Shares the TLB with ``translate``.
        """
        vaddr &= MASK32
        if not self.paging_enabled:
            return vaddr
        self.probes += 1
        vpn = vaddr >> PAGE_SHIFT
        pte = self._tlb.get(vpn)
        if pte is None:
            self.probe_walks += 1
            try:
                pte = self._walk(vpn)
            except GuestException:
                return None
            if pte & PTE_PRESENT:
                self._tlb[vpn] = pte
        else:
            self.tlb_hits += 1
        if not pte & PTE_PRESENT:
            return None
        return (pte & ~(PAGE_SIZE - 1)) | (vaddr & (PAGE_SIZE - 1))

    # ------------------------------------------------------------------
    # TLB maintenance
    # ------------------------------------------------------------------

    def _walk(self, vpn: int) -> int:
        pte_addr = (self.page_table_base + vpn * 4) & MASK32
        return self._bus.read(pte_addr, 4)

    def _on_ram_write(self, addr: int, size: int) -> None:
        """Bus store observer: evict TLB entries whose PTEs were hit.

        Fires for every physical RAM write (guest stores, commit
        drains, DMA, disk) while paging is enabled; only writes inside
        the page-table span do any work.
        """
        if not self.paging_enabled:
            return
        lo = addr - self.page_table_base
        hi = lo + size
        if hi <= 0 or lo >= PT_SPAN:
            return
        first = max(lo, 0) >> 2
        last = (hi - 1) >> 2
        for vpn in range(first, last + 1):
            self._mapping_changed(vpn)

    def _mapping_changed(self, vpn: int | None) -> None:
        """A PTE (or the whole table) changed: evict, bump the epoch,
        and notify CMS-side observers (``None`` means everything)."""
        self.mapping_epoch += 1
        if vpn is None:
            if self._tlb:
                self.tlb_invalidations += len(self._tlb)
                self._tlb.clear()
        elif self._tlb.pop(vpn, None) is not None:
            self.tlb_invalidations += 1
        for observer in self.mapping_observers:
            observer(vpn)
