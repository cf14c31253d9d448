"""Tests for physical memory, bus routing, MMU, and protection."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.isa.exceptions import GuestException, Vector, page_fault
from repro.memory.bus import MemoryBus, MMIORegion
from repro.memory.finegrain import (
    GRANULE_SIZE,
    FineGrainCache,
    granule_mask_for_range,
)
from repro.memory.mmu import MMU, PTE_PRESENT, PTE_WRITABLE
from repro.memory.physical import PAGE_SIZE, PhysicalMemory, page_of
from repro.memory.protection import ProtectionMap, StoreClass


class TestPhysicalMemory:
    def test_little_endian_roundtrip(self):
        ram = PhysicalMemory(PAGE_SIZE)
        ram.write32(0x10, 0xAABBCCDD)
        assert ram.read8(0x10) == 0xDD
        assert ram.read32(0x10) == 0xAABBCCDD

    def test_bounds(self):
        ram = PhysicalMemory(PAGE_SIZE)
        with pytest.raises(IndexError):
            ram.read8(PAGE_SIZE)
        with pytest.raises(IndexError):
            ram.write32(PAGE_SIZE - 2, 1)

    def test_size_must_be_page_multiple(self):
        with pytest.raises(ValueError):
            PhysicalMemory(100)

    def test_page_of(self):
        assert page_of(0) == 0
        assert page_of(PAGE_SIZE) == 1
        assert page_of(PAGE_SIZE - 1) == 0


class _StubDevice:
    def __init__(self):
        self.reads = []
        self.writes = []

    def mmio_read(self, offset, size):
        self.reads.append((offset, size))
        return 0x42

    def mmio_write(self, offset, value, size):
        self.writes.append((offset, value, size))


class TestBus:
    def make(self):
        ram = PhysicalMemory(2 * PAGE_SIZE)
        bus = MemoryBus(ram)
        device = _StubDevice()
        bus.add_region(MMIORegion(0x10000, 0x100, device, "stub"))
        return bus, device

    def test_ram_routing(self):
        bus, device = self.make()
        bus.write(0x100, 0xDEAD, 4)
        assert bus.read(0x100, 4) == 0xDEAD
        assert not device.writes

    def test_mmio_routing(self):
        bus, device = self.make()
        bus.write(0x10004, 7, 4)
        assert device.writes == [(4, 7, 4)]
        assert bus.read(0x10008, 1) == 0x42

    def test_is_io_boundaries(self):
        bus, _ = self.make()
        assert bus.is_io(0x10000)
        assert bus.is_io(0x100FF)
        assert not bus.is_io(0x10100)
        assert bus.is_io(0xFFFF, 2)  # straddles into the region

    def test_unmapped_raises_gp(self):
        bus, _ = self.make()
        with pytest.raises(GuestException) as excinfo:
            bus.read(0x900000, 4)
        assert excinfo.value.vector == Vector.GP

    def test_store_observers_fire_for_ram_only(self):
        bus, _ = self.make()
        seen = []
        bus.add_store_observer(
            lambda addr, size: seen.append((addr, size)), None)
        bus.write(0x200, 1, 4)
        bus.write(0x10000, 1, 4)  # MMIO: no observer
        assert seen == [(0x200, 4)]

    def test_overlapping_regions_rejected(self):
        bus, _ = self.make()
        with pytest.raises(ValueError):
            bus.add_region(MMIORegion(0x10080, 0x100, _StubDevice()))

    def test_read_code_bytes_rejects_mmio(self):
        bus, _ = self.make()
        with pytest.raises(GuestException):
            bus.read_code_bytes(0x10000, 4)


class TestMMU:
    def make(self):
        ram = PhysicalMemory(16 * PAGE_SIZE)
        bus = MemoryBus(ram)
        mmu = MMU(bus)
        return ram, bus, mmu

    def test_identity_when_paging_off(self):
        _, _, mmu = self.make()
        assert mmu.translate(0x12345, is_write=True) == 0x12345

    def test_basic_mapping(self):
        ram, _, mmu = self.make()
        pt_base = 8 * PAGE_SIZE
        # Map VPN 1 -> frame 3, present+writable.
        ram.write32(pt_base + 1 * 4, (3 * PAGE_SIZE) | PTE_PRESENT |
                    PTE_WRITABLE)
        mmu.set_page_table(pt_base)
        mmu.enable_paging()
        assert mmu.translate(PAGE_SIZE + 0x10, False) == 3 * PAGE_SIZE + 0x10

    def test_not_present_faults(self):
        ram, _, mmu = self.make()
        mmu.set_page_table(8 * PAGE_SIZE)
        mmu.enable_paging()
        with pytest.raises(GuestException) as excinfo:
            mmu.translate(0x0, False)
        exc = excinfo.value
        assert exc.vector == Vector.PF
        assert exc.error_code & 0x1 == 0  # not-present

    def test_write_protect_faults(self):
        ram, _, mmu = self.make()
        pt_base = 8 * PAGE_SIZE
        ram.write32(pt_base, (2 * PAGE_SIZE) | PTE_PRESENT)  # read-only
        mmu.set_page_table(pt_base)
        mmu.enable_paging()
        assert mmu.translate(0x10, False) == 2 * PAGE_SIZE + 0x10
        with pytest.raises(GuestException) as excinfo:
            mmu.translate(0x10, True)
        assert excinfo.value.error_code & 0x3 == 0x3  # present + write

    def test_fault_address_recorded(self):
        _, _, mmu = self.make()
        mmu.set_page_table(8 * PAGE_SIZE)
        mmu.enable_paging()
        with pytest.raises(GuestException) as excinfo:
            mmu.translate(0xABCD, False)
        assert excinfo.value.fault_addr == 0xABCD

    def test_range_crossing_pages_checks_both(self):
        ram, _, mmu = self.make()
        pt_base = 8 * PAGE_SIZE
        ram.write32(pt_base, (2 * PAGE_SIZE) | PTE_PRESENT | PTE_WRITABLE)
        # VPN 1 not present.
        mmu.set_page_table(pt_base)
        mmu.enable_paging()
        with pytest.raises(GuestException):
            mmu.translate_range(PAGE_SIZE - 2, 4, False)


class TestMMUPageTableAlignment:
    """Regression: ``set_page_table`` must align *down to 4 bytes*.

    The pre-fix code had the ternary inverted — a misaligned base was
    page-aligned (dropping 0xF00 of the intended base) while an
    aligned base was left alone.  With a PTE written at the word-
    aligned base, translation through the buggy base reads the wrong
    table entirely.
    """

    def make(self):
        ram = PhysicalMemory(16 * PAGE_SIZE)
        return ram, MMU(MemoryBus(ram))

    def test_misaligned_base_aligns_down_to_word(self):
        _, mmu = self.make()
        mmu.set_page_table(8 * PAGE_SIZE + 0xF02)
        assert mmu.page_table_base == 8 * PAGE_SIZE + 0xF00

    def test_word_aligned_base_is_kept_exactly(self):
        _, mmu = self.make()
        mmu.set_page_table(8 * PAGE_SIZE + 0xF00)
        assert mmu.page_table_base == 8 * PAGE_SIZE + 0xF00

    def test_misaligned_base_still_reaches_its_table(self):
        ram, mmu = self.make()
        pt_base = 8 * PAGE_SIZE + 0x200  # word-aligned, NOT page-aligned
        ram.write32(pt_base, (3 * PAGE_SIZE) | PTE_PRESENT | PTE_WRITABLE)
        mmu.set_page_table(pt_base + 2)  # guest passed a sloppy base
        mmu.enable_paging()
        assert mmu.translate(0x10, False) == 3 * PAGE_SIZE + 0x10


class TestMMUProbe:
    """Regression: CMS-internal probes must not perturb architectural
    counters (``translations``/``faults``) — only probe telemetry."""

    def make_mapped(self):
        ram = PhysicalMemory(16 * PAGE_SIZE)
        bus = MemoryBus(ram)
        mmu = MMU(bus)
        pt_base = 8 * PAGE_SIZE
        ram.write32(pt_base + 1 * 4, (1 * PAGE_SIZE) | PTE_PRESENT |
                    PTE_WRITABLE)
        mmu.set_page_table(pt_base)
        mmu.enable_paging()
        return ram, bus, mmu

    def test_probe_resolves_like_translate(self):
        _, _, mmu = self.make_mapped()
        assert mmu.probe(PAGE_SIZE + 0x10) == PAGE_SIZE + 0x10

    def test_probe_unmapped_returns_none_instead_of_raising(self):
        _, _, mmu = self.make_mapped()
        assert mmu.probe(5 * PAGE_SIZE) is None

    def test_probe_leaves_architectural_counters_alone(self):
        _, _, mmu = self.make_mapped()
        mmu.translate(PAGE_SIZE, False)
        before = (mmu.translations, mmu.faults)
        mmu.probe(PAGE_SIZE)  # mapped
        mmu.probe(5 * PAGE_SIZE)  # not mapped: would have counted a fault
        assert (mmu.translations, mmu.faults) == before
        assert mmu.probes == 2

    def test_probe_identity_when_paging_off(self):
        ram = PhysicalMemory(16 * PAGE_SIZE)
        mmu = MMU(MemoryBus(ram))
        assert mmu.probe(0x12345) == 0x12345
        assert mmu.translations == 0


# The TLB property: a small RAM holding a few random page tables.
PT_PAGES = 4  # virtual pages the property translates
PT_RAM = 8 * PAGE_SIZE
PT_BASES = (4 * PAGE_SIZE, 5 * PAGE_SIZE + 0x200, 6 * PAGE_SIZE + 0xFF6)

_ptes = st.one_of(
    st.builds(lambda frame, bits: frame << 12 | bits,
              st.integers(0, 15), st.integers(0, 3)),
    st.integers(0, 0xFFFFFFFF),
)
_vaddrs = st.builds(
    lambda vpn, offset: vpn * PAGE_SIZE + offset,
    st.integers(0, PT_PAGES - 1),
    st.one_of(st.sampled_from((0, PAGE_SIZE - 3, PAGE_SIZE - 1)),
              st.integers(0, PAGE_SIZE - 1)),
)
_sizes = st.sampled_from((1, 2, 4))
_store_sizes = st.sampled_from((1, 4))  # byte and word stores
_mmu_ops = st.one_of(
    st.tuples(st.just("translate"), _vaddrs, st.booleans(), st.booleans()),
    st.tuples(st.just("translate_range"), _vaddrs, _sizes, st.booleans()),
    st.tuples(st.just("probe"), _vaddrs),
    # A store into the live table: PTE index, byte offset within it (a
    # word store at offset > 0 straddles two PTEs), size, value.
    st.tuples(st.just("pte_store"), st.integers(0, PT_PAGES),
              st.integers(0, 3), _store_sizes, _ptes),
    # A store anywhere in RAM: other tables, data, below the table.
    st.tuples(st.just("ram_store"), st.integers(0, PT_RAM - 4),
              _store_sizes, _ptes),
    st.tuples(st.just("set_page_table"),
              st.one_of(st.sampled_from(PT_BASES),
                        st.integers(0, PT_RAM - 64))),
    st.tuples(st.just("paging"), st.booleans()),
)


class WalkingMMU:
    """The MMU with no TLB: every translation reads its PTE from RAM."""

    def __init__(self, ram: PhysicalMemory) -> None:
        self.ram = ram
        self.paging_enabled = False
        self.page_table_base = 0
        self.translations = 0
        self.faults = 0

    def _pte(self, vaddr: int) -> int:
        return int.from_bytes(self.ram.read_bytes(
            self.page_table_base + (vaddr >> 12) * 4, 4), "little")

    def translate(self, vaddr: int, is_write: bool,
                  speculative: bool = False) -> int:
        if not self.paging_enabled:
            return vaddr
        self.translations += 1
        pte = self._pte(vaddr)
        present = bool(pte & PTE_PRESENT)
        if not present or (is_write and not pte & PTE_WRITABLE):
            if not speculative:
                self.faults += 1
            raise page_fault(vaddr, is_write, present=present)
        return (pte & ~0xFFF) | (vaddr & 0xFFF)

    def translate_range(self, vaddr: int, size: int,
                        is_write: bool) -> int:
        first = self.translate(vaddr, is_write)
        if vaddr >> 12 != (vaddr + size - 1) >> 12:
            self.translate(vaddr + size - 1, is_write)
        return first

    def probe(self, vaddr: int) -> int | None:
        if not self.paging_enabled:
            return vaddr
        pte = self._pte(vaddr)
        if not pte & PTE_PRESENT:
            return None
        return (pte & ~0xFFF) | (vaddr & 0xFFF)


def _mmu_result(call):
    """A translation's result, or the #PF's present/write bits and
    address."""
    try:
        return call()
    except GuestException as exc:
        assert exc.vector == Vector.PF
        return ("#PF", exc.error_code & 0x3, exc.fault_addr)


class TestMMUTLB:
    def make_mapped(self):
        ram = PhysicalMemory(16 * PAGE_SIZE)
        bus = MemoryBus(ram)
        mmu = MMU(bus)
        pt_base = 8 * PAGE_SIZE
        ram.write32(pt_base + 0 * 4, (2 * PAGE_SIZE) | PTE_PRESENT |
                    PTE_WRITABLE)
        ram.write32(pt_base + 1 * 4, (3 * PAGE_SIZE) | PTE_PRESENT |
                    PTE_WRITABLE)
        mmu.set_page_table(pt_base)
        mmu.enable_paging()
        return ram, bus, mmu, pt_base

    def test_second_translation_hits_the_tlb(self):
        _, _, mmu, _ = self.make_mapped()
        mmu.translate(0x10, False)
        mmu.translate(0x20, True)
        assert mmu.walks == 1
        assert mmu.tlb_hits == 1

    def test_pte_store_through_the_bus_invalidates_the_entry(self):
        _, bus, mmu, pt_base = self.make_mapped()
        assert mmu.translate(0x10, False) == 2 * PAGE_SIZE + 0x10
        bus.write(pt_base, (5 * PAGE_SIZE) | PTE_PRESENT | PTE_WRITABLE, 4)
        assert mmu.tlb_invalidations >= 1
        assert mmu.translate(0x10, False) == 5 * PAGE_SIZE + 0x10

    def test_unrelated_store_does_not_invalidate(self):
        _, bus, mmu, pt_base = self.make_mapped()
        mmu.translate(0x10, False)
        walks = mmu.walks
        bus.write(PAGE_SIZE, 0xAB, 4)  # outside the page table
        mmu.translate(0x10, False)
        assert mmu.walks == walks  # still served from the TLB

    def test_set_page_table_flushes_everything(self):
        _, _, mmu, pt_base = self.make_mapped()
        mmu.translate(0x10, False)
        epoch = mmu.mapping_epoch
        mmu.set_page_table(pt_base)
        assert mmu.mapping_epoch > epoch
        mmu.translate(0x10, False)
        assert mmu.walks == 2  # flushed: walked again

    def test_paging_toggle_flushes_everything(self):
        _, _, mmu, _ = self.make_mapped()
        mmu.translate(0x10, False)
        mmu.disable_paging()
        mmu.enable_paging()
        mmu.translate(0x10, False)
        assert mmu.walks == 2

    @given(st.lists(st.lists(_ptes, min_size=PT_PAGES + 1,
                             max_size=PT_PAGES + 1),
                    min_size=len(PT_BASES), max_size=len(PT_BASES)),
           st.lists(_mmu_ops, min_size=10, max_size=50))
    @settings(max_examples=300, deadline=None)
    def test_tlb_matches_a_direct_walk(self, tables, ops):
        """Whatever stores, table switches and paging toggles come
        between them, every translate, translate_range and probe returns
        what a walk reading the PTE straight from RAM returns, and the
        architectural counters agree with that walk's."""
        ram = PhysicalMemory(PT_RAM)
        bus = MemoryBus(ram)
        mmu = MMU(bus)
        ref = WalkingMMU(ram)
        for base, table in zip(PT_BASES, tables):
            for vpn, pte in enumerate(table):
                ram.write32(base + vpn * 4, pte)
        mmu.set_page_table(PT_BASES[0])
        mmu.enable_paging()
        ref.page_table_base = PT_BASES[0]
        ref.paging_enabled = True
        for op in ops:
            kind = op[0]
            if kind == "translate":
                _, vaddr, is_write, speculative = op
                assert _mmu_result(lambda: mmu.translate(
                    vaddr, is_write, speculative)) == _mmu_result(
                    lambda: ref.translate(vaddr, is_write, speculative))
            elif kind == "translate_range":
                _, vaddr, size, is_write = op
                assert _mmu_result(lambda: mmu.translate_range(
                    vaddr, size, is_write)) == _mmu_result(
                    lambda: ref.translate_range(vaddr, size, is_write))
            elif kind == "probe":
                assert mmu.probe(op[1]) == ref.probe(op[1])
            elif kind == "pte_store":
                _, vpn, offset, size, value = op
                bus.write(ref.page_table_base + vpn * 4 + offset, value,
                          size)
            elif kind == "ram_store":
                _, addr, size, value = op
                bus.write(addr, value, size)
            elif kind == "set_page_table":
                mmu.set_page_table(op[1])
                ref.page_table_base = op[1] & ~3
            elif op[1]:
                mmu.enable_paging()
                ref.paging_enabled = True
            else:
                mmu.disable_paging()
                ref.paging_enabled = False
            # Every page, looked up through the TLB after each step,
            # still maps as the walk says: a stale entry shows at once.
            for vaddr in range(0, PT_PAGES * PAGE_SIZE, PAGE_SIZE):
                assert mmu.probe(vaddr) == ref.probe(vaddr), (op, vaddr)
                for is_write in (False, True):
                    assert _mmu_result(lambda: mmu.translate(
                        vaddr, is_write)) == _mmu_result(
                        lambda: ref.translate(vaddr, is_write)), op
            assert (mmu.translations, mmu.faults) == \
                (ref.translations, ref.faults), op

    def test_translate_range_spanning_pages_tracks_remapping(self):
        _, bus, mmu, pt_base = self.make_mapped()
        assert mmu.translate_range(PAGE_SIZE - 2, 4, False) == \
            2 * PAGE_SIZE + PAGE_SIZE - 2
        walks = mmu.walks
        # Remap the second page; the spanning check must re-validate it
        # (a fresh walk), not serve a stale TLB entry.
        bus.write(pt_base + 1 * 4,
                  (7 * PAGE_SIZE) | PTE_PRESENT | PTE_WRITABLE, 4)
        mmu.translate_range(PAGE_SIZE - 2, 4, False)
        assert mmu.walks == walks + 1
        # And dropping its present bit must fault the spanning access.
        bus.write(pt_base + 1 * 4, 0, 4)
        with pytest.raises(GuestException):
            mmu.translate_range(PAGE_SIZE - 2, 4, False)


class TestFineGrainCache:
    def test_miss_then_install_then_hit(self):
        cache = FineGrainCache(2)
        assert cache.lookup(5) is None
        cache.install(5, 0b1010)
        assert cache.lookup(5) == 0b1010
        assert cache.misses == 1 and cache.hits == 1

    def test_lru_eviction(self):
        cache = FineGrainCache(2)
        cache.install(1, 1)
        cache.install(2, 2)
        cache.lookup(1)  # make page 1 most recent
        cache.install(3, 3)  # evicts page 2
        assert 1 in cache and 3 in cache and 2 not in cache
        assert cache.evictions == 1

    def test_granule_mask(self):
        assert granule_mask_for_range(0, 1) == 1
        assert granule_mask_for_range(0, GRANULE_SIZE) == 1
        assert granule_mask_for_range(0, GRANULE_SIZE + 1) == 0b11
        assert granule_mask_for_range(GRANULE_SIZE * 63, PAGE_SIZE) == \
            1 << 63


class TestProtectionMap:
    def make(self, fine_grain=True):
        cache = FineGrainCache(4) if fine_grain else None
        return ProtectionMap(cache, fine_grain_enabled=fine_grain)

    def test_unprotected_store_ok(self):
        protection = self.make()
        assert protection.check_store(0x1000, 4).store_class is StoreClass.OK

    def test_protected_page_misses_then_allows_data(self):
        protection = self.make()
        # Code occupies the first granule of page 1.
        protection.protect_range(PAGE_SIZE, 16)
        # First store to another granule: fine-grain cache miss.
        check = protection.check_store(PAGE_SIZE + 2048, 4)
        assert check.store_class is StoreClass.FAULT_MISS
        protection.handle_miss(page_of(PAGE_SIZE))
        # Retry: data granule, allowed.
        check = protection.check_store(PAGE_SIZE + 2048, 4)
        assert check.store_class is StoreClass.OK
        assert protection.fg_allowed_stores == 1

    def test_code_granule_faults(self):
        protection = self.make()
        protection.protect_range(PAGE_SIZE, 16)
        protection.handle_miss(page_of(PAGE_SIZE))
        check = protection.check_store(PAGE_SIZE + 4, 4)
        assert check.store_class is StoreClass.FAULT_CODE

    def test_without_fine_grain_everything_faults(self):
        protection = self.make(fine_grain=False)
        protection.protect_range(PAGE_SIZE, 16)
        check = protection.check_store(PAGE_SIZE + 2048, 4)
        assert check.store_class is StoreClass.FAULT_PAGE

    def test_unprotect_page(self):
        protection = self.make()
        protection.protect_range(PAGE_SIZE, 16)
        protection.unprotect_page(page_of(PAGE_SIZE))
        assert protection.check_store(PAGE_SIZE + 4, 4).store_class is \
            StoreClass.OK

    def test_straddling_store_checked_against_second_page(self):
        protection = self.make()
        protection.protect_range(2 * PAGE_SIZE, 16)
        check = protection.check_store(2 * PAGE_SIZE - 2, 4)
        assert check.faults

    def test_range_spanning_pages(self):
        protection = self.make()
        protection.protect_range(PAGE_SIZE - 8, 16)
        assert protection.is_protected(0)
        assert protection.is_protected(1)

    def test_set_page_mask_zero_clears(self):
        protection = self.make()
        protection.protect_range(PAGE_SIZE, 16)
        protection.set_page_mask(1, 0)
        assert not protection.is_protected(1)
