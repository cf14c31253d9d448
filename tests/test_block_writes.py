"""Device block writes (``MemoryBus.write_block``) and the bus RAM runs.

The disk and the DMA controller write guest RAM a tick's worth of
bytes at a time.  Inside one RAM run that is one RAM copy plus one
observer call per page-bounded piece; any other span replays the byte
writes.  Everything a guest or the CMS can see must end exactly as if
the device had issued the seed's single-byte ``bus.write`` sequence:
RAM, MMIO handler calls, ``io_writes``, the #GP of the first bad byte,
translation invalidations, decode-cache invalidations and TLB contents.
(The NIC still writes a packet as eight 4-byte ``bus.write`` calls.)

Not compared: ``mmu.mapping_epoch``.  A device block write into the
live page table bumps it once per rewritten PTE, where byte writes bump
it once per write.  No workload or scenario points a device at the page
table, so no committed counter sees the difference.

The gated store buffer's drain writes RAM entries straight into RAM and
runs the page-filtered store observers itself; a property holds it,
``mmu.mapping_epoch`` included, to the seed's ``bus.write`` per entry.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro import CMSConfig, CodeMorphingSystem, Machine
from repro.cache.groups import TranslationGroups
from repro.cache.tcache import TranslationCache
from repro.cms.retranslation import AdaptiveController
from repro.cms.smc import SMCManager
from repro.cms.stats import CMSStats
from repro.devices.dma import DMAController
from repro.devices.pic import InterruptController
from repro.host.store_buffer import GatedStoreBuffer
from repro.isa.exceptions import GuestException
from repro.isa.icache import DecodedInstructionCache
from repro.memory.bus import MemoryBus, MMIORegion
from repro.memory.finegrain import FineGrainCache
from repro.memory.mmu import MMU
from repro.memory.physical import PAGE_SIZE, PhysicalMemory
from repro.memory.protection import ProtectionMap

from test_bus_routing_property import ADDR_SPACE, RAM_SIZE, region_layouts
from test_tcache import make_translation


class RecordingDevice:
    """MMIO handler that logs every access into a shared list."""

    def __init__(self, log: list, name: str) -> None:
        self.log = log
        self.name = name

    def mmio_read(self, offset: int, size: int) -> int:
        self.log.append(("r", self.name, offset, size))
        return (offset * 0x9E3779B1 + len(self.log)) & 0xFFFFFFFF

    def mmio_write(self, offset: int, value: int, size: int) -> None:
        self.log.append(("w", self.name, offset, value, size))


class World:
    """A bus with recording MMIO windows and the three real store
    observers the CMS installs: SMC invalidation, the decode cache, and
    the MMU's TLB eviction."""

    def __init__(self, spans, addr: int, length: int, pt_back: int,
                 bare_pages=frozenset(), page_filters: bool = True) -> None:
        self.log: list = []
        self.ram = PhysicalMemory(RAM_SIZE)
        self.bus = MemoryBus(self.ram)
        for i, (base, size) in enumerate(spans):
            self.bus.add_region(MMIORegion(
                base, size, RecordingDevice(self.log, f"r{i}"), f"r{i}"))
        self.ram.write_bytes(0, bytes(range(256)) * (RAM_SIZE // 256))
        config = CMSConfig()
        self.tcache = TranslationCache()
        self.protection = ProtectionMap(FineGrainCache(64))
        self.stats = CMSStats()
        self.smc = SMCManager(config, self.tcache, TranslationGroups(),
                              self.protection, None, self.stats,
                              AdaptiveController(config))
        self.icache = DecodedInstructionCache()
        self.mmu = MMU(self.bus)
        # The CMS's registrations, or (``page_filters`` off) the seed
        # bus's: every observer after every RAM write.
        self.bus.add_store_observer(
            self.smc.on_ram_write,
            self.tcache._by_page if page_filters else None)
        self.bus.add_store_observer(
            self.icache.on_ram_write,
            self.icache._page_index if page_filters else None)
        # Code and decoded instructions every 96 bytes around the span
        # (translations of 40 bytes, so some straddle pages), except on
        # ``bare_pages``.
        lo = max(0, addr - 2 * PAGE_SIZE) // 96 * 96
        hi = min(RAM_SIZE - 40, addr + length + 2 * PAGE_SIZE)
        for entry in range(lo, hi, 96):
            if {entry // PAGE_SIZE, (entry + 45) // PAGE_SIZE} & bare_pages:
                continue
            translation = make_translation(entry=entry, length=40)
            self.tcache.insert(translation)
            self.smc.protect_translation(translation)
            self.icache.insert(entry + 40, 6, entry)
        # A live page table whose PTEs the span may rewrite, with every
        # VPN whose PTE lies near the span cached in the TLB.
        base = max(0, addr - pt_back) & ~3
        self.mmu.set_page_table(base)
        self.mmu.enable_paging()
        first = max(0, (addr - base) // 4 - 8)
        for vpn in range(first, (addr + length - base) // 4 + 8):
            self.mmu._tlb[vpn] = (vpn << 12) | 3

    def outcome(self) -> dict:
        return {
            "ram": self.ram.read_bytes(0, RAM_SIZE),
            "mmio": list(self.log),
            "io_writes": self.bus.io_writes,
            "resident": sorted(t.entry_eip
                               for t in self.tcache.translations()),
            "smc_invalidations": self.stats.smc_invalidations,
            "masks": {page: self.protection.page_mask(page)
                      for page in self.protection.protected_pages()},
            "icache": sorted(self.icache.entries),
            "icache_invalidations": self.icache.invalidations,
            "tlb": dict(self.mmu._tlb),
            "tlb_invalidations": self.mmu.tlb_invalidations,
        }


def unit_writes(bus: MemoryBus, addr: int, data: bytes, unit: int) -> None:
    """A device's ``unit``-byte write sequence, written out longhand."""
    for offset in range(0, len(data), unit):
        value = int.from_bytes(data[offset:offset + unit], "little")
        bus.write(addr + offset, value, unit)


@st.composite
def block_cases(draw):
    spans = draw(region_layouts())
    edges = [0, RAM_SIZE, ADDR_SPACE - 64]
    for base, size in spans:
        edges += [base, base + size]
    edges += [draw(st.integers(0, RAM_SIZE // PAGE_SIZE)) * PAGE_SIZE
              for _ in range(3)]
    anchor = draw(st.sampled_from(edges))
    addr = max(0, anchor + draw(st.integers(-300, 300)))
    data = draw(st.binary(max_size=300))
    pt_back = draw(st.integers(0, 512))
    return spans, addr, data, pt_back


@given(block_cases())
@settings(max_examples=300, deadline=None)
def test_block_write_equals_byte_writes(case):
    spans, addr, data, pt_back = case
    block = World(spans, addr, len(data), pt_back)
    bytewise = World(spans, addr, len(data), pt_back)
    outcomes = []
    for world, write in (
            (block, lambda w: w.bus.write_block(addr, data)),
            (bytewise, lambda w: unit_writes(w.bus, addr, data, 1))):
        try:
            write(world)
            faulted = None
        except GuestException as exc:
            faulted = exc.vector
        outcomes.append((faulted, world.outcome()))
    assert outcomes[0] == outcomes[1]


# ----------------------------------------------------------------------
# The gated store buffer's drain must equal the seed's per-entry writes
# ----------------------------------------------------------------------


def per_entry_drain(buffer: GatedStoreBuffer, bus: MemoryBus) -> None:
    """The seed's drain: every buffered store through ``bus.write``
    (run on a World without page filters, as on the seed bus)."""
    for entry in buffer._entries:
        bus.write(entry.paddr, entry.value, entry.size)


@st.composite
def drain_cases(draw):
    """A commit window of 1-, 2- and 4-byte stores around one anchor.

    Anchors are page boundaries inside RAM, the end of RAM and the
    edges of the MMIO windows, so stores straddle pages, land on code
    pages and in the live page table's span, and reach MMIO.  One page
    next to the anchor is left without code, so a straddling store
    often has code on only one of its two pages.
    """
    spans = draw(region_layouts())
    edges = [RAM_SIZE]
    for base, size in spans:
        edges += [base, base + size]
    anchor = draw(
        st.integers(1, RAM_SIZE // PAGE_SIZE - 1).map(
            lambda page: page * PAGE_SIZE)
        | st.sampled_from(edges))
    # One-sided windows reach the far page only by straddling.
    low = draw(st.sampled_from((-64, -8, -3)))
    high = draw(st.sampled_from((-1, 8, 64)))
    stores = draw(st.lists(st.tuples(
        st.integers(low, high), st.sampled_from((1, 2, 4)),
        st.integers(0, 0xFFFFFFFF)), min_size=4, max_size=24))
    stores = [(max(0, anchor + delta), size, value)
              for delta, size, value in stores]
    bare = frozenset({anchor // PAGE_SIZE - draw(st.integers(0, 1))})
    return spans, stores, draw(st.integers(0, 512)), bare


@given(drain_cases())
@settings(max_examples=300, deadline=None)
def test_drain_equals_per_entry_bus_writes(case):
    spans, stores, pt_back, bare = case
    lo = min(addr for addr, _, _ in stores)
    hi = max(addr + size for addr, size, _ in stores)
    outcomes = []
    for drain, filters in ((GatedStoreBuffer.drain, True),
                           (per_entry_drain, False)):
        world = World(spans, lo, hi - lo, pt_back, bare, filters)
        bus = world.bus
        buffer = GatedStoreBuffer()
        for addr, size, value in stores:
            # What the host CPU buffers; any other store faults first.
            if not bus.write_faults(addr, size):
                buffer.write(addr, value, size, bus.is_io(addr, size))
        drain(buffer, bus)
        outcomes.append((world.outcome(), world.mmu.mapping_epoch))
    assert outcomes[0] == outcomes[1]


def test_observers_see_page_bounded_pieces():
    ram = PhysicalMemory(4 * PAGE_SIZE)
    bus = MemoryBus(ram)
    seen = []
    bus.add_store_observer(
        lambda addr, size: seen.append((addr, size)), None)
    bus.write_block(PAGE_SIZE - 100, bytes(range(200)) + bytes(PAGE_SIZE))
    assert seen == [(PAGE_SIZE - 100, 100), (PAGE_SIZE, PAGE_SIZE),
                    (2 * PAGE_SIZE, 100)]
    assert ram.read_bytes(PAGE_SIZE - 100, 200) == bytes(range(200))


def test_ram_runs_of_the_default_map():
    bus = Machine().bus
    assert bus.ram_runs == ((0, 0xA0000), (0xB0000, 4 << 20))
    assert bus.in_ram_run(0x9FFFC, 4) and not bus.in_ram_run(0x9FFFD, 4)
    assert not bus.in_ram_run(0xAFFFF, 1) and bus.in_ram_run(0xB0000, 4)
    assert bus.in_ram_run((4 << 20) - 4, 4)
    assert not bus.in_ram_run((4 << 20) - 3, 4)


# ----------------------------------------------------------------------
# DMA controller: the block path must equal the byte-interleaved copy
# ----------------------------------------------------------------------

DMA_RAM = 64 * 1024
DMA_MMIO = 0x8000  # a recording window inside RAM
DMA_REGS = 0x9000  # the controller's own register window


class ByteLoopDMA(DMAController):
    """The seed controller's tick: byte-interleaved reads and writes
    that re-read the source and destination registers every byte."""

    def tick(self, instructions: int) -> None:
        if not self.busy:
            return
        for _ in range(min(self._remaining, self.BYTES_PER_TICK)):
            self._bus.write(self.dest, self._bus.read(self.source, 1), 1)
            self.source += 1
            self.dest += 1
            self._remaining -= 1
            self.bytes_copied += 1
        if self._remaining == 0:
            self.busy = False
            self.transfers_completed += 1
            self._pic.request_irq(self.IRQ)


def _dma_copy(controller, source, dest, length):
    log: list = []
    seen: list = []
    ram = PhysicalMemory(DMA_RAM)
    ram.write_bytes(0, bytes((i * 7 + 3) & 0xFF for i in range(DMA_RAM)))
    bus = MemoryBus(ram)
    dma = controller(bus, InterruptController())
    bus.add_region(MMIORegion(DMA_MMIO, 0x100, RecordingDevice(log, "dev")))
    bus.add_region(MMIORegion(DMA_REGS, 0x10, dma, "dma"))
    bus.add_store_observer(lambda addr, size: seen.extend(
        range(addr, addr + size)), None)
    assert dma.start_transfer(source, dest, length)
    fault = None
    try:
        while dma.busy:
            dma.tick(1)
    except GuestException as exc:
        fault = exc.vector
    return (fault, ram.read_bytes(0, DMA_RAM), log, seen, bus.io_reads,
            bus.io_writes, dma.source, dma.dest, dma.bytes_copied,
            dma.mmio_accesses, dma.transfers_completed)


def test_dma_overlapping_and_mmio_copies_match_byte_copies():
    cases = []
    for delta in (-65, -64, -1, 0, 1, 3, 63, 64, 65, 200):
        cases.append((0x2000, 0x2000 + delta, 200))
    cases += [
        (DMA_MMIO - 20, 0x3000, 100),  # source runs into MMIO
        (0x3000, DMA_MMIO - 10, 100),  # destination runs into MMIO
        (DMA_MMIO + 8, DMA_MMIO + 40, 64),  # MMIO to MMIO
        (DMA_RAM - 50, 0x100, 100),  # source runs off the end of RAM
        # The destination reaches the controller's own registers and
        # rewrites its source and destination mid-tick.
        (0x2000, DMA_REGS - 2, 64),
    ]
    for source, dest, length in cases:
        got = _dma_copy(DMAController, source, dest, length)
        expected = _dma_copy(ByteLoopDMA, source, dest, length)
        assert got == expected, (hex(source), hex(dest), length)


def test_forward_overlap_repeats_the_leading_bytes():
    ram = _dma_copy(DMAController, 0x2000, 0x2003, 64)[1]
    head = bytes((i * 7 + 3) & 0xFF for i in range(0x2000, 0x2003))
    assert ram[0x2000:0x2000 + 67] == head * 22 + head[:1]


# ----------------------------------------------------------------------
# Device traffic over translated code
# ----------------------------------------------------------------------

HOT_ROUTINE = """
start:
    mov esp, 0x8000
    mov esi, 0
    mov edi, 0
warm:
    call routine
    inc edi
    cmp edi, 40
    jl warm
    cli
    hlt
.org 0x6000
routine:
    add esi, 3
    ret
"""

ROUTINE = 0x6000


def _lands_on_routine(write):
    """Warm a translation of ROUTINE, let ``write`` change memory over
    it, and report whether every translation of it left, how many other
    invalidations ran, and the bytes around it."""
    machine = Machine()
    entry = machine.load_source(HOT_ROUTINE)
    system = CodeMorphingSystem(machine, CMSConfig(translation_threshold=4))
    assert system.run(entry, max_instructions=100_000).halted
    # The call sites' regions follow the call into the routine.
    victims = [t for t in system.tcache.translations()
               if t.overlaps(ROUTINE, 4)]
    assert victims
    before = system.stats.smc_invalidations
    write(machine)
    # Retired into its group (or invalidated): no longer resident.
    resident = set(system.tcache.translations())
    return (not any(t in resident for t in victims),
            system.stats.smc_invalidations - before - len(victims),
            machine.ram.read_bytes(ROUTINE - 512, 1024))


def _disk_read(machine) -> None:
    disk = machine.disk
    disk.write_image(0, b"\x90" * 512)
    disk.sector, disk.count = 0, 1
    disk.dest = ROUTINE - 200  # ticks straddle the code
    disk._control(1)
    while disk.busy:
        machine.tick(1)


def _nic_packet(machine) -> None:
    nic = machine.nic
    nic.rx_addr = ROUTINE - 8
    nic.period = 1
    nic._control(1)
    machine.tick(1)
    assert nic.packets_delivered == 1


def test_disk_read_over_code_invalidates_like_byte_writes():
    got = _lands_on_routine(_disk_read)
    assert got[:2] == (True, 0)
    assert got == _lands_on_routine(lambda machine: unit_writes(
        machine.bus, ROUTINE - 200, b"\x90" * 512, 1))


def test_nic_packet_over_code_invalidates_like_word_writes():
    got = _lands_on_routine(_nic_packet)
    assert got[:2] == (True, 0)

    def words(machine) -> None:
        packet = b"".join(word.to_bytes(4, "little")
                          for word in machine.nic.packet_words(0))
        unit_writes(machine.bus, ROUTINE - 8, packet, 4)

    assert got == _lands_on_routine(words)
