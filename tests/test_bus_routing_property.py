"""Bus routing agrees with the seed's linear scan.

The bus routes every access through base-sorted arrays with ``bisect``
(plus a pure-RAM fast path).  The seed's linear scans over
``bus.regions`` live here as the executable reference
(``linear_region_at`` / ``linear_is_io``, and ``LinearBus`` for the
whole read/write path).  Bus and reference must agree on every address
and every access size — including accesses that straddle a region
boundary on either edge — for arbitrary non-overlapping region layouts.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.memory.bus import MemoryBus, MMIORegion
from repro.memory.physical import PhysicalMemory

RAM_SIZE = 1 << 20
ADDR_SPACE = 1 << 24  # keep layouts dense enough to collide often


class NullDevice:
    """MMIO handler that records nothing and returns zeros."""

    def mmio_read(self, offset: int, size: int) -> int:
        return 0

    def mmio_write(self, offset: int, value: int, size: int) -> None:
        pass


@st.composite
def region_layouts(draw):
    """A list of non-overlapping (base, size) MMIO windows."""
    count = draw(st.integers(min_value=0, max_value=8))
    spans = []
    for _ in range(count):
        base = draw(st.integers(min_value=0, max_value=ADDR_SPACE - 1))
        size = draw(st.integers(min_value=1, max_value=1 << 16))
        if any(base < b + s and b < base + size for b, s in spans):
            continue  # drop overlapping draws instead of rejecting
        spans.append((base, min(size, ADDR_SPACE - base)))
    return spans


def build_bus(spans) -> MemoryBus:
    bus = MemoryBus(PhysicalMemory(RAM_SIZE))
    device = NullDevice()
    for i, (base, size) in enumerate(spans):
        bus.add_region(MMIORegion(base, size, device, name=f"r{i}"))
    return bus


def linear_region_at(bus: MemoryBus, addr: int) -> MMIORegion | None:
    for region in bus.regions:
        if region.base <= addr < region.base + region.size:
            return region
    return None


def linear_is_io(bus: MemoryBus, addr: int, size: int) -> bool:
    return any(addr < region.base + region.size and region.base < addr + size
               for region in bus.regions)


class LinearBus:
    """The seed bus's ``read``/``write``: route by the first byte with
    the linear scan, count MMIO accesses, and write RAM directly."""

    def __init__(self, spans) -> None:
        self.bus = build_bus(spans)
        self.io_reads = 0
        self.io_writes = 0

    def read(self, addr: int, size: int) -> int:
        region = linear_region_at(self.bus, addr)
        if region is not None:
            self.io_reads += 1
            return region.handler.mmio_read(addr - region.base, size) & (
                (1 << (8 * size)) - 1)
        return int.from_bytes(self.bus.ram.read_bytes(addr, size), "little")

    def write(self, addr: int, value: int, size: int) -> None:
        region = linear_region_at(self.bus, addr)
        if region is not None:
            self.io_writes += 1
            region.handler.mmio_write(addr - region.base, value, size)
            return
        self.bus.ram.write_bytes(
            addr, (value & ((1 << (8 * size)) - 1)).to_bytes(size, "little"))


def probe_addresses(spans) -> list[int]:
    """Boundary-heavy probe set: edges of every region plus corners."""
    probes = {0, 1, ADDR_SPACE - 8, RAM_SIZE - 4, RAM_SIZE}
    for base, size in spans:
        for edge in (base, base + size):
            probes.update(range(max(0, edge - 4), edge + 4))
    return sorted(probes)


@given(region_layouts(), st.lists(
    st.integers(min_value=0, max_value=ADDR_SPACE), max_size=32))
@settings(max_examples=200, deadline=None)
def test_routing_matches_linear_scan(spans, random_addrs):
    bus = build_bus(spans)
    for addr in probe_addresses(spans) + random_addrs:
        assert bus.region_at(addr) is linear_region_at(bus, addr), hex(addr)
        for size in (1, 2, 4, 16):
            assert bus.is_io(addr, size) == linear_is_io(bus, addr, size), (
                f"is_io disagrees at {addr:#x} size {size}"
            )


@given(region_layouts())
@settings(max_examples=100, deadline=None)
def test_access_path_matches_linear_scan(spans):
    """Full read/write path parity, including the pure-RAM fast path
    and straddles of the lowest MMIO base."""
    bus = build_bus(spans)
    linear = LinearBus(spans)
    probes = [a for a in probe_addresses(spans) if a + 4 <= RAM_SIZE]
    for addr in probes:
        for size in (1, 2, 4):
            bus.write(addr, 0xA5A5A5A5, size)
            linear.write(addr, 0xA5A5A5A5, size)
            assert bus.read(addr, size) == linear.read(addr, size)
    assert bus.io_reads == linear.io_reads
    assert bus.io_writes == linear.io_writes
    assert (bus.ram.read_bytes(0, RAM_SIZE)
            == linear.bus.ram.read_bytes(0, RAM_SIZE))


def test_unsupported_size_uniform_and_side_effect_free():
    """Satellite bugfix: RAM and MMIO reject bad sizes identically,
    before any counter or memory side effect."""
    import pytest

    bus = build_bus([(RAM_SIZE, 0x1000)])
    for addr in (0x100, RAM_SIZE + 4):  # one RAM, one MMIO target
        for size in (0, 3, 8):
            with pytest.raises(ValueError):
                bus.read(addr, size)
            with pytest.raises(ValueError):
                bus.write(addr, 0, size)
    assert bus.io_reads == 0 and bus.io_writes == 0
    assert bus.ram.read_bytes(0, 16) == bytes(16)


def test_size2_ram_access_roundtrip():
    """Satellite bugfix: 16-bit accesses work on the RAM path."""
    bus = build_bus([])
    bus.write(0x100, 0xBEEF, 2)
    assert bus.read(0x100, 2) == 0xBEEF
    assert bus.read(0x100, 1) == 0xEF  # little-endian
    assert bus.read(0x101, 1) == 0xBE
    seen = []
    bus.add_store_observer(
        lambda addr, size: seen.append((addr, size)), None)
    bus.write(0xFFFE, 0x1234, 2)  # unaligned, near a page boundary
    assert bus.read(0xFFFE, 2) == 0x1234
    assert seen == [(0xFFFE, 2)]
