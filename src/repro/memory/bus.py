"""The guest physical memory bus.

The bus routes physical addresses either to RAM or to memory-mapped I/O
regions owned by devices.  This is the distinction at the heart of the
paper's §3.4: *at translation time* a memory access cannot be classified
as RAM or I/O — only the bus knows, at runtime, per access.  The host's
speculatively reordered memory atoms consult ``is_io`` and fault when
they touch an I/O region.

Device MMIO side effects are irrevocable (paper: "they trigger
irrevocable interactions with external devices"), which is why the host
keeps stores gated in the store buffer until commit, and why reordered
accesses to these regions must abort.

The bus keeps one description of where guest RAM is: ``ram_runs``, the
maximal MMIO-free runs of RAM, recomputed by ``add_region``.  For the
default machine these are [0, 0xA0000) and [0xB0000, top of RAM), the
framebuffer window being the hole.  Every RAM fast path reads them: the
bus's own ``read``/``write``/``is_io`` (through ``in_ram_run``), the
template JIT's inline load/store guards, the host CPU's store check
(every buffered non-I/O store lies in a run, so the store buffer
drains it straight into RAM), and ``write_block``, through which the
disk and the DMA controller write a tick's worth of bytes at once
(§3.6.1's page-granular device traffic).  An access wholly inside one
run can never be I/O and cannot fall off the end of RAM.

Routing is the hottest query in the whole simulator (every data access
and, without the decode cache, every code byte consults it), so the
rest runs over base-sorted region arrays with ``bisect``.  The seed's
linear scan over ``regions`` lives on only inside the routing property
test, which checks ``region_at``, ``is_io`` and the ``read``/``write``
paths against it on randomized region layouts.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Container, Protocol

from repro.isa.exceptions import general_protection
from repro.memory.physical import PAGE_SHIFT, PAGE_SIZE, PhysicalMemory

MASK32 = 0xFFFFFFFF


class MMIOHandler(Protocol):
    """Interface a device exposes for a memory-mapped region."""

    def mmio_read(self, offset: int, size: int) -> int:  # pragma: no cover
        ...

    def mmio_write(self, offset: int, value: int, size: int) -> None:  # pragma: no cover
        ...


@dataclass
class MMIORegion:
    """A physical address window owned by a device."""

    base: int
    size: int
    handler: MMIOHandler
    name: str = "mmio"


class MemoryBus:
    """Routes physical accesses to RAM or MMIO regions.

    Store observers (``add_store_observer``) are callbacks
    ``(addr, size)`` run *after* RAM writes, in registration order: the
    SMC manager keeps the translation cache coherent with memory written
    by the interpreter, committed translations and devices, and the
    decode cache and the MMU's TLB keep the same invariant.  Each is
    registered with the live index of the pages it keeps state for and
    runs only for a write whose first or last page is in it (``None``:
    every write).  Skipping is exact because each observer is a no-op on
    pages outside its index, and no write reaching them spans more than
    two pages: a CPU store is one 1-, 2- or 4-byte range (``write``, or
    ``notify_store`` when the gated store buffer drains straight into
    RAM), and a device block write (``write_block``) one range per page
    it touches.

    ``ram_runs`` are the maximal MMIO-free runs of RAM as
    ``(start, end)`` pairs in address order; any access wholly inside
    one run is plain RAM.

    ``read``/``write`` accesses are 1, 2, or 4 bytes on both the RAM
    and MMIO paths; any other size raises ``ValueError`` before any
    routing or counter side effect, so RAM and MMIO reject malformed
    accesses uniformly.
    """

    def __init__(self, ram: PhysicalMemory) -> None:
        self.ram = ram
        self.regions: list[MMIORegion] = []
        # (observer, watched pages or None), in registration order.
        self._store_observers: list[
            tuple[Callable[[int, int], None], Container[int] | None]] = []
        self.io_reads = 0
        self.io_writes = 0
        # Base-sorted routing arrays, rebuilt by add_region.
        self._sorted_regions: list[MMIORegion] = []
        self._bases: list[int] = []
        self._ends: list[int] = []
        self._set_ram_runs()

    def add_region(self, region: MMIORegion) -> None:
        for existing in self.regions:
            if (region.base < existing.base + existing.size
                    and existing.base < region.base + region.size):
                raise ValueError(
                    f"MMIO region {region.name} overlaps {existing.name}"
                )
        self.regions.append(region)
        self._sorted_regions = sorted(self.regions, key=lambda r: r.base)
        self._bases = [r.base for r in self._sorted_regions]
        self._ends = [r.base + r.size for r in self._sorted_regions]
        self._set_ram_runs()

    def _set_ram_runs(self) -> None:
        """Recompute ``ram_runs``: RAM minus every MMIO window."""
        runs = []
        start, top = 0, self.ram.size
        for base, end in zip(self._bases, self._ends):
            if start >= top:
                break
            if base > start:
                runs.append((start, min(base, top)))
            start = max(start, end)
        if start < top:
            runs.append((start, top))
        self.ram_runs = tuple(runs)
        # Probe arrays for ``in_ram_run``: a leading (0, 0) sentinel
        # makes ``bisect_right(starts, addr) - 1`` a valid index for
        # every addr >= 0, and an empty run never covers anything.
        self._run_starts = [0] + [s for s, _ in runs]
        self._run_ends = [0] + [e for _, e in runs]

    def add_store_observer(self, observer: Callable[[int, int], None],
                           pages: Container[int] | None) -> None:
        """Run ``observer(addr, size)`` after each RAM write that
        touches a page in ``pages``, or after every RAM write if
        ``pages`` is None.

        ``pages`` is the observer's own page index, kept live: the bus
        probes it on every write, so the owner must mutate it in place
        and never rebind it.
        """
        self._store_observers.append((observer, pages))

    def notify_store(self, addr: int, size: int) -> None:
        """Run the store observers for a RAM write of ``size`` bytes at
        ``addr`` (at most two pages) that has already landed."""
        first = addr >> PAGE_SHIFT
        last = (addr + size - 1) >> PAGE_SHIFT
        for observer, pages in self._store_observers:
            if pages is None or first in pages or last in pages:
                observer(addr, size)

    def in_ram_run(self, addr: int, size: int) -> bool:
        """True if [addr, addr+size) lies inside one RAM run."""
        return addr + size <= self._run_ends[
            bisect_right(self._run_starts, addr) - 1]

    # ------------------------------------------------------------------
    # Routing.  Regions never overlap, so the region containing ``addr``
    # (if any) is the one with the greatest base <= addr, and a region
    # intersecting [addr, addr+size) is either that one or the next.
    # ------------------------------------------------------------------

    def region_at(self, addr: int) -> MMIORegion | None:
        i = bisect_right(self._bases, addr) - 1
        if i >= 0 and addr < self._ends[i]:
            return self._sorted_regions[i]
        return None

    def is_io(self, addr: int, size: int = 1) -> bool:
        """True if any byte of [addr, addr+size) falls in an MMIO region."""
        if self.in_ram_run(addr, size):
            return False
        i = bisect_right(self._bases, addr) - 1
        if i >= 0 and addr < self._ends[i]:
            return True
        i += 1
        return i < len(self._bases) and self._bases[i] < addr + size

    def write_faults(self, addr: int, size: int) -> bool:
        """True if ``write(addr, _, size)`` raises #GP: its first byte
        is in no MMIO region and the access runs past the end of RAM."""
        return addr + size > self.ram.size and self.region_at(addr) is None

    # ------------------------------------------------------------------
    # Access paths.  Reads/writes raise guest #GP for addresses that hit
    # neither RAM nor a device, matching a machine-check-free PC where
    # unmapped physical accesses just misbehave; faulting keeps bugs in
    # workloads loud.  Routing is by the access's first byte, as on the
    # seed bus; ``is_io`` is the conservative straddle check the
    # execution engines use before accessing.
    # ------------------------------------------------------------------

    def read(self, addr: int, size: int) -> int:
        addr &= MASK32
        if size != 4 and size != 1 and size != 2:
            raise ValueError(f"unsupported access size {size} "
                             f"(must be 1, 2, or 4)")
        if self.in_ram_run(addr, size):
            region = None
        else:
            region = self.region_at(addr)
        if region is not None:
            self.io_reads += 1
            return region.handler.mmio_read(addr - region.base, size) & (
                (1 << (8 * size)) - 1
            )
        ram = self.ram
        try:
            if size == 4:
                return ram.read32(addr)
            if size == 1:
                return ram.read8(addr)
            return ram.read16(addr)
        except IndexError:
            raise general_protection() from None

    def write(self, addr: int, value: int, size: int) -> None:
        addr &= MASK32
        if size != 4 and size != 1 and size != 2:
            raise ValueError(f"unsupported access size {size} "
                             f"(must be 1, 2, or 4)")
        if self.in_ram_run(addr, size):
            region = None
        else:
            region = self.region_at(addr)
        if region is not None:
            self.io_writes += 1
            region.handler.mmio_write(addr - region.base, value, size)
            return
        ram = self.ram
        try:
            if size == 4:
                ram.write32(addr, value)
            elif size == 1:
                ram.write8(addr, value)
            else:
                ram.write16(addr, value)
        except IndexError:
            raise general_protection() from None
        self.notify_store(addr, size)

    def write_block(self, addr: int, data: bytes) -> None:
        """A device's burst: ``data`` written at ``addr`` as if by
        consecutive single-byte writes.

        A span inside one RAM run is one RAM copy, after which the
        store observers run once per page-bounded piece, in address
        order.  Observers whose state is kept per page (the decode
        cache, the SMC manager) end exactly as after the byte writes;
        the MMU bumps ``mapping_epoch`` once per rewritten PTE instead
        of once per write.  Any other span — one that reaches MMIO,
        leaves RAM or wraps — replays the byte writes through ``write``
        exactly, MMIO side effects and the #GP of the first bad byte
        included.
        """
        addr &= MASK32
        if not self.in_ram_run(addr, len(data)):
            for offset, value in enumerate(data):
                self.write(addr + offset, value, 1)
            return
        self.ram.write_bytes(addr, data)
        end = addr + len(data)
        while addr < end:
            stop = min(end, (addr // PAGE_SIZE + 1) * PAGE_SIZE)
            self.notify_store(addr, stop - addr)
            addr = stop

    def read_code_bytes(self, addr: int, length: int) -> bytes:
        """Fetch code bytes from RAM, bypassing MMIO.

        Instruction fetch from device space is a workload bug; raise #GP
        if attempted.
        """
        if self.is_io(addr, length):
            raise general_protection()
        try:
            return self.ram.read_bytes(addr, length)
        except IndexError:
            raise general_protection() from None
