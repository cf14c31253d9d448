"""DMA controller copying guest memory behind the CPU's back.

Paper §3.6.1: "In order to avoid excessive processing for the common
case of paging virtual memory, DMA writes to a protected page invalidate
all translations for the page."  The DMA engine writes through the
memory bus, so the CMS's bus store-observer sees every byte it moves and
applies exactly that page-invalidation rule.  When a tick's source and
destination spans both lie in RAM runs, the chunk is read as one block
and written with one ``MemoryBus.write_block`` (observers run once per
page touched).  Otherwise — an MMIO or out-of-RAM span, or a forward
overlap (0 < dest - source < chunk) where a byte-wise copy re-reads
bytes it has just written and so repeats its first dest - source
bytes — the tick keeps the byte-interleaved read/write loop.

Port map (defaults): 0x50 source, 0x51 destination, 0x52 length,
0x53 control/status (write 1 to start; reads 1 while busy).  MMIO
window mirrors the same registers at offsets 0/4/8/12.
"""

from __future__ import annotations

from repro.devices.pic import InterruptController
from repro.devices.port_bus import PortBus
from repro.memory.bus import MemoryBus


class DMAController:
    """A single-channel memory-to-memory DMA engine."""

    IRQ = 2
    BYTES_PER_TICK = 64

    def __init__(self, bus: MemoryBus, pic: InterruptController,
                 awake: set | None = None) -> None:
        self._bus = bus
        self._pic = pic
        # The machine's set of devices to tick; the controller is in it
        # exactly while busy.
        self.awake = set() if awake is None else awake
        self.source = 0
        self.dest = 0
        self.length = 0
        self._busy = False
        self._remaining = 0
        self.transfers_completed = 0
        self.bytes_copied = 0
        self.mmio_accesses = 0

    def attach(self, ports: PortBus, base_port: int = 0x50) -> None:
        ports.register(base_port, reader=lambda: self.source,
                       writer=self._set_source)
        ports.register(base_port + 1, reader=lambda: self.dest,
                       writer=self._set_dest)
        ports.register(base_port + 2, reader=lambda: self.length,
                       writer=self._set_length)
        ports.register(base_port + 3, reader=lambda: int(self.busy),
                       writer=self._control)

    @property
    def busy(self) -> bool:
        return self._busy

    @busy.setter
    def busy(self, value: bool) -> None:
        self._busy = value
        if value:
            self.awake.add(self)
        else:
            self.awake.discard(self)

    def tick(self, instructions: int) -> None:
        """Move up to BYTES_PER_TICK per instruction-time tick."""
        if not self.busy:
            return
        bus = self._bus
        budget = min(self._remaining, self.BYTES_PER_TICK)
        source, dest = self.source, self.dest
        if bus.in_ram_run(source, budget) and bus.in_ram_run(dest, budget) \
                and not 0 < dest - source < budget:
            bus.write_block(dest, bus.ram.read_bytes(source, budget))
            self.source += budget
            self.dest += budget
            self._remaining -= budget
            self.bytes_copied += budget
        else:
            for _ in range(budget):
                value = bus.read(self.source, 1)
                bus.write(self.dest, value, 1)
                self.source += 1
                self.dest += 1
                self._remaining -= 1
                self.bytes_copied += 1
        if self._remaining == 0:
            self.busy = False
            self.transfers_completed += 1
            self._pic.request_irq(self.IRQ)

    def start_transfer(self, source: int, dest: int, length: int) -> bool:
        """Program and kick one transfer; returns False while busy.

        Equivalent to the guest writing the four control ports, exposed
        for host-side drivers such as the fault-injection harness.
        """
        if self.busy or length <= 0:
            return False
        self.source = source
        self.dest = dest
        self.length = length
        self._control(1)
        return True

    def _set_source(self, value: int) -> None:
        self.source = value

    def _set_dest(self, value: int) -> None:
        self.dest = value

    def _set_length(self, value: int) -> None:
        self.length = value

    def _control(self, value: int) -> None:
        if value & 1 and not self.busy and self.length > 0:
            self._remaining = self.length
            self.busy = True

    # ------------------------------------------------------------------
    # MMIO window
    # ------------------------------------------------------------------

    def mmio_read(self, offset: int, size: int) -> int:
        self.mmio_accesses += 1
        return {0: self.source, 4: self.dest, 8: self.length,
                12: int(self.busy)}.get(offset, 0)

    def mmio_write(self, offset: int, value: int, size: int) -> None:
        self.mmio_accesses += 1
        if offset == 0:
            self._set_source(value)
        elif offset == 4:
            self._set_dest(value)
        elif offset == 8:
            self._set_length(value)
        elif offset == 12:
            self._control(value)
