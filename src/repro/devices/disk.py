"""Simple block device that reads sectors into guest RAM via the bus.

Used by the boot workloads to model the "paging virtual memory" traffic
of §3.6.1: a disk read lands in RAM through the bus, so (like DMA) its
writes are seen by CMS's store observer and invalidate any translations
on the destination pages.  Each tick moves up to ``BYTES_PER_TICK``
bytes as one ``MemoryBus.write_block``, so the observers run once per
page the chunk touches rather than once per byte; a chunk that reaches
MMIO or leaves RAM is replayed byte by byte, exactly as single-byte
writes would land.

Port map (defaults): 0x60 sector, 0x61 destination address,
0x62 sector count, 0x63 control/status (write 1 to start; reads 1 while
busy).
"""

from __future__ import annotations

from repro.devices.pic import InterruptController
from repro.devices.port_bus import PortBus
from repro.memory.bus import MemoryBus

SECTOR_SIZE = 512


class Disk:
    """A port-programmed disk with an in-memory image."""

    IRQ = 3
    BYTES_PER_TICK = 128

    def __init__(self, bus: MemoryBus, pic: InterruptController,
                 image: bytes = b"", awake: set | None = None) -> None:
        self._bus = bus
        self._pic = pic
        # The machine's set of devices to tick; the disk is in it
        # exactly while busy.
        self.awake = set() if awake is None else awake
        self._image = bytearray(image)
        self.sector = 0
        self.dest = 0
        self.count = 0
        self._busy = False
        self._cursor = 0
        self._remaining = 0
        self.reads_completed = 0
        self.bytes_read = 0

    def set_image(self, image: bytes) -> None:
        self._image = bytearray(image)

    def write_image(self, offset: int, data: bytes) -> None:
        end = offset + len(data)
        if end > len(self._image):
            self._image.extend(b"\x00" * (end - len(self._image)))
        self._image[offset:end] = data

    def attach(self, ports: PortBus, base_port: int = 0x60) -> None:
        ports.register(base_port, reader=lambda: self.sector,
                       writer=self._set_sector)
        ports.register(base_port + 1, reader=lambda: self.dest,
                       writer=self._set_dest)
        ports.register(base_port + 2, reader=lambda: self.count,
                       writer=self._set_count)
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
        """Move up to BYTES_PER_TICK bytes of the current read.

        A #GP from the bus (the destination left RAM) propagates with
        this tick's chunk not yet counted in the device's registers.
        """
        if not self.busy:
            return
        budget = min(self._remaining, self.BYTES_PER_TICK)
        cursor = self._cursor
        chunk = bytes(self._image[cursor:cursor + budget])
        if len(chunk) < budget:  # reads beyond the image are zeros
            chunk += bytes(budget - len(chunk))
        self._bus.write_block(self.dest, chunk)
        self._cursor += budget
        self.dest += budget
        self._remaining -= budget
        self.bytes_read += budget
        if self._remaining == 0:
            self.busy = False
            self.reads_completed += 1
            self._pic.request_irq(self.IRQ)

    def _set_sector(self, value: int) -> None:
        self.sector = value

    def _set_dest(self, value: int) -> None:
        self.dest = value

    def _set_count(self, value: int) -> None:
        self.count = value

    def _control(self, value: int) -> None:
        if value & 1 and not self.busy and self.count > 0:
            self._cursor = self.sector * SECTOR_SIZE
            self._remaining = self.count * SECTOR_SIZE
            self.busy = True
