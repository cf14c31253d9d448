"""Memory-mapped framebuffer (the Quake/BLT substrate).

A linear byte framebuffer mapped at a classic VGA-style physical window.
Game-style workloads blit into it through memory-mapped stores — the
performance-critical inner loops the paper says are often
self-modifying — and flip frames through a control port.  Frames
retired per unit of work is the "frame rate" metric for the §3.6.2
Quake self-revalidation experiment.
"""

from __future__ import annotations

from repro.devices.port_bus import PortBus

DEFAULT_BASE = 0x000A0000
DEFAULT_SIZE = 0x10000


class Framebuffer:
    """Byte-addressed linear framebuffer with a frame-flip port."""

    def __init__(self, size: int = DEFAULT_SIZE) -> None:
        self.size = size
        self._pixels = bytearray(size)
        self.pixel_writes = 0
        self.frames = 0
        self.mmio_accesses = 0

    def checksum(self) -> int:
        """Order-sensitive checksum of the current frame contents."""
        total = 0
        for i, b in enumerate(self._pixels):
            if b:
                total = (total * 31 + i * 257 + b) & 0xFFFFFFFF
        return total

    def attach(self, ports: PortBus, flip_port: int = 0xF0) -> None:
        ports.register(flip_port, reader=lambda: self.frames,
                       writer=self._flip)

    def _flip(self, value: int) -> None:
        self.frames += 1

    # ------------------------------------------------------------------
    # MMIO window: the pixel array itself.
    # ------------------------------------------------------------------

    def mmio_read(self, offset: int, size: int) -> int:
        self.mmio_accesses += 1
        if offset + size > self.size:
            return 0
        return int.from_bytes(self._pixels[offset : offset + size], "little")

    def mmio_write(self, offset: int, value: int, size: int) -> None:
        self.mmio_accesses += 1
        self.pixel_writes += 1
        if offset + size > self.size:
            return
        self._pixels[offset : offset + size] = (
            value & ((1 << (8 * size)) - 1)
        ).to_bytes(size, "little")
