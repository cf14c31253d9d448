"""Debug console device.

A Bochs-style debug console: writing a byte to the data port appends a
character to the captured output.  The console also exposes a
memory-mapped window (data register at offset 0, status at offset 4) so
workloads can exercise *memory-mapped* output — the access pattern that
triggers the paper's §3.4 speculative-MMIO machinery.

The captured text doubles as the correctness oracle of the integration
tests: a workload run under the pure interpreter and under full CMS
must print exactly the same bytes.
"""

from __future__ import annotations

from repro.devices.port_bus import PortBus

STATUS_READY = 0x1


class Console:
    """Byte-at-a-time output console with port and MMIO interfaces."""

    def __init__(self) -> None:
        self._output = bytearray()
        self.mmio_accesses = 0

    @property
    def output(self) -> str:
        return self._output.decode("latin-1")

    def attach(self, ports: PortBus, data_port: int = 0xE9,
               status_port: int = 0xEA) -> None:
        ports.register(data_port, reader=lambda: 0, writer=self._write_char)
        ports.register(status_port, reader=lambda: STATUS_READY)

    def _write_char(self, value: int) -> None:
        self._output.append(value & 0xFF)

    # ------------------------------------------------------------------
    # MMIO window: offset 0 = data, offset 4 = status.
    # ------------------------------------------------------------------

    def mmio_read(self, offset: int, size: int) -> int:
        self.mmio_accesses += 1
        if offset == 4:
            return STATUS_READY
        return 0

    def mmio_write(self, offset: int, value: int, size: int) -> None:
        self.mmio_accesses += 1
        if offset == 0:
            self._write_char(value)
