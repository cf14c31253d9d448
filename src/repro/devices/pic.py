"""Interrupt controller (a simplified single 8259-style PIC).

IRQ lines 0..15 map to guest vectors 32+IRQ.  Devices call
``request_irq``; the CPU side (interpreter, or the host checking at
molecule boundaries) polls ``pending_vector`` and calls ``acknowledge``
when it starts delivery.  An in-service IRQ blocks re-delivery of the
same line until the guest writes EOI, mirroring the real protocol
closely enough for driver-style guest code.

Port map (defaults): command/EOI at 0x20, mask at 0x21.
"""

from __future__ import annotations

from repro.devices.port_bus import PortBus
from repro.isa.exceptions import IRQ_BASE

EOI_COMMAND = 0x20


class InterruptController:
    """Priority interrupt controller with masking and EOI."""

    NUM_IRQS = 16

    def __init__(self) -> None:
        self._pending = 0
        self._in_service = 0
        self._mask = 0
        self.raised = 0

    def attach(self, ports: PortBus, command_port: int = 0x20,
               mask_port: int = 0x21) -> None:
        ports.register(command_port, reader=self._read_pending,
                       writer=self._write_command)
        ports.register(mask_port, reader=lambda: self._mask,
                       writer=self._write_mask)

    # ------------------------------------------------------------------
    # Device side
    # ------------------------------------------------------------------

    def request_irq(self, irq: int) -> None:
        if not 0 <= irq < self.NUM_IRQS:
            raise ValueError(f"bad IRQ {irq}")
        self._pending |= 1 << irq
        self.raised += 1

    # ------------------------------------------------------------------
    # CPU side
    # ------------------------------------------------------------------

    def has_pending(self) -> bool:
        return self._deliverable() != 0

    def pending_vector(self) -> int | None:
        """Highest-priority deliverable vector, or None."""
        deliverable = self._deliverable()
        if not deliverable:
            return None
        irq = (deliverable & -deliverable).bit_length() - 1
        return IRQ_BASE + irq

    def acknowledge(self, vector: int) -> None:
        """CPU accepted delivery of ``vector``: pending -> in-service."""
        irq = vector - IRQ_BASE
        self._pending &= ~(1 << irq)
        self._in_service |= 1 << irq

    # ------------------------------------------------------------------
    # Guest-visible registers
    # ------------------------------------------------------------------

    def _deliverable(self) -> int:
        return self._pending & ~self._mask & ~self._in_service

    def _read_pending(self) -> int:
        return self._pending

    def _write_command(self, value: int) -> None:
        if value == EOI_COMMAND and self._in_service:  # else spurious
            lowest = self._in_service & -self._in_service
            self._in_service &= ~lowest

    def _write_mask(self, value: int) -> None:
        self._mask = value & 0xFFFF
