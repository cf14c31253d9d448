"""Programmable interval timer raising IRQ 0.

The timer counts retired guest instructions (our simulator's notion of
time, consistent with the paper's molecule-count — not cycle-accurate —
simulator) and requests IRQ 0 every ``period`` instructions while
running.

Interrupts arriving while the host is mid-translation force a rollback
to the last committed state (paper §3.3); this device is what generates
that pressure in the boot workloads.

Port map (defaults): period at 0x40, control at 0x41 (1 starts,
0 stops).  MMIO window: offset 0 = period, offset 4 = control,
offset 8 = current count (read-only).
"""

from __future__ import annotations

from repro.devices.pic import InterruptController
from repro.devices.port_bus import PortBus


class Timer:
    """Instruction-count interval timer."""

    IRQ = 0

    def __init__(self, pic: InterruptController, period: int = 10_000,
                 awake: set | None = None) -> None:
        self._pic = pic
        self.period = period
        # The machine's set of devices to tick; the timer is in it
        # exactly while running.
        self.awake = set() if awake is None else awake
        self._running = False
        self._count = 0
        self.fired = 0
        self.mmio_accesses = 0

    def attach(self, ports: PortBus, period_port: int = 0x40,
               control_port: int = 0x41) -> None:
        ports.register(period_port, reader=lambda: self.period,
                       writer=self._set_period)
        ports.register(control_port, reader=lambda: int(self.running),
                       writer=self._set_control)

    @property
    def running(self) -> bool:
        return self._running

    @running.setter
    def running(self, value: bool) -> None:
        self._running = value
        if value:
            self.awake.add(self)
        else:
            self.awake.discard(self)

    def tick(self, instructions: int) -> None:
        """Advance time by ``instructions`` retired guest instructions."""
        if not self.running or self.period <= 0:
            return
        self._count += instructions
        while self._count >= self.period:
            self._count -= self.period
            self._pic.request_irq(self.IRQ)
            self.fired += 1

    def _set_period(self, value: int) -> None:
        self.period = max(0, value)
        self._count = 0

    def _set_control(self, value: int) -> None:
        self.running = bool(value & 1)
        if not self.running:
            self._count = 0

    # ------------------------------------------------------------------
    # MMIO window
    # ------------------------------------------------------------------

    def mmio_read(self, offset: int, size: int) -> int:
        self.mmio_accesses += 1
        if offset == 0:
            return self.period
        if offset == 4:
            return int(self.running)
        if offset == 8:
            return self._count
        return 0

    def mmio_write(self, offset: int, value: int, size: int) -> None:
        self.mmio_accesses += 1
        if offset == 0:
            self._set_period(value)
        elif offset == 4:
            self._set_control(value)
