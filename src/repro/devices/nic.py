"""A deterministic network interface delivering packets by DMA.

Paper §3.6.1: devices that write guest memory behind the CPU's back are
exactly the hard case for a translation cache — "DMA writes to a
protected page invalidate all translations for the page."  The NIC
writes received packets straight into a guest-programmed receive buffer
through the memory bus, so the CMS store-observer sees every byte and
applies the same invalidation rule as for the DMA controller.

The device is *stop-and-wait*: at most one packet is ever outstanding,
and the next is only delivered after the guest re-arms the device via
the control port (normally from its receive ISR).  That makes the
packet sequence — indices, payloads, and delivery count — a pure
function of the guest's acknowledgements, independent of exactly which
instruction boundary the interrupt lands on.  The differential scenario
oracle depends on this: interpreter and CMS deliver at different
boundaries, yet both observe the identical packet stream.

Port map (defaults): 0x70 receive buffer address, 0x71 inter-packet
period (instruction-time), 0x72 control (0 stop, 1 start+arm, 2 re-arm),
0x73 status (packets delivered so far).  MMIO window mirrors the same
registers at offsets 0/4/8/12.

Payloads come from a seeded LCG over the packet index, so a given
(seed, index) pair always yields the same bytes on every machine.
"""

from __future__ import annotations

from repro.devices.pic import InterruptController
from repro.devices.port_bus import PortBus
from repro.memory.bus import MemoryBus

MASK32 = 0xFFFFFFFF

CTRL_STOP = 0
CTRL_START = 1
CTRL_ARM = 2


class NetworkInterface:
    """A stop-and-wait packet-receive engine with deterministic payloads."""

    IRQ = 4
    PACKET_WORDS = 8  # one header word (packet index) + 7 payload words
    PACKET_BYTES = PACKET_WORDS * 4

    def __init__(
        self,
        bus: MemoryBus,
        pic: InterruptController,
        seed: int = 0x5EEDCAFE,
        awake: set | None = None,
    ) -> None:
        self._bus = bus
        self._pic = pic
        # The machine's set of devices to tick; the NIC is in it exactly
        # while enabled and armed.
        self.awake = set() if awake is None else awake
        self.seed = seed & MASK32
        self.rx_addr = 0
        self.period = 1024
        self._enabled = False
        self._armed = False
        self._elapsed = 0
        self.packets_delivered = 0
        self.bytes_delivered = 0
        self.mmio_accesses = 0

    def attach(self, ports: PortBus, base_port: int = 0x70) -> None:
        ports.register(base_port, reader=lambda: self.rx_addr,
                       writer=self._set_rx_addr)
        ports.register(base_port + 1, reader=lambda: self.period,
                       writer=self._set_period)
        ports.register(base_port + 2,
                       reader=lambda: int(self.enabled) | int(self.armed) << 1,
                       writer=self._control)
        ports.register(base_port + 3,
                       reader=lambda: self.packets_delivered)

    @property
    def enabled(self) -> bool:
        return self._enabled

    @enabled.setter
    def enabled(self, value: bool) -> None:
        self._enabled = value
        self._sync_awake()

    @property
    def armed(self) -> bool:
        return self._armed

    @armed.setter
    def armed(self, value: bool) -> None:
        self._armed = value
        self._sync_awake()

    def _sync_awake(self) -> None:
        if self._enabled and self._armed:
            self.awake.add(self)
        else:
            self.awake.discard(self)

    def tick(self, instructions: int) -> None:
        """Advance instruction-time; deliver one packet when armed + due."""
        if not (self.enabled and self.armed):
            return
        self._elapsed += instructions
        if self._elapsed >= self.period:
            self._deliver()

    def packet_words(self, index: int) -> list[int]:
        """The deterministic contents of packet ``index``."""
        words = [index & MASK32]
        x = (self.seed ^ (index * 0x9E3779B9)) & MASK32
        for _ in range(self.PACKET_WORDS - 1):
            x = (x * 1103515245 + 12345) & MASK32
            words.append(x)
        return words

    def _deliver(self) -> None:
        addr = self.rx_addr
        for word in self.packet_words(self.packets_delivered):
            self._bus.write(addr, word, 4)
            addr += 4
        self.packets_delivered += 1
        self.bytes_delivered += self.PACKET_BYTES
        self._elapsed = 0
        self.armed = False
        self._pic.request_irq(self.IRQ)

    def _set_rx_addr(self, value: int) -> None:
        self.rx_addr = value

    def _set_period(self, value: int) -> None:
        self.period = max(1, value)

    def _control(self, value: int) -> None:
        if value == CTRL_STOP:
            self.enabled = False
            self.armed = False
        elif value & CTRL_START:
            self.enabled = True
            self.armed = True
            self._elapsed = 0
        elif value & CTRL_ARM and self.enabled:
            self.armed = True

    # ------------------------------------------------------------------
    # MMIO window
    # ------------------------------------------------------------------

    def mmio_read(self, offset: int, size: int) -> int:
        self.mmio_accesses += 1
        return {0: self.rx_addr, 4: self.period,
                8: int(self.enabled) | int(self.armed) << 1,
                12: self.packets_delivered}.get(offset, 0)

    def mmio_write(self, offset: int, value: int, size: int) -> None:
        self.mmio_accesses += 1
        if offset == 0:
            self._set_rx_addr(value)
        elif offset == 4:
            self._set_period(value)
        elif offset == 8:
            self._control(value)
