"""Device time: ``Machine.tick`` ticks only the awake devices.

The seed's ``Machine.tick`` called ``tick`` on every device on every
call, and each idle device returned at once.  ``Machine.tick`` now calls
only the devices in ``Machine.awake``, which each device keeps current
as it starts and stops.  ``SeedTickMachine`` keeps the seed's loop as
the reference; after every step of a random schedule of port writes,
MMIO-reaching DMA copies, injected events and ticks, every device
register and counter, the PIC lines and RAM must match it.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.devices.disk import SECTOR_SIZE
from repro.fuzz.inject import FaultInjector, InjectionEvent, InjectionPlan
from repro.isa.exceptions import GuestException
from repro.machine import NIC_MMIO_BASE, TIMER_MMIO_BASE, Machine, \
    MachineConfig

RAM = 64 * 1024


class SeedTickMachine(Machine):
    """The seed's device time: every device ticked on every call."""

    def tick(self, instructions: int) -> None:
        if instructions <= 0:
            return
        self.instructions_retired += instructions
        for device in (self.timer, self.dma, self.disk, self.nic,
                       *self._added_tickers):
            device.tick(instructions)


def build(machine_class, plan):
    machine = machine_class(MachineConfig(ram_size=RAM))
    machine.ram.write_bytes(0, bytes((i * 37 + 11) & 0xFF
                                     for i in range(RAM)))
    machine.disk.set_image(bytes((i * 5 + 1) & 0xFF
                                 for i in range(4 * SECTOR_SIZE)))
    injector = FaultInjector(machine, plan) if plan is not None else None
    return machine, injector


def state(machine, injector):
    t, d, k, n, pic = (machine.timer, machine.dma, machine.disk,
                       machine.nic, machine.pic)
    return (
        (t.period, t.running, t._count, t.fired, t.mmio_accesses),
        (d.source, d.dest, d.length, d.busy, d._remaining,
         d.transfers_completed, d.bytes_copied, d.mmio_accesses),
        (k.sector, k.dest, k.count, k.busy, k._cursor, k._remaining,
         k.reads_completed, k.bytes_read),
        (n.rx_addr, n.period, n.enabled, n.armed, n._elapsed,
         n.packets_delivered, n.bytes_delivered, n.mmio_accesses),
        (pic._pending, pic._in_service, pic.raised),
        None if injector is None else (injector.clock, injector.fired,
                                       injector.dma_retries),
        machine.instructions_retired,
        machine.ram.read_bytes(0, RAM),
    )


# DMA destinations: RAM, the end of RAM (a #GP mid-copy), and the
# timer's and the NIC's control registers, so a copy starts or stops a
# device earlier or later in the tick order within one tick.
DMA_DESTS = st.one_of(
    st.integers(0, RAM - 1),
    st.integers(RAM - 80, RAM - 1),
    st.integers(TIMER_MMIO_BASE + 4 - 3, TIMER_MMIO_BASE + 4),
    st.integers(NIC_MMIO_BASE + 8 - 3, NIC_MMIO_BASE + 8),
)

def _writes(*ports):
    """A strategy for one step: these ports written in order."""
    return st.tuples(*(st.tuples(st.just(port), values)
                       for port, values in ports)).map(list)


TICK = st.integers(1, 64).map(lambda n: [("tick", n)])
PORTS = {
    0x40: st.integers(0, 200), 0x41: st.integers(0, 1),
    0x50: st.integers(0, RAM - 1), 0x51: DMA_DESTS,
    0x52: st.integers(0, 300), 0x53: st.integers(0, 1),
    0x60: st.integers(0, 4), 0x61: st.integers(0, RAM - 1),
    0x62: st.integers(0, 2), 0x63: st.integers(0, 1),
    0x70: st.integers(0, RAM - 32), 0x71: st.integers(1, 40),
    0x72: st.integers(0, 3),
}
# Whole programming sequences, so devices start often, plus single
# writes of any register; ticks are drawn as often as everything else.
STEPS = st.one_of(
    TICK, TICK, TICK, TICK,
    _writes((0x40, PORTS[0x40]), (0x41, st.just(1))),
    _writes((0x41, st.just(0))),
    _writes(*((port, PORTS[port]) for port in (0x50, 0x51, 0x52)),
            (0x53, st.just(1))),
    _writes(*((port, PORTS[port]) for port in (0x60, 0x61, 0x62)),
            (0x63, st.just(1))),
    _writes((0x70, PORTS[0x70]), (0x71, PORTS[0x71]), (0x72, st.just(1))),
    _writes((0x72, st.just(2))),
    _writes((0x72, st.just(0))),
    st.sampled_from(sorted(PORTS)).flatmap(
        lambda port: _writes((port, PORTS[port]))),
)

EVENTS = st.one_of(
    st.builds(InjectionEvent, kind=st.just("irq"), at=st.integers(1, 600),
              line=st.integers(3, 5)),
    st.builds(InjectionEvent, kind=st.just("dma"), at=st.integers(1, 600),
              source=st.integers(0, RAM - 200), dest=DMA_DESTS,
              length=st.integers(1, 200)),
)


@given(st.none() | st.lists(EVENTS, max_size=6).map(
           lambda events: InjectionPlan(tuple(events))),
       st.lists(STEPS, min_size=20, max_size=80))
@settings(max_examples=200, deadline=None)
def test_awake_devices_tick_like_every_device(plan, steps):
    worlds = [build(Machine, plan), build(SeedTickMachine, plan)]
    for step in (write for writes in steps for write in writes):
        results = []
        for machine, injector in worlds:
            try:
                if step[0] == "tick":
                    machine.tick(step[1])
                else:
                    machine.ports.write(*step)
                fault = None
            except GuestException as exc:
                fault = exc.vector
            results.append((fault, state(machine, injector)))
        assert results[0] == results[1], step
