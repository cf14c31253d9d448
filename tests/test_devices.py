"""Tests for the device models."""

from __future__ import annotations

import pytest

from repro.devices.console import Console
from repro.devices.disk import SECTOR_SIZE, Disk
from repro.devices.dma import DMAController
from repro.devices.framebuffer import Framebuffer
from repro.devices.nic import NetworkInterface
from repro.devices.pic import InterruptController
from repro.devices.port_bus import PortBus
from repro.devices.timer import Timer
from repro.isa.exceptions import IRQ_BASE
from repro.memory.bus import MemoryBus
from repro.memory.physical import PhysicalMemory


class TestPortBus:
    def test_unknown_port_reads_ones(self):
        ports = PortBus()
        assert ports.read(0x1234) == 0xFFFFFFFF

    def test_unknown_port_write_ignored(self):
        ports = PortBus()
        ports.write(0x1234, 5)  # no exception

    def test_register_and_dispatch(self):
        ports = PortBus()
        seen = []
        ports.register(0x10, reader=lambda: 7, writer=seen.append)
        assert ports.read(0x10) == 7
        ports.write(0x10, 9)
        assert seen == [9]

    def test_double_registration_rejected(self):
        ports = PortBus()
        ports.register(0x10, reader=lambda: 0)
        with pytest.raises(ValueError):
            ports.register(0x10, reader=lambda: 1)


class TestConsole:
    def test_port_output(self):
        ports = PortBus()
        console = Console()
        console.attach(ports)
        for ch in b"hi":
            ports.write(0xE9, ch)
        assert console.output == "hi"

    def test_mmio_output(self):
        console = Console()
        console.mmio_write(0, ord("x"), 1)
        assert console.output == "x"
        assert console.mmio_read(4, 4) == 1  # status ready


class TestPIC:
    def test_pending_and_ack(self):
        pic = InterruptController()
        assert not pic.has_pending()
        pic.request_irq(3)
        assert pic.pending_vector() == IRQ_BASE + 3
        pic.acknowledge(IRQ_BASE + 3)
        assert not pic.has_pending()

    def test_priority_lowest_irq_first(self):
        pic = InterruptController()
        pic.request_irq(5)
        pic.request_irq(1)
        assert pic.pending_vector() == IRQ_BASE + 1

    def test_in_service_blocks_same_line_until_eoi(self):
        pic = InterruptController()
        pic.request_irq(0)
        pic.acknowledge(IRQ_BASE)
        pic.request_irq(0)
        assert not pic.has_pending()  # blocked while in service
        pic._write_command(0x20)  # EOI
        assert pic.has_pending()

    def test_masking(self):
        pic = InterruptController()
        pic._write_mask(0b1)
        pic.request_irq(0)
        assert not pic.has_pending()
        pic._write_mask(0)
        assert pic.has_pending()

    def test_ports(self):
        ports = PortBus()
        pic = InterruptController()
        pic.attach(ports)
        pic.request_irq(2)
        assert ports.read(0x20) == 0b100
        ports.write(0x21, 0xFFFF)
        assert not pic.has_pending()


class TestTimer:
    def test_fires_every_period(self):
        pic = InterruptController()
        timer = Timer(pic, period=100)
        timer.running = True
        timer.tick(99)
        assert timer.fired == 0
        timer.tick(1)
        assert timer.fired == 1
        timer.tick(250)
        assert timer.fired == 3

    def test_not_running_no_fire(self):
        pic = InterruptController()
        timer = Timer(pic, period=10)
        timer.tick(100)
        assert timer.fired == 0

    def test_port_programming(self):
        ports = PortBus()
        pic = InterruptController()
        timer = Timer(pic)
        timer.attach(ports)
        ports.write(0x40, 50)
        ports.write(0x41, 1)
        assert timer.period == 50 and timer.running
        ports.write(0x41, 0)
        assert not timer.running

    def test_mmio_window(self):
        pic = InterruptController()
        timer = Timer(pic, period=7)
        assert timer.mmio_read(0, 4) == 7
        timer.mmio_write(4, 1, 4)
        assert timer.running


def _bus(size=64 * 1024):
    ram = PhysicalMemory(size)
    return ram, MemoryBus(ram)


class TestDMA:
    def test_copies_and_interrupts(self):
        ram, bus = _bus()
        pic = InterruptController()
        dma = DMAController(bus, pic)
        ram.write_bytes(0x100, b"hello dma")
        dma.source, dma.dest, dma.length = 0x100, 0x800, 9
        dma._control(1)
        assert dma.busy
        dma.tick(1)
        assert ram.read_bytes(0x800, 9) == b"hello dma"
        assert not dma.busy
        assert pic.pending_vector() == IRQ_BASE + DMAController.IRQ

    def test_large_copy_takes_multiple_ticks(self):
        ram, bus = _bus()
        pic = InterruptController()
        dma = DMAController(bus, pic)
        dma.source, dma.dest, dma.length = 0, 0x1000, 200
        dma._control(1)
        dma.tick(1)
        assert dma.busy  # 64 bytes per tick
        dma.tick(1)
        dma.tick(1)
        dma.tick(1)
        assert not dma.busy

    def test_writes_visible_to_observers(self):
        ram, bus = _bus()
        seen = []
        # Every written byte observed exactly once, in address order.
        bus.add_store_observer(
            lambda a, s: seen.extend(range(a, a + s)), None)
        pic = InterruptController()
        dma = DMAController(bus, pic)
        dma.source, dma.dest, dma.length = 0, 0x2000, 4
        dma._control(1)
        dma.tick(1)
        assert seen == list(range(0x2000, 0x2004))

    def test_ports(self):
        ram, bus = _bus()
        ports = PortBus()
        pic = InterruptController()
        dma = DMAController(bus, pic)
        dma.attach(ports)
        ports.write(0x50, 0x10)
        ports.write(0x51, 0x20)
        ports.write(0x52, 8)
        ports.write(0x53, 1)
        assert ports.read(0x53) == 1  # busy
        dma.tick(1)
        assert ports.read(0x53) == 0


class TestDisk:
    def test_sector_read(self):
        ram, bus = _bus()
        pic = InterruptController()
        disk = Disk(bus, pic)
        disk.write_image(SECTOR_SIZE, b"\xabKERNEL")
        disk.sector, disk.dest, disk.count = 1, 0x3000, 1
        disk._control(1)
        for _ in range(10):
            disk.tick(1)
        assert not disk.busy
        assert ram.read_bytes(0x3000, 7) == b"\xabKERNEL"
        assert disk.reads_completed == 1

    def test_reads_beyond_image_are_zero(self):
        ram, bus = _bus()
        pic = InterruptController()
        disk = Disk(bus, pic, image=b"xy")
        disk.sector, disk.dest, disk.count = 0, 0x100, 1
        disk._control(1)
        for _ in range(10):
            disk.tick(1)
        assert ram.read_bytes(0x100, 2) == b"xy"
        assert ram.read8(0x102) == 0


class TestFramebuffer:
    def test_pixel_writes_and_checksum(self):
        fb = Framebuffer(256)
        fb.mmio_write(0, 0xFF, 1)
        fb.mmio_write(4, 0xAABBCCDD, 4)
        assert fb.pixel_writes == 2
        assert fb.mmio_read(4, 4) == 0xAABBCCDD
        assert fb.checksum() != 0

    def test_frame_flip_port(self):
        ports = PortBus()
        fb = Framebuffer(16)
        fb.attach(ports)
        ports.write(0xF0, 1)
        ports.write(0xF0, 1)
        assert fb.frames == 2
        assert ports.read(0xF0) == 2

    def test_out_of_range_write_ignored(self):
        fb = Framebuffer(8)
        fb.mmio_write(100, 1, 4)
        assert fb.checksum() == 0


class TestNetworkInterface:
    def _nic(self):
        ram, bus = _bus()
        pic = InterruptController()
        nic = NetworkInterface(bus, pic, seed=0x1234)
        return ram, bus, pic, nic

    def test_delivers_packet_and_interrupts(self):
        ram, bus, pic, nic = self._nic()
        nic.rx_addr = 0x400
        nic.period = 10
        nic._control(1)
        nic.tick(10)
        assert nic.packets_delivered == 1
        assert pic.pending_vector() == IRQ_BASE + NetworkInterface.IRQ
        words = nic.packet_words(0)
        got = [bus.read(0x400 + 4 * i, 4) for i in range(8)]
        assert got == words
        assert words[0] == 0  # header word carries the packet index

    def test_stop_and_wait_requires_rearm(self):
        ram, bus, pic, nic = self._nic()
        nic.rx_addr = 0x400
        nic.period = 5
        nic._control(1)
        nic.tick(5)
        assert nic.packets_delivered == 1
        nic.tick(500)  # un-armed: nothing may arrive
        assert nic.packets_delivered == 1
        nic._control(2)  # the ISR's re-arm
        nic.tick(5)
        assert nic.packets_delivered == 2

    def test_payloads_deterministic_per_index(self):
        _, _, _, nic = self._nic()
        other = NetworkInterface(_bus()[1], InterruptController(),
                                 seed=0x1234)
        for index in (0, 1, 7):
            assert nic.packet_words(index) == other.packet_words(index)
        assert nic.packet_words(0) != nic.packet_words(1)

    def test_stop_clears_armed(self):
        ram, bus, pic, nic = self._nic()
        nic.rx_addr = 0x400
        nic.period = 5
        nic._control(1)
        nic._control(0)
        nic.tick(500)
        assert nic.packets_delivered == 0

    def test_writes_visible_to_store_observers(self):
        ram, bus = _bus()
        seen = []
        bus.add_store_observer(lambda a, s: seen.append(a), None)
        nic = NetworkInterface(bus, InterruptController())
        nic.rx_addr = 0x800
        nic.period = 1
        nic._control(1)
        nic.tick(1)
        assert len(seen) == NetworkInterface.PACKET_WORDS
        assert seen[0] == 0x800

    def test_ports(self):
        ram, bus = _bus()
        ports = PortBus()
        nic = NetworkInterface(bus, InterruptController())
        nic.attach(ports)
        ports.write(0x70, 0x900)
        ports.write(0x71, 3)
        ports.write(0x72, 1)
        assert ports.read(0x70) == 0x900
        assert ports.read(0x71) == 3
        assert ports.read(0x72) == 0b11  # enabled + armed
        nic.tick(3)
        assert ports.read(0x73) == 1
