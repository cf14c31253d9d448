"""The guest machine: RAM, bus, MMU, and the standard device complement.

A ``Machine`` is everything *outside* the CPU.  The pure interpreter and
the full CMS system both execute against the same ``Machine``, which is
what makes the golden equivalence tests possible: identical devices,
identical memory, two execution engines.

Default physical memory map::

    0x0000_0000 .. ram_size      guest RAM (default 4 MiB)
    0x000A_0000 .. +0x1_0000     framebuffer MMIO (shadows RAM, VGA-style)
    0xFFF0_0000 .. +0x1000       console MMIO window
    0xFFF1_0000 .. +0x1000       timer MMIO window
    0xFFF2_0000 .. +0x1000       DMA controller MMIO window
    0xFFF3_0000 .. +0x1000       network interface MMIO window
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.devices.console import Console
from repro.devices.disk import Disk
from repro.devices.dma import DMAController
from repro.devices.framebuffer import Framebuffer
from repro.devices.nic import NetworkInterface
from repro.devices.pic import InterruptController
from repro.devices.port_bus import PortBus
from repro.devices.timer import Timer
from repro.isa.assembler import Program, assemble
from repro.isa.exceptions import general_protection
from repro.memory.bus import MemoryBus, MMIORegion
from repro.memory.mmu import MMU
from repro.memory.physical import PhysicalMemory

MASK32 = 0xFFFFFFFF

FRAMEBUFFER_BASE = 0x000A0000
CONSOLE_MMIO_BASE = 0xFFF00000
TIMER_MMIO_BASE = 0xFFF10000
DMA_MMIO_BASE = 0xFFF20000
NIC_MMIO_BASE = 0xFFF30000
MMIO_WINDOW_SIZE = 0x1000

DEFAULT_RAM_SIZE = 4 * 1024 * 1024


@dataclass
class MachineConfig:
    """Construction options for a guest machine."""

    ram_size: int = DEFAULT_RAM_SIZE
    with_framebuffer: bool = True
    framebuffer_base: int = FRAMEBUFFER_BASE
    timer_period: int = 10_000


class Machine:
    """Guest RAM, MMU, buses and devices, wired to a default map."""

    def __init__(self, config: MachineConfig | None = None) -> None:
        self.config = config or MachineConfig()
        self.ram = PhysicalMemory(self.config.ram_size)
        self.bus = MemoryBus(self.ram)
        self.mmu = MMU(self.bus)
        self.ports = PortBus()
        self.pic = InterruptController()
        self.console = Console()
        # The devices whose ``tick`` can change state: each device keeps
        # itself in this set while started (see ``tick``).
        self.awake: set = set()
        self.timer = Timer(self.pic, period=self.config.timer_period,
                           awake=self.awake)
        self.dma = DMAController(self.bus, self.pic, awake=self.awake)
        self.disk = Disk(self.bus, self.pic, awake=self.awake)
        self.nic = NetworkInterface(self.bus, self.pic, awake=self.awake)
        self.framebuffer: Framebuffer | None = None

        self.pic.attach(self.ports)
        self.console.attach(self.ports)
        self.timer.attach(self.ports)
        self.dma.attach(self.ports)
        self.disk.attach(self.ports)
        self.nic.attach(self.ports)

        self.bus.add_region(
            MMIORegion(CONSOLE_MMIO_BASE, MMIO_WINDOW_SIZE, self.console,
                       "console")
        )
        self.bus.add_region(
            MMIORegion(TIMER_MMIO_BASE, MMIO_WINDOW_SIZE, self.timer, "timer")
        )
        self.bus.add_region(
            MMIORegion(DMA_MMIO_BASE, MMIO_WINDOW_SIZE, self.dma, "dma")
        )
        self.bus.add_region(
            MMIORegion(NIC_MMIO_BASE, MMIO_WINDOW_SIZE, self.nic, "nic")
        )
        if self.config.with_framebuffer:
            self.framebuffer = Framebuffer()
            self.framebuffer.attach(self.ports)
            self.bus.add_region(
                MMIORegion(self.config.framebuffer_base,
                           self.framebuffer.size, self.framebuffer,
                           "framebuffer")
            )

        self._devices = (self.timer, self.dma, self.disk, self.nic)
        self._added_tickers: tuple = ()
        self.instructions_retired = 0

    def add_ticker(self, device) -> None:
        """Register an extra device on the instruction-time tick list.

        Used by the fault-injection harness to advance schedule-driven
        injectors in device time, so that two machines running the same
        guest observe identical asynchronous event timing.  Such a
        device is ticked on every call, after the built-in ones.
        """
        self._added_tickers = (*self._added_tickers, device)

    # ------------------------------------------------------------------
    # Program loading
    # ------------------------------------------------------------------

    def load_program(self, program: Program) -> int:
        """Load an assembled program; returns its entry address."""
        self.ram.load_image(program.segments)
        return program.entry

    def load_source(self, source: str) -> int:
        """Assemble and load t86 source; returns the entry address."""
        return self.load_program(assemble(source))

    # ------------------------------------------------------------------
    # Virtual memory paths (MMU + bus)
    # ------------------------------------------------------------------

    def fetch_byte(self, vaddr: int) -> int:
        """Instruction fetch: one code byte at virtual ``vaddr``."""
        paddr = self.mmu.translate(vaddr & MASK32, is_write=False)
        if self.bus.is_io(paddr, 1):
            raise general_protection()
        try:
            return self.ram.read8(paddr)
        except IndexError:
            raise general_protection() from None

    def vtranslate(self, vaddr: int, size: int, is_write: bool) -> int:
        """Translate without performing the access (the interpreter's
        data path; translated code uses the non-counting
        ``mmu.translate_range(..., speculative=True)``)."""
        return self.mmu.translate_range(vaddr & MASK32, size, is_write)

    # ------------------------------------------------------------------
    # Time
    # ------------------------------------------------------------------

    def tick(self, instructions: int) -> None:
        """Advance device time by ``instructions`` retired instructions.

        Ticks the built-in devices that are in ``awake``, in the fixed
        order timer, DMA, disk, NIC, then every added ticker.  A device
        out of the set is idle, and an idle device's ``tick`` returns
        at once: the timer is in the set while running, the DMA
        controller and the disk while busy, the NIC while enabled and
        armed.  Membership is read as the loop reaches each device, so
        a device that an earlier one starts or stops within this call
        is ticked or skipped exactly as the call-every-device loop
        would.
        """
        if instructions <= 0:
            return
        self.instructions_retired += instructions
        awake = self.awake
        if awake:
            for device in self._devices:
                if device in awake:
                    device.tick(instructions)
        for device in self._added_tickers:
            device.tick(instructions)

    def pending_vector(self) -> int | None:
        """Highest-priority deliverable interrupt vector, if any."""
        return self.pic.pending_vector()
