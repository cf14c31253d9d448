"""Tests for the VLIW host: registers, store buffer, alias hardware,
atoms, commit/rollback, and the speculation fault checks."""

from __future__ import annotations

import pytest

from repro.host.alias import AliasHardware
from repro.host.atoms import AluOp, Atom, AtomKind
from repro.host.cpu import ExitKind, HostCPU, _alu
from repro.host.faults import HostFaultError, HostFaultKind
from repro.host.molecule import Molecule, Slot
from repro.host.registers import (
    HostBackedGuestState,
    HostRegisterFile,
    R_EIP,
    R_IF,
    TEMP_BASE,
)
from repro.host.store_buffer import GatedStoreBuffer, StoreBufferOverflow
from repro.machine import CONSOLE_MMIO_BASE, Machine
from repro.memory.finegrain import FineGrainCache
from repro.memory.protection import ProtectionMap, StoreClass


class TestRegisterFile:
    def test_commit_copies_working_to_shadow(self):
        rf = HostRegisterFile()
        rf.set(5, 99)
        assert rf.shadow[5] == 0
        rf.commit()
        assert rf.shadow[5] == 99

    def test_rollback_restores(self):
        rf = HostRegisterFile()
        rf.set(5, 1)
        rf.commit()
        rf.set(5, 2)
        rf.rollback()
        assert rf.get(5) == 1

    def test_values_masked_to_32_bits(self):
        rf = HostRegisterFile()
        rf.set(0, 0x1_0000_0001)
        assert rf.get(0) == 1

    def test_in_sync(self):
        rf = HostRegisterFile()
        assert rf.in_sync()
        rf.set(0, 1)
        assert not rf.in_sync()
        rf.commit()
        assert rf.in_sync()


class TestHostBackedState:
    def test_writes_hit_both_copies(self):
        rf = HostRegisterFile()
        state = HostBackedGuestState(rf)
        state.set_reg(3, 77)
        assert rf.working[3] == 77 and rf.shadow[3] == 77

    def test_eip_and_flags(self):
        rf = HostRegisterFile()
        state = HostBackedGuestState(rf)
        state.eip = 0x1234
        state.set_flag(0, 1)  # CF
        assert rf.shadow[R_EIP] == 0x1234
        assert state.eflags & 1

    def test_eflags_pack_unpack(self):
        rf = HostRegisterFile()
        state = HostBackedGuestState(rf)
        state.eflags = 0xFFFFFFFF
        assert state.get_flag(0) == 1
        state.eflags = 0
        assert state.get_flag(0) == 0


class TestStoreBuffer:
    def test_gating_and_drain(self):
        machine = Machine()
        buffer = GatedStoreBuffer()
        buffer.write(0x100, 0xAB, 1, is_io=False)
        assert machine.bus.read(0x100, 1) == 0  # not yet visible
        buffer.drain(machine.bus)
        assert machine.bus.read(0x100, 1) == 0xAB

    def test_drop_discards(self):
        machine = Machine()
        buffer = GatedStoreBuffer()
        buffer.write(0x100, 0xAB, 1, is_io=False)
        buffer.drop()
        buffer.drain(machine.bus)
        assert machine.bus.read(0x100, 1) == 0

    def test_forwarding_exact(self):
        buffer = GatedStoreBuffer()
        buffer.write(0x100, 0x11223344, 4, is_io=False)
        assert buffer.forward(0x100, 4, 0) == 0x11223344

    def test_forwarding_partial_overlap(self):
        buffer = GatedStoreBuffer()
        buffer.write(0x102, 0xAB, 1, is_io=False)
        merged = buffer.forward(0x100, 4, 0x11223344)
        assert merged == 0x11AB3344

    def test_later_store_wins(self):
        buffer = GatedStoreBuffer()
        buffer.write(0x100, 0x11, 1, is_io=False)
        buffer.write(0x100, 0x22, 1, is_io=False)
        assert buffer.forward(0x100, 1, 0) == 0x22

    def test_io_stores_not_forwarded(self):
        buffer = GatedStoreBuffer()
        buffer.write(0x100, 0x55, 1, is_io=True)
        assert buffer.forward(0x100, 1, 0) == 0

    def test_drain_order_preserved(self):
        machine = Machine()
        buffer = GatedStoreBuffer()
        buffer.write(0x100, 1, 4, is_io=False)
        buffer.write(0x100, 2, 4, is_io=False)
        buffer.drain(machine.bus)
        assert machine.bus.read(0x100, 4) == 2

    def test_capacity_overflow(self):
        buffer = GatedStoreBuffer(capacity=2)
        buffer.write(0, 0, 1, is_io=False)
        buffer.write(1, 0, 1, is_io=False)
        with pytest.raises(StoreBufferOverflow):
            buffer.write(2, 0, 1, is_io=False)


class TestAliasHardware:
    def test_overlap_detected(self):
        alias = AliasHardware(4)
        alias.record(0, 0x100, 4)
        assert alias.check(0b1, 0x102, 4) == 0

    def test_disjoint_passes(self):
        alias = AliasHardware(4)
        alias.record(0, 0x100, 4)
        assert alias.check(0b1, 0x104, 4) is None

    def test_mask_selects_entries(self):
        alias = AliasHardware(4)
        alias.record(0, 0x100, 4)
        alias.record(1, 0x200, 4)
        assert alias.check(0b10, 0x100, 4) is None  # entry 0 not checked
        assert alias.check(0b10, 0x200, 4) == 1

    def test_clear(self):
        alias = AliasHardware(4)
        alias.record(0, 0x100, 4)
        alias.clear()
        assert alias.check(0b1, 0x100, 4) is None


class TestAluOps:
    def test_basic(self):
        assert _alu(AluOp.ADD, 2, 3) == 5
        assert _alu(AluOp.SUB, 2, 3) == 0xFFFFFFFF
        assert _alu(AluOp.SHL, 1, 33) == 2  # count masked
        assert _alu(AluOp.SAR, 0x80000000, 1) == 0xC0000000
        assert _alu(AluOp.UMULH, 0x80000000, 2) == 1
        assert _alu(AluOp.SMULH, 0xFFFFFFFF, 2) == 0xFFFFFFFF  # -1*2 hi
        assert _alu(AluOp.CMPLTS, 0xFFFFFFFF, 0) == 1  # -1 < 0
        assert _alu(AluOp.CMPLTU, 0xFFFFFFFF, 0) == 0
        assert _alu(AluOp.CMPLEU, 5, 5) == 1
        assert _alu(AluOp.CMPLES, 0x80000000, 0) == 1


def _make_cpu():
    machine = Machine()
    protection = ProtectionMap(FineGrainCache(4))
    cpu = HostCPU(machine, protection)
    return machine, protection, cpu


class _FakeTranslation:
    """Minimal translation for direct host testing."""

    prologue_armed = False  # the commit path consults this (§3.6.2)

    def __init__(self, molecules, labels=None, entry_label="body"):
        self.molecules = molecules
        self.labels = labels or {"body": 0}
        self.entry_label = entry_label
        self.executions_molecules = 0
        self.entries = 0


def _mol(*atoms):
    molecule = Molecule()
    for atom in atoms:
        molecule.add(atom)
    return molecule


def _exit_translation(*body_molecules, target=0x1000):
    mols = list(body_molecules)
    mols.append(_mol(Atom(AtomKind.MOVI, rd=R_EIP, imm=target),
                     Atom(AtomKind.COMMIT)))
    mols.append(_mol(Atom(AtomKind.EXIT, exit_target=target)))
    return _FakeTranslation(mols)


class TestHostExecution:
    def test_simple_alu_and_exit(self):
        machine, _, cpu = _make_cpu()
        t = _exit_translation(
            _mol(Atom(AtomKind.MOVI, rd=TEMP_BASE, imm=5),
                 Atom(AtomKind.MOVI, rd=TEMP_BASE + 1, imm=7)),
            _mol(Atom(AtomKind.ALU, aluop=AluOp.ADD, rd=0, rs1=TEMP_BASE,
                      rs2=TEMP_BASE + 1)),
        )
        info = cpu.run(t)
        assert info.kind is ExitKind.EXITED
        assert cpu.regs.shadow[0] == 12
        assert info.next_eip == 0x1000

    def test_store_gated_until_commit(self):
        machine, _, cpu = _make_cpu()
        t = _exit_translation(
            _mol(Atom(AtomKind.MOVI, rd=TEMP_BASE, imm=0x2000),
                 Atom(AtomKind.MOVI, rd=TEMP_BASE + 1, imm=0xAA)),
            _mol(Atom(AtomKind.ST, rs1=TEMP_BASE, rs2=TEMP_BASE + 1,
                      disp=0, size=4)),
        )
        cpu.run(t)
        assert machine.bus.read(0x2000, 4) == 0xAA

    def test_rollback_discards_stores_and_registers(self):
        machine, _, cpu = _make_cpu()
        # A translation that stores then FAILs before commit.
        t = _FakeTranslation([
            _mol(Atom(AtomKind.MOVI, rd=TEMP_BASE, imm=0x2000),
                 Atom(AtomKind.MOVI, rd=0, imm=123)),
            _mol(Atom(AtomKind.ST, rs1=TEMP_BASE, rs2=0, disp=0, size=4)),
            _mol(Atom(AtomKind.FAIL, fail_reason="test")),
        ])
        info = cpu.run(t)
        assert info.kind is ExitKind.FAULT
        cpu.rollback()
        assert machine.bus.read(0x2000, 4) == 0
        assert cpu.regs.working[0] == 0

    def test_branching(self):
        machine, _, cpu = _make_cpu()
        mols = [
            _mol(Atom(AtomKind.MOVI, rd=TEMP_BASE, imm=0)),
            _mol(Atom(AtomKind.BRZ, rs1=TEMP_BASE, label="skip")),
            _mol(Atom(AtomKind.MOVI, rd=0, imm=1)),  # skipped
            _mol(Atom(AtomKind.MOVI, rd=1, imm=2)),  # "skip" target
            _mol(Atom(AtomKind.MOVI, rd=R_EIP, imm=0),
                 Atom(AtomKind.COMMIT)),
            _mol(Atom(AtomKind.EXIT, exit_target=0)),
        ]
        t = _FakeTranslation(mols, labels={"body": 0, "skip": 3})
        cpu.run(t)
        assert cpu.regs.shadow[0] == 0
        assert cpu.regs.shadow[1] == 2

    def test_reordered_load_from_mmio_faults(self):
        machine, _, cpu = _make_cpu()
        t = _exit_translation(
            _mol(Atom(AtomKind.MOVI, rd=TEMP_BASE, imm=CONSOLE_MMIO_BASE)),
            _mol(Atom(AtomKind.LD, rd=0, rs1=TEMP_BASE, disp=0, size=4,
                      reordered=True, guest_addr=0x1234)),
        )
        info = cpu.run(t)
        assert info.kind is ExitKind.FAULT
        assert info.fault.kind is HostFaultKind.SPEC_MMIO
        assert info.fault.guest_addr == 0x1234

    def test_unordered_mmio_load_without_io_ok_faults(self):
        machine, _, cpu = _make_cpu()
        t = _exit_translation(
            _mol(Atom(AtomKind.MOVI, rd=TEMP_BASE, imm=CONSOLE_MMIO_BASE)),
            _mol(Atom(AtomKind.LD, rd=0, rs1=TEMP_BASE, disp=0, size=4)),
        )
        info = cpu.run(t)
        assert info.kind is ExitKind.FAULT
        assert info.fault.kind is HostFaultKind.SPEC_MMIO

    def test_io_ok_mmio_store_reaches_device_at_commit(self):
        machine, _, cpu = _make_cpu()
        t = _exit_translation(
            _mol(Atom(AtomKind.MOVI, rd=TEMP_BASE, imm=CONSOLE_MMIO_BASE),
                 Atom(AtomKind.MOVI, rd=TEMP_BASE + 1, imm=ord("q"))),
            _mol(Atom(AtomKind.ST, rs1=TEMP_BASE, rs2=TEMP_BASE + 1,
                      disp=0, size=1, io_ok=True)),
        )
        info = cpu.run(t)
        assert info.kind is ExitKind.EXITED
        assert machine.console.output == "q"

    def test_alias_violation_faults(self):
        machine, _, cpu = _make_cpu()
        t = _exit_translation(
            _mol(Atom(AtomKind.MOVI, rd=TEMP_BASE, imm=0x3000),
                 Atom(AtomKind.MOVI, rd=TEMP_BASE + 1, imm=7)),
            # Speculatively hoisted load protects its address...
            _mol(Atom(AtomKind.LD, rd=0, rs1=TEMP_BASE, disp=0, size=4,
                      reordered=True, alias_entry=0)),
            # ... and the store it crossed overlaps it.
            _mol(Atom(AtomKind.ST, rs1=TEMP_BASE, rs2=TEMP_BASE + 1,
                      disp=0, size=4, alias_check=0b1)),
        )
        info = cpu.run(t)
        assert info.kind is ExitKind.FAULT
        assert info.fault.kind is HostFaultKind.ALIAS_VIOLATION

    def test_alias_disjoint_no_fault(self):
        machine, _, cpu = _make_cpu()
        t = _exit_translation(
            _mol(Atom(AtomKind.MOVI, rd=TEMP_BASE, imm=0x3000),
                 Atom(AtomKind.MOVI, rd=TEMP_BASE + 1, imm=7)),
            _mol(Atom(AtomKind.LD, rd=0, rs1=TEMP_BASE, disp=0, size=4,
                      reordered=True, alias_entry=0)),
            _mol(Atom(AtomKind.ST, rs1=TEMP_BASE, rs2=TEMP_BASE + 1,
                      disp=16, size=4, alias_check=0b1)),
        )
        info = cpu.run(t)
        assert info.kind is ExitKind.EXITED

    def test_protection_fault_on_protected_store(self):
        machine, protection, cpu = _make_cpu()
        protection.protect_range(0x3000, 16)
        protection.handle_miss(0x3)
        t = _exit_translation(
            _mol(Atom(AtomKind.MOVI, rd=TEMP_BASE, imm=0x3004),
                 Atom(AtomKind.MOVI, rd=TEMP_BASE + 1, imm=7)),
            _mol(Atom(AtomKind.ST, rs1=TEMP_BASE, rs2=TEMP_BASE + 1,
                      disp=0, size=4)),
        )
        info = cpu.run(t)
        assert info.kind is ExitKind.FAULT
        assert info.fault.kind is HostFaultKind.PROTECTION
        assert info.fault.store_class is StoreClass.FAULT_CODE

    def test_divide_by_zero_raises_guest_fault(self):
        machine, _, cpu = _make_cpu()
        t = _exit_translation(
            _mol(Atom(AtomKind.MOVI, rd=TEMP_BASE, imm=10),
                 Atom(AtomKind.MOVI, rd=TEMP_BASE + 1, imm=0)),
            _mol(Atom(AtomKind.DIVU, rd=0, rd2=2, rs1=TEMP_BASE,
                      rs2=TEMP_BASE + 1, rs3=TEMP_BASE + 1,
                      guest_addr=0x1010)),
        )
        info = cpu.run(t)
        assert info.kind is ExitKind.FAULT
        assert info.fault.kind is HostFaultKind.GUEST_FAULT
        assert info.fault.guest_exception.vector == 0

    def test_interrupt_exit_when_pending_and_if_set(self):
        machine, _, cpu = _make_cpu()
        cpu.regs.working[R_IF] = 1
        cpu.regs.commit()
        machine.pic.request_irq(0)
        t = _exit_translation(
            _mol(Atom(AtomKind.MOVI, rd=TEMP_BASE, imm=1)),
        )
        info = cpu.run(t)
        assert info.kind is ExitKind.INTERRUPT

    def test_no_interrupt_exit_when_if_clear(self):
        machine, _, cpu = _make_cpu()
        machine.pic.request_irq(0)
        t = _exit_translation(
            _mol(Atom(AtomKind.MOVI, rd=TEMP_BASE, imm=1)),
        )
        info = cpu.run(t)
        assert info.kind is ExitKind.EXITED

    def test_port_io_suppresses_interrupt_until_commit(self):
        machine, _, cpu = _make_cpu()
        cpu.regs.working[R_IF] = 1
        cpu.regs.commit()
        # The PORT_OUT raises IRQ pressure indirectly: request before run
        # but after the port op executes we must reach the commit first.
        t = _FakeTranslation([
            _mol(Atom(AtomKind.MOVI, rd=TEMP_BASE, imm=ord("A"))),
            _mol(Atom(AtomKind.PORT_OUT, rs1=TEMP_BASE, imm=0xE9)),
            _mol(Atom(AtomKind.MOVI, rd=R_EIP, imm=0x1000),
                 Atom(AtomKind.COMMIT)),
            _mol(Atom(AtomKind.EXIT, exit_target=0x1000)),
        ])
        # Make an IRQ pending *between* molecules by pre-requesting it;
        # the CPU must not interrupt-exit between PORT_OUT and COMMIT.
        original_execute = cpu._execute_atom

        def inject(atom):
            original_execute(atom)
            if atom.kind is AtomKind.PORT_OUT:
                machine.pic.request_irq(0)

        cpu._execute_atom = inject
        info = cpu.run(t)
        # Port output committed exactly once despite the pending IRQ.
        assert machine.console.output == "A"
        assert info.kind in (ExitKind.EXITED, ExitKind.INTERRUPT)
        assert cpu.regs.shadow[R_EIP] == 0x1000

    def test_fuel_exhaustion(self):
        machine, _, cpu = _make_cpu()
        mols = [
            _mol(Atom(AtomKind.MOVI, rd=TEMP_BASE, imm=1)),
            _mol(Atom(AtomKind.BR, label="body")),
        ]
        t = _FakeTranslation(mols)
        info = cpu.run(t, fuel=100)
        assert info.kind is ExitKind.FUEL
        assert info.molecules >= 100

    def test_chained_exit_ends_the_run(self):
        # The VLIW runs one translation: following a chain is the
        # driver's job (TemplateJIT.run, tests/test_jit.py).
        machine, _, cpu = _make_cpu()
        t2 = _exit_translation(
            _mol(Atom(AtomKind.MOVI, rd=1, imm=42)), target=0x2000
        )
        t1 = _exit_translation(
            _mol(Atom(AtomKind.MOVI, rd=0, imm=7)), target=0x1000
        )
        exit_atom = t1.molecules[-1].atoms[0]
        exit_atom.chained_translation = t2
        info = cpu.run(t1)
        assert info.kind is ExitKind.EXITED
        assert info.exit_atom is exit_atom
        assert info.chains_followed == 0
        assert info.translations_entered == [t1]
        assert cpu.regs.shadow[0] == 7
        assert cpu.regs.shadow[1] == 0
        assert t2.executions_molecules == 0 and t2.entries == 0
        assert info.next_eip == 0x1000

    def test_commit_ticks_devices(self):
        machine, _, cpu = _make_cpu()
        t = _exit_translation(
            _mol(Atom(AtomKind.MOVI, rd=TEMP_BASE, imm=1)),
        )
        # Give the exit commit a retire count.
        for molecule in t.molecules:
            for atom in molecule.atoms:
                if atom.kind is AtomKind.COMMIT:
                    atom.instr_count = 5
        cpu.run(t)
        assert machine.instructions_retired == 5


class TestMolecule:
    def test_slot_assignment(self):
        molecule = Molecule()
        molecule.add(Atom(AtomKind.ALU, aluop=AluOp.ADD, rd=0, rs1=1, rs2=2))
        molecule.add(Atom(AtomKind.ALU, aluop=AluOp.SUB, rd=3, rs1=4, rs2=5))
        molecule.add(Atom(AtomKind.LD, rd=6, rs1=7))
        molecule.add(Atom(AtomKind.BR, label="x"))
        assert set(molecule.slots) == {Slot.ALU0, Slot.ALU1, Slot.MEM,
                                       Slot.BR}

    def test_third_alu_rejected(self):
        molecule = Molecule()
        for i in range(2):
            molecule.add(Atom(AtomKind.ALU, aluop=AluOp.ADD, rd=i, rs1=0,
                              rs2=0))
        assert molecule.can_add(
            Atom(AtomKind.ALU, aluop=AluOp.ADD, rd=9, rs1=0, rs2=0)
        ) is None

    def test_movi_overflows_to_fpm(self):
        molecule = Molecule()
        for i in range(2):
            molecule.add(Atom(AtomKind.ALU, aluop=AluOp.ADD, rd=i, rs1=0,
                              rs2=0))
        slot = molecule.can_add(Atom(AtomKind.MOVI, rd=9, imm=1))
        assert slot is Slot.FPM

    def test_max_four_atoms(self):
        molecule = Molecule()
        molecule.add(Atom(AtomKind.ALU, aluop=AluOp.ADD, rd=0, rs1=0, rs2=0))
        molecule.add(Atom(AtomKind.ALU, aluop=AluOp.ADD, rd=1, rs1=0, rs2=0))
        molecule.add(Atom(AtomKind.LD, rd=2, rs1=0))
        molecule.add(Atom(AtomKind.BR, label="x"))
        assert molecule.can_add(Atom(AtomKind.MOVI, rd=3, imm=0)) is None
