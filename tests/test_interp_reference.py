"""The interpreter against the seed interpreter, step by step.

The interpreter is the correctness oracle of everything else (the
differential fuzzer, the scenario matrix and the e2e goldens all
compare CMS against it), so nothing else can check it.  Its reference
lives here instead: ``SeedInterpreter`` is the seed's ``Interpreter``
(stepping, delivery, the data helpers, every handler and the dispatch
table) and ``SeedHostState`` the seed's ``HostBackedGuestState`` with
the seed's generic ``GuestState`` methods under it.  They run on the
current machine, bus, MMU, decoder and flag helpers, which both sides
share.

Two properties hold the interpreter to them:

* **lockstep over programs** — generated fuzz programs in inject mode
  (interrupts and DMA through ``FaultInjector``) and every corpus
  program run on three machines at once: the interpreter on
  ``HostBackedGuestState``, the interpreter on ``SimpleGuestState``
  and the seed interpreter.  After every step the guest state (and
  working == shadow), ``Halted``, the delivery counters, the retired
  count, RAM, console output, the bus's I/O counts, the profile, the
  store-hook calls and the decode cache's counters must agree;
* **per opcode** — every op in the dispatch table, stepped once from
  random registers, flags and operands, with memory operands around
  the default map's RAM-run edges, the top of RAM, inside MMIO
  windows, in unmapped gaps and with paging on over random PTEs.

The store hook stands in for the SMC manager's: it owns a live page
index (``store_hook_pages``, mutated in place), does work only for a
store whose first or last page is in it, and then drops those pages as
an invalidation would.  Its log records the bytes under the store when
it runs, so a hook called after the write shows.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.fuzz import load_corpus
from repro.fuzz.genprog import generate
from repro.fuzz.inject import FaultInjector
from repro.host.registers import HostBackedGuestState, HostRegisterFile
from repro.host.registers import R_EIP, R_FLAG_BASE
from repro.interp import ExecutionProfile, Halted, Interpreter
from repro.interp.interpreter import _DISPATCH
from repro.isa import flags as fl
from repro.isa import registers as regs
from repro.isa.decoder import decode
from repro.isa.encoder import encode
from repro.isa.exceptions import GuestException
from repro.isa.icache import DecodedInstructionCache
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Fmt, Op, op_info
from repro.machine import (CONSOLE_MMIO_BASE, FRAMEBUFFER_BASE,
                           NIC_MMIO_BASE, TIMER_MMIO_BASE, Machine)
from repro.memory.mmu import PT_SPAN, PTE_PRESENT, PTE_WRITABLE
from repro.memory.physical import PAGE_SHIFT
from repro.state import FLAG_SLOT_BITS, FLAG_SLOTS, SimpleGuestState

MASK32 = 0xFFFFFFFF
SIGN32 = 0x80000000


# ----------------------------------------------------------------------
# The seed's guest-state view
# ----------------------------------------------------------------------


class SeedGuestState:
    """The seed's generic ``GuestState`` methods."""

    @property
    def eflags(self) -> int:
        packed = fl.ALWAYS_ONE
        for slot, bit in enumerate(FLAG_SLOT_BITS):
            if self.get_flag(slot):
                packed |= bit
        return packed

    @eflags.setter
    def eflags(self, value: int) -> None:
        for slot, bit in enumerate(FLAG_SLOT_BITS):
            self.set_flag(slot, 1 if value & bit else 0)

    @property
    def interrupts_enabled(self) -> bool:
        return bool(self.get_flag(FLAG_SLOTS.index("if_")))

    def set_arith_flags(self, flags: int, mask: int = fl.ARITH_FLAGS) -> None:
        for slot, bit in enumerate(FLAG_SLOT_BITS):
            if bit & mask:
                self.set_flag(slot, 1 if flags & bit else 0)

    def snapshot(self) -> tuple:
        return (
            tuple(self.get_reg(i) for i in range(regs.NUM_REGS)),
            self.eip,
            tuple(self.get_flag(s) for s in range(len(FLAG_SLOTS))),
        )

    def describe(self) -> str:
        values = " ".join(f"{name}={self.get_reg(i):08x}"
                          for i, name in enumerate(regs.REG_NAMES))
        return f"eip={self.eip:08x} {values} {fl.format_flags(self.eflags)}"


class SeedHostState(SeedGuestState):
    """The seed's ``HostBackedGuestState``: every write through
    ``_write``, working and shadow together."""

    def __init__(self, regfile: HostRegisterFile) -> None:
        self._rf = regfile

    def _write(self, index: int, value: int) -> None:
        value &= MASK32
        self._rf.working[index] = value
        self._rf.shadow[index] = value

    def get_reg(self, index: int) -> int:
        return self._rf.shadow[index]

    def set_reg(self, index: int, value: int) -> None:
        self._write(index, value)

    def get_flag(self, slot: int) -> int:
        return self._rf.shadow[R_FLAG_BASE + slot]

    def set_flag(self, slot: int, value: int) -> None:
        self._write(R_FLAG_BASE + slot, 1 if value else 0)

    @property
    def eip(self) -> int:
        return self._rf.shadow[R_EIP]

    @eip.setter
    def eip(self, value: int) -> None:
        self._write(R_EIP, value)


# ----------------------------------------------------------------------
# The seed interpreter
# ----------------------------------------------------------------------

SEED_IF_SLOT = FLAG_SLOTS.index("if_")
SEED_IVT_BASE = 0x0000


@dataclass
class SeedStepOutcome:
    addr: int
    instr: Instruction | None = None
    took_interrupt: bool = False
    took_exception: bool = False
    touched_mmio: bool = False


class SeedInterpreter:
    """The seed's ``Interpreter``: every data access through
    ``vtranslate``/``is_io`` and the bus, ``_binary`` an if-chain."""

    def __init__(self, machine, state, profile=None) -> None:
        self.machine = machine
        self.state = state
        self.profile = profile
        self.store_hook = None
        self.icache = None
        self.steps = 0
        self.exceptions_delivered = 0
        self.interrupts_delivered = 0
        self._halted_waiting = False
        self._touched_mmio = False
        self._touched_pt = False

    def step(self, tick: bool = True) -> SeedStepOutcome:
        state = self.state
        if state.interrupts_enabled:
            vector = self.machine.pending_vector()
            if vector is not None:
                try:
                    self._deliver_interrupt(vector)
                except GuestException:
                    raise Halted() from None
                self._halted_waiting = False
                return SeedStepOutcome(addr=state.eip, took_interrupt=True)
        if self._halted_waiting:
            if not state.interrupts_enabled:
                raise Halted()
            if tick:
                self.machine.tick(1)
            return SeedStepOutcome(addr=state.eip)

        addr = state.eip
        self._touched_mmio = False
        self._touched_pt = False
        try:
            icache = self.icache
            if icache is not None and not self.machine.mmu.paging_enabled:
                entry = icache.entries.get(addr)
                if entry is None:
                    icache.misses += 1
                    instr = decode(self.machine, addr)
                    handler = _SEED_DISPATCH.get(instr.op)
                    if handler is None:
                        raise AssertionError(f"no handler for {instr.op!r}")
                    icache.insert(addr, instr.length, (instr, handler))
                else:
                    icache.hits += 1
                    instr, handler = entry
                handler(self, instr)
            else:
                instr = decode(self.machine, addr)
                self.execute(instr)
        except Halted:
            raise
        except GuestException as exc:
            try:
                self._deliver_exception(exc, addr)
            except GuestException:
                raise Halted() from None
            if tick:
                self.machine.tick(1)
            return SeedStepOutcome(addr=addr, took_exception=True)
        self.steps += 1
        if self.profile is not None:
            if self._touched_mmio:
                self.profile.on_mmio(addr)
            if self._touched_pt:
                self.profile.on_pt_store(addr)
        if tick:
            self.machine.tick(1)
        return SeedStepOutcome(addr=addr, instr=instr,
                               touched_mmio=self._touched_mmio)

    def _read_vector(self, vector: int) -> int:
        return self.machine.bus.read(SEED_IVT_BASE + vector * 4, 4)

    def _push(self, value: int) -> None:
        state = self.state
        new_esp = (state.get_reg(regs.ESP) - 4) & MASK32
        self._store(new_esp, value, 4)
        state.set_reg(regs.ESP, new_esp)

    def _pop(self) -> int:
        state = self.state
        esp = state.get_reg(regs.ESP)
        value = self._load(esp, 4)
        state.set_reg(regs.ESP, (esp + 4) & MASK32)
        return value

    def _deliver_interrupt(self, vector: int) -> None:
        state = self.state
        self._push(state.eflags)
        self._push(state.eip)
        state.set_flag(SEED_IF_SLOT, 0)
        state.eip = self._read_vector(vector)
        self.machine.pic.acknowledge(vector)
        self.interrupts_delivered += 1

    def _deliver_exception(self, exc: GuestException, instr_addr: int) -> None:
        state = self.state
        state.eip = instr_addr
        self._push(state.eflags)
        self._push(instr_addr)
        if exc.pushes_error_code:
            self._push(exc.error_code)
        state.set_flag(SEED_IF_SLOT, 0)
        state.eip = self._read_vector(exc.vector)
        self.exceptions_delivered += 1

    def _load(self, vaddr: int, size: int) -> int:
        paddr = self.machine.vtranslate(vaddr, size, is_write=False)
        if self.machine.bus.is_io(paddr, size):
            self._touched_mmio = True
        return self.machine.bus.read(paddr, size)

    def _store(self, vaddr: int, value: int, size: int) -> None:
        machine = self.machine
        paddr = machine.vtranslate(vaddr, size, is_write=True)
        if machine.bus.is_io(paddr, size):
            self._touched_mmio = True
        else:
            mmu = machine.mmu
            if mmu.paging_enabled and \
                    0 <= paddr - mmu.page_table_base < PT_SPAN:
                self._touched_pt = True
            if self.store_hook is not None:
                self.store_hook(paddr, size)
        machine.bus.write(paddr, value, size)

    def execute(self, instr: Instruction) -> None:
        handler = _SEED_DISPATCH.get(instr.op)
        if handler is None:
            raise AssertionError(f"no handler for {instr.op!r}")
        handler(self, instr)

    def _ea(self, instr: Instruction) -> int:
        return (self.state.get_reg(instr.r2) + instr.disp) & MASK32

    def _ea_indexed(self, instr: Instruction) -> int:
        base = self.state.get_reg(instr.r2)
        index = self.state.get_reg(instr.index) << instr.scale_log2
        return (base + index + instr.disp) & MASK32

    def _op_nop(self, instr: Instruction) -> None:
        self.state.eip = instr.next_addr

    def _op_mov_rr(self, instr: Instruction) -> None:
        self.state.set_reg(instr.r1, self.state.get_reg(instr.r2))
        self.state.eip = instr.next_addr

    def _op_mov_ri(self, instr: Instruction) -> None:
        self.state.set_reg(instr.r1, instr.imm)
        self.state.eip = instr.next_addr

    def _op_xchg(self, instr: Instruction) -> None:
        state = self.state
        a, b = state.get_reg(instr.r1), state.get_reg(instr.r2)
        state.set_reg(instr.r1, b)
        state.set_reg(instr.r2, a)
        state.eip = instr.next_addr

    def _op_load(self, instr: Instruction) -> None:
        value = self._load(self._ea(instr), 4)
        self.state.set_reg(instr.r1, value)
        self.state.eip = instr.next_addr

    def _op_loadb(self, instr: Instruction) -> None:
        value = self._load(self._ea(instr), 1)
        self.state.set_reg(instr.r1, value)
        self.state.eip = instr.next_addr

    def _op_loadx(self, instr: Instruction) -> None:
        value = self._load(self._ea_indexed(instr), 4)
        self.state.set_reg(instr.r1, value)
        self.state.eip = instr.next_addr

    def _op_loadbx(self, instr: Instruction) -> None:
        value = self._load(self._ea_indexed(instr), 1)
        self.state.set_reg(instr.r1, value)
        self.state.eip = instr.next_addr

    def _op_store(self, instr: Instruction) -> None:
        self._store(self._ea(instr), self.state.get_reg(instr.r1), 4)
        self.state.eip = instr.next_addr

    def _op_storeb(self, instr: Instruction) -> None:
        self._store(self._ea(instr), self.state.get_reg(instr.r1), 1)
        self.state.eip = instr.next_addr

    def _op_storex(self, instr: Instruction) -> None:
        self._store(self._ea_indexed(instr), self.state.get_reg(instr.r1), 4)
        self.state.eip = instr.next_addr

    def _op_storebx(self, instr: Instruction) -> None:
        self._store(self._ea_indexed(instr), self.state.get_reg(instr.r1), 1)
        self.state.eip = instr.next_addr

    def _op_storei(self, instr: Instruction) -> None:
        self._store(self._ea(instr), instr.imm, 4)
        self.state.eip = instr.next_addr

    def _op_lea(self, instr: Instruction) -> None:
        self.state.set_reg(instr.r1, self._ea(instr))
        self.state.eip = instr.next_addr

    def _op_leax(self, instr: Instruction) -> None:
        self.state.set_reg(instr.r1, self._ea_indexed(instr))
        self.state.eip = instr.next_addr

    def _binary(self, instr: Instruction, rhs: int) -> None:
        state = self.state
        op = instr.op
        lhs = state.get_reg(instr.r1)
        write = True
        if op in (Op.ADD_RR, Op.ADD_RI):
            result, flags = fl.flags_add(lhs, rhs)
        elif op in (Op.ADC_RR, Op.ADC_RI):
            result, flags = fl.flags_add(lhs, rhs, state.get_flag(0))
        elif op in (Op.SUB_RR, Op.SUB_RI):
            result, flags = fl.flags_sub(lhs, rhs)
        elif op in (Op.SBB_RR, Op.SBB_RI):
            result, flags = fl.flags_sub(lhs, rhs, state.get_flag(0))
        elif op in (Op.CMP_RR, Op.CMP_RI):
            result, flags = fl.flags_sub(lhs, rhs)
            write = False
        elif op in (Op.AND_RR, Op.AND_RI):
            result, flags = fl.flags_logic(lhs & rhs)
        elif op in (Op.TEST_RR, Op.TEST_RI):
            result, flags = fl.flags_logic(lhs & rhs)
            write = False
        elif op in (Op.OR_RR, Op.OR_RI):
            result, flags = fl.flags_logic(lhs | rhs)
        elif op in (Op.XOR_RR, Op.XOR_RI):
            result, flags = fl.flags_logic(lhs ^ rhs)
        elif op in (Op.IMUL_RR, Op.IMUL_RI):
            lhs_signed = lhs - (1 << 32) if lhs & SIGN32 else lhs
            rhs_signed = rhs - (1 << 32) if rhs & SIGN32 else rhs
            full = lhs_signed * rhs_signed
            result = full & MASK32
            flags = fl.flags_imul(result, full)
        else:
            raise AssertionError(f"not a binary op: {op!r}")
        if write:
            state.set_reg(instr.r1, result)
        state.set_arith_flags(flags)
        state.eip = instr.next_addr

    def _op_binary_rr(self, instr: Instruction) -> None:
        self._binary(instr, self.state.get_reg(instr.r2))

    def _op_binary_ri(self, instr: Instruction) -> None:
        self._binary(instr, instr.imm)

    def _op_not(self, instr: Instruction) -> None:
        state = self.state
        state.set_reg(instr.r1, ~state.get_reg(instr.r1) & MASK32)
        state.eip = instr.next_addr

    def _op_neg(self, instr: Instruction) -> None:
        state = self.state
        result, flags = fl.flags_neg(state.get_reg(instr.r1))
        state.set_reg(instr.r1, result)
        state.set_arith_flags(flags)
        state.eip = instr.next_addr

    def _op_inc(self, instr: Instruction) -> None:
        state = self.state
        result, flags, mask = fl.flags_inc(state.get_reg(instr.r1))
        state.set_reg(instr.r1, result)
        state.set_arith_flags(flags, mask)
        state.eip = instr.next_addr

    def _op_dec(self, instr: Instruction) -> None:
        state = self.state
        result, flags, mask = fl.flags_dec(state.get_reg(instr.r1))
        state.set_reg(instr.r1, result)
        state.set_arith_flags(flags, mask)
        state.eip = instr.next_addr

    def _op_mul(self, instr: Instruction) -> None:
        state = self.state
        full = state.get_reg(regs.EAX) * state.get_reg(instr.r1)
        low, high = full & MASK32, (full >> 32) & MASK32
        state.set_reg(regs.EAX, low)
        state.set_reg(regs.EDX, high)
        state.set_arith_flags(fl.flags_mul(low, high))
        state.eip = instr.next_addr

    def _op_div(self, instr: Instruction) -> None:
        from repro.isa.exceptions import divide_error

        state = self.state
        divisor = state.get_reg(instr.r1)
        dividend = (state.get_reg(regs.EDX) << 32) | state.get_reg(regs.EAX)
        if divisor == 0:
            raise divide_error(instr.addr)
        quotient, remainder = divmod(dividend, divisor)
        if quotient > MASK32:
            raise divide_error(instr.addr)
        state.set_reg(regs.EAX, quotient)
        state.set_reg(regs.EDX, remainder)
        state.eip = instr.next_addr

    def _op_idiv(self, instr: Instruction) -> None:
        from repro.isa.exceptions import divide_error

        state = self.state
        divisor = state.get_reg(instr.r1)
        divisor = divisor - (1 << 32) if divisor & SIGN32 else divisor
        dividend = (state.get_reg(regs.EDX) << 32) | state.get_reg(regs.EAX)
        dividend = dividend - (1 << 64) if dividend & (1 << 63) else dividend
        if divisor == 0:
            raise divide_error(instr.addr)
        quotient = int(dividend / divisor)
        remainder = dividend - quotient * divisor
        if not -(1 << 31) <= quotient <= (1 << 31) - 1:
            raise divide_error(instr.addr)
        state.set_reg(regs.EAX, quotient & MASK32)
        state.set_reg(regs.EDX, remainder & MASK32)
        state.eip = instr.next_addr

    _SHIFT_FUNCS = {
        Op.SHL_RI8: fl.flags_shl,
        Op.SHR_RI8: fl.flags_shr,
        Op.SAR_RI8: fl.flags_sar,
        Op.ROL_RI8: fl.flags_rol,
        Op.ROR_RI8: fl.flags_ror,
        Op.SHL_RCL: fl.flags_shl,
        Op.SHR_RCL: fl.flags_shr,
        Op.SAR_RCL: fl.flags_sar,
    }

    def _op_shift(self, instr: Instruction) -> None:
        state = self.state
        if instr.op in (Op.SHL_RCL, Op.SHR_RCL, Op.SAR_RCL):
            count = state.get_reg(regs.ECX) & 0xFF
        else:
            count = instr.imm
        func = self._SHIFT_FUNCS[instr.op]
        result, flags, mask = func(state.get_reg(instr.r1), count)
        state.set_reg(instr.r1, result)
        if mask:
            state.set_arith_flags(flags, mask)
        state.eip = instr.next_addr

    def _op_push_r(self, instr: Instruction) -> None:
        self._push(self.state.get_reg(instr.r1))
        self.state.eip = instr.next_addr

    def _op_push_i(self, instr: Instruction) -> None:
        self._push(instr.imm)
        self.state.eip = instr.next_addr

    def _op_pop_r(self, instr: Instruction) -> None:
        self.state.set_reg(instr.r1, self._pop())
        self.state.eip = instr.next_addr

    def _op_pushf(self, instr: Instruction) -> None:
        self._push(self.state.eflags)
        self.state.eip = instr.next_addr

    def _op_popf(self, instr: Instruction) -> None:
        self.state.eflags = self._pop()
        self.state.eip = instr.next_addr

    def _op_jmp(self, instr: Instruction) -> None:
        self.state.eip = instr.branch_target

    def _op_jmp_r(self, instr: Instruction) -> None:
        self.state.eip = self.state.get_reg(instr.r1)

    def _op_call(self, instr: Instruction) -> None:
        self._push(instr.next_addr)
        self.state.eip = instr.branch_target

    def _op_call_r(self, instr: Instruction) -> None:
        target = self.state.get_reg(instr.r1)
        self._push(instr.next_addr)
        self.state.eip = target

    def _op_ret(self, instr: Instruction) -> None:
        self.state.eip = self._pop()

    def condition(self, op: Op) -> bool:
        return self.condition_code(op - Op.JO)

    def condition_code(self, index: int) -> bool:
        state = self.state
        cf, pf_, zf, sf, of = (state.get_flag(i) for i in range(5))
        base = index >> 1
        value = (
            of,
            cf,
            zf,
            cf | zf,
            sf,
            pf_,
            sf ^ of,
            (sf ^ of) | zf,
        )[base]
        taken = bool(value)
        if index & 1:
            taken = not taken
        return taken

    def _op_setcc(self, instr: Instruction) -> None:
        value = 1 if self.condition_code(instr.op - Op.SETO) else 0
        self.state.set_reg(instr.r1, value)
        self.state.eip = instr.next_addr

    def _op_cmovcc(self, instr: Instruction) -> None:
        if self.condition_code(instr.op - Op.CMOVO):
            self.state.set_reg(instr.r1, self.state.get_reg(instr.r2))
        self.state.eip = instr.next_addr

    def _op_jcc(self, instr: Instruction) -> None:
        taken = self.condition(instr.op)
        if self.profile is not None:
            self.profile.on_branch(instr.addr, taken)
        self.state.eip = instr.branch_target if taken else instr.next_addr

    def _op_in(self, instr: Instruction) -> None:
        self.state.set_reg(regs.EAX, self.machine.ports.read(instr.imm))
        self.state.eip = instr.next_addr

    def _op_out(self, instr: Instruction) -> None:
        self.machine.ports.write(instr.imm, self.state.get_reg(regs.EAX))
        self.state.eip = instr.next_addr

    def _op_int(self, instr: Instruction) -> None:
        state = self.state
        self._push(state.eflags)
        self._push(instr.next_addr)
        state.set_flag(SEED_IF_SLOT, 0)
        state.eip = self._read_vector(instr.imm)

    def _op_iret(self, instr: Instruction) -> None:
        state = self.state
        eip = self._pop()
        state.eflags = self._pop()
        state.eip = eip

    def _op_hlt(self, instr: Instruction) -> None:
        if not self.state.interrupts_enabled:
            raise Halted()
        self.state.eip = instr.next_addr
        self._halted_waiting = True

    def _op_sti(self, instr: Instruction) -> None:
        self.state.set_flag(SEED_IF_SLOT, 1)
        self.state.eip = instr.next_addr

    def _op_cli(self, instr: Instruction) -> None:
        self.state.set_flag(SEED_IF_SLOT, 0)
        self.state.eip = instr.next_addr

    def _op_setpt(self, instr: Instruction) -> None:
        self.machine.mmu.set_page_table(self.state.get_reg(instr.r1))
        self.state.eip = instr.next_addr

    def _op_pgon(self, instr: Instruction) -> None:
        self.machine.mmu.enable_paging()
        self.state.eip = instr.next_addr

    def _op_pgoff(self, instr: Instruction) -> None:
        self.machine.mmu.disable_paging()
        self.state.eip = instr.next_addr


def _seed_dispatch() -> dict:
    i = SeedInterpreter
    table = {
        Op.NOP: i._op_nop,
        Op.HLT: i._op_hlt,
        Op.STI: i._op_sti,
        Op.CLI: i._op_cli,
        Op.IRET: i._op_iret,
        Op.INT: i._op_int,
        Op.MOV_RR: i._op_mov_rr,
        Op.MOV_RI: i._op_mov_ri,
        Op.XCHG_RR: i._op_xchg,
        Op.LOAD: i._op_load,
        Op.STORE: i._op_store,
        Op.LOADX: i._op_loadx,
        Op.STOREX: i._op_storex,
        Op.LOADB: i._op_loadb,
        Op.STOREB: i._op_storeb,
        Op.LOADBX: i._op_loadbx,
        Op.STOREBX: i._op_storebx,
        Op.STOREI: i._op_storei,
        Op.LEA: i._op_lea,
        Op.LEAX: i._op_leax,
        Op.NOT_R: i._op_not,
        Op.NEG_R: i._op_neg,
        Op.INC_R: i._op_inc,
        Op.DEC_R: i._op_dec,
        Op.MUL_R: i._op_mul,
        Op.DIV_R: i._op_div,
        Op.IDIV_R: i._op_idiv,
        Op.PUSH_R: i._op_push_r,
        Op.PUSH_I: i._op_push_i,
        Op.POP_R: i._op_pop_r,
        Op.PUSHF: i._op_pushf,
        Op.POPF: i._op_popf,
        Op.JMP: i._op_jmp,
        Op.JMP_R: i._op_jmp_r,
        Op.CALL: i._op_call,
        Op.CALL_R: i._op_call_r,
        Op.RET: i._op_ret,
        Op.IN: i._op_in,
        Op.OUT: i._op_out,
        Op.SETPT: i._op_setpt,
        Op.PGON: i._op_pgon,
        Op.PGOFF: i._op_pgoff,
    }
    for op in (Op.ADD_RR, Op.SUB_RR, Op.AND_RR, Op.OR_RR, Op.XOR_RR,
               Op.CMP_RR, Op.TEST_RR, Op.ADC_RR, Op.SBB_RR, Op.IMUL_RR):
        table[op] = i._op_binary_rr
    for op in (Op.ADD_RI, Op.SUB_RI, Op.AND_RI, Op.OR_RI, Op.XOR_RI,
               Op.CMP_RI, Op.TEST_RI, Op.ADC_RI, Op.SBB_RI, Op.IMUL_RI):
        table[op] = i._op_binary_ri
    for op in (Op.SHL_RI8, Op.SHR_RI8, Op.SAR_RI8, Op.ROL_RI8, Op.ROR_RI8,
               Op.SHL_RCL, Op.SHR_RCL, Op.SAR_RCL):
        table[op] = i._op_shift
    for op_value in range(Op.JO, Op.JG + 1):
        table[Op(op_value)] = i._op_jcc
    for op_value in range(Op.SETO, Op.SETG + 1):
        table[Op(op_value)] = i._op_setcc
    for op_value in range(Op.CMOVO, Op.CMOVG + 1):
        table[Op(op_value)] = i._op_cmovcc
    return table


_SEED_DISPATCH = _seed_dispatch()


# ----------------------------------------------------------------------
# One machine with one interpreter, observed
# ----------------------------------------------------------------------


def _seed_reads(outcome) -> tuple:
    """What the dispatcher reads of the seed's step result."""
    return outcome.instr is not None, outcome.took_exception


def _reads(outcome) -> tuple:
    """What the dispatcher reads of a step result: whether the step
    retired an instruction, and whether it delivered an exception."""
    return outcome.retired, outcome.took_exception


def _host_state():
    regfile = HostRegisterFile()
    return HostBackedGuestState(regfile), regfile


def _simple_state():
    return SimpleGuestState(), None


def _seed_state():
    regfile = HostRegisterFile()
    return SeedHostState(regfile), regfile


# name -> (interpreter class, (state, register file) factory, reader)
ENGINES = {
    "host": (Interpreter, _host_state, _reads),
    "simple": (Interpreter, _simple_state, _reads),
    "seed": (SeedInterpreter, _seed_state, _seed_reads),
}


class Side:
    """A machine, one interpreter on it, and everything observed."""

    def __init__(self, engine: str, machine: Machine, protect=(),
                 icache: bool = True, plan=None) -> None:
        interp_class, make_state, self.reads = ENGINES[engine]
        self.machine = machine
        self.state, self.regfile = make_state()
        self.profile = ExecutionProfile()
        self.interp = interp_class(machine, self.state, self.profile)
        self.icache = None
        if icache:
            self.icache = DecodedInstructionCache()
            self.interp.icache = self.icache
            machine.bus.add_store_observer(self.icache.on_ram_write,
                                           self.icache._page_index)
        self.written: set[int] = set()
        machine.bus.add_store_observer(self._on_write, None)
        self.protect = tuple(protect)
        self.pages = dict.fromkeys(self.protect, 1)
        self.hook_log: list[tuple] = []
        self.interp.store_hook = self._hook
        self.interp.store_hook_pages = self.pages
        if plan is not None:
            FaultInjector(machine, plan)  # ticked by the machine

    def _on_write(self, addr: int, size: int) -> None:
        self.written.add(addr >> PAGE_SHIFT)
        self.written.add((addr + size - 1) >> PAGE_SHIFT)

    def _hook(self, paddr: int, size: int) -> None:
        first = paddr >> PAGE_SHIFT
        last = (paddr + size - 1) >> PAGE_SHIFT
        if first in self.pages or last in self.pages:
            before = bytes(self.machine.ram._data[paddr:paddr + size])
            self.hook_log.append((paddr, size, before,
                                  self.machine.instructions_retired))
            self.pages.pop(first, None)
            self.pages.pop(last, None)

    def reprotect(self) -> None:
        self.pages.update(dict.fromkeys(self.protect, 1))

    def step(self):
        try:
            return self.reads(self.interp.step())
        except Halted:
            return "halted"

    def observe(self) -> tuple:
        machine, interp, profile = self.machine, self.interp, self.profile
        rf = self.regfile
        icache = self.icache
        mmu = machine.mmu
        return (
            self.state.snapshot(),
            rf is None or rf.working == rf.shadow,
            interp.interrupts_delivered,
            interp.exceptions_delivered,
            machine.instructions_retired,
            machine.console.output,
            machine.bus.io_reads,
            machine.bus.io_writes,
            {addr: (b.taken, b.not_taken)
             for addr, b in profile.branch_bias.items()},
            profile.mmio_sites,
            profile.pt_store_sites,
            len(self.hook_log),
            None if icache is None else (icache.hits, icache.misses,
                                         icache.invalidations),
            (mmu.translations, mmu.faults, mmu.walks, mmu.tlb_hits),
        )


def _assert_same_ram(sides, pages) -> None:
    base = sides[-1].machine.ram._data
    for side in sides[:-1]:
        data = side.machine.ram._data
        for page in sorted(pages):
            lo, hi = page << PAGE_SHIFT, (page + 1) << PAGE_SHIFT
            assert data[lo:hi] == base[lo:hi], f"RAM page {page:#x}"


# ----------------------------------------------------------------------
# Lockstep over programs
# ----------------------------------------------------------------------

CORPUS = load_corpus(Path(__file__).parent / "corpus")
LOCKSTEP_STEPS = 40_000
REPROTECT_EVERY = 64


def _protected_pages(source_entry: int) -> tuple[int, ...]:
    """The IVT page, the code pages, the stack page, the data arena,
    the DMA destination page and the interrupt counter's page."""
    from repro.fuzz.genprog import ARENA, COUNTER_ADDR, DMA_DST, STACK_TOP

    return tuple(sorted({0, source_entry >> PAGE_SHIFT,
                         (source_entry >> PAGE_SHIFT) + 1,
                         (STACK_TOP - 4) >> PAGE_SHIFT,
                         ARENA >> PAGE_SHIFT, COUNTER_ADDR >> PAGE_SHIFT,
                         DMA_DST >> PAGE_SHIFT}))


def run_lockstep(source: str, plan, icache: bool) -> int:
    """Run ``source`` on the three engines one step at a time; returns
    the steps taken."""
    sides = []
    for engine in ("host", "simple", "seed"):
        machine = Machine()
        entry = machine.load_source(source)
        side = Side(engine, machine, _protected_pages(entry), icache, plan)
        side.state.eip = entry
        sides.append(side)
    seed = sides[-1]
    for step in range(1, LOCKSTEP_STEPS + 1):
        results = [side.step() for side in sides]
        for side, result in zip(sides[:-1], results):
            assert result == results[-1], f"step {step}: step result"
            assert side.observe() == seed.observe(), (
                f"step {step}: {side.state.describe()} vs "
                f"{seed.state.describe()}")
            assert side.hook_log[-3:] == seed.hook_log[-3:], \
                f"step {step}: store hook"
            assert side.written == seed.written, f"step {step}: observers"
        written = set().union(*(side.written for side in sides))
        _assert_same_ram(sides, written)
        for side in sides:
            side.written.clear()
            if step % REPROTECT_EVERY == 0:
                side.reprotect()
        if results[-1] == "halted":
            break
    for side in sides[:-1]:
        assert side.hook_log == seed.hook_log
        assert side.machine.ram._data == seed.machine.ram._data
    return step


@given(st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=25, deadline=None)
def test_lockstep_generated_programs(seed, icache):
    program = generate(seed, inject=True)
    run_lockstep(program.source, program.plan, icache)


@pytest.mark.parametrize("entry", CORPUS, ids=[e.name for e in CORPUS])
def test_lockstep_corpus(entry):
    for icache in (True, False):
        assert run_lockstep(entry.source, entry.plan, icache) \
            < LOCKSTEP_STEPS, "corpus program did not halt"


@pytest.mark.slow
def test_lockstep_deep(fuzz_seed):
    """500 generated programs, alternating the decode cache, plus the
    corpus."""
    for n in range(500):
        program = generate((fuzz_seed + n) & MASK32, inject=True)
        run_lockstep(program.source, program.plan, icache=n % 2 == 0)
    for entry in CORPUS:
        for icache in (True, False):
            run_lockstep(entry.source, entry.plan, icache)


# ----------------------------------------------------------------------
# Per opcode
# ----------------------------------------------------------------------

CODE_ADDR = 0x5FF0  # the instruction may straddle into page 6
PT_BASE = 0x200000
RAM_TOP = 0x400000
RAM_PATTERN = bytes(range(256)) * (RAM_TOP // 256)
IN_RUN_PAGE_EDGE = 0x123000

# Edges on the default map: the RAM runs' ends at the framebuffer hole
# and the top of RAM, a page edge inside a run, the MMIO windows' ends,
# the page table, address 0 and the 32-bit wrap.
EDGES = st.one_of(
    st.sampled_from((FRAMEBUFFER_BASE, FRAMEBUFFER_BASE + 0x10000,
                     RAM_TOP, IN_RUN_PAGE_EDGE, PT_BASE, 0)),
    st.integers(1, (RAM_TOP >> PAGE_SHIFT) - 1).map(
        lambda page: page << PAGE_SHIFT),
    st.sampled_from((CONSOLE_MMIO_BASE, TIMER_MMIO_BASE, NIC_MMIO_BASE))
    .flatmap(lambda base: st.sampled_from((base, base + 0x1000))),
)
MEMORY_TARGETS = st.one_of(
    st.tuples(EDGES, st.integers(-4, 3)).map(
        lambda edge: (edge[0] + edge[1]) & MASK32),
    st.integers(0, RAM_TOP - 1),
    st.integers(FRAMEBUFFER_BASE, FRAMEBUFFER_BASE + 0xFFFF),
    st.integers(RAM_TOP, CONSOLE_MMIO_BASE - 1),  # unmapped
    st.integers(CONSOLE_MMIO_BASE, MASK32),
)
# PTE frames: identity (None), the run edges, MMIO, past RAM, random.
FRAMES = st.one_of(
    st.none(),
    st.sampled_from((0x9F, 0xA0, 0xAF, 0xB0, 0x3FF, 0x400, 0x200,
                     CONSOLE_MMIO_BASE >> PAGE_SHIFT,
                     NIC_MMIO_BASE >> PAGE_SHIFT)),
    st.integers(0, 0x3FF),
)
PTE_BITS = st.sampled_from((PTE_PRESENT | PTE_WRITABLE, PTE_PRESENT, 0))
IDENTITY = {"code": PTE_PRESENT | PTE_WRITABLE,
            "ptes": [(None, PTE_PRESENT | PTE_WRITABLE)] * 4}

DISPATCHED_OPS = sorted(_DISPATCH)
MEMORY_FORMATS = (Fmt.RM, Fmt.MR, Fmt.MI, Fmt.RMX, Fmt.MRX)
STACK_OPS = (Op.PUSH_R, Op.PUSH_I, Op.POP_R, Op.PUSHF, Op.POPF, Op.CALL,
             Op.CALL_R, Op.RET, Op.INT, Op.IRET)
MEMORY_OPS = sorted({op for op in DISPATCHED_OPS
                     if op_info(op).fmt in MEMORY_FORMATS} | set(STACK_OPS))
PROTECT = st.sampled_from(((False, False), (True, False), (False, True),
                           (True, True)))


@st.composite
def op_cases(draw):
    """One instruction and the state it runs from; memory-touching ops
    are drawn as often as all the others together."""
    op = draw(st.sampled_from(MEMORY_OPS) | st.sampled_from(DISPATCHED_OPS))
    fmt = op_info(op).fmt
    r1, r2, index = draw(st.permutations(range(regs.NUM_REGS)))[:3]
    if fmt not in MEMORY_FORMATS and draw(st.booleans()):
        r2 = r1  # aliased operands
    value = st.integers(0, 40) | st.integers(0, MASK32) | \
        st.sampled_from((SIGN32 - 1, SIGN32, MASK32))
    case = {
        "op": op, "r1": r1, "r2": r2, "index": index,
        "scale": draw(st.integers(0, 3)),
        "disp": draw(st.integers(-0x40, 0x40)
                     | st.integers(-(1 << 31), (1 << 31) - 1)),
        "imm": draw(value),
        "regs": draw(st.lists(value, min_size=8, max_size=8)),
        "flags": draw(st.integers(0, 63)),
        "target": draw(MEMORY_TARGETS),
        "icache": draw(st.booleans()),
        "irq": draw(st.none() | st.none() | st.integers(0, 7)),
        "protect": draw(PROTECT),
        "paging": None,
    }
    if fmt is Fmt.REL:
        case["disp"] = draw(st.integers(-0x40, 0x40))
    if op in (Op.IN, Op.OUT):
        case["imm"] = draw(st.sampled_from((0x20, 0x21, 0x40, 0x41, 0x50,
                                            0x60, 0x70, 0xE9, 0x99)))
    if draw(st.integers(0, 2)) == 0:
        case["paging"] = {
            "code": draw(PTE_BITS),
            "ptes": draw(st.lists(st.tuples(FRAMES, PTE_BITS),
                                  min_size=4, max_size=4)),
        }
    return case


def _instruction(case) -> Instruction:
    op, fmt = case["op"], op_info(case["op"]).fmt
    fields = {"r1": case["r1"]}
    if fmt in (Fmt.RR, Fmt.RM, Fmt.MR, Fmt.RMX, Fmt.MRX, Fmt.MI):
        fields["r2"] = case["r2"]
    if fmt in (Fmt.RMX, Fmt.MRX):
        fields["index"] = case["index"]
        fields["scale_log2"] = case["scale"]
    if fmt in (Fmt.RM, Fmt.MR, Fmt.RMX, Fmt.MRX, Fmt.MI, Fmt.REL):
        fields["disp"] = case["disp"]
    imm_bits = {Fmt.RI: 32, Fmt.MI: 32, Fmt.I32: 32, Fmt.I16: 16,
                Fmt.RI8: 8, Fmt.I8: 8}.get(fmt)
    if imm_bits is not None:
        fields["imm"] = case["imm"] & ((1 << imm_bits) - 1)
    return Instruction(op, addr=CODE_ADDR, **fields)


def _registers(case, instr: Instruction) -> list[int]:
    """Random registers, then the base (or ESP) aimed at the target."""
    values = list(case["regs"])
    target = case["target"]
    fmt = instr.info.fmt
    if fmt in (Fmt.RM, Fmt.MR, Fmt.MI):
        values[instr.r2] = (target - instr.disp) & MASK32
    elif fmt in (Fmt.RMX, Fmt.MRX):
        scaled = values[instr.index] << instr.scale_log2
        values[instr.r2] = (target - instr.disp - scaled) & MASK32
    elif instr.op in (Op.PUSH_R, Op.PUSH_I, Op.PUSHF, Op.CALL, Op.CALL_R,
                      Op.INT):
        values[regs.ESP] = (target + 4) & MASK32  # first push at target
    elif instr.op in STACK_OPS:
        values[regs.ESP] = target  # first pop from target
    return values


def _set_pte(ram: bytearray, vpn: int, frame: int, bits: int) -> None:
    addr = PT_BASE + 4 * vpn
    if addr + 4 <= RAM_TOP:
        ram[addr:addr + 4] = ((frame << PAGE_SHIFT) | bits).to_bytes(
            4, "little")


def _build_side(engine: str, case, instr: Instruction) -> Side:
    """A patterned RAM (so loads, the IVT and unset PTEs read varied
    bytes), the instruction at ``CODE_ADDR``, the store hook watching
    the target's pages as ``protect`` says, optional paging, state."""
    machine = Machine()
    ram = machine.ram._data
    ram[:RAM_TOP] = RAM_PATTERN
    code = encode(instr)
    ram[CODE_ADDR:CODE_ADDR + len(code)] = code
    target = case["target"]
    first, last = target >> PAGE_SHIFT, ((target + 3) & MASK32) >> PAGE_SHIFT
    protect = [page for page, on in zip((first, last), case["protect"])
               if on]
    paging = case["paging"]
    if paging is not None:
        code_page = CODE_ADDR >> PAGE_SHIFT
        for vpn in (code_page, code_page + 1):
            _set_pte(ram, vpn, vpn, paging["code"])
        stack = ((target - 4) & MASK32) >> PAGE_SHIFT
        for vpn, (frame, bits) in zip((first, last, stack, 0),
                                      paging["ptes"]):
            _set_pte(ram, vpn, vpn if frame is None else frame, bits)
        machine.mmu.set_page_table(PT_BASE)
        machine.mmu.enable_paging()
    side = Side(engine, machine, protect, case["icache"])
    state = side.state
    for reg, value in enumerate(_registers(case, instr)):
        state.set_reg(reg, value)
    for slot in range(len(FLAG_SLOTS)):
        state.set_flag(slot, (case["flags"] >> slot) & 1)
    state.eip = CODE_ADDR
    if case["irq"] is not None:
        machine.pic.request_irq(case["irq"])
    return side


def _framebuffer(machine: Machine) -> tuple:
    fb = machine.framebuffer
    return bytes(fb._pixels), fb.pixel_writes, fb.mmio_accesses


def check_case(case, engines=("host", "simple", "seed")) -> None:
    """Step ``case`` once on each engine; everything must match the
    seed's."""
    instr = _instruction(case)
    sides = [_build_side(engine, case, instr) for engine in engines]
    results = [side.step() for side in sides]
    seed = sides[-1]
    for side, result in zip(sides[:-1], results):
        assert result == results[-1], case
        assert side.observe() == seed.observe(), (
            f"{case}: {side.state.describe()} vs {seed.state.describe()}")
        assert side.hook_log == seed.hook_log, case
        assert side.written == seed.written, case
        assert side.machine.ram._data == seed.machine.ram._data, case
        assert _framebuffer(side.machine) == _framebuffer(seed.machine)


@given(op_cases())
@settings(max_examples=400, deadline=None)
def test_every_op_matches_the_seed(case):
    check_case(case)


@pytest.mark.parametrize("op", (Op.LOAD, Op.LOADB, Op.STORE, Op.STOREB),
                         ids=lambda op: op.name)
@pytest.mark.parametrize("edge", (FRAMEBUFFER_BASE,
                                  FRAMEBUFFER_BASE + 0x10000, RAM_TOP,
                                  IN_RUN_PAGE_EDGE, CONSOLE_MMIO_BASE),
                         ids=hex)
def test_data_path_edges_match_the_seed(op, edge):
    """Every 1- and 4-byte load and store from four bytes below an edge
    to three above, with each pattern of watched pages for stores, with
    paging off and identity-mapped."""
    patterns = ((False, False),) if op in (Op.LOAD, Op.LOADB) else \
        ((False, False), (True, False), (False, True), (True, True))
    for offset in range(-4, 4):
        for protect in patterns:
            for paging in (None, IDENTITY):
                case = {
                    "op": op, "r1": regs.EAX, "r2": regs.EBX, "index": 0,
                    "scale": 0, "disp": 0, "imm": 0,
                    "regs": [0x8BADF00D + 0x01010101 * i for i in range(8)],
                    "flags": 0, "target": edge + offset, "icache": True,
                    "irq": None, "protect": protect, "paging": paging,
                }
                check_case(case, engines=("host", "seed"))
