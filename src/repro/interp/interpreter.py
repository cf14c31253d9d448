"""Precise reference interpreter for the t86 guest ISA.

The interpreter is the correctness anchor of the whole system:

* it executes one instruction at a time with no partial architectural
  updates — every register write happens only after every fault
  opportunity of that instruction has passed;
* it delivers exceptions and hardware interrupts at exact instruction
  boundaries;
* it is the recovery path after every host rollback (paper §3): CMS
  re-executes the rolled-back region here to decide whether a fault was
  genuine or an artifact of speculation.

The interpreter works against any ``GuestState`` implementation: a
``SimpleGuestState`` for the reference configuration, or the
host-shadow-register-backed state inside CMS, where each interpreted
instruction updates committed state directly.

Every instruction below the translation threshold runs here (Figure 1),
so on a flat profile interpretation leads the simulator's time, and
each step is kept to about the cost of its handler:

* ``step`` allocates nothing on its common path; it returns one of
  three shared ``StepOutcome`` values;
* a decode-cache hit yields the instruction and its handler together;
  the binary ALU ops and the shifts find their flag helper in tables
  built at import;
* a data access with paging off that lies inside one RAM run (the
  template JIT's guard, ``MemoryBus.in_ram_run``) reads or writes RAM's
  bytes directly (see ``_load``/``_store``); every other access goes
  through ``vtranslate``, ``is_io`` and the bus.

The seed's interpreter, which did every access the long way, lives on
in ``tests/test_interp_reference.py`` as the step-by-step reference.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa import flags as fl
from repro.isa import registers as regs
from repro.isa.decoder import decode
from repro.isa.exceptions import GuestException, divide_error
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Op
from repro.machine import Machine
from repro.memory.mmu import PT_SPAN
from repro.memory.physical import PAGE_SHIFT
from repro.state import FLAG_SLOTS, GuestState

MASK32 = 0xFFFFFFFF
SIGN32 = 0x80000000

CF_SLOT = FLAG_SLOTS.index("cf")
IF_SLOT = FLAG_SLOTS.index("if_")
IVT_BASE = 0x0000  # physical base of the interrupt vector table


class Halted(Exception):
    """The guest executed ``hlt`` with interrupts disabled: workload end."""


@dataclass(frozen=True)
class StepOutcome:
    """What one interpreter step did, as the dispatcher reads it."""

    retired: bool = False  # an instruction executed
    took_exception: bool = False  # an exception was delivered


RETIRED = StepOutcome(retired=True)
EXCEPTION = StepOutcome(took_exception=True)
IDLE = StepOutcome()  # an interrupt delivered, or a halted wait


class Interpreter:
    """Instruction-at-a-time execution with precise semantics."""

    def __init__(self, machine: Machine, state: GuestState,
                 profile=None) -> None:
        self.machine = machine
        self.state = state
        self.profile = profile
        # CMS hook called with (paddr, size) before every data store; the
        # SMC manager uses it to service protection events for stores
        # performed by the (native, hence hardware-checked) interpreter.
        self.store_hook = None
        # The hook's live page index, set with the hook.  A RAM store
        # whose first and last pages are both outside it skips the
        # hook, so the hook must do nothing for such a store; the owner
        # mutates the index in place and never rebinds it.
        self.store_hook_pages = None
        # Optional DecodedInstructionCache.  Consulted only while paging
        # is disabled (identity mapping, so EIP is the physical address
        # the cache is keyed by); kept coherent by the owner through the
        # memory bus's store observers.
        self.icache = None
        self.exceptions_delivered = 0
        self.interrupts_delivered = 0
        self._halted_waiting = False
        self._touched_mmio = False
        self._touched_pt = False
        # RAM's bytes, for the RAM data path (written in place, never
        # rebound).
        self._ram = machine.ram._data

    # ------------------------------------------------------------------
    # Top-level stepping
    # ------------------------------------------------------------------

    def step(self) -> StepOutcome:
        """Execute one instruction (or deliver one interrupt).

        Device time advances one tick per instruction, and per step
        spent waiting in ``hlt``.  Raises ``Halted`` when the machine
        executes ``hlt`` with interrupts disabled.
        """
        state = self.state
        machine = self.machine
        if state.interrupts_enabled:
            vector = machine.pending_vector()
            if vector is not None:
                try:
                    self._deliver_interrupt(vector)
                except GuestException:
                    raise Halted() from None  # fault during delivery
                self._halted_waiting = False
                return IDLE
        if self._halted_waiting:
            if not state.interrupts_enabled:
                raise Halted()
            # Waiting for an interrupt: let device time advance.
            machine.tick(1)
            return IDLE

        addr = state.eip
        self._touched_mmio = False
        self._touched_pt = False
        try:
            icache = self.icache
            if icache is not None and not machine.mmu.paging_enabled:
                entry = icache.entries.get(addr)
                if entry is None:
                    icache.misses += 1
                    instr = decode(machine, addr)
                    handler = _DISPATCH[instr.op]
                    icache.insert(addr, instr.length, (instr, handler))
                else:
                    icache.hits += 1
                    instr, handler = entry
            else:
                instr = decode(machine, addr)
                handler = _DISPATCH[instr.op]
            handler(self, instr)
        except GuestException as exc:
            try:
                self._deliver_exception(exc, addr)
            except GuestException:
                # A fault during exception delivery (e.g. the stack
                # pushed out of physical memory): the double/triple
                # fault of a real PC, which shuts the machine down.
                raise Halted() from None
            machine.tick(1)
            return EXCEPTION
        profile = self.profile
        if profile is not None:
            if self._touched_mmio:
                profile.on_mmio(addr)
            if self._touched_pt:
                profile.on_pt_store(addr)
        machine.tick(1)
        return RETIRED

    def run(self, max_steps: int = 1_000_000) -> int:
        """Run until ``hlt`` (with IF=0) or the step budget; returns steps."""
        done = 0
        try:
            for done in range(1, max_steps + 1):
                self.step()
        except Halted:
            pass
        return done

    # ------------------------------------------------------------------
    # Exception and interrupt delivery
    # ------------------------------------------------------------------

    def _read_vector(self, vector: int) -> int:
        return self.machine.bus.read(IVT_BASE + vector * 4, 4)

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
        """Deliver a hardware interrupt at the current precise boundary."""
        state = self.state
        self._push(state.eflags)
        self._push(state.eip)
        state.set_flag(IF_SLOT, 0)
        state.eip = self._read_vector(vector)
        self.machine.pic.acknowledge(vector)
        self.interrupts_delivered += 1

    def _deliver_exception(self, exc: GuestException, instr_addr: int) -> None:
        """Deliver a fault: the pushed EIP re-executes the instruction."""
        state = self.state
        state.eip = instr_addr  # undo any partial EIP advance
        self._push(state.eflags)
        self._push(instr_addr)
        if exc.pushes_error_code:
            self._push(exc.error_code)
        state.set_flag(IF_SLOT, 0)
        state.eip = self._read_vector(exc.vector)
        self.exceptions_delivered += 1

    # ------------------------------------------------------------------
    # Data access helpers (order matters for precision).  The
    # interpreter makes 1- and 4-byte accesses only, at masked
    # addresses.
    # ------------------------------------------------------------------

    def _load(self, vaddr: int, size: int) -> int:
        """Read ``size`` bytes at virtual ``vaddr``.

        With paging off, an access inside one RAM run reads RAM's bytes
        directly: it is identity-mapped, can be neither I/O nor past
        the end of RAM, and so counts in no MMU or bus counter.  Any
        other access translates through the MMU (#PF, TLB counters),
        marks the step as touching MMIO when any byte is I/O, and reads
        through the bus (MMIO routing, ``io_reads``, #GP).
        """
        machine = self.machine
        if not machine.mmu.paging_enabled and \
                machine.bus.in_ram_run(vaddr, size):
            if size == 1:
                return self._ram[vaddr]
            return int.from_bytes(self._ram[vaddr:vaddr + 4], "little")
        paddr = machine.vtranslate(vaddr, size, is_write=False)
        if machine.bus.is_io(paddr, size):
            self._touched_mmio = True
        return machine.bus.read(paddr, size)

    def _store(self, vaddr: int, value: int, size: int) -> None:
        """Write ``size`` bytes of ``value`` at virtual ``vaddr``.

        The store hook runs before every store that reaches RAM.  With
        paging off, a store inside one RAM run skips the hook when its
        first and last pages are both outside ``store_hook_pages``,
        writes RAM's bytes directly, and runs the bus's store observers
        (``notify_store``), which is all ``bus.write`` does for it.
        Any other store translates through the MMU (#PF, TLB counters),
        marks the step as touching MMIO (and skips the hook) when any
        byte is I/O, marks a store into the live page table, and writes
        through the bus (MMIO routing, ``io_writes``, #GP).
        """
        machine = self.machine
        bus = machine.bus
        if not machine.mmu.paging_enabled and bus.in_ram_run(vaddr, size):
            hook = self.store_hook
            if hook is not None:
                pages = self.store_hook_pages
                if vaddr >> PAGE_SHIFT in pages or \
                        (vaddr + size - 1) >> PAGE_SHIFT in pages:
                    hook(vaddr, size)
            if size == 1:
                self._ram[vaddr] = value & 0xFF
            else:
                self._ram[vaddr:vaddr + 4] = (value & MASK32).to_bytes(
                    4, "little")
            bus.notify_store(vaddr, size)
            return
        paddr = machine.vtranslate(vaddr, size, is_write=True)
        if bus.is_io(paddr, size):
            self._touched_mmio = True
        else:
            mmu = machine.mmu
            if mmu.paging_enabled and \
                    0 <= paddr - mmu.page_table_base < PT_SPAN:
                self._touched_pt = True
            if self.store_hook is not None:
                self.store_hook(paddr, size)
        bus.write(paddr, value, size)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    # -- address computation ------------------------------------------------

    def _ea(self, instr: Instruction) -> int:
        """Effective address for RM/MR/MI formats."""
        return (self.state.get_reg(instr.r2) + instr.disp) & MASK32

    def _ea_indexed(self, instr: Instruction) -> int:
        base = self.state.get_reg(instr.r2)
        index = self.state.get_reg(instr.index) << instr.scale_log2
        return (base + index + instr.disp) & MASK32

    # -- movement ------------------------------------------------------------

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

    # -- two-operand ALU -------------------------------------------------

    def _binary(self, instr: Instruction, rhs: int) -> None:
        state = self.state
        compute, write = _BINARY[instr.op]
        result, flags = compute(state, state.get_reg(instr.r1), rhs)
        if write:
            state.set_reg(instr.r1, result)
        state.set_arith_flags(flags)
        state.eip = instr.next_addr

    def _op_binary_rr(self, instr: Instruction) -> None:
        self._binary(instr, self.state.get_reg(instr.r2))

    def _op_binary_ri(self, instr: Instruction) -> None:
        self._binary(instr, instr.imm)

    # -- unary ALU ---------------------------------------------------------

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
        state = self.state
        divisor = state.get_reg(instr.r1)
        divisor = divisor - (1 << 32) if divisor & SIGN32 else divisor
        dividend = (state.get_reg(regs.EDX) << 32) | state.get_reg(regs.EAX)
        dividend = dividend - (1 << 64) if dividend & (1 << 63) else dividend
        if divisor == 0:
            raise divide_error(instr.addr)
        quotient = int(dividend / divisor)  # truncate toward zero, like x86
        remainder = dividend - quotient * divisor
        if not -(1 << 31) <= quotient <= (1 << 31) - 1:
            raise divide_error(instr.addr)
        state.set_reg(regs.EAX, quotient & MASK32)
        state.set_reg(regs.EDX, remainder & MASK32)
        state.eip = instr.next_addr

    # -- shifts ----------------------------------------------------------

    def _op_shift(self, instr: Instruction) -> None:
        state = self.state
        func, by_cl = _SHIFTS[instr.op]
        count = state.get_reg(regs.ECX) & 0xFF if by_cl else instr.imm
        result, flags, mask = func(state.get_reg(instr.r1), count)
        state.set_reg(instr.r1, result)
        if mask:
            state.set_arith_flags(flags, mask)
        state.eip = instr.next_addr

    # -- stack -------------------------------------------------------------

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

    # -- control flow ------------------------------------------------------

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

    def condition_code(self, index: int) -> bool:
        """Evaluate x86 condition code ``index`` (0..15)."""
        taken = bool(_CONDITIONS[index >> 1](self.state.get_flag))
        if index & 1:
            return not taken
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
        taken = self.condition_code(instr.op - Op.JO)
        if self.profile is not None:
            self.profile.on_branch(instr.addr, taken)
        self.state.eip = instr.branch_target if taken else instr.next_addr

    # -- I/O and system -----------------------------------------------------

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
        state.set_flag(IF_SLOT, 0)
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
        self.state.set_flag(IF_SLOT, 1)
        self.state.eip = instr.next_addr

    def _op_cli(self, instr: Instruction) -> None:
        self.state.set_flag(IF_SLOT, 0)
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


# -- ALU and shift tables ------------------------------------------------
#
# Each binary op's flag computation, as ``compute(state, lhs, rhs) ->
# (result, arith flags)``; ADC and SBB read CF.


def _alu_add(state: GuestState, lhs: int, rhs: int) -> tuple[int, int]:
    return fl.flags_add(lhs, rhs)


def _alu_adc(state: GuestState, lhs: int, rhs: int) -> tuple[int, int]:
    return fl.flags_add(lhs, rhs, state.get_flag(CF_SLOT))


def _alu_sub(state: GuestState, lhs: int, rhs: int) -> tuple[int, int]:
    return fl.flags_sub(lhs, rhs)


def _alu_sbb(state: GuestState, lhs: int, rhs: int) -> tuple[int, int]:
    return fl.flags_sub(lhs, rhs, state.get_flag(CF_SLOT))


def _alu_and(state: GuestState, lhs: int, rhs: int) -> tuple[int, int]:
    return fl.flags_logic(lhs & rhs)


def _alu_or(state: GuestState, lhs: int, rhs: int) -> tuple[int, int]:
    return fl.flags_logic(lhs | rhs)


def _alu_xor(state: GuestState, lhs: int, rhs: int) -> tuple[int, int]:
    return fl.flags_logic(lhs ^ rhs)


def _alu_imul(state: GuestState, lhs: int, rhs: int) -> tuple[int, int]:
    lhs_signed = lhs - (1 << 32) if lhs & SIGN32 else lhs
    rhs_signed = rhs - (1 << 32) if rhs & SIGN32 else rhs
    full = lhs_signed * rhs_signed
    result = full & MASK32
    return result, fl.flags_imul(result, full)


# op -> (compute, whether the result is written back); CMP and TEST
# only set flags.
_BINARY: dict[Op, tuple] = {}
for _rr, _ri, _compute, _write in (
        (Op.ADD_RR, Op.ADD_RI, _alu_add, True),
        (Op.ADC_RR, Op.ADC_RI, _alu_adc, True),
        (Op.SUB_RR, Op.SUB_RI, _alu_sub, True),
        (Op.SBB_RR, Op.SBB_RI, _alu_sbb, True),
        (Op.CMP_RR, Op.CMP_RI, _alu_sub, False),
        (Op.AND_RR, Op.AND_RI, _alu_and, True),
        (Op.TEST_RR, Op.TEST_RI, _alu_and, False),
        (Op.OR_RR, Op.OR_RI, _alu_or, True),
        (Op.XOR_RR, Op.XOR_RI, _alu_xor, True),
        (Op.IMUL_RR, Op.IMUL_RI, _alu_imul, True)):
    _BINARY[_rr] = _BINARY[_ri] = (_compute, _write)

# op -> (flag helper, whether the count is CL rather than the imm8).
_SHIFTS = {
    Op.SHL_RI8: (fl.flags_shl, False),
    Op.SHR_RI8: (fl.flags_shr, False),
    Op.SAR_RI8: (fl.flags_sar, False),
    Op.ROL_RI8: (fl.flags_rol, False),
    Op.ROR_RI8: (fl.flags_ror, False),
    Op.SHL_RCL: (fl.flags_shl, True),
    Op.SHR_RCL: (fl.flags_shr, True),
    Op.SAR_RCL: (fl.flags_sar, True),
}

# Condition code pairs (index >> 1), each reading only its flags
# through ``get_flag`` (slots CF=0, PF=1, ZF=2, SF=3, OF=4).
_CONDITIONS = (
    lambda flag: flag(4),  # jo/jno
    lambda flag: flag(0),  # jb/jae
    lambda flag: flag(2),  # je/jne
    lambda flag: flag(0) | flag(2),  # jbe/ja
    lambda flag: flag(3),  # js/jns
    lambda flag: flag(1),  # jp/jnp
    lambda flag: flag(3) ^ flag(4),  # jl/jge
    lambda flag: (flag(3) ^ flag(4)) | flag(2),  # jle/jg
)


def _build_dispatch() -> dict[Op, object]:
    i = Interpreter
    table: dict[Op, object] = {
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
    for op in _SHIFTS:
        table[op] = i._op_shift
    for op_value in range(Op.JO, Op.JG + 1):
        table[Op(op_value)] = i._op_jcc
    for op_value in range(Op.SETO, Op.SETG + 1):
        table[Op(op_value)] = i._op_setcc
    for op_value in range(Op.CMOVO, Op.CMOVG + 1):
        table[Op(op_value)] = i._op_cmovcc
    return table


_DISPATCH = _build_dispatch()
assert len(_DISPATCH) == len(Op), "every op needs a handler"
