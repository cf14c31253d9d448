"""Frontend: lower a selected guest region to trace IR.

This is the "analyze x86 data and control flow within the region,
generate native VLIW code" stage (paper §2), up to but excluding
scheduling.  Key properties:

* every guest flag an instruction defines is computed explicitly into a
  temp and written back to its flag location — the optimizer's dead-flag
  elimination then deletes the computations no later consumer or exit
  needs;
* guest register writebacks are the only writes to architectural
  locations; all intermediate computation is in single-assignment temps,
  which is what lets the scheduler hoist work above side exits without
  compensation code (§3.2);
* conditional branches become ``EXIT_IF`` ops leaving the trace on the
  unlikely direction;
* a mid-trace ``COMMIT`` is emitted every ``policy.commit_interval``
  guest instructions, bounding rollback and interrupt-response cost;
* port I/O — and any instruction listed in ``policy.io_fence_addrs``
  (learned MMIO sites, §3.4) — becomes a commit-fenced barrier op;
* instructions in ``policy.stylized_imm_addrs`` reload their immediate
  fields from the code bytes at runtime (§3.6.4).
"""

from __future__ import annotations

from repro.host.atoms import AluOp
from repro.isa import flags as fl
from repro.isa import registers as greg
from repro.isa.encoder import immediate_field_offset
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Fmt, Kind, Op
from repro.state import FLAG_SLOTS
from repro.translator.ir import (
    GUEST_FLAGS,
    GUEST_REGS,
    IROp,
    IROpKind,
    Operand,
    Temp,
    TraceIR,
)
from repro.translator.policies import TranslationPolicy
from repro.translator.region import Region, RegionEnd

MASK32 = 0xFFFFFFFF

CF_S = FLAG_SLOTS.index("cf")
PF_S = FLAG_SLOTS.index("pf")
ZF_S = FLAG_SLOTS.index("zf")
SF_S = FLAG_SLOTS.index("sf")
OF_S = FLAG_SLOTS.index("of")


class FrontendError(Exception):
    """The region contains something the frontend cannot lower."""


class _Builder:
    """IR construction helpers bound to one trace."""

    def __init__(self, trace: TraceIR) -> None:
        self.trace = trace
        self.guest_index = 0
        self.guest_addr: int | None = None
        # Current value of each guest location (temp after a writeback),
        # by register index and flag slot.
        self.regmap: list[Operand] = list(GUEST_REGS)
        self.flagmap: list[Operand] = list(GUEST_FLAGS)

    def emit(self, op: IROp) -> IROp:
        op.guest_index = self.guest_index
        op.guest_addr = self.guest_addr
        self.trace.ops.append(op)
        return op

    # -- value helpers ---------------------------------------------------

    def movi(self, imm: int) -> Temp:
        dest = self.trace.new_temp()
        self.emit(IROp(IROpKind.MOVI, dest=dest, imm=imm & MASK32))
        return dest

    def alu(self, aluop: AluOp, a: Operand, b: Operand) -> Temp:
        dest = self.trace.new_temp()
        self.emit(IROp(IROpKind.ALU, dest=dest, srcs=(a, b), aluop=aluop))
        return dest

    def alui(self, aluop: AluOp, a: Operand, imm: int) -> Temp:
        dest = self.trace.new_temp()
        self.emit(
            IROp(IROpKind.ALUI, dest=dest, srcs=(a,), aluop=aluop,
                 imm=imm & MASK32)
        )
        return dest

    def sel(self, cond: Operand, if_true: Operand,
            if_false: Operand) -> Temp:
        dest = self.trace.new_temp()
        self.emit(IROp(IROpKind.SEL, dest=dest, srcs=(cond, if_true, if_false)))
        return dest

    def load(self, base: Operand, disp: int, size: int = 4,
             io_ok: bool = False, barrier: bool = False,
             no_speculate: bool = False) -> Temp:
        dest = self.trace.new_temp()
        self.emit(
            IROp(IROpKind.LD, dest=dest, srcs=(base,), disp=disp, size=size,
                 io_ok=io_ok, barrier=barrier, no_speculate=no_speculate)
        )
        return dest

    def store(self, base: Operand, value: Operand, disp: int,
              size: int = 4, io_ok: bool = False, barrier: bool = False,
              no_speculate: bool = False) -> None:
        self.emit(
            IROp(IROpKind.ST, srcs=(base, value), disp=disp, size=size,
                 io_ok=io_ok, barrier=barrier, no_speculate=no_speculate)
        )

    # -- guest locations ---------------------------------------------------

    def read_reg(self, index: int) -> Operand:
        return self.regmap[index]

    def write_reg(self, index: int, value: Operand) -> None:
        loc = GUEST_REGS[index]
        self._preserve_forwards(loc)
        self.emit(IROp(IROpKind.MOV, dest=loc, srcs=(value,)))
        self.regmap[index] = value

    def read_flag(self, slot: int) -> Operand:
        return self.flagmap[slot]

    def write_flag(self, slot: int, value: Operand) -> None:
        loc = GUEST_FLAGS[slot]
        self._preserve_forwards(loc)
        self.emit(IROp(IROpKind.MOV, dest=loc, srcs=(value,)))
        self.flagmap[slot] = value

    def _preserve_forwards(self, loc: Operand) -> None:
        """Snapshot stale forwards of ``loc`` before it is rewritten.

        The value maps may say e.g. "eax currently lives in %edx" (after
        ``mov eax, edx``).  When %edx itself is about to be redefined,
        the old value must be captured into a temp, or every later use
        of eax would silently read the *new* %edx.
        """
        regmap, flagmap = self.regmap, self.flagmap
        if loc not in regmap and loc not in flagmap:
            return  # the common case: nothing holds loc, not even loc
        # An entry still holding its own location is not a forward.
        stale_regs = [index for index, operand in enumerate(regmap)
                      if operand is loc and GUEST_REGS[index] is not loc]
        stale_flags = [slot for slot, operand in enumerate(flagmap)
                       if operand is loc and GUEST_FLAGS[slot] is not loc]
        if not stale_regs and not stale_flags:
            return
        snapshot = self.trace.new_temp()
        self.emit(IROp(IROpKind.MOV, dest=snapshot, srcs=(loc,)))
        for index in stale_regs:
            self.regmap[index] = snapshot
        for slot in stale_flags:
            self.flagmap[slot] = snapshot

    def invert(self, value: Operand) -> Temp:
        return self.alui(AluOp.XOR, value, 1)

    # -- flag recipes --------------------------------------------------------

    def flags_pzs(self, result: Operand) -> None:
        self.write_flag(ZF_S, self.alui(AluOp.CMPEQ, result, 0))
        self.write_flag(SF_S, self.alui(AluOp.SHR, result, 31))
        self.write_flag(PF_S, self.parity(result))

    def parity(self, result: Operand) -> Temp:
        """Even-parity of the low byte via the PARITY assist atom.

        The TM5800 grew x86-assist atoms over the TM3000 generations
        (paper §2 — segmentation, 16-bit operations); parity is modelled
        the same way, since materializing PF from plain ALU ops would
        put a seven-operation serial chain on every commit's critical
        path.
        """
        return self.alui(AluOp.PARITY, result, 0)

    def flags_of_add(self, a: Operand, b: Operand, result: Operand) -> None:
        x = self.alu(AluOp.XOR, a, result)
        y = self.alu(AluOp.XOR, b, result)
        self.write_flag(OF_S, self.alui(AluOp.SHR, self.alu(AluOp.AND, x, y), 31))

    def flags_of_sub(self, a: Operand, b: Operand, result: Operand) -> None:
        x = self.alu(AluOp.XOR, a, b)
        y = self.alu(AluOp.XOR, a, result)
        self.write_flag(OF_S, self.alui(AluOp.SHR, self.alu(AluOp.AND, x, y), 31))


class Frontend:
    """Lowers one region to trace IR under a policy."""

    def __init__(self, policy: TranslationPolicy) -> None:
        self.policy = policy

    def lower(self, region: Region) -> TraceIR:
        trace = TraceIR(entry_eip=region.entry_eip,
                        is_loop=region.end is RegionEnd.LOOP)
        b = _Builder(trace)
        since_commit = 0
        indirect_target: Operand | None = None

        for index, instr in enumerate(region.instrs):
            b.guest_index = index
            b.guest_addr = instr.addr
            since_commit += 1
            is_last = index == len(region.instrs) - 1
            indirect_target = self._lower_instr(b, instr, region,
                                                since_commit)
            if instr.addr in self.policy.io_fence_addrs or \
                    instr.info.kind is Kind.IO:
                # The device interaction is irrevocable: commit right
                # after it so no later rollback can ever replay it.  The
                # host suppresses interrupt exits until this commit.
                if not is_last:
                    next_addr = region.instrs[index + 1].addr
                    b.emit(IROp(IROpKind.COMMIT, exit_target=next_addr,
                                commit_count=since_commit,
                                window_start=index + 1 - since_commit,
                                window_end=index + 1))
                since_commit = 0
            elif (since_commit >= self.policy.commit_interval
                    and not is_last):
                next_addr = region.instrs[index + 1].addr
                b.emit(IROp(IROpKind.COMMIT, exit_target=next_addr,
                            commit_count=since_commit,
                            window_start=index + 1 - since_commit,
                            window_end=index + 1))
                since_commit = 0

        # Final exit.
        total = len(region.instrs)
        b.guest_index = total
        b.guest_addr = (region.instrs[-1].addr if region.instrs else
                        region.entry_eip)
        window = dict(commit_count=since_commit,
                      window_start=total - since_commit, window_end=total)
        if region.end is RegionEnd.LOOP:
            b.emit(IROp(IROpKind.LOOP, exit_target=region.entry_eip,
                        **window))
        elif region.end is RegionEnd.INDIRECT:
            assert indirect_target is not None
            b.emit(IROp(IROpKind.EXIT_IND, srcs=(indirect_target,),
                        **window))
        else:
            assert region.end_target is not None
            b.emit(IROp(IROpKind.EXIT, exit_target=region.end_target,
                        **window))
        return trace

    # ------------------------------------------------------------------

    def _imm_operand(self, b: _Builder, instr: Instruction) -> Operand:
        """Immediate as an operand, honoring stylized-SMC reloading."""
        if instr.addr in self.policy.stylized_imm_addrs:
            offset = immediate_field_offset(instr)
            if offset is not None:
                base = b.movi(instr.addr + offset)
                return b.load(base, 0, size=4, no_speculate=True)
        return b.movi(instr.imm)

    def _ea(self, b: _Builder, instr: Instruction) -> tuple[Operand, int]:
        """(base operand, displacement) for an RM/MR/MI access."""
        return b.read_reg(instr.r2), instr.disp

    def _ea_indexed(self, b: _Builder, instr: Instruction) -> tuple[Operand, int]:
        index = b.read_reg(instr.index)
        scaled = (b.alui(AluOp.SHL, index, instr.scale_log2)
                  if instr.scale_log2 else index)
        base = b.alu(AluOp.ADD, b.read_reg(instr.r2), scaled)
        return base, instr.disp

    def _mem_attrs(self, instr: Instruction) -> dict:
        """LD/ST attributes for this guest instruction under the policy."""
        fenced = instr.addr in self.policy.io_fence_addrs
        return {
            "io_ok": fenced,
            "barrier": fenced,
            "no_speculate": fenced or instr.addr in self.policy.no_reorder_addrs,
        }

    def _lower_instr(self, b: _Builder, instr: Instruction, region: Region,
                     since_commit: int) -> Operand | None:
        """Lower one instruction; returns the indirect exit target if any."""
        op = instr.op
        handler = _HANDLERS.get(op)
        if handler is not None:
            handler(self, b, instr)
            return None
        if op in _BINARY_OPS:
            self._lower_binary(b, instr)
            return None
        if op in _SHIFT_IMM_OPS or op in _SHIFT_CL_OPS:
            self._lower_shift(b, instr)
            return None
        if Op.JO <= op <= Op.JG:
            self._lower_jcc(b, instr, region, since_commit)
            return None
        if Op.SETO <= op <= Op.SETG:
            cond = self._condition_code(b, op - Op.SETO)
            b.write_reg(instr.r1, cond)
            return None
        if Op.CMOVO <= op <= Op.CMOVG:
            cond = self._condition_code(b, op - Op.CMOVO)
            value = b.sel(cond, b.read_reg(instr.r2), b.read_reg(instr.r1))
            b.write_reg(instr.r1, value)
            return None
        if op in (Op.JMP_R, Op.CALL_R, Op.RET):
            return self._lower_indirect(b, instr)
        if op is Op.JMP or op is Op.CALL:
            if op is Op.CALL:
                self._push(b, b.movi(instr.next_addr))
            return None  # trace follows direct jumps/calls
        raise FrontendError(f"frontend cannot lower {instr}")

    # -- simple moves and memory ------------------------------------------

    def _lower_nop(self, b: _Builder, instr: Instruction) -> None:
        pass

    def _lower_mov_rr(self, b: _Builder, instr: Instruction) -> None:
        b.write_reg(instr.r1, b.read_reg(instr.r2))

    def _lower_mov_ri(self, b: _Builder, instr: Instruction) -> None:
        b.write_reg(instr.r1, self._imm_operand(b, instr))

    def _lower_xchg(self, b: _Builder, instr: Instruction) -> None:
        a, c = b.read_reg(instr.r1), b.read_reg(instr.r2)
        b.write_reg(instr.r1, c)
        b.write_reg(instr.r2, a)

    def _lower_load(self, b: _Builder, instr: Instruction) -> None:
        indexed = instr.op in (Op.LOADX, Op.LOADBX)
        base, disp = (self._ea_indexed(b, instr) if indexed
                      else self._ea(b, instr))
        size = 1 if instr.op in (Op.LOADB, Op.LOADBX) else 4
        value = b.load(base, disp, size=size, **self._mem_attrs(instr))
        b.write_reg(instr.r1, value)

    def _lower_store(self, b: _Builder, instr: Instruction) -> None:
        indexed = instr.op in (Op.STOREX, Op.STOREBX)
        base, disp = (self._ea_indexed(b, instr) if indexed
                      else self._ea(b, instr))
        size = 1 if instr.op in (Op.STOREB, Op.STOREBX) else 4
        b.store(base, b.read_reg(instr.r1), disp, size=size,
                **self._mem_attrs(instr))

    def _lower_storei(self, b: _Builder, instr: Instruction) -> None:
        base, disp = self._ea(b, instr)
        b.store(base, self._imm_operand(b, instr), disp,
                **self._mem_attrs(instr))

    def _lower_lea(self, b: _Builder, instr: Instruction) -> None:
        if instr.op is Op.LEAX:
            base, disp = self._ea_indexed(b, instr)
        else:
            base, disp = self._ea(b, instr)
        value = b.alui(AluOp.ADD, base, disp) if disp else base
        b.write_reg(instr.r1, value)

    # -- binary ALU ---------------------------------------------------------

    def _lower_binary(self, b: _Builder, instr: Instruction) -> None:
        op = instr.op
        a = b.read_reg(instr.r1)
        if instr.info.fmt is Fmt.RI:
            rhs = self._imm_operand(b, instr)
        else:
            rhs = b.read_reg(instr.r2)
        kind = _BINARY_OPS[op]
        if kind == "add":
            result = b.alu(AluOp.ADD, a, rhs)
            b.write_flag(CF_S, b.alu(AluOp.CMPLTU, result, a))
            b.flags_of_add(a, rhs, result)
            b.flags_pzs(result)
            b.write_reg(instr.r1, result)
        elif kind == "adc":
            carry = b.read_flag(CF_S)
            partial = b.alu(AluOp.ADD, a, rhs)
            c1 = b.alu(AluOp.CMPLTU, partial, a)
            result = b.alu(AluOp.ADD, partial, carry)
            c2 = b.alu(AluOp.CMPLTU, result, partial)
            b.write_flag(CF_S, b.alu(AluOp.OR, c1, c2))
            b.flags_of_add(a, rhs, result)
            b.flags_pzs(result)
            b.write_reg(instr.r1, result)
        elif kind in ("sub", "cmp"):
            result = b.alu(AluOp.SUB, a, rhs)
            b.write_flag(CF_S, b.alu(AluOp.CMPLTU, a, rhs))
            b.flags_of_sub(a, rhs, result)
            b.flags_pzs(result)
            if kind == "sub":
                b.write_reg(instr.r1, result)
        elif kind == "sbb":
            borrow = b.read_flag(CF_S)
            partial = b.alu(AluOp.SUB, a, rhs)
            c1 = b.alu(AluOp.CMPLTU, a, rhs)
            result = b.alu(AluOp.SUB, partial, borrow)
            c2 = b.alu(AluOp.CMPLTU, partial, borrow)
            b.write_flag(CF_S, b.alu(AluOp.OR, c1, c2))
            b.flags_of_sub(a, rhs, result)
            b.flags_pzs(result)
            b.write_reg(instr.r1, result)
        elif kind in ("and", "test"):
            result = b.alu(AluOp.AND, a, rhs)
            self._logic_flags(b, result)
            if kind == "and":
                b.write_reg(instr.r1, result)
        elif kind == "or":
            result = b.alu(AluOp.OR, a, rhs)
            self._logic_flags(b, result)
            b.write_reg(instr.r1, result)
        elif kind == "xor":
            result = b.alu(AluOp.XOR, a, rhs)
            self._logic_flags(b, result)
            b.write_reg(instr.r1, result)
        elif kind == "imul":
            result = b.alu(AluOp.MUL, a, rhs)
            high = b.alu(AluOp.SMULH, a, rhs)
            sign = b.alui(AluOp.SAR, result, 31)
            overflow = b.alu(AluOp.CMPNE, high, sign)
            b.write_flag(CF_S, overflow)
            b.write_flag(OF_S, overflow)
            b.flags_pzs(result)
            b.write_reg(instr.r1, result)
        else:  # pragma: no cover - table is exhaustive
            raise AssertionError(kind)

    def _logic_flags(self, b: _Builder, result: Operand) -> None:
        zero = b.movi(0)
        b.write_flag(CF_S, zero)
        b.write_flag(OF_S, zero)
        b.flags_pzs(result)

    # -- unary ALU ---------------------------------------------------------

    def _lower_not(self, b: _Builder, instr: Instruction) -> None:
        b.write_reg(instr.r1, b.alui(AluOp.XOR, b.read_reg(instr.r1),
                                     MASK32))

    def _lower_neg(self, b: _Builder, instr: Instruction) -> None:
        a = b.read_reg(instr.r1)
        zero = b.movi(0)
        result = b.alu(AluOp.SUB, zero, a)
        b.write_flag(CF_S, b.alui(AluOp.CMPNE, a, 0))
        b.write_flag(OF_S, b.alui(AluOp.CMPEQ, a, 0x80000000))
        b.flags_pzs(result)
        b.write_reg(instr.r1, result)

    def _lower_inc(self, b: _Builder, instr: Instruction) -> None:
        a = b.read_reg(instr.r1)
        result = b.alui(AluOp.ADD, a, 1)
        b.write_flag(OF_S, b.alui(AluOp.CMPEQ, result, 0x80000000))
        b.flags_pzs(result)
        b.write_reg(instr.r1, result)

    def _lower_dec(self, b: _Builder, instr: Instruction) -> None:
        a = b.read_reg(instr.r1)
        result = b.alui(AluOp.SUB, a, 1)
        b.write_flag(OF_S, b.alui(AluOp.CMPEQ, result, 0x7FFFFFFF))
        b.flags_pzs(result)
        b.write_reg(instr.r1, result)

    def _lower_mul(self, b: _Builder, instr: Instruction) -> None:
        a = b.read_reg(greg.EAX)
        src = b.read_reg(instr.r1)
        low = b.alu(AluOp.MUL, a, src)
        high = b.alu(AluOp.UMULH, a, src)
        nonzero = b.alui(AluOp.CMPNE, high, 0)
        b.write_flag(CF_S, nonzero)
        b.write_flag(OF_S, nonzero)
        b.flags_pzs(low)
        b.write_reg(greg.EAX, low)
        b.write_reg(greg.EDX, high)

    def _lower_div(self, b: _Builder, instr: Instruction) -> None:
        low = b.read_reg(greg.EAX)
        high = b.read_reg(greg.EDX)
        divisor = b.read_reg(instr.r1)
        quotient = b.trace.new_temp()
        remainder = b.trace.new_temp()
        kind = IROpKind.DIVU if instr.op is Op.DIV_R else IROpKind.DIVS
        b.emit(IROp(kind, dest=quotient, dest2=remainder,
                    srcs=(low, divisor, high)))
        b.write_reg(greg.EAX, quotient)
        b.write_reg(greg.EDX, remainder)

    # -- shifts --------------------------------------------------------------

    def _lower_shift(self, b: _Builder, instr: Instruction) -> None:
        if instr.op in _SHIFT_CL_OPS:
            self._lower_shift_cl(b, instr)
            return
        count = instr.imm & 31
        a = b.read_reg(instr.r1)
        op = instr.op
        if count == 0:
            return  # x86: masked count 0 changes nothing, defines no flags
        if op is Op.SHL_RI8:
            result = b.alui(AluOp.SHL, a, count)
            b.write_flag(CF_S, b.alui(
                AluOp.AND, b.alui(AluOp.SHR, a, 32 - count), 1))
            before_last = b.alui(AluOp.SHL, a, count - 1)
            b.write_flag(OF_S, b.alui(
                AluOp.SHR, b.alu(AluOp.XOR, result, before_last), 31))
            b.flags_pzs(result)
        elif op is Op.SHR_RI8:
            result = b.alui(AluOp.SHR, a, count)
            b.write_flag(CF_S, b.alui(
                AluOp.AND, b.alui(AluOp.SHR, a, count - 1), 1))
            b.write_flag(OF_S, b.alui(AluOp.SHR, a, 31))
            b.flags_pzs(result)
        elif op is Op.SAR_RI8:
            result = b.alui(AluOp.SAR, a, count)
            b.write_flag(CF_S, b.alui(
                AluOp.AND, b.alui(AluOp.SAR, a, count - 1), 1))
            b.write_flag(OF_S, b.movi(0))
            b.flags_pzs(result)
        elif op in (Op.ROL_RI8, Op.ROR_RI8):
            if op is Op.ROL_RI8:
                result = b.alu(AluOp.OR, b.alui(AluOp.SHL, a, count),
                               b.alui(AluOp.SHR, a, 32 - count))
                b.write_flag(CF_S, b.alui(AluOp.AND, result, 1))
            else:
                result = b.alu(AluOp.OR, b.alui(AluOp.SHR, a, count),
                               b.alui(AluOp.SHL, a, 32 - count))
                b.write_flag(CF_S, b.alui(AluOp.SHR, result, 31))
            if count == 1:
                b.write_flag(OF_S, b.alui(
                    AluOp.SHR, b.alu(AluOp.XOR, result, a), 31))
            else:
                b.write_flag(OF_S, b.movi(0))
        else:  # pragma: no cover
            raise AssertionError(op)
        b.write_reg(instr.r1, result)

    def _lower_shift_cl(self, b: _Builder, instr: Instruction) -> None:
        a = b.read_reg(instr.r1)
        count = b.alui(AluOp.AND, b.read_reg(greg.ECX), 31)
        zero_count = b.alui(AluOp.CMPEQ, count, 0)
        count_m1 = b.alui(AluOp.SUB, count, 1)
        op = instr.op
        if op is Op.SHL_RCL:
            result = b.alu(AluOp.SHL, a, count)
            inv = b.alu(AluOp.SUB, b.movi(32), count)
            cf_new = b.alui(AluOp.AND, b.alu(AluOp.SHR, a, inv), 1)
            before_last = b.alu(AluOp.SHL, a, count_m1)
            of_new = b.alui(AluOp.SHR,
                            b.alu(AluOp.XOR, result, before_last), 31)
        elif op is Op.SHR_RCL:
            result = b.alu(AluOp.SHR, a, count)
            cf_new = b.alui(AluOp.AND, b.alu(AluOp.SHR, a, count_m1), 1)
            of_new = b.alui(AluOp.SHR, a, 31)
        else:  # SAR_RCL
            result = b.alu(AluOp.SAR, a, count)
            cf_new = b.alui(AluOp.AND, b.alu(AluOp.SAR, a, count_m1), 1)
            of_new = b.movi(0)
        self._write_flag_guarded(b, CF_S, zero_count, cf_new)
        self._write_flag_guarded(b, OF_S, zero_count, of_new)
        self._write_flag_guarded(
            b, ZF_S, zero_count, b.alui(AluOp.CMPEQ, result, 0))
        self._write_flag_guarded(
            b, SF_S, zero_count, b.alui(AluOp.SHR, result, 31))
        self._write_flag_guarded(b, PF_S, zero_count, b.parity(result))
        b.write_reg(instr.r1, result)

    @staticmethod
    def _write_flag_guarded(b: _Builder, slot: int, zero_count: Operand,
                            new_value: Operand) -> None:
        """flags keep their old value when the dynamic count is zero."""
        b.write_flag(slot, b.sel(zero_count, b.read_flag(slot), new_value))

    # -- stack ---------------------------------------------------------------

    def _push(self, b: _Builder, value: Operand) -> None:
        esp = b.read_reg(greg.ESP)
        addr = b.alui(AluOp.SUB, esp, 4)
        b.store(addr, value, 0)
        b.write_reg(greg.ESP, addr)

    def _lower_push_r(self, b: _Builder, instr: Instruction) -> None:
        self._push(b, b.read_reg(instr.r1))

    def _lower_push_i(self, b: _Builder, instr: Instruction) -> None:
        self._push(b, self._imm_operand(b, instr))

    def _lower_pop_r(self, b: _Builder, instr: Instruction) -> None:
        esp = b.read_reg(greg.ESP)
        value = b.load(esp, 0)
        b.write_reg(greg.ESP, b.alui(AluOp.ADD, esp, 4))
        b.write_reg(instr.r1, value)  # pop esp: popped value wins

    # -- conditional branches -------------------------------------------------

    def _condition(self, b: _Builder, op: Op) -> Operand:
        """Taken-condition of a Jcc as a 0/1 operand."""
        return self._condition_code(b, op - Op.JO)

    def _condition_code(self, b: _Builder, index: int) -> Operand:
        """x86 condition code ``index`` (0..15) as a 0/1 operand."""
        base = index >> 1
        if base == 0:
            value = b.read_flag(OF_S)
        elif base == 1:
            value = b.read_flag(CF_S)
        elif base == 2:
            value = b.read_flag(ZF_S)
        elif base == 3:
            value = b.alu(AluOp.OR, b.read_flag(CF_S), b.read_flag(ZF_S))
        elif base == 4:
            value = b.read_flag(SF_S)
        elif base == 5:
            value = b.read_flag(PF_S)
        elif base == 6:
            value = b.alu(AluOp.XOR, b.read_flag(SF_S), b.read_flag(OF_S))
        else:
            lt = b.alu(AluOp.XOR, b.read_flag(SF_S), b.read_flag(OF_S))
            value = b.alu(AluOp.OR, lt, b.read_flag(ZF_S))
        if index & 1:
            value = b.invert(value)
        return value

    def _lower_jcc(self, b: _Builder, instr: Instruction, region: Region,
                   since_commit: int) -> None:
        follow_taken = region.follow_taken.get(instr.addr, False)
        cond = self._condition(b, instr.op)
        if follow_taken:
            # Trace follows the taken path: exit when NOT taken.
            cond = b.invert(cond)
            target = instr.next_addr
        else:
            target = instr.branch_target
        b.emit(IROp(IROpKind.EXIT_IF, srcs=(cond,), exit_target=target,
                    commit_count=since_commit,
                    window_start=b.guest_index + 1 - since_commit,
                    window_end=b.guest_index + 1))

    # -- indirect exits --------------------------------------------------------

    def _lower_indirect(self, b: _Builder,
                        instr: Instruction) -> Operand | None:
        if instr.op is Op.JMP_R:
            return b.read_reg(instr.r1)
        if instr.op is Op.CALL_R:
            target = b.read_reg(instr.r1)
            self._push(b, b.movi(instr.next_addr))
            return target
        # RET
        esp = b.read_reg(greg.ESP)
        target = b.load(esp, 0)
        b.write_reg(greg.ESP, b.alui(AluOp.ADD, esp, 4))
        return target

    # -- port I/O (barriers) ----------------------------------------------------

    def _lower_in(self, b: _Builder, instr: Instruction) -> None:
        dest = b.trace.new_temp()
        b.emit(IROp(IROpKind.PORT_IN, dest=dest, imm=instr.imm,
                    barrier=True))
        b.write_reg(greg.EAX, dest)

    def _lower_out(self, b: _Builder, instr: Instruction) -> None:
        b.emit(IROp(IROpKind.PORT_OUT, srcs=(b.read_reg(greg.EAX),),
                    imm=instr.imm, barrier=True))


_BINARY_OPS = {
    Op.ADD_RR: "add", Op.ADD_RI: "add",
    Op.ADC_RR: "adc", Op.ADC_RI: "adc",
    Op.SUB_RR: "sub", Op.SUB_RI: "sub",
    Op.SBB_RR: "sbb", Op.SBB_RI: "sbb",
    Op.CMP_RR: "cmp", Op.CMP_RI: "cmp",
    Op.AND_RR: "and", Op.AND_RI: "and",
    Op.TEST_RR: "test", Op.TEST_RI: "test",
    Op.OR_RR: "or", Op.OR_RI: "or",
    Op.XOR_RR: "xor", Op.XOR_RI: "xor",
    Op.IMUL_RR: "imul", Op.IMUL_RI: "imul",
}

_SHIFT_IMM_OPS = (Op.SHL_RI8, Op.SHR_RI8, Op.SAR_RI8, Op.ROL_RI8,
                  Op.ROR_RI8)
_SHIFT_CL_OPS = (Op.SHL_RCL, Op.SHR_RCL, Op.SAR_RCL)

_HANDLERS = {
    Op.NOP: Frontend._lower_nop,
    Op.MOV_RR: Frontend._lower_mov_rr,
    Op.MOV_RI: Frontend._lower_mov_ri,
    Op.XCHG_RR: Frontend._lower_xchg,
    Op.LOAD: Frontend._lower_load,
    Op.LOADB: Frontend._lower_load,
    Op.LOADX: Frontend._lower_load,
    Op.LOADBX: Frontend._lower_load,
    Op.STORE: Frontend._lower_store,
    Op.STOREB: Frontend._lower_store,
    Op.STOREX: Frontend._lower_store,
    Op.STOREBX: Frontend._lower_store,
    Op.STOREI: Frontend._lower_storei,
    Op.LEA: Frontend._lower_lea,
    Op.LEAX: Frontend._lower_lea,
    Op.NOT_R: Frontend._lower_not,
    Op.NEG_R: Frontend._lower_neg,
    Op.INC_R: Frontend._lower_inc,
    Op.DEC_R: Frontend._lower_dec,
    Op.MUL_R: Frontend._lower_mul,
    Op.DIV_R: Frontend._lower_div,
    Op.IDIV_R: Frontend._lower_div,
    Op.PUSH_R: Frontend._lower_push_r,
    Op.PUSH_I: Frontend._lower_push_i,
    Op.POP_R: Frontend._lower_pop_r,
    Op.IN: Frontend._lower_in,
    Op.OUT: Frontend._lower_out,
}
