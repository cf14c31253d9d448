"""Decoded-instruction model for the t86 guest ISA.

An ``Instruction`` is the unit shared by the interpreter, the region
selector, and the translator frontend.  It is immutable; its ``addr``
is the guest virtual address it was decoded from (None for instructions
built by the assembler before placement).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa import registers
from repro.isa.opcodes import Fmt, Kind, Op, OpInfo, op_info

MASK32 = 0xFFFFFFFF


@dataclass(frozen=True)
class Instruction:
    """One decoded t86 instruction.

    Field usage by format:

    * ``r1`` — destination (or only) register for R/RR/RI/RI8/RM/RMX;
      the *source* register for MR/MRX stores.
    * ``r2`` — source register (RR), base register (RM/MR/RMX/MRX/MI).
    * ``index``/``scale_log2`` — only for the indexed RMX/MRX formats.
    * ``disp`` — signed displacement (RM/MR/RMX/MRX/MI) or signed rel32
      (REL).
    * ``imm`` — immediate for RI/RI8/MI/I32/I16/I8.
    """

    op: Op
    r1: int = 0
    r2: int = 0
    index: int = 0
    scale_log2: int = 0
    disp: int = 0
    imm: int = 0
    addr: int | None = None

    # Derived attributes, precomputed at construction: ``length``,
    # ``end``, and ``next_addr`` sit on the interpreter's per-step hot
    # path (every handler reads ``next_addr``), where a chain of
    # property and table lookups per access is measurable.  ``end`` and
    # ``next_addr`` are ``None`` for unplaced instructions (addr=None).
    length: int = field(init=False, repr=False, compare=False)
    end: int | None = field(init=False, repr=False, compare=False)
    next_addr: int | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        length = op_info(self.op).length
        end = self.addr + length if self.addr is not None else None
        object.__setattr__(self, "length", length)
        object.__setattr__(self, "end", end)
        object.__setattr__(self, "next_addr", end)

    @property
    def info(self) -> OpInfo:
        return op_info(self.op)

    @property
    def kind(self) -> Kind:
        return self.info.kind

    # ------------------------------------------------------------------
    # Control flow
    # ------------------------------------------------------------------

    @property
    def branch_target(self) -> int:
        """Target of a direct (REL-format) branch or call."""
        assert self.info.fmt is Fmt.REL and self.addr is not None
        return (self.addr + self.length + self.disp) & MASK32

    # ------------------------------------------------------------------
    # Register effects (used by the translator and by tests)
    # ------------------------------------------------------------------

    def regs_read(self) -> frozenset[int]:
        """Guest GPRs this instruction reads (explicit and implicit)."""
        op, fmt = self.op, self.info.fmt
        reads: set[int] = set()
        if fmt is Fmt.RR:
            reads.add(self.r2)
            if op not in (Op.MOV_RR,):
                reads.add(self.r1)
            if op is Op.XCHG_RR:
                reads.update((self.r1, self.r2))
        elif fmt is Fmt.RI:
            if op not in (Op.MOV_RI,):
                reads.add(self.r1)
        elif fmt is Fmt.RI8:
            reads.add(self.r1)
        elif fmt is Fmt.R:
            if op in (Op.PUSH_R, Op.JMP_R, Op.CALL_R, Op.SETPT):
                reads.add(self.r1)
            elif op in (
                Op.NOT_R,
                Op.NEG_R,
                Op.INC_R,
                Op.DEC_R,
                Op.SHL_RCL,
                Op.SHR_RCL,
                Op.SAR_RCL,
            ):
                reads.add(self.r1)
            if op in (Op.SHL_RCL, Op.SHR_RCL, Op.SAR_RCL):
                reads.add(registers.ECX)
            if op in (Op.MUL_R, Op.DIV_R, Op.IDIV_R):
                reads.update((self.r1, registers.EAX, registers.EDX))
        elif fmt is Fmt.RM:
            reads.add(self.r2)  # base
        elif fmt is Fmt.MR:
            reads.update((self.r1, self.r2))  # value and base
        elif fmt is Fmt.RMX:
            reads.update((self.r2, self.index))
        elif fmt is Fmt.MRX:
            reads.update((self.r1, self.r2, self.index))
        elif fmt is Fmt.MI:
            reads.add(self.r2)
        if op in (Op.PUSH_R, Op.PUSH_I, Op.PUSHF, Op.POP_R, Op.POPF, Op.CALL,
                  Op.CALL_R, Op.RET, Op.INT, Op.IRET):
            reads.add(registers.ESP)
        if op is Op.OUT:
            reads.add(registers.EAX)
        return frozenset(reads)

    def regs_written(self) -> frozenset[int]:
        """Guest GPRs this instruction writes (explicit and implicit)."""
        op, fmt = self.op, self.info.fmt
        writes: set[int] = set()
        if op in (Op.MOV_RR, Op.MOV_RI, Op.LOAD, Op.LOADX, Op.LOADB,
                  Op.LOADBX, Op.LEA, Op.LEAX):
            writes.add(self.r1)
        elif op is Op.XCHG_RR:
            writes.update((self.r1, self.r2))
        elif fmt in (Fmt.RR, Fmt.RI, Fmt.RI8) and op not in (
            Op.CMP_RR, Op.CMP_RI, Op.TEST_RR, Op.TEST_RI
        ):
            writes.add(self.r1)
        elif fmt is Fmt.R and op in (
            Op.NOT_R, Op.NEG_R, Op.INC_R, Op.DEC_R,
            Op.SHL_RCL, Op.SHR_RCL, Op.SAR_RCL, Op.POP_R,
        ):
            writes.add(self.r1)
        elif Op.SETO <= op <= Op.SETG:
            writes.add(self.r1)
        if op in (Op.MUL_R, Op.DIV_R, Op.IDIV_R):
            writes.update((registers.EAX, registers.EDX))
        if op in (Op.PUSH_R, Op.PUSH_I, Op.PUSHF, Op.POP_R, Op.POPF, Op.CALL,
                  Op.CALL_R, Op.RET, Op.INT, Op.IRET):
            writes.add(registers.ESP)
        if op is Op.IN:
            writes.add(registers.EAX)
        return frozenset(writes)

    @property
    def is_memory(self) -> bool:
        """True if the instruction explicitly loads or stores memory."""
        return self.kind in (Kind.LOAD, Kind.STORE, Kind.STACK) or self.op in (
            Op.CALL,
            Op.CALL_R,
            Op.RET,
        )

    @property
    def is_store(self) -> bool:
        return self.kind is Kind.STORE or self.op in (
            Op.PUSH_R,
            Op.PUSH_I,
            Op.PUSHF,
            Op.CALL,
            Op.CALL_R,
        )

    @property
    def is_load(self) -> bool:
        return self.kind is Kind.LOAD or self.op in (Op.POP_R, Op.POPF, Op.RET)

    # ------------------------------------------------------------------
    # Display
    # ------------------------------------------------------------------

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return format_instruction(self)


def _mem_operand(base: int, disp: int, index: int | None = None,
                 scale_log2: int = 0) -> str:
    parts = [registers.reg_name(base)]
    if index is not None:
        parts.append(f"{registers.reg_name(index)}*{1 << scale_log2}")
    text = "+".join(parts)
    if disp > 0:
        text += f"+{disp:#x}"
    elif disp < 0:
        text += f"-{-disp:#x}"
    return f"[{text}]"


def format_instruction(instr: Instruction) -> str:
    """Render an instruction in assembler syntax."""
    info = instr.info
    m = info.mnemonic
    r1 = registers.reg_name(instr.r1) if instr.r1 < registers.NUM_REGS else "?"
    r2 = registers.reg_name(instr.r2) if instr.r2 < registers.NUM_REGS else "?"
    fmt = info.fmt
    if fmt is Fmt.NONE:
        return m
    if fmt is Fmt.R:
        if instr.op in (Op.SHL_RCL, Op.SHR_RCL, Op.SAR_RCL):
            return f"{m} {r1}, cl"
        return f"{m} {r1}"
    if fmt is Fmt.RR:
        return f"{m} {r1}, {r2}"
    if fmt is Fmt.RI:
        return f"{m} {r1}, {instr.imm:#x}"
    if fmt is Fmt.RI8:
        return f"{m} {r1}, {instr.imm}"
    if fmt is Fmt.RM:
        return f"{m} {r1}, {_mem_operand(instr.r2, instr.disp)}"
    if fmt is Fmt.MR:
        return f"{m} {_mem_operand(instr.r2, instr.disp)}, {r1}"
    if fmt is Fmt.RMX:
        return (
            f"{m} {r1}, "
            f"{_mem_operand(instr.r2, instr.disp, instr.index, instr.scale_log2)}"
        )
    if fmt is Fmt.MRX:
        return (
            f"{m} "
            f"{_mem_operand(instr.r2, instr.disp, instr.index, instr.scale_log2)}"
            f", {r1}"
        )
    if fmt is Fmt.MI:
        return f"{m} {_mem_operand(instr.r2, instr.disp)}, {instr.imm:#x}"
    if fmt in (Fmt.I32, Fmt.I16, Fmt.I8):
        return f"{m} {instr.imm:#x}"
    if fmt is Fmt.REL:
        if instr.addr is not None:
            return f"{m} {instr.branch_target:#x}"
        return f"{m} .{instr.disp:+}"
    raise AssertionError(f"unhandled format {fmt}")
