"""Atom set of the native VLIW host.

Atoms are the RISC-like operations that molecules issue (paper §2).
The set below is deliberately small; everything the translator needs —
including flag materialization — is built from these plus the memory
and control atoms.  The speculation machinery rides on atom
*attributes*: ``reordered`` marks a memory atom that CMS scheduled out
of original program order (§3.4 — faults if it touches I/O space),
``alias_entry``/``alias_check`` drive the alias hardware (§3.5), and
``io_ok`` marks an access the translator generated knowing it may reach
a device (always unreordered and commit-fenced).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class AluOp(enum.Enum):
    """Two-source ALU operations (all 32-bit)."""

    # Members are singletons, so the identity hash agrees with equality;
    # it runs in C, where Enum's own ``hash(self._name_)`` runs in
    # Python on every dict and set lookup the translator makes.  Like
    # any identity hash it differs between processes: never iterate a
    # set of members where order matters.  AtomKind, Slot, IROpKind,
    # Fmt and Kind do the same.
    __hash__ = object.__hash__

    ADD = "add"
    SUB = "sub"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SHL = "shl"  # count masked to 5 bits
    SHR = "shr"
    SAR = "sar"
    MUL = "mul"  # low 32 bits
    UMULH = "umulh"  # high 32 bits of unsigned product
    SMULH = "smulh"  # high 32 bits of signed product
    PARITY = "parity"  # x86-assist: even parity of the low byte (0/1)
    CMPEQ = "cmpeq"  # produce 0/1
    CMPNE = "cmpne"
    CMPLTU = "cmpltu"  # unsigned less-than
    CMPLTS = "cmplts"  # signed less-than
    CMPLEU = "cmpleu"
    CMPLES = "cmples"


class AtomKind(enum.Enum):
    __hash__ = object.__hash__  # C-level; see AluOp

    MOVI = enum.auto()  # rd <- imm
    MOV = enum.auto()  # rd <- rs1
    ALU = enum.auto()  # rd <- rs1 (aluop) rs2
    ALUI = enum.auto()  # rd <- rs1 (aluop) imm
    SEL = enum.auto()  # rd <- rs1 ? rs2 : rs3 (conditional move)
    DIVU = enum.auto()  # rd,rd2 <- (rs3:rs1) divmod rs2; guest #DE on bad
    DIVS = enum.auto()  # signed variant
    LD = enum.auto()  # rd <- mem[rs1 + disp] (size 1 or 4)
    ST = enum.auto()  # mem[rs1 + disp] <- rs2 (gated until commit)
    BR = enum.auto()  # unconditional branch to label
    BRZ = enum.auto()  # branch if rs1 == 0
    BRNZ = enum.auto()  # branch if rs1 != 0
    COMMIT = enum.auto()  # working -> shadow; drain store buffer
    EXIT = enum.auto()  # leave translation (committed EIP is the target)
    FAIL = enum.auto()  # raise a host fault (self-check mismatch)
    PORT_IN = enum.auto()  # rd <- port[imm]   (never speculative)
    PORT_OUT = enum.auto()  # port[imm] <- rs1 (never speculative)
    NOPA = enum.auto()  # explicit no-op atom (scheduler padding)


@dataclass
class Atom:
    """One host operation.

    ``guest_addr`` records which guest instruction this atom implements;
    the fault handlers use it to attribute host faults to guest
    instructions for adaptive retranslation.
    """

    kind: AtomKind
    aluop: AluOp | None = None
    rd: int = 0
    rd2: int = 0  # second destination (DIVU/DIVS remainder)
    rs1: int = 0
    rs2: int = 0
    rs3: int = 0
    imm: int = 0
    disp: int = 0
    size: int = 4
    label: str | None = None  # branch target label
    reordered: bool = False  # scheduled out of guest program order
    alias_entry: int | None = None  # record this access in alias entry N
    alias_check: int = 0  # bitmask of alias entries to check
    io_ok: bool = False  # generated knowing it may touch a device
    guest_addr: int | None = None
    fail_reason: str = ""
    instr_count: int = 0  # COMMIT: guest instructions retired
    # EXIT bookkeeping: the static guest target this exit branches to
    # (None for indirect exits), and the chained successor translation
    # patched in by the dispatcher (paper §2 "chaining").
    exit_target: int | None = None
    chained_translation: object | None = None
    # Indirect exits (exit_target None) chain speculatively through a
    # monomorphic inline cache: the chain is followed only when the
    # committed EIP equals this guard (the last observed target).
    chained_guard: int | None = None
    # EXIT at the end of a self-revalidation prologue: the dispatcher
    # re-enables protection and disarms the prologue before running the
    # body (§3.6.2).
    prologue_success: bool = False

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        k = self.kind
        if k is AtomKind.MOVI:
            return f"movi r{self.rd}, {self.imm:#x}"
        if k is AtomKind.MOV:
            return f"mov r{self.rd}, r{self.rs1}"
        if k is AtomKind.ALU:
            return f"{self.aluop.value} r{self.rd}, r{self.rs1}, r{self.rs2}"
        if k is AtomKind.ALUI:
            return f"{self.aluop.value}i r{self.rd}, r{self.rs1}, {self.imm:#x}"
        if k is AtomKind.SEL:
            return f"sel r{self.rd}, r{self.rs1}, r{self.rs2}, r{self.rs3}"
        if k in (AtomKind.DIVU, AtomKind.DIVS):
            return (f"{k.name.lower()} r{self.rd}, r{self.rd2}, "
                    f"(r{self.rs3}:r{self.rs1}) / r{self.rs2}")
        if k is AtomKind.LD:
            attrs = self._attrs()
            return f"ld{self.size} r{self.rd}, [r{self.rs1}+{self.disp:#x}]{attrs}"
        if k is AtomKind.ST:
            attrs = self._attrs()
            return f"st{self.size} [r{self.rs1}+{self.disp:#x}], r{self.rs2}{attrs}"
        if k is AtomKind.BR:
            return f"br {self.label}"
        if k in (AtomKind.BRZ, AtomKind.BRNZ):
            return f"{k.name.lower()} r{self.rs1}, {self.label}"
        if k is AtomKind.COMMIT:
            return f"commit ({self.instr_count} insts)"
        if k is AtomKind.EXIT:
            return "exit"
        if k is AtomKind.FAIL:
            return f"fail {self.fail_reason}"
        if k is AtomKind.PORT_IN:
            return f"in r{self.rd}, port {self.imm:#x}"
        if k is AtomKind.PORT_OUT:
            return f"out port {self.imm:#x}, r{self.rs1}"
        if k is AtomKind.NOPA:
            return "nop"
        return k.name

    def _attrs(self) -> str:
        parts = []
        if self.reordered:
            parts.append("reordered")
        if self.alias_entry is not None:
            parts.append(f"prot={self.alias_entry}")
        if self.alias_check:
            parts.append(f"chk={self.alias_check:#x}")
        if self.io_ok:
            parts.append("io")
        return f" <{','.join(parts)}>" if parts else ""
