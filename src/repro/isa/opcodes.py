"""Opcode table for the t86 guest ISA.

Each opcode has a fixed one-byte value and a fixed operand format, so
instruction lengths are static per opcode.  The table records the
metadata every downstream component needs:

* the decoder/encoder use ``fmt`` (operand layout and total length);
* the interpreter dispatches on ``Op``;
* the translator's liveness analysis uses ``flags_written`` /
  ``flags_read`` (this is what makes the classic dead-flag elimination
  possible);
* the region selector uses ``kind`` and ``interp_only`` to stop regions
  at system instructions, exactly as CMS leaves rare complex operations
  to its interpreter.

The condition-code numbering of the ``Jcc`` block (0x70-0x7F) matches
x86 so the translator's condition synthesis reads like the real thing.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.isa import flags as fl


class Fmt(enum.Enum):
    """Operand formats; lengths live in ``FMT_LENGTHS``."""

    __hash__ = object.__hash__  # C-level; see host.atoms.AluOp

    NONE = enum.auto()  # opcode only
    R = enum.auto()  # opcode, reg byte (register in low nibble)
    RR = enum.auto()  # opcode, (dst << 4) | src
    RI = enum.auto()  # opcode, reg byte, imm32
    RI8 = enum.auto()  # opcode, reg byte, imm8
    RM = enum.auto()  # opcode, (reg << 4) | base, disp32
    MR = enum.auto()  # opcode, (base << 4) | reg, disp32
    RMX = enum.auto()  # opcode, (reg << 4) | base, (idx << 4) | scale, disp32
    MRX = enum.auto()  # opcode, (base << 4) | reg, (idx << 4) | scale, disp32
    MI = enum.auto()  # opcode, base byte, disp32, imm32
    I32 = enum.auto()  # opcode, imm32
    I16 = enum.auto()  # opcode, imm16
    I8 = enum.auto()  # opcode, imm8
    REL = enum.auto()  # opcode, rel32 (relative to next instruction)

    @property
    def length(self) -> int:
        """Total encoded instruction length in bytes for this format."""
        return FMT_LENGTHS[self]


FMT_LENGTHS = {
    Fmt.NONE: 1,
    Fmt.R: 2,
    Fmt.RR: 2,
    Fmt.RI: 6,
    Fmt.RI8: 3,
    Fmt.RM: 6,
    Fmt.MR: 6,
    Fmt.RMX: 7,
    Fmt.MRX: 7,
    Fmt.MI: 10,
    Fmt.I32: 5,
    Fmt.I16: 3,
    Fmt.I8: 2,
    Fmt.REL: 5,
}


class Kind(enum.Enum):
    """Coarse instruction classification used by region selection."""

    __hash__ = object.__hash__  # C-level; see host.atoms.AluOp

    ALU = enum.auto()  # register/immediate arithmetic and logic
    MOVE = enum.auto()
    LOAD = enum.auto()
    STORE = enum.auto()
    STACK = enum.auto()  # push/pop family (memory via ESP)
    BRANCH = enum.auto()  # unconditional direct jump
    COND_BRANCH = enum.auto()
    CALL = enum.auto()
    RET = enum.auto()
    INDIRECT = enum.auto()  # jmp/call through register
    IO = enum.auto()  # port in/out
    SYSTEM = enum.auto()  # int/iret/hlt/sti/cli/paging control
    NOP = enum.auto()


class Op(enum.IntEnum):
    """t86 opcodes.  The integer value is the encoding byte."""

    NOP = 0x00
    HLT = 0x01
    STI = 0x02
    CLI = 0x03
    IRET = 0x04
    INT = 0x05

    MOV_RR = 0x10
    MOV_RI = 0x11
    LOAD = 0x12
    STORE = 0x13
    LOADX = 0x14
    STOREX = 0x15
    LOADB = 0x16
    STOREB = 0x17
    STOREI = 0x18
    LEA = 0x19
    LEAX = 0x1A
    LOADBX = 0x1B
    STOREBX = 0x1C
    XCHG_RR = 0x1D

    ADD_RR = 0x20
    SUB_RR = 0x21
    AND_RR = 0x22
    OR_RR = 0x23
    XOR_RR = 0x24
    CMP_RR = 0x25
    TEST_RR = 0x26
    ADC_RR = 0x27
    SBB_RR = 0x28
    IMUL_RR = 0x29

    ADD_RI = 0x30
    SUB_RI = 0x31
    AND_RI = 0x32
    OR_RI = 0x33
    XOR_RI = 0x34
    CMP_RI = 0x35
    TEST_RI = 0x36
    IMUL_RI = 0x37
    ADC_RI = 0x38
    SBB_RI = 0x39

    NOT_R = 0x40
    NEG_R = 0x41
    INC_R = 0x42
    DEC_R = 0x43
    MUL_R = 0x44
    DIV_R = 0x45
    IDIV_R = 0x46

    SHL_RI8 = 0x48
    SHR_RI8 = 0x49
    SAR_RI8 = 0x4A
    ROL_RI8 = 0x4B
    ROR_RI8 = 0x4C
    SHL_RCL = 0x4D
    SHR_RCL = 0x4E
    SAR_RCL = 0x4F

    PUSH_R = 0x50
    POP_R = 0x51
    PUSH_I = 0x52
    PUSHF = 0x53
    POPF = 0x54

    JMP = 0x60
    JMP_R = 0x61
    CALL = 0x62
    CALL_R = 0x63
    RET = 0x64

    JO = 0x70
    JNO = 0x71
    JB = 0x72
    JAE = 0x73
    JE = 0x74
    JNE = 0x75
    JBE = 0x76
    JA = 0x77
    JS = 0x78
    JNS = 0x79
    JP = 0x7A
    JNP = 0x7B
    JL = 0x7C
    JGE = 0x7D
    JLE = 0x7E
    JG = 0x7F

    IN = 0x80
    OUT = 0x81

    # SETcc block (0xA0 + x86 condition code): reg = cond ? 1 : 0.
    SETO = 0xA0
    SETNO = 0xA1
    SETB = 0xA2
    SETAE = 0xA3
    SETE = 0xA4
    SETNE = 0xA5
    SETBE = 0xA6
    SETA = 0xA7
    SETS = 0xA8
    SETNS = 0xA9
    SETP = 0xAA
    SETNP = 0xAB
    SETL = 0xAC
    SETGE = 0xAD
    SETLE = 0xAE
    SETG = 0xAF

    # CMOVcc block (0xB0 + x86 condition code): dst = cond ? src : dst.
    CMOVO = 0xB0
    CMOVNO = 0xB1
    CMOVB = 0xB2
    CMOVAE = 0xB3
    CMOVE = 0xB4
    CMOVNE = 0xB5
    CMOVBE = 0xB6
    CMOVA = 0xB7
    CMOVS = 0xB8
    CMOVNS = 0xB9
    CMOVP = 0xBA
    CMOVNP = 0xBB
    CMOVL = 0xBC
    CMOVGE = 0xBD
    CMOVLE = 0xBE
    CMOVG = 0xBF

    SETPT = 0x90
    PGON = 0x91
    PGOFF = 0x92


@dataclass(frozen=True)
class OpInfo:
    """Static metadata for one opcode."""

    op: "Op"
    mnemonic: str
    fmt: Fmt
    kind: Kind
    flags_written: int = 0  # mask of flag bits the op may define
    flags_read: int = 0  # mask of flag bits the op consumes
    interp_only: bool = False  # always left to the interpreter
    may_fault: bool = False  # can raise a guest exception

    @property
    def length(self) -> int:
        """Encoded length in bytes."""
        return self.fmt.length


AF = fl.ARITH_FLAGS
_NCF = AF & ~fl.CF  # inc/dec do not write CF

# Condition-code flag reads for the Jcc block, indexed by (op - Op.JO).
CC_FLAGS_READ = (
    fl.OF,  # jo
    fl.OF,  # jno
    fl.CF,  # jb
    fl.CF,  # jae
    fl.ZF,  # je
    fl.ZF,  # jne
    fl.CF | fl.ZF,  # jbe
    fl.CF | fl.ZF,  # ja
    fl.SF,  # js
    fl.SF,  # jns
    fl.PF,  # jp
    fl.PF,  # jnp
    fl.SF | fl.OF,  # jl
    fl.SF | fl.OF,  # jge
    fl.SF | fl.OF | fl.ZF,  # jle
    fl.SF | fl.OF | fl.ZF,  # jg
)


def _entries() -> list[OpInfo]:
    e = [
        OpInfo(Op.NOP, "nop", Fmt.NONE, Kind.NOP),
        OpInfo(Op.HLT, "hlt", Fmt.NONE, Kind.SYSTEM, interp_only=True),
        OpInfo(Op.STI, "sti", Fmt.NONE, Kind.SYSTEM, interp_only=True),
        OpInfo(Op.CLI, "cli", Fmt.NONE, Kind.SYSTEM, interp_only=True),
        OpInfo(
            Op.IRET, "iret", Fmt.NONE, Kind.SYSTEM, interp_only=True, may_fault=True
        ),
        OpInfo(Op.INT, "int", Fmt.I8, Kind.SYSTEM, interp_only=True, may_fault=True),
        OpInfo(Op.MOV_RR, "mov", Fmt.RR, Kind.MOVE),
        OpInfo(Op.MOV_RI, "mov", Fmt.RI, Kind.MOVE),
        OpInfo(Op.LOAD, "load", Fmt.RM, Kind.LOAD, may_fault=True),
        OpInfo(Op.STORE, "store", Fmt.MR, Kind.STORE, may_fault=True),
        OpInfo(Op.LOADX, "loadx", Fmt.RMX, Kind.LOAD, may_fault=True),
        OpInfo(Op.STOREX, "storex", Fmt.MRX, Kind.STORE, may_fault=True),
        OpInfo(Op.LOADB, "loadb", Fmt.RM, Kind.LOAD, may_fault=True),
        OpInfo(Op.STOREB, "storeb", Fmt.MR, Kind.STORE, may_fault=True),
        OpInfo(Op.STOREI, "storei", Fmt.MI, Kind.STORE, may_fault=True),
        OpInfo(Op.LEA, "lea", Fmt.RM, Kind.ALU),
        OpInfo(Op.LEAX, "leax", Fmt.RMX, Kind.ALU),
        OpInfo(Op.LOADBX, "loadbx", Fmt.RMX, Kind.LOAD, may_fault=True),
        OpInfo(Op.STOREBX, "storebx", Fmt.MRX, Kind.STORE, may_fault=True),
        OpInfo(Op.XCHG_RR, "xchg", Fmt.RR, Kind.MOVE),
        OpInfo(Op.ADD_RR, "add", Fmt.RR, Kind.ALU, flags_written=AF),
        OpInfo(Op.SUB_RR, "sub", Fmt.RR, Kind.ALU, flags_written=AF),
        OpInfo(Op.AND_RR, "and", Fmt.RR, Kind.ALU, flags_written=AF),
        OpInfo(Op.OR_RR, "or", Fmt.RR, Kind.ALU, flags_written=AF),
        OpInfo(Op.XOR_RR, "xor", Fmt.RR, Kind.ALU, flags_written=AF),
        OpInfo(Op.CMP_RR, "cmp", Fmt.RR, Kind.ALU, flags_written=AF),
        OpInfo(Op.TEST_RR, "test", Fmt.RR, Kind.ALU, flags_written=AF),
        OpInfo(
            Op.ADC_RR, "adc", Fmt.RR, Kind.ALU, flags_written=AF, flags_read=fl.CF
        ),
        OpInfo(
            Op.SBB_RR, "sbb", Fmt.RR, Kind.ALU, flags_written=AF, flags_read=fl.CF
        ),
        OpInfo(Op.IMUL_RR, "imul", Fmt.RR, Kind.ALU, flags_written=AF),
        OpInfo(Op.ADD_RI, "add", Fmt.RI, Kind.ALU, flags_written=AF),
        OpInfo(Op.SUB_RI, "sub", Fmt.RI, Kind.ALU, flags_written=AF),
        OpInfo(Op.AND_RI, "and", Fmt.RI, Kind.ALU, flags_written=AF),
        OpInfo(Op.OR_RI, "or", Fmt.RI, Kind.ALU, flags_written=AF),
        OpInfo(Op.XOR_RI, "xor", Fmt.RI, Kind.ALU, flags_written=AF),
        OpInfo(Op.CMP_RI, "cmp", Fmt.RI, Kind.ALU, flags_written=AF),
        OpInfo(Op.TEST_RI, "test", Fmt.RI, Kind.ALU, flags_written=AF),
        OpInfo(Op.IMUL_RI, "imul", Fmt.RI, Kind.ALU, flags_written=AF),
        OpInfo(
            Op.ADC_RI, "adc", Fmt.RI, Kind.ALU, flags_written=AF, flags_read=fl.CF
        ),
        OpInfo(
            Op.SBB_RI, "sbb", Fmt.RI, Kind.ALU, flags_written=AF, flags_read=fl.CF
        ),
        OpInfo(Op.NOT_R, "not", Fmt.R, Kind.ALU),
        OpInfo(Op.NEG_R, "neg", Fmt.R, Kind.ALU, flags_written=AF),
        OpInfo(Op.INC_R, "inc", Fmt.R, Kind.ALU, flags_written=_NCF),
        OpInfo(Op.DEC_R, "dec", Fmt.R, Kind.ALU, flags_written=_NCF),
        OpInfo(Op.MUL_R, "mul", Fmt.R, Kind.ALU, flags_written=AF),
        OpInfo(Op.DIV_R, "div", Fmt.R, Kind.ALU, may_fault=True),
        OpInfo(Op.IDIV_R, "idiv", Fmt.R, Kind.ALU, may_fault=True),
        OpInfo(Op.SHL_RI8, "shl", Fmt.RI8, Kind.ALU, flags_written=AF),
        OpInfo(Op.SHR_RI8, "shr", Fmt.RI8, Kind.ALU, flags_written=AF),
        OpInfo(Op.SAR_RI8, "sar", Fmt.RI8, Kind.ALU, flags_written=AF),
        OpInfo(Op.ROL_RI8, "rol", Fmt.RI8, Kind.ALU, flags_written=fl.CF | fl.OF),
        OpInfo(Op.ROR_RI8, "ror", Fmt.RI8, Kind.ALU, flags_written=fl.CF | fl.OF),
        OpInfo(Op.SHL_RCL, "shl", Fmt.R, Kind.ALU, flags_written=AF),
        OpInfo(Op.SHR_RCL, "shr", Fmt.R, Kind.ALU, flags_written=AF),
        OpInfo(Op.SAR_RCL, "sar", Fmt.R, Kind.ALU, flags_written=AF),
        OpInfo(Op.PUSH_R, "push", Fmt.R, Kind.STACK, may_fault=True),
        OpInfo(Op.POP_R, "pop", Fmt.R, Kind.STACK, may_fault=True),
        OpInfo(Op.PUSH_I, "push", Fmt.I32, Kind.STACK, may_fault=True),
        OpInfo(
            Op.PUSHF,
            "pushf",
            Fmt.NONE,
            Kind.STACK,
            flags_read=AF | fl.IF,
            interp_only=True,
            may_fault=True,
        ),
        OpInfo(
            Op.POPF,
            "popf",
            Fmt.NONE,
            Kind.STACK,
            flags_written=AF | fl.IF,
            interp_only=True,
            may_fault=True,
        ),
        OpInfo(Op.JMP, "jmp", Fmt.REL, Kind.BRANCH),
        OpInfo(Op.JMP_R, "jmp", Fmt.R, Kind.INDIRECT),
        OpInfo(Op.CALL, "call", Fmt.REL, Kind.CALL, may_fault=True),
        OpInfo(Op.CALL_R, "call", Fmt.R, Kind.INDIRECT, may_fault=True),
        OpInfo(Op.RET, "ret", Fmt.NONE, Kind.RET, may_fault=True),
        OpInfo(Op.IN, "in", Fmt.I16, Kind.IO),
        OpInfo(Op.OUT, "out", Fmt.I16, Kind.IO),
        OpInfo(Op.SETPT, "setpt", Fmt.R, Kind.SYSTEM, interp_only=True),
        OpInfo(Op.PGON, "pgon", Fmt.NONE, Kind.SYSTEM, interp_only=True),
        OpInfo(Op.PGOFF, "pgoff", Fmt.NONE, Kind.SYSTEM, interp_only=True),
    ]
    for i, cc in enumerate(
        (
            "jo jno jb jae je jne jbe ja js jns jp jnp jl jge jle jg".split()
        )
    ):
        e.append(
            OpInfo(
                Op(Op.JO + i),
                cc,
                Fmt.REL,
                Kind.COND_BRANCH,
                flags_read=CC_FLAGS_READ[i],
            )
        )
    cc_names = ("o no b ae e ne be a s ns p np l ge le g".split())
    for i, cc in enumerate(cc_names):
        e.append(
            OpInfo(Op(Op.SETO + i), f"set{cc}", Fmt.R, Kind.ALU,
                   flags_read=CC_FLAGS_READ[i])
        )
        e.append(
            OpInfo(Op(Op.CMOVO + i), f"cmov{cc}", Fmt.RR, Kind.MOVE,
                   flags_read=CC_FLAGS_READ[i])
        )
    return e


OPCODE_TABLE: dict[Op, OpInfo] = {info.op: info for info in _entries()}

# Byte-value lookup for the decoder: None means invalid opcode (#UD).
BYTE_TABLE: tuple[OpInfo | None, ...] = tuple(
    OPCODE_TABLE.get(Op(b)) if b in Op._value2member_map_ else None
    for b in range(256)
)


def op_info(op: Op) -> OpInfo:
    """Return the metadata record for ``op``."""
    return OPCODE_TABLE[op]
