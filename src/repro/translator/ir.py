"""Intermediate representation of the translator.

The IR is deliberately close to the host atom set: one IR op lowers to
exactly one atom.  What the IR adds over atoms is *symbolic operands*:

* ``Temp(n)``   — an SSA-ish virtual register (each temp is assigned
  exactly once by the frontend; optimization passes preserve this);
* ``GuestReg(n)``, ``GuestEip``, ``GuestFlag(slot)`` — the guest
  architectural locations, which live in dedicated host registers.
  Reads of guest locations appear as sources; the *only* writes to
  guest locations are explicit writeback ops, which is what gives the
  scheduler its freedom: computations into temps may be hoisted
  speculatively, while architectural writebacks stay ordered relative
  to exits (paper §3.2 — speculation "without the bookkeeping required
  by traditional control speculation").

Guest flags are first-class locations.  The frontend emits the full
flag computation for every instruction; dead-flag elimination (a
liveness-based DCE over flag locations) then removes the overwhelming
majority, which is one of the classic wins of trace-based translation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.host.atoms import AluOp
from repro.host.registers import R_EIP, R_FLAG_BASE
from repro.isa.registers import NUM_REGS, reg_name
from repro.state import FLAG_SLOTS


# --------------------------------------------------------------------------
# Operands
# --------------------------------------------------------------------------
#
# Operands are interned: each distinct operand is one immutable object
# (``Temp(3) is Temp(3)``), so they hash and compare by identity, with
# C-level ``object.__hash__``/``__eq__``.  Every pass keys dicts and sets
# on them (value maps, liveness, DAG tables), so hashing and equality
# must not run Python code.  Kinds never share an object, so
# ``Temp(3) != GuestReg(3)``.  Identity hashes differ between
# processes, so no translator decision may depend on the iteration
# order of a set of operands.


class _Operand:
    """An interned, immutable operand; see the note above.

    A subclass has at most one field, named in ``__slots__``, and keeps
    its own ``_interned`` table keyed by that field's value (None for
    the field-less ``GuestEip``).
    """

    __slots__ = ()
    _interned: dict

    def __new__(cls, key=None):
        operand = cls._interned.get(key)
        if operand is None:
            if (key is None) != (not cls.__slots__):
                raise TypeError(f"{cls.__name__}{cls.__slots__} "
                                f"given {key!r}")
            operand = object.__new__(cls)
            if cls.__slots__:
                object.__setattr__(operand, cls.__slots__[0], key)
            # The first object made wins.
            operand = cls._interned.setdefault(key, operand)
        return operand

    def __reduce__(self):
        return type(self), tuple(getattr(self, name)
                                 for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


class Temp(_Operand):
    """A virtual register, single static assignment."""

    __slots__ = ("index",)
    _interned: dict[int, Temp] = {}

    def __repr__(self) -> str:
        return f"t{self.index}"


class GuestReg(_Operand):
    """Guest GPR location (host register 0..7)."""

    __slots__ = ("index",)
    _interned: dict[int, GuestReg] = {}

    def __repr__(self) -> str:
        return f"%{reg_name(self.index)}"

    @property
    def host_reg(self) -> int:
        return self.index


class GuestEip(_Operand):
    """Guest EIP location (host register 8)."""

    __slots__ = ()
    _interned: dict[None, GuestEip] = {}

    def __repr__(self) -> str:
        return "%eip"

    @property
    def host_reg(self) -> int:
        return R_EIP


class GuestFlag(_Operand):
    """One unpacked guest flag location (host registers 10..15)."""

    __slots__ = ("slot",)  # index into repro.state.FLAG_SLOTS
    _interned: dict[int, GuestFlag] = {}

    def __repr__(self) -> str:
        return f"%{FLAG_SLOTS[self.slot]}"

    @property
    def host_reg(self) -> int:
        return R_FLAG_BASE + self.slot


Operand = Temp | GuestReg | GuestEip | GuestFlag
GuestLoc = GuestReg | GuestEip | GuestFlag
GUEST_LOC_TYPES = (GuestReg, GuestEip, GuestFlag)

GUEST_REGS = tuple(GuestReg(i) for i in range(NUM_REGS))
GUEST_FLAGS = tuple(GuestFlag(s) for s in range(len(FLAG_SLOTS)))


# --------------------------------------------------------------------------
# Ops
# --------------------------------------------------------------------------


class IROpKind(enum.Enum):
    __hash__ = object.__hash__  # C-level; see host.atoms.AluOp

    MOVI = enum.auto()  # dest <- imm
    MOV = enum.auto()  # dest <- src1 (includes guest-loc writebacks)
    ALU = enum.auto()  # dest <- src1 (aluop) src2
    ALUI = enum.auto()  # dest <- src1 (aluop) imm
    SEL = enum.auto()  # dest <- src1 ? src2 : src3
    DIVU = enum.auto()  # dest, dest2 <- (src3:src1) divmod src2
    DIVS = enum.auto()
    LD = enum.auto()  # dest <- mem[src1 + disp]
    ST = enum.auto()  # mem[src1 + disp] <- src2
    PORT_IN = enum.auto()  # dest <- port[imm]; barrier
    PORT_OUT = enum.auto()  # port[imm] <- src1; barrier
    EXIT_IF = enum.auto()  # leave trace to exit_target when src1 != 0
    EXIT = enum.auto()  # final unconditional exit to exit_target
    EXIT_IND = enum.auto()  # final exit to the address in src1
    LOOP = enum.auto()  # final back-edge to the trace entry
    COMMIT = enum.auto()  # mid-trace commit point (full barrier)


# Kinds with side effects that DCE must never remove.
SIDE_EFFECT_KINDS = frozenset(
    {
        IROpKind.LD,  # may fault (removing would lose a genuine #PF)
        IROpKind.ST,
        IROpKind.DIVU,
        IROpKind.DIVS,
        IROpKind.PORT_IN,
        IROpKind.PORT_OUT,
        IROpKind.EXIT_IF,
        IROpKind.EXIT,
        IROpKind.EXIT_IND,
        IROpKind.LOOP,
        IROpKind.COMMIT,
    }
)

PURE_KINDS = frozenset(
    {IROpKind.MOVI, IROpKind.MOV, IROpKind.ALU, IROpKind.ALUI, IROpKind.SEL}
)

# Final exits end the trace.  At every exit and commit the committed
# guest state must be complete.
FINAL_EXIT_KINDS = frozenset({IROpKind.EXIT, IROpKind.EXIT_IND,
                              IROpKind.LOOP})
EXIT_KINDS = FINAL_EXIT_KINDS | {IROpKind.EXIT_IF}
COMMIT_POINT_KINDS = EXIT_KINDS | {IROpKind.COMMIT}

# Full barriers by kind (``IROp.barrier`` marks the rest): nothing is
# scheduled across them, and memory forwarding stops at them.
BARRIER_KINDS = frozenset({IROpKind.COMMIT, IROpKind.PORT_IN,
                           IROpKind.PORT_OUT})


@dataclass(slots=True)
class IROp:
    """One IR operation.

    ``guest_index`` is the position of the originating guest instruction
    within the region — the program-order coordinate the scheduler uses
    for speculation decisions. ``barrier`` marks commit-fenced operations
    (port I/O, known-MMIO accesses) that nothing may cross.
    """

    kind: IROpKind
    dest: Operand | None = None
    dest2: Operand | None = None
    srcs: tuple[Operand, ...] = ()
    aluop: AluOp | None = None
    imm: int = 0
    disp: int = 0
    size: int = 4
    guest_index: int = 0
    guest_addr: int | None = None
    exit_target: int | None = None  # EXIT/EXIT_IF: guest target address
    barrier: bool = False
    io_ok: bool = False
    no_speculate: bool = False  # keep in program order (adaptive policy)
    commit_count: int = 0  # COMMIT/exits: guest instrs retired here
    # COMMIT/exits: [window_start, window_end) are the region-instruction
    # indices retired by this commit — self-checking translations verify
    # exactly these instructions' code bytes before committing (§3.6.3's
    # "fetches for checking must appear logically after any stores up to
    # and including the operation being checked").
    window_start: int = 0
    window_end: int = 0
    # Filled by the scheduler:
    reordered: bool = False
    alias_entry: int | None = None
    alias_check: int = 0

    def operands(self) -> tuple[Operand, ...]:
        return self.srcs

    def writes(self) -> tuple[Operand, ...]:
        out = []
        if self.dest is not None:
            out.append(self.dest)
        if self.dest2 is not None:
            out.append(self.dest2)
        return tuple(out)

    @property
    def is_memory(self) -> bool:
        return self.kind in (IROpKind.LD, IROpKind.ST)

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        name = self.kind.name.lower()
        if self.aluop is not None:
            name = self.aluop.value + ("i" if self.kind is IROpKind.ALUI else "")
        dests = ",".join(repr(d) for d in self.writes())
        srcs = ",".join(repr(s) for s in self.srcs)
        extra = []
        if self.kind in (IROpKind.MOVI, IROpKind.ALUI, IROpKind.PORT_IN,
                         IROpKind.PORT_OUT):
            extra.append(f"imm={self.imm:#x}")
        if self.is_memory:
            extra.append(f"disp={self.disp:#x} size={self.size}")
        if self.exit_target is not None:
            extra.append(f"-> {self.exit_target:#x}")
        if self.barrier:
            extra.append("barrier")
        joined = " ".join(extra)
        return f"{name} {dests} <- {srcs} {joined}".strip()


@dataclass
class TraceIR:
    """The IR of one region: a straight-line trace with side exits."""

    ops: list[IROp] = field(default_factory=list)
    entry_eip: int = 0
    is_loop: bool = False  # final op is LOOP back to the entry
    next_temp: int = 0

    def new_temp(self) -> Temp:
        temp = Temp(self.next_temp)
        self.next_temp += 1
        return temp

    def dump(self) -> str:  # pragma: no cover - debugging aid
        return "\n".join(
            f"{i:4d} [g{op.guest_index:3d}] {op}" for i, op in enumerate(self.ops)
        )
