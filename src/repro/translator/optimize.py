"""Optimization passes over trace IR.

"The optimizer performs a number of traditional and Crusoe-specific
optimizations on the region" (paper §2).  Implemented here:

* **constant folding and propagation** — MOVI-fed ALU ops collapse;
  immediate forms are substituted for register forms;
* **local value numbering / CSE** — repeated pure computations (flag
  recipes, address arithmetic) are reused, with guest-location
  versioning so writebacks invalidate stale values;
* **redundant load elimination and store-to-load forwarding** — loads
  that re-read an address just stored to (or loaded from) are replaced,
  with conservative invalidation at possibly-aliasing stores, barriers
  and commits;
* **dead code and dead flag elimination** — a backward liveness pass
  over temps *and* guest locations; exits make every architectural
  location live (committed state must be complete, §3.1), interior flag
  definitions that are overwritten before the next exit die.  This is
  the classic dead-flag win of trace-based dynamic translators.

Potentially faulting operations (loads, stores, divides) are never
deleted even when their results are dead: removing one would remove a
genuine guest exception, which no amount of rollback could recover.
"""

from __future__ import annotations

from repro.host.atoms import AluOp
from repro.translator.ir import (
    BARRIER_KINDS,
    COMMIT_POINT_KINDS,
    GUEST_FLAGS,
    GUEST_LOC_TYPES,
    GUEST_REGS,
    IROp,
    IROpKind,
    Operand,
    PURE_KINDS,
    Temp,
    TraceIR,
)

MASK32 = 0xFFFFFFFF
SIGN32 = 0x80000000

_COMMUTATIVE = {
    AluOp.ADD, AluOp.AND, AluOp.OR, AluOp.XOR, AluOp.MUL,
    AluOp.UMULH, AluOp.SMULH, AluOp.CMPEQ, AluOp.CMPNE,
}

# ALU ops that have a meaningful immediate form.
_IMMEDIATE_OK = {
    AluOp.ADD, AluOp.SUB, AluOp.AND, AluOp.OR, AluOp.XOR, AluOp.SHL,
    AluOp.SHR, AluOp.SAR, AluOp.MUL, AluOp.CMPEQ, AluOp.CMPNE,
    AluOp.CMPLTU, AluOp.CMPLTS, AluOp.CMPLEU, AluOp.CMPLES,
}


def optimize(trace: TraceIR, enable_cse: bool = True) -> TraceIR:
    """Run the full pass pipeline in place and return the trace."""
    _fold_constants(trace)
    if enable_cse:
        _value_number(trace)
    _eliminate_dead_code(trace)
    return trace


# --------------------------------------------------------------------------
# Constant folding and propagation
# --------------------------------------------------------------------------


def _alu_eval(op: AluOp, a: int, b: int) -> int:
    from repro.host.cpu import _alu

    return _alu(op, a, b)


def _resolved(srcs: tuple[Operand, ...],
              alias: dict[Temp, Operand]) -> tuple[Operand, ...]:
    """``srcs`` with every aliased temp replaced by what it aliases.

    Alias keys are temps only, so a guest location is never found.
    """
    out = []
    for operand in srcs:
        while operand in alias:
            operand = alias[operand]
        out.append(operand)
    return tuple(out)


def _fold_constants(trace: TraceIR) -> None:
    consts: dict[Temp, int] = {}
    alias: dict[Temp, Operand] = {}
    out: list[IROp] = []

    for op in trace.ops:
        if alias:
            op.srcs = _resolved(op.srcs, alias)
        kind = op.kind
        if kind is IROpKind.MOVI and isinstance(op.dest, Temp):
            consts[op.dest] = op.imm & MASK32
            out.append(op)
            continue
        if kind is IROpKind.ALU:
            a, b = op.srcs
            ca = consts.get(a)
            cb = consts.get(b)
            if ca is not None and cb is not None and isinstance(op.dest, Temp):
                value = _alu_eval(op.aluop, ca, cb)
                consts[op.dest] = value
                out.append(IROp(IROpKind.MOVI, dest=op.dest, imm=value,
                                guest_index=op.guest_index,
                                guest_addr=op.guest_addr))
                continue
            if cb is not None and op.aluop in _IMMEDIATE_OK:
                op.kind = IROpKind.ALUI
                op.srcs = (a,)
                op.imm = cb
            elif ca is not None and op.aluop in _COMMUTATIVE and \
                    op.aluop in _IMMEDIATE_OK:
                op.kind = IROpKind.ALUI
                op.srcs = (b,)
                op.imm = ca
            out.append(op)
            continue
        if kind is IROpKind.ALUI:
            (a,) = op.srcs
            ca = consts.get(a)
            if ca is not None and isinstance(op.dest, Temp):
                value = _alu_eval(op.aluop, ca, op.imm)
                consts[op.dest] = value
                out.append(IROp(IROpKind.MOVI, dest=op.dest, imm=value,
                                guest_index=op.guest_index,
                                guest_addr=op.guest_addr))
                continue
            # Identity simplifications.  Aliasing is only sound for temp
            # sources: a guest-location operand may be redefined between
            # here and a later use, so it must not be substituted
            # forward.
            if op.aluop in (AluOp.ADD, AluOp.SUB, AluOp.OR, AluOp.XOR,
                            AluOp.SHL, AluOp.SHR, AluOp.SAR) and \
                    op.imm == 0 and isinstance(op.dest, Temp) and \
                    isinstance(a, Temp):
                alias[op.dest] = a
                continue
            out.append(op)
            continue
        if kind is IROpKind.SEL:
            cond, if_true, if_false = op.srcs
            cc = consts.get(cond)
            if cc is not None and isinstance(op.dest, Temp):
                chosen = if_true if cc else if_false
                if isinstance(chosen, Temp):
                    alias[op.dest] = chosen
                    continue
                op.kind = IROpKind.MOV
                op.srcs = (chosen,)
                out.append(op)
                continue
            out.append(op)
            continue
        if kind is IROpKind.EXIT_IF:
            (cond,) = op.srcs
            cc = consts.get(cond)
            if cc == 0:
                continue  # never-taken exit
            if cc is not None and cc != 0:
                # Always-taken exit: the rest of the trace is dead.
                op.kind = IROpKind.EXIT
                op.srcs = ()
                out.append(op)
                trace.ops[:] = out
                return
            out.append(op)
            continue
        out.append(op)
    trace.ops[:] = out


# --------------------------------------------------------------------------
# Value numbering (CSE) + memory forwarding
# --------------------------------------------------------------------------


def _value_number(trace: TraceIR) -> None:
    versions: dict[Operand, int] = {}
    available: dict[tuple, Temp] = {}
    alias: dict[Temp, Operand] = {}
    # (base_operand_vn, disp, size) -> value operand for forwarding.
    memory: dict[tuple, Operand] = {}
    out: list[IROp] = []

    def vn(operand: Operand):
        """Value number of a resolved operand: a temp is its own; a
        guest location is numbered by its writeback version."""
        if isinstance(operand, Temp):
            return operand
        return (operand, versions.get(operand, 0))

    for op in trace.ops:
        if alias:
            op.srcs = _resolved(op.srcs, alias)
        kind = op.kind
        dest = op.dest
        if kind in PURE_KINDS and isinstance(dest, Temp):
            if kind is IROpKind.MOV:
                source = op.srcs[0]
                if isinstance(source, Temp):
                    alias[dest] = source
                    continue
                # A snapshot copy of a guest location (emitted by the
                # frontend before the location is redefined): it must
                # stay an op — substituting the location forward would
                # read the new value.  Value-number it so repeated
                # snapshots of the same version coalesce.
                key = (kind, None, (vn(source),), 0)
            else:
                key = (kind, op.aluop, tuple([vn(s) for s in op.srcs]),
                       op.imm)
            hit = available.get(key)
            if hit is not None:
                alias[dest] = hit
                continue
            available[key] = dest
        elif kind is IROpKind.MOV and isinstance(dest, GUEST_LOC_TYPES):
            versions[dest] = versions.get(dest, 0) + 1
        elif kind is IROpKind.LD:
            if op.barrier or op.io_ok:
                memory.clear()
            else:
                key = (vn(op.srcs[0]), op.disp, op.size)
                hit = memory.get(key)
                if hit is not None and isinstance(dest, Temp):
                    alias[dest] = hit
                    continue
                if isinstance(dest, Temp):
                    memory[key] = dest
        elif kind is IROpKind.ST:
            if op.barrier or op.io_ok:
                memory.clear()
            else:
                base_vn = vn(op.srcs[0])
                # Invalidate everything that may alias; keep entries with
                # the same base whose ranges provably do not overlap.
                for key in list(memory):
                    kbase, kdisp, ksize = key
                    if kbase != base_vn or not (
                        kdisp + ksize <= op.disp or op.disp + op.size <= kdisp
                    ):
                        del memory[key]
                if op.size == 4 and isinstance(op.srcs[1], Temp):
                    # Forward only temp values: a guest-location value
                    # may be redefined before the forwarded load.
                    memory[(base_vn, op.disp, 4)] = op.srcs[1]
        elif kind in BARRIER_KINDS:
            memory.clear()
        out.append(op)
    trace.ops[:] = out


# --------------------------------------------------------------------------
# Dead code (and dead flag) elimination
# --------------------------------------------------------------------------

_ALL_GUEST_LOCS = GUEST_REGS + GUEST_FLAGS


def _eliminate_dead_code(trace: TraceIR) -> None:
    live: set = set()
    kept_reversed: list[IROp] = []

    for op in reversed(trace.ops):
        kind = op.kind
        if kind in COMMIT_POINT_KINDS:
            live.update(_ALL_GUEST_LOCS)
            live.update(op.srcs)
            kept_reversed.append(op)
            continue
        # ``live`` never holds None, so an absent dest is never live.
        dest, dest2 = op.dest, op.dest2
        if kind in PURE_KINDS and dest not in live and dest2 not in live:
            continue  # dead computation (e.g. an unread flag recipe)
        # Kept: a live pure op, or a side-effecting op (always kept; its
        # dest may still be dead).
        live.discard(dest)
        live.discard(dest2)
        live.update(op.srcs)
        kept_reversed.append(op)

    kept_reversed.reverse()
    trace.ops[:] = kept_reversed
