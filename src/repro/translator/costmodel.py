"""Port/latency cost model for the VLIW scheduler.

The scheduler used to optimize raw molecule count.  This module gives
it a machine model in the uiCA idiom: per-atom-class tables — issue-port widths (the throughput side)
and result latencies (the dependence side) — plus a *completion time*
metric over a placed schedule.  Modeled cycles for a schedule are the
cycle in which the last result becomes available, not merely the number
of issue slots consumed, so a schedule that hides a load's three-cycle
latency under independent work is rewarded even when the molecule count
ties.

The tables mirror ``host.molecule`` (``SLOT_CLASSES`` / ``LATENCIES``):
two ALUs, one memory unit, one FP/media unit, one branch unit, at most
four atoms per molecule (§2).  They are defined once here and consumed
by ``translator.schedule``; keeping one source of truth is the point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.host.atoms import AluOp
from repro.translator.ir import IROp, IROpKind

# Result latencies in cycles by IR kind (multiply is special-cased: it
# takes the FPM-latency path on the real part).
_LATENCIES: dict[IROpKind, int] = {
    IROpKind.LD: 3,
    IROpKind.DIVU: 10,
    IROpKind.DIVS: 10,
    IROpKind.PORT_IN: 4,
}
_LAT_DEFAULT = 1
_MUL_LATENCY = 3
_MUL_OPS = {AluOp.MUL, AluOp.UMULH, AluOp.SMULH}

# Issue ports and their per-cycle widths (throughput table).
_PORTS: dict[str, int] = {"alu": 2, "mem": 1, "fpm": 1, "br": 1}
_ISSUE_WIDTH = 4

# Which ports each IR kind can issue to, in preference order.  Moves
# fall back to the FP/media unit when both ALUs are busy, exactly as
# ``host.molecule.SLOT_CLASSES`` allows for MOV/MOVI atoms.
_PORT_PREFS: dict[IROpKind, tuple[str, ...]] = {
    IROpKind.LD: ("mem",),
    IROpKind.ST: ("mem",),
    IROpKind.PORT_IN: ("mem",),
    IROpKind.PORT_OUT: ("mem",),
    IROpKind.DIVU: ("fpm",),
    IROpKind.DIVS: ("fpm",),
    IROpKind.EXIT_IF: ("br",),
    IROpKind.EXIT: ("br",),
    IROpKind.EXIT_IND: ("br",),
    IROpKind.LOOP: ("br",),
    IROpKind.COMMIT: ("br",),
    IROpKind.MOVI: ("alu", "fpm"),
    IROpKind.MOV: ("alu", "fpm"),
    IROpKind.ALU: ("alu",),
    IROpKind.ALUI: ("alu",),
    IROpKind.SEL: ("alu",),
}


@dataclass(frozen=True)
class MachineCostModel:
    """Latency/throughput tables plus derived metrics.

    Frozen: a model is a pure table set.
    """

    latencies: dict[IROpKind, int] = field(default_factory=lambda:
                                           dict(_LATENCIES))
    default_latency: int = _LAT_DEFAULT
    mul_latency: int = _MUL_LATENCY
    ports: dict[str, int] = field(default_factory=lambda: dict(_PORTS))
    issue_width: int = _ISSUE_WIDTH

    def latency(self, op: IROp) -> int:
        if op.kind in (IROpKind.ALU, IROpKind.ALUI) and op.aluop in _MUL_OPS:
            return self.mul_latency
        return self.latencies.get(op.kind, self.default_latency)

    def port_preferences(self, kind: IROpKind) -> tuple[str, ...]:
        try:
            return _PORT_PREFS[kind]
        except KeyError:
            raise AssertionError(f"unslottable kind {kind}") from None

    def completion_cycles(self, cycles: list[list[IROp]]) -> int:
        """Modeled cycles: when the last scheduled result is available.

        ``max(issue_cycle + latency)`` over every placed op.  For serial
        code this is strictly monotone in molecule count; for parallel
        code it rewards packing *and* latency hiding.  Deterministic by
        construction — a pure fold over the placement.
        """
        modeled = 0
        for index, molecule in enumerate(cycles):
            for op in molecule:
                done = index + self.latency(op)
                if done > modeled:
                    modeled = done
        return modeled


DEFAULT_COST_MODEL = MachineCostModel()
