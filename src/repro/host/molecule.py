"""Molecules: the VLIW instructions of the host.

Paper §2: "Each instruction (called a molecule) can issue two or four
RISC-like operations (called atoms) to a subset of five functional
units: two ALUs, a memory unit, a floating point/media unit, and a
branch unit."

The scheduler assigns atoms to slots under these issue constraints and
the executed-molecule count is the performance metric.  Execution
within a molecule is semantically parallel; the scheduler guarantees
no intra-molecule dependences, so the executor may evaluate atoms
left-to-right.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.host.atoms import Atom, AtomKind


class Slot(enum.Enum):
    __hash__ = object.__hash__  # C-level; see host.atoms.AluOp

    ALU0 = "alu0"
    ALU1 = "alu1"
    MEM = "mem"
    FPM = "fpm"
    BR = "br"


# Which slots can each atom kind issue to, in preference order.
SLOT_CLASSES: dict[AtomKind, tuple[Slot, ...]] = {
    AtomKind.MOVI: (Slot.ALU0, Slot.ALU1, Slot.FPM),
    AtomKind.MOV: (Slot.ALU0, Slot.ALU1, Slot.FPM),
    AtomKind.ALU: (Slot.ALU0, Slot.ALU1),
    AtomKind.ALUI: (Slot.ALU0, Slot.ALU1),
    AtomKind.SEL: (Slot.ALU0, Slot.ALU1),
    AtomKind.DIVU: (Slot.FPM,),
    AtomKind.DIVS: (Slot.FPM,),
    AtomKind.LD: (Slot.MEM,),
    AtomKind.ST: (Slot.MEM,),
    AtomKind.BR: (Slot.BR,),
    AtomKind.BRZ: (Slot.BR,),
    AtomKind.BRNZ: (Slot.BR,),
    AtomKind.COMMIT: (Slot.BR,),  # issues with the branch unit
    AtomKind.EXIT: (Slot.BR,),
    AtomKind.FAIL: (Slot.BR,),
    AtomKind.PORT_IN: (Slot.MEM,),
    AtomKind.PORT_OUT: (Slot.MEM,),
    AtomKind.NOPA: (Slot.ALU0, Slot.ALU1, Slot.MEM, Slot.FPM, Slot.BR),
}

# Result latencies in molecules (consumer must issue >= latency later).
LATENCIES: dict[AtomKind, int] = {
    AtomKind.MOVI: 1,
    AtomKind.MOV: 1,
    AtomKind.ALU: 1,
    AtomKind.ALUI: 1,
    AtomKind.SEL: 1,
    AtomKind.DIVU: 10,
    AtomKind.DIVS: 10,
    AtomKind.LD: 3,
    AtomKind.ST: 1,
    AtomKind.PORT_IN: 4,
    AtomKind.PORT_OUT: 1,
}

# Multiply uses the FPM-latency path on the real part; model 3 molecules.
MUL_LATENCY = 3

MAX_ATOMS_PER_MOLECULE = 4


@dataclass
class Molecule:
    """Up to four atoms with distinct slots."""

    atoms: list[Atom] = field(default_factory=list)
    slots: list[Slot] = field(default_factory=list)
    label: str | None = None

    def can_add(self, atom: Atom) -> Slot | None:
        """Return a free slot for ``atom``, or None if it cannot issue."""
        used = self.slots
        if len(used) >= MAX_ATOMS_PER_MOLECULE:
            return None
        for slot in SLOT_CLASSES[atom.kind]:
            if slot not in used:
                return slot
        return None

    def add(self, atom: Atom) -> None:
        slot = self.can_add(atom)
        if slot is None:
            raise ValueError(f"no slot for {atom} in {self}")
        self.atoms.append(atom)
        self.slots.append(slot)

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        label = f"{self.label}: " if self.label else ""
        body = " ; ".join(str(a) for a in self.atoms) or "nop"
        return f"{label}{{ {body} }}"
