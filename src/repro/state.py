"""Guest architectural state.

``GuestState`` is the abstract register-file interface shared by the
interpreter and the CMS runtime.  The co-design point from the paper is
that the x86 architectural registers live in dedicated host registers,
with working/shadow pairs providing commit and rollback.  Concretely:

* ``SimpleGuestState`` stores the state in plain Python attributes and
  is used by the pure-interpreter reference configuration (and by unit
  tests);
* ``repro.host.registers.HostBackedGuestState`` exposes the *shadow*
  (committed) host registers through the same interface, so the
  interpreter embedded in CMS operates directly on committed state,
  exactly like the native-code CMS interpreter does.  It overrides the
  per-step accessors (IF, the arithmetic flags) with direct register
  file operations; ``SimpleGuestState`` keeps the generic versions
  below, written over ``get_flag``/``set_flag``.

Flags are kept *unpacked* — one storage slot per flag — because that is
how translated code wants them (each flag is an independent 0/1 host
register); ``eflags`` packs them on demand for ``pushf``/interrupt
delivery.
"""

from __future__ import annotations

from repro.isa import flags as fl
from repro.isa.registers import NUM_REGS, REG_NAMES

MASK32 = 0xFFFFFFFF

# Unpacked flag slot order used by both state implementations and by
# the translator's guest-location numbering.
FLAG_SLOTS = ("cf", "pf", "zf", "sf", "of", "if_")
FLAG_SLOT_BITS = (fl.CF, fl.PF, fl.ZF, fl.SF, fl.OF, fl.IF)
IF_SLOT = FLAG_SLOTS.index("if_")


class GuestState:
    """Interface over guest architectural state (registers, EIP, flags)."""

    def get_reg(self, index: int) -> int:  # pragma: no cover - interface
        raise NotImplementedError

    def set_reg(self, index: int, value: int) -> None:  # pragma: no cover
        raise NotImplementedError

    def get_flag(self, slot: int) -> int:  # pragma: no cover - interface
        raise NotImplementedError

    def set_flag(self, slot: int, value: int) -> None:  # pragma: no cover
        raise NotImplementedError

    @property
    def eip(self) -> int:  # pragma: no cover - interface
        raise NotImplementedError

    @eip.setter
    def eip(self, value: int) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Shared convenience accessors
    # ------------------------------------------------------------------

    @property
    def eflags(self) -> int:
        """The packed EFLAGS word (with the x86 always-one bit set)."""
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
        return bool(self.get_flag(IF_SLOT))

    def set_arith_flags(self, flags: int, mask: int = fl.ARITH_FLAGS) -> None:
        """Update the arithmetic flags selected by ``mask``."""
        for slot, bit in enumerate(FLAG_SLOT_BITS):
            if bit & mask:
                self.set_flag(slot, 1 if flags & bit else 0)

    def snapshot(self) -> tuple:
        """A hashable copy of the full architectural state, for tests."""
        return (
            tuple(self.get_reg(i) for i in range(NUM_REGS)),
            self.eip,
            tuple(self.get_flag(s) for s in range(len(FLAG_SLOTS))),
        )

    def describe(self) -> str:
        regs = " ".join(
            f"{name}={self.get_reg(i):08x}" for i, name in enumerate(REG_NAMES)
        )
        return f"eip={self.eip:08x} {regs} {fl.format_flags(self.eflags)}"


class SimpleGuestState(GuestState):
    """Plain-attribute guest state for the reference interpreter."""

    def __init__(self) -> None:
        self._regs = [0] * NUM_REGS
        self._eip = 0
        self._flags = [0] * len(FLAG_SLOTS)

    def get_reg(self, index: int) -> int:
        return self._regs[index]

    def set_reg(self, index: int, value: int) -> None:
        self._regs[index] = value & MASK32

    def get_flag(self, slot: int) -> int:
        return self._flags[slot]

    def set_flag(self, slot: int, value: int) -> None:
        self._flags[slot] = 1 if value else 0

    @property
    def eip(self) -> int:
        return self._eip

    @eip.setter
    def eip(self, value: int) -> None:
        self._eip = value & MASK32
