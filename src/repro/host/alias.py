"""The alias hardware (paper §3.5, US patent 5,832,205 family).

"Crusoe provides simple hardware support (the alias hardware) that
allows CMS to reorder selected memory references, with hardware taking
on the burden of verifying at runtime that the reordered references
did, in fact, not overlap."

Unlike a memory conflict buffer or the IA-64 ALAT — fully associative
tables with hardware replacement — Crusoe "requires the translator to
explicitly specify" the entries: a hoisted load names the entry that
protects its address, and each store it was hoisted over carries a
check mask naming the entries it must be disjoint from.  A hit raises
an alias fault; CMS rolls back and re-executes conservatively.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class AliasEntry:
    valid: bool = False
    paddr: int = 0
    size: int = 0


class AliasHardware:
    """A small, translator-managed set of protected address ranges."""

    def __init__(self, num_entries: int = 8) -> None:
        self.num_entries = num_entries
        self._entries = [AliasEntry() for _ in range(num_entries)]

    def record(self, entry: int, paddr: int, size: int) -> None:
        """Protect [paddr, paddr+size) in the named entry."""
        slot = self._entries[entry]
        slot.valid = True
        slot.paddr = paddr
        slot.size = size

    def check(self, mask: int, paddr: int, size: int) -> int | None:
        """Check a store against the entries in ``mask``.

        Returns the index of a violated entry, or None.
        """
        remaining = mask
        while remaining:
            entry = (remaining & -remaining).bit_length() - 1
            remaining &= remaining - 1
            if entry >= self.num_entries:
                continue
            slot = self._entries[entry]
            if slot.valid and paddr < slot.paddr + slot.size and \
                    slot.paddr < paddr + size:
                return entry
        return None

    def clear(self) -> None:
        """Invalidate all entries (at commit and at rollback)."""
        for slot in self._entries:
            slot.valid = False
