"""The gated store buffer (paper §3.1, US patent 6,011,908).

"Store data are held in a gated store buffer, from which they are only
released to the memory system at the time of a commit.  On a rollback,
stores not yet committed can simply be dropped from the store buffer."

Entries are keyed by *physical* address (translation happens at store
execution, as in a TLB).  Loads executed inside the same translation
window must see buffered stores, so the buffer supports byte-accurate
store-to-load forwarding via an overlay map.  MMIO stores are buffered
but never forwarded — device reads inside the same uncommitted window
are fenced off by construction (``io_ok`` accesses are commit-fenced).
"""

from __future__ import annotations

from dataclasses import dataclass

# Empty-overlay sentinel for the forwarding bounds: ``_lo`` starts past
# any address and ``_hi`` at zero, so the O(1) reject fires without an
# emptiness special case and a store updates both with plain min/max.
NO_LO = 1 << 62

# Value mask by store size (1, 2 or 4 bytes).
_SIZE_MASKS = (0, 0xFF, 0xFFFF, 0, 0xFFFFFFFF)


@dataclass
class BufferedStore:
    paddr: int
    size: int
    value: int
    is_io: bool


class StoreBufferOverflow(Exception):
    """The translation issued more uncommitted stores than the buffer holds."""


class GatedStoreBuffer:
    """Ordered, byte-forwarding, commit-gated store queue."""

    def __init__(self, capacity: int = 64) -> None:
        self.capacity = capacity
        self._entries: list[BufferedStore] = []
        self._overlay: dict[int, int] = {}  # paddr -> byte, RAM stores only
        # Byte-address bounds of the overlay, [lo, hi) — lets forwarding
        # reject non-overlapping loads in O(1).  Matters for long
        # commit windows, which keep the overlay populated across most
        # of the body.  The template JIT's inline store path maintains
        # these too.
        self._lo = NO_LO
        self._hi = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def empty(self) -> bool:
        return not self._entries

    def write(self, paddr: int, value: int, size: int, is_io: bool) -> None:
        if len(self._entries) >= self.capacity:
            raise StoreBufferOverflow()
        self._entries.append(BufferedStore(paddr, size, value, is_io))
        if not is_io:
            for i in range(size):
                self._overlay[paddr + i] = (value >> (8 * i)) & 0xFF
            if paddr < self._lo:
                self._lo = paddr
            if paddr + size > self._hi:
                self._hi = paddr + size

    def forward(self, paddr: int, size: int, memory_value: int) -> int:
        """Merge buffered bytes over ``memory_value`` for a load."""
        if paddr >= self._hi or paddr + size <= self._lo:
            return memory_value
        merged = memory_value
        for i in range(size):
            byte = self._overlay.get(paddr + i)
            if byte is not None:
                merged = (merged & ~(0xFF << (8 * i))) | (byte << (8 * i))
        return merged

    def drain(self, bus) -> None:
        """Release all buffered stores to the memory system, in order.

        An MMIO entry goes through ``bus.write``, device side effects
        included.  Every other entry lies inside one RAM run — the host
        CPU faults a store outside RAM before buffering it, and the
        template JIT buffers inline only inside a run — so it is copied
        straight into RAM and followed by ``bus.notify_store``: RAM and
        every store observer end exactly as after ``bus.write``, with
        no routing and no call per unwatched observer.
        """
        entries = self._entries
        if not entries:
            return  # the overlay and its bounds are empty too
        ram = bus.ram._data
        notify = bus.notify_store
        for entry in entries:
            paddr, size = entry.paddr, entry.size
            if entry.is_io:
                bus.write(paddr, entry.value, size)
            else:
                ram[paddr:paddr + size] = (
                    entry.value & _SIZE_MASKS[size]).to_bytes(size, "little")
                notify(paddr, size)
        entries.clear()
        self._overlay.clear()
        self._lo, self._hi = NO_LO, 0

    def drop(self) -> None:
        """Rollback: discard everything buffered since the last commit."""
        self._entries.clear()
        self._overlay.clear()
        self._lo, self._hi = NO_LO, 0
