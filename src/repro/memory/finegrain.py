"""Hardware cache for fine-grain (sub-page) write protection.

Paper §3.6.1 / US patent 6,363,336: full-page write protection is
adequate for correctness but penalizes pages that mix code and data.
The key insight is that *fine granularity is only needed for a few pages
at a time*, so the hardware keeps a small cache of per-page granule
bitmaps, and the software fault handler fills it from CMS's in-memory
tables on a miss.

``FineGrainCache`` models exactly that hardware structure: a handful of
entries, each a page number plus a bitmask of protected 64-byte
granules.  It knows nothing about *why* granules are protected — that
is CMS policy kept in ``ProtectionMap``.
"""

from __future__ import annotations

from collections import OrderedDict

GRANULE_SIZE = 64
GRANULES_PER_PAGE = 4096 // GRANULE_SIZE  # 64 granules, one bitmap word


class FineGrainCache:
    """A small, software-filled hardware cache of sub-page protections."""

    def __init__(self, num_entries: int = 8) -> None:
        if num_entries <= 0:
            raise ValueError("fine-grain cache needs at least one entry")
        self.num_entries = num_entries
        # page -> protected-granule bitmask; ordered for LRU replacement.
        self._entries: OrderedDict[int, int] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def lookup(self, page: int) -> int | None:
        """Return the granule bitmask for ``page`` or None on miss."""
        mask = self._entries.get(page)
        if mask is None:
            self.misses += 1
            return None
        self.hits += 1
        self._entries.move_to_end(page)
        return mask

    def install(self, page: int, granule_mask: int) -> None:
        """Software fault handler fills in an entry (may evict LRU)."""
        if page in self._entries:
            self._entries[page] = granule_mask
            self._entries.move_to_end(page)
            return
        if len(self._entries) >= self.num_entries:
            self._entries.popitem(last=False)
            self.evictions += 1
        self._entries[page] = granule_mask

    def invalidate(self, page: int) -> None:
        self._entries.pop(page, None)

    def flush(self) -> None:
        self._entries.clear()

    def __contains__(self, page: int) -> bool:
        return page in self._entries


def granule_mask_for_range(start: int, end: int) -> int:
    """Bitmask of granules covering byte range [start, end) within a page.

    ``start`` and ``end`` are byte offsets within one page
    (0 <= start < end <= 4096).
    """
    first = start // GRANULE_SIZE
    last = (end - 1) // GRANULE_SIZE
    mask = 0
    for granule in range(first, last + 1):
        mask |= 1 << granule
    return mask
