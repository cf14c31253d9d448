"""Decoded-instruction cache with SMC-coherent invalidation.

Without this cache the interpreter decodes every guest instruction
from raw bytes on every step, one MMU-translated fetch per code byte.
Decoding is pure over the code bytes, so its results can be memoized —
which makes this cache a miniature code cache with the paper's
signature hazard (§3.6): it may only serve an entry while the bytes it
was decoded from are unchanged.  Coherence comes from the same
write paths that keep the translation cache honest: every RAM store
that goes through the memory bus (interpreter stores, committed
translated stores draining from the store buffer, DMA and disk
traffic) reaches ``on_ram_write``, a bus store observer filtered by
this cache's page index.

Invalidation is page-granular: one write drops every cached
instruction on the written page(s).  That is coarser than byte-precise
but keeps the per-store check to two dictionary probes, and a page of
re-decodes is cheap.  A full flush is the fallback when the cache
fills.

Entries are keyed by guest *physical* address; the interpreter only
consults the cache while paging is disabled (identity mapping), so a
guest page-table change can never alias a stale entry.  The cache is a
pure wall-clock optimization: decode results are bit-identical with
the cache on or off, and no architectural counter is touched.
"""

from __future__ import annotations

from typing import Any

from repro.memory.physical import PAGE_SHIFT

DEFAULT_CAPACITY = 1 << 16


class DecodedInstructionCache:
    """Memoized ``decode()`` results keyed by guest physical address."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        self.capacity = capacity
        # paddr -> payload (the interpreter stores (Instruction, handler)
        # pairs so a hit also skips the dispatch-table lookup).
        self.entries: dict[int, Any] = {}
        # page -> set of entry paddrs whose instruction bytes touch it.
        # The bus's store-observer filter probes this dict live, so it
        # is mutated in place and never rebound.
        self._page_index: dict[int, set[int]] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0  # entries dropped by coherence events
        self.flushes = 0

    def __len__(self) -> int:
        return len(self.entries)

    def insert(self, paddr: int, length: int, payload: Any) -> None:
        """Cache a decode result covering ``[paddr, paddr + length)``."""
        if len(self.entries) >= self.capacity:
            self.flush()
        self.entries[paddr] = payload
        first = paddr >> PAGE_SHIFT
        last = (paddr + length - 1) >> PAGE_SHIFT
        for page in range(first, last + 1):
            self._page_index.setdefault(page, set()).add(paddr)

    # ------------------------------------------------------------------
    # Coherence
    # ------------------------------------------------------------------

    def on_ram_write(self, addr: int, size: int) -> None:
        """Bus store observer: drop entries on the written page(s).

        The bus calls it only for writes touching an indexed page;
        ``invalidate_range`` calls it for any range.
        """
        index = self._page_index
        first = addr >> PAGE_SHIFT
        if first in index:
            self._drop_page(first)
        last = (addr + size - 1) >> PAGE_SHIFT
        if last != first and last in index:
            self._drop_page(last)

    def invalidate_range(self, addr: int, size: int) -> None:
        """Explicit range invalidation (page-granular, like a write)."""
        if size > 0:
            self.on_ram_write(addr, size)

    def _drop_page(self, page: int) -> None:
        entries = self.entries
        for paddr in self._page_index.pop(page):
            # A page-spanning instruction is indexed on both pages; the
            # second pop is then a no-op.
            if entries.pop(paddr, None) is not None:
                self.invalidations += 1

    def flush(self) -> None:
        """Full invalidation — the capacity/paranoia fallback."""
        self.entries.clear()
        self._page_index.clear()
        self.flushes += 1
