"""Write protection covering translated guest code (paper §3.6).

``ProtectionMap`` is the CMS-owned, authoritative protection state:

* which physical pages are write-protected because translated code was
  produced from bytes on them, and
* within each protected page, which 64-byte granules actually contain
  translated code bytes (the "fine-grain entries in memory" that the
  hardware :class:`~repro.memory.finegrain.FineGrainCache` is filled
  from on a miss).

``check_store`` is the single store-side hook used by both the host CPU
(where a non-OK result becomes a hardware protection fault and a
rollback) and the interpreter (where CMS handles the event inline).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.memory.finegrain import (
    GRANULE_SIZE,
    FineGrainCache,
    granule_mask_for_range,
)
from repro.memory.physical import PAGE_SIZE, page_of


class StoreClass(enum.Enum):
    """Outcome of checking a store against code-page protection."""

    OK = enum.auto()  # page not protected: store proceeds silently
    FG_ALLOWED = enum.auto()  # protected page, but fine-grain shows pure data
    FAULT_MISS = enum.auto()  # protected page, fine-grain cache miss
    FAULT_CODE = enum.auto()  # store hits granules containing translated code
    FAULT_PAGE = enum.auto()  # fine-grain disabled: whole page faults


@dataclass
class StoreCheck:
    """Result of a protection check for one store."""

    store_class: StoreClass
    page: int = 0

    @property
    def faults(self) -> bool:
        return self.store_class in (
            StoreClass.FAULT_MISS,
            StoreClass.FAULT_CODE,
            StoreClass.FAULT_PAGE,
        )


class ProtectionMap:
    """CMS-side protection bookkeeping plus the hardware check path."""

    def __init__(self, fine_grain: FineGrainCache | None,
                 fine_grain_enabled: bool = True) -> None:
        self._fine_grain_enabled = fine_grain_enabled and fine_grain is not None
        self.fine_grain = fine_grain if self._fine_grain_enabled else None
        # page -> bitmask of granules containing translated code bytes.
        # The template JIT's store guards and the interpreter's store
        # hook filter probe this dict live, so it is mutated in place
        # and never rebound.
        self._pages: dict[int, int] = {}
        self.protection_faults = 0
        self.fg_allowed_stores = 0
        self.code_hit_faults = 0

    @property
    def fine_grain_enabled(self) -> bool:
        return self._fine_grain_enabled

    # ------------------------------------------------------------------
    # CMS-side updates
    # ------------------------------------------------------------------

    def protect_range(self, start: int, length: int) -> None:
        """Mark [start, start+length) as translated-code bytes."""
        addr = start
        end = start + length
        while addr < end:
            page = page_of(addr)
            page_start = page * PAGE_SIZE
            lo = max(addr, page_start) - page_start
            hi = min(end, page_start + PAGE_SIZE) - page_start
            mask = granule_mask_for_range(lo, hi)
            self._pages[page] = self._pages.get(page, 0) | mask
            if self.fine_grain is not None and page in self.fine_grain:
                # Keep a cached hardware entry coherent with the update.
                self.fine_grain.install(page, self._pages[page])
            addr = page_start + PAGE_SIZE

    def unprotect_page(self, page: int) -> None:
        self._pages.pop(page, None)
        if self.fine_grain is not None:
            self.fine_grain.invalidate(page)

    def set_page_mask(self, page: int, granule_mask: int) -> None:
        """Replace a page's protected-granule mask (0 clears the page)."""
        if granule_mask:
            self._pages[page] = granule_mask
            if self.fine_grain is not None and page in self.fine_grain:
                self.fine_grain.install(page, granule_mask)
        else:
            self.unprotect_page(page)

    def is_protected(self, page: int) -> bool:
        return page in self._pages

    def page_mask(self, page: int) -> int:
        return self._pages.get(page, 0)

    def protected_pages(self) -> list[int]:
        return sorted(self._pages)

    def clear(self) -> None:
        self._pages.clear()
        if self.fine_grain is not None:
            self.fine_grain.flush()

    # ------------------------------------------------------------------
    # Hardware check path (store-side)
    # ------------------------------------------------------------------

    def check_store(self, addr: int, size: int) -> StoreCheck:
        """Classify a store of ``size`` bytes at physical ``addr``.

        With fine-grain protection enabled the semantics follow §3.6.1:
        an uncached protected page faults (FAULT_MISS — the software
        handler installs the entry and retries), a cached page faults
        only when the store overlaps a granule that holds translated
        code (FAULT_CODE), and otherwise proceeds (FG_ALLOWED — this is
        the whole benefit measured in Table 1).  With fine-grain
        disabled, every store to a protected page faults (FAULT_PAGE).
        """
        page = page_of(addr)
        code_mask = self._pages.get(page)
        if code_mask is None:
            # A store may straddle a page boundary; check the last byte.
            last_page = page_of(addr + size - 1)
            if last_page == page or last_page not in self._pages:
                return StoreCheck(StoreClass.OK)
            page, code_mask = last_page, self._pages[last_page]
            addr = page * PAGE_SIZE
            size = 1
        if not self._fine_grain_enabled:
            self.protection_faults += 1
            return StoreCheck(StoreClass.FAULT_PAGE, page)
        assert self.fine_grain is not None
        cached_mask = self.fine_grain.lookup(page)
        if cached_mask is None:
            self.protection_faults += 1
            return StoreCheck(StoreClass.FAULT_MISS, page)
        lo = addr - page * PAGE_SIZE
        hi = min(lo + size, PAGE_SIZE)
        store_mask = granule_mask_for_range(lo, hi)
        if cached_mask & store_mask:
            self.protection_faults += 1
            self.code_hit_faults += 1
            return StoreCheck(StoreClass.FAULT_CODE, page)
        self.fg_allowed_stores += 1
        return StoreCheck(StoreClass.OK)

    def handle_miss(self, page: int) -> None:
        """Software fault handler: fill the hardware cache for ``page``."""
        if self.fine_grain is not None:
            self.fine_grain.install(page, self._pages.get(page, 0))
