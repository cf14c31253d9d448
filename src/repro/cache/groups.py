"""Translation groups (paper §3.6.5).

"Sometimes self-modifying code repeatedly writes and executes one of a
small number of versions of the rewritten x86 code ... CMS keeps such
translations in translation groups.  These are lists of translations of
the same x86 code region, with the currently active translation first on
the list.  If the first translation fails its self-check after a
protection fault, the others are checked for a current match with the
x86 code before a new translation is produced, and any matching
translation found becomes the current one."

The group key is the region entry address; membership is matched by the
exact code-byte snapshot the translation implements.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.cache.tcache import Translation


class TranslationGroups:
    """Retired translation versions, matchable by current code bytes."""

    def __init__(self, max_versions_per_group: int = 48) -> None:
        self.max_versions = max_versions_per_group
        # entry_eip -> snapshot bytes -> retired translation (MRU order).
        self._groups: dict[int, OrderedDict[bytes, Translation]] = {}
        self.retired = 0

    def retire(self, translation: Translation) -> None:
        """Park a still-correct version for possible reactivation."""
        group = self._groups.setdefault(translation.entry_eip, OrderedDict())
        group[translation.code_snapshot] = translation
        group.move_to_end(translation.code_snapshot)
        self.retired += 1
        while len(group) > self.max_versions:
            group.popitem(last=False)

    def match(self, entry_eip: int,
              current_bytes: bytes) -> Translation | None:
        """Find a retired version matching the current code bytes."""
        group = self._groups.get(entry_eip)
        if not group:
            return None
        hit = group.pop(current_bytes, None)
        if hit is None:
            return None
        hit.valid = True
        return hit

    def match_current(self, entry_eip: int, reader) -> Translation | None:
        """Match against live memory.

        ``reader(code_ranges) -> bytes`` reads the current guest bytes;
        versions of the same entry may cover different ranges, so each
        candidate is checked against its own ranges (most recent first).
        """
        group = self._groups.get(entry_eip)
        if not group:
            return None
        for snapshot, translation in reversed(list(group.items())):
            try:
                current = reader(translation.code_ranges)
            except Exception:
                return None
            if current == snapshot:
                del group[snapshot]
                translation.valid = True
                return translation
        return None

    def has_group(self, entry_eip: int) -> bool:
        return bool(self._groups.get(entry_eip))

    def versions(self, entry_eip: int) -> int:
        return len(self._groups.get(entry_eip, ()))

    def drop_group(self, entry_eip: int) -> None:
        self._groups.pop(entry_eip, None)

    def drop_host_code(self) -> None:
        """Null compiled JIT callables on every parked version.

        A tcache flush drops ``host_code`` on residents, but parked
        versions outlive the flush (that is their purpose) — without
        this, the group table keeps a whole generation of generated
        functions reachable.  The versions themselves stay parked: a
        reactivated one recompiles on first dispatch.
        """
        for group in self._groups.values():
            for translation in group.values():
                translation.host_code = None

    def entries(self) -> list[int]:
        """Entry addresses that currently hold at least one version."""
        return [entry for entry, group in self._groups.items() if group]

    def export_versions(self) -> dict[int, list[Translation]]:
        """Every group's versions, oldest first (MRU last) — the order
        ``retire`` must replay to reproduce the same MRU state."""
        return {entry: list(group.values())
                for entry, group in self._groups.items() if group}

    def clear(self) -> None:
        self._groups.clear()
