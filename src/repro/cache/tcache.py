"""The translation cache (tcache).

Stores translations keyed by guest entry address, maintains the
page-to-translations index used for SMC invalidation (§3.6), performs
chaining and unchaining (§2), and garbage-collects by full flush when
the cache fills (the simplest of the historically used CMS policies).
"""

from __future__ import annotations

import hashlib
import itertools
from collections import Counter
from dataclasses import dataclass, field

from typing import TYPE_CHECKING

from repro.host.atoms import Atom, AtomKind
from repro.host.molecule import Molecule
from repro.memory.physical import page_of

if TYPE_CHECKING:  # avoid a package-level import cycle with repro.translator
    from repro.translator.policies import TranslationPolicy

_ids = itertools.count(1)


def digest_bytes(data: bytes) -> str:
    """Stable hex digest of a byte string (sha256; never the salted
    builtin ``hash``, which varies across processes and would break
    snapshot revalidation)."""
    return hashlib.sha256(data).hexdigest()


def compute_range_digests(code_ranges: list[tuple[int, int]],
                          snapshot: bytes) -> tuple[str, ...]:
    """Per-range digests of a code snapshot.

    ``snapshot`` is the concatenation of the bytes of ``code_ranges`` in
    order (the layout ``Translation.code_snapshot`` uses); the digests
    are what persisted translations are revalidated against at load
    time (§3.6.2 generalized across runs).
    """
    digests = []
    cursor = 0
    for _, length in code_ranges:
        digests.append(digest_bytes(snapshot[cursor:cursor + length]))
        cursor += length
    return tuple(digests)


@dataclass(eq=False)  # identity semantics: hashable, usable in page sets
class Translation:
    """One translation: native molecules for a guest code region."""

    entry_eip: int
    molecules: list[Molecule]
    labels: dict[str, int]
    entry_label: str
    policy: TranslationPolicy
    code_ranges: list[tuple[int, int]]  # (guest addr, length) covered
    code_snapshot: bytes  # the guest bytes this translation implements
    guest_instr_count: int = 0
    exit_atoms: list[Atom] = field(default_factory=list)
    prologue_label: str | None = None
    prologue_armed: bool = False
    # Per-range sha256 digests of code_snapshot, captured at translation
    # time; the snapshot loader checks them against current guest RAM
    # before re-admitting a persisted translation.
    range_digests: tuple[str, ...] = ()
    # The scheduler cost model's completion-time estimate for the body.
    modeled_cycles: int = 0
    # Runtime statistics.
    entries: int = 0
    executions_molecules: int = 0
    fault_counts: Counter = field(default_factory=Counter)
    valid: bool = True
    id: int = field(default_factory=lambda: next(_ids))
    # Translations that chained an exit to this one (for unchaining).
    incoming_chains: list[Atom] = field(default_factory=list)
    # Cached flat address set of code_ranges (built on first use; the
    # recovery interpreter consults it on every rolled-back step, and
    # code_ranges never change after construction).
    _region_addr_set: frozenset[int] | None = field(
        default=None, repr=False)
    # Template-JIT function for this translation (host/jit.py), built
    # once the translation is hot (``TemplateJIT.compile_passes``).
    # Dropped on invalidation and never persisted: its closure binds
    # one process's live CPU objects, so a warm-loaded translation
    # recompiles on its first dispatch instead.
    host_code: object | None = field(default=None, repr=False)
    # Admitted from a snapshot or a fleet share rather than translated
    # here (runtime only, never persisted).  The template JIT compiles
    # it on first entry.  In a fleet, tenants importing the same code
    # share one compiled code object, which a per-tenant execution
    # count cannot see.  A snapshot-loaded translation runs from the
    # warm run's first call, so most cross the compile threshold anyway
    # and the VLIW rent before it buys nothing.
    imported: bool = field(default=False, repr=False)
    # MMU mapping epoch at which all of this translation's code pages
    # were last verified identity-mapped (CMS dispatch cache; runtime
    # only, never persisted — -1 means "never verified").
    mapped_epoch: int = field(default=-1, repr=False)

    @property
    def num_molecules(self) -> int:
        return len(self.molecules)

    def region_addrs(self) -> frozenset[int]:
        """Every guest address covered by ``code_ranges``, precomputed."""
        cached = self._region_addr_set
        if cached is None:
            cached = frozenset(
                addr
                for start, length in self.code_ranges
                for addr in range(start, start + length)
            )
            self._region_addr_set = cached
        return cached

    def pages(self) -> set[int]:
        out: set[int] = set()
        for start, length in self.code_ranges:
            for page in range(page_of(start), page_of(start + length - 1) + 1):
                out.add(page)
        return out

    def overlaps(self, addr: int, size: int) -> bool:
        """True if [addr, addr+size) intersects this translation's code."""
        for start, length in self.code_ranges:
            if addr < start + length and start < addr + size:
                return True
        return False

    def code_digest(self) -> str:
        """Process-stable identity of the guest bytes this implements."""
        return digest_bytes(self.code_snapshot)

    def describe(self) -> str:
        return (
            f"T{self.id}@{self.entry_eip:#x} "
            f"[{self.guest_instr_count} insts, {self.num_molecules} mols, "
            f"{self.policy.describe()}]"
        )


class TranslationCache:
    """Active translations, page index, chaining, and GC."""

    def __init__(self, capacity_molecules: int = 2_000_000) -> None:
        self.capacity_molecules = capacity_molecules
        # Invoked after a full GC flush so CMS can drop page protection
        # and other per-translation state coherently; on_evict receives
        # the victims of a generational collection for the same purpose.
        self.on_flush = None
        self.on_evict = None
        self._by_entry: dict[int, Translation] = {}
        # page -> resident translations with code on it.  The bus's
        # store-observer filter probes this dict live (the SMC manager's
        # observer), so it is mutated in place and never rebound.
        self._by_page: dict[int, set[Translation]] = {}
        self.total_molecules = 0
        self.invalidations = 0
        self.evictions = 0
        self.flushes = 0
        self.unchains = 0

    def __len__(self) -> int:
        return len(self._by_entry)

    def lookup(self, eip: int) -> Translation | None:
        return self._by_entry.get(eip)

    def translations(self) -> list[Translation]:
        return list(self._by_entry.values())

    # ------------------------------------------------------------------
    # Insert / evict
    # ------------------------------------------------------------------

    def insert(self, translation: Translation) -> None:
        if self.total_molecules + translation.num_molecules > \
                self.capacity_molecules:
            # Generational GC: drop the cold half first (by entry
            # count); fall back to a full flush only when that cannot
            # make room (e.g. one oversized translation).
            self.evict_cold()
            if self.total_molecules + translation.num_molecules > \
                    self.capacity_molecules:
                self.flush()
        old = self._by_entry.get(translation.entry_eip)
        if old is not None:
            self.invalidate_translation(old)
        self._by_entry[translation.entry_eip] = translation
        for page in translation.pages():
            self._by_page.setdefault(page, set()).add(translation)
        self.total_molecules += translation.num_molecules

    def remove(self, translation: Translation) -> None:
        """Detach a translation from the cache without marking it invalid
        (used when retiring a still-correct version into a group).

        Idempotent: removing a translation that is no longer resident
        (e.g. already invalidated through a ladder demotion) only
        re-runs the unchain sweep and never re-debits the molecule
        accounting.
        """
        resident = self._by_entry.get(translation.entry_eip) is translation
        if resident:
            del self._by_entry[translation.entry_eip]
            self.total_molecules -= translation.num_molecules
        for page in translation.pages():
            bucket = self._by_page.get(page)
            if bucket is not None:
                bucket.discard(translation)
                if not bucket:
                    del self._by_page[page]
        self._unchain_incoming(translation)
        self._unchain_outgoing(translation)

    def invalidate_translation(self, translation: Translation) -> None:
        translation.valid = False
        translation.host_code = None
        self.remove(translation)
        self.invalidations += 1

    def invalidate_page(self, page: int) -> list[Translation]:
        """Invalidate every translation with code on ``page`` (DMA rule)."""
        victims = list(self._by_page.get(page, ()))
        for translation in victims:
            self.invalidate_translation(translation)
        return victims

    def translations_overlapping(self, addr: int,
                                 size: int) -> list[Translation]:
        page_start = page_of(addr)
        page_end = page_of(addr + size - 1)
        seen: set[int] = set()
        out: list[Translation] = []
        for page in range(page_start, page_end + 1):
            for translation in self._by_page.get(page, ()):
                if translation.id not in seen and \
                        translation.overlaps(addr, size):
                    seen.add(translation.id)
                    out.append(translation)
        return out

    def translations_on_page(self, page: int) -> list[Translation]:
        return list(self._by_page.get(page, ()))

    def evict_cold(self, fraction: float = 0.5) -> list[Translation]:
        """Generational GC: invalidate the least-entered translations
        until ``fraction`` of the capacity is free.

        Hot translations survive, keeping their chains; the evicted cold
        generation is unchained automatically.  Returns the victims so
        the runtime can rebuild page protection for their pages.
        """
        target = int(self.capacity_molecules * (1.0 - fraction))
        victims: list[Translation] = []
        by_coldness = sorted(self._by_entry.values(),
                             key=lambda t: (t.entries, t.id))
        for translation in by_coldness:
            if self.total_molecules <= target:
                break
            self.invalidate_translation(translation)
            victims.append(translation)
        if victims:
            self.evictions += len(victims)
            if self.on_evict is not None:
                self.on_evict(victims)
        return victims

    def flush(self) -> None:
        """Full GC: drop everything (and all chains with it).

        Chain patches are explicitly reverted even though every resident
        translation dies together: exit atoms outlive the flush (their
        translations may be resurrected through groups or still be
        mid-unwind in the dispatcher), so none may keep pointing into
        the dead generation.
        """
        for translation in list(self._by_entry.values()):
            translation.valid = False
            translation.host_code = None
            self._unchain_incoming(translation)
            self._unchain_outgoing(translation)
        self._by_entry.clear()
        self._by_page.clear()
        self.total_molecules = 0
        self.flushes += 1
        if self.on_flush is not None:
            self.on_flush()

    # ------------------------------------------------------------------
    # Chaining (§2)
    # ------------------------------------------------------------------

    def chain(self, source: Translation, exit_atom: Atom,
              target: Translation) -> None:
        """Patch a translation exit to jump directly to ``target``."""
        assert exit_atom.kind is AtomKind.EXIT
        if exit_atom.chained_translation is target:
            return
        self._unlink_exit(exit_atom)
        exit_atom.chained_translation = target
        target.incoming_chains.append(exit_atom)

    def chain_indirect(self, source: Translation, exit_atom: Atom,
                       target: Translation, guard_eip: int) -> None:
        """Install (or retarget) an indirect exit's inline cache.

        The monomorphic cache holds the last observed target; the host
        follows it only when the committed EIP matches ``guard_eip``.
        """
        assert exit_atom.kind is AtomKind.EXIT
        assert exit_atom.exit_target is None
        if exit_atom.chained_translation is target and \
                exit_atom.chained_guard == guard_eip:
            return
        self._unlink_exit(exit_atom)
        exit_atom.chained_translation = target
        exit_atom.chained_guard = guard_eip
        target.incoming_chains.append(exit_atom)

    def _unlink_exit(self, exit_atom: Atom) -> None:
        old = exit_atom.chained_translation
        if old is not None:
            exit_atom.chained_translation = None
            if exit_atom in old.incoming_chains:
                old.incoming_chains.remove(exit_atom)

    def unchain_incoming(self, translation: Translation) -> int:
        """Sever every chain *into* a still-valid translation.

        The mapping-coherency rule (§3.6.1 under paging): when a page
        table mutation may have moved a translation's code out from
        under its guest addresses, direct chains into it must be cut so
        control returns to the dispatcher, which re-verifies the
        mapping before re-entering (and before re-chaining).  The
        translation itself stays resident — if the identity mapping is
        restored it revalidates without retranslating.
        """
        before = self.unchains
        self._unchain_incoming(translation)
        return self.unchains - before

    def _unchain_incoming(self, translation: Translation) -> None:
        for atom in translation.incoming_chains:
            if atom.chained_translation is translation:
                atom.chained_translation = None
                self.unchains += 1
        translation.incoming_chains.clear()

    def _unchain_outgoing(self, translation: Translation) -> None:
        for atom in translation.exit_atoms:
            target = atom.chained_translation
            if target is not None:
                atom.chained_translation = None
                if atom in target.incoming_chains:
                    target.incoming_chains.remove(atom)
