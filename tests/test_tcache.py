"""Unit tests for the translation cache, chaining, and groups."""

from __future__ import annotations

import pytest

from repro.cache.groups import TranslationGroups
from repro.cache.tcache import Translation, TranslationCache
from repro.cms.config import CMSConfig
from repro.host.atoms import Atom, AtomKind
from repro.host.molecule import Molecule
from repro.isa.assembler import assemble
from repro.memory.physical import PAGE_SIZE
from repro.translator.policies import TranslationPolicy

from conftest import run_cms


def make_translation(entry=0x1000, length=32, molecules=4,
                     policy=None, snapshot=None) -> Translation:
    mols = []
    for _ in range(molecules - 1):
        m = Molecule()
        m.add(Atom(AtomKind.NOPA))
        mols.append(m)
    exit_mol = Molecule()
    exit_atom = Atom(AtomKind.EXIT, exit_target=entry + length)
    exit_mol.add(exit_atom)
    mols.append(exit_mol)
    return Translation(
        entry_eip=entry,
        molecules=mols,
        labels={"body": 0},
        entry_label="body",
        policy=policy or TranslationPolicy(),
        code_ranges=[(entry, length)],
        code_snapshot=snapshot if snapshot is not None else bytes(length),
        guest_instr_count=length // 4,
        exit_atoms=[exit_atom],
    )


class TestTranslationModel:
    def test_pages_single(self):
        t = make_translation(entry=0x1000, length=32)
        assert t.pages() == {1}

    def test_pages_spanning(self):
        t = make_translation(entry=PAGE_SIZE - 8, length=16)
        assert t.pages() == {0, 1}

    def test_overlaps(self):
        t = make_translation(entry=0x1000, length=32)
        assert t.overlaps(0x1010, 4)
        assert t.overlaps(0x0FFF, 2)  # first byte off, second inside
        assert not t.overlaps(0x1020, 4)
        assert not t.overlaps(0x0FF0, 4)

    def test_ids_unique(self):
        assert make_translation().id != make_translation().id


class TestTranslationCache:
    def test_insert_lookup(self):
        cache = TranslationCache()
        t = make_translation()
        cache.insert(t)
        assert cache.lookup(0x1000) is t
        assert cache.lookup(0x2000) is None
        assert len(cache) == 1

    def test_insert_replaces_same_entry(self):
        cache = TranslationCache()
        old = make_translation()
        new = make_translation()
        cache.insert(old)
        cache.insert(new)
        assert cache.lookup(0x1000) is new
        assert not old.valid
        assert len(cache) == 1

    def test_invalidate_page(self):
        cache = TranslationCache()
        a = make_translation(entry=0x1000)
        b = make_translation(entry=0x1100)
        c = make_translation(entry=0x2000 + PAGE_SIZE)
        for t in (a, b, c):
            cache.insert(t)
        victims = cache.invalidate_page(1)
        assert set(victims) == {a, b}
        assert cache.lookup(a.entry_eip) is None
        assert cache.lookup(c.entry_eip) is c

    def test_translations_overlapping(self):
        cache = TranslationCache()
        a = make_translation(entry=0x1000, length=32)
        b = make_translation(entry=0x1040, length=32)
        cache.insert(a)
        cache.insert(b)
        assert cache.translations_overlapping(0x1010, 4) == [a]
        hits = cache.translations_overlapping(0x1000, 0x100)
        assert set(hits) == {a, b}

    def test_capacity_collects(self):
        cache = TranslationCache(capacity_molecules=10)
        for i in range(4):
            cache.insert(make_translation(entry=0x1000 + i * 0x100,
                                          molecules=4))
        # Capacity pressure triggers eviction (or a flush fallback) and
        # the cache never exceeds its molecule budget.
        assert cache.evictions >= 1 or cache.flushes >= 1
        assert cache.total_molecules <= 10

    def test_remove_keeps_valid(self):
        cache = TranslationCache()
        t = make_translation()
        cache.insert(t)
        cache.remove(t)
        assert t.valid  # retired, not invalidated
        assert cache.lookup(0x1000) is None

    def test_total_molecules_accounting(self):
        cache = TranslationCache()
        t = make_translation(molecules=6)
        cache.insert(t)
        assert cache.total_molecules == 6
        cache.remove(t)
        assert cache.total_molecules == 0


class TestChaining:
    def test_chain_and_follow_pointer(self):
        cache = TranslationCache()
        a = make_translation(entry=0x1000)
        b = make_translation(entry=0x2000)
        cache.insert(a)
        cache.insert(b)
        cache.chain(a, a.exit_atoms[0], b)
        assert a.exit_atoms[0].chained_translation is b
        assert a.exit_atoms[0] in b.incoming_chains

    def test_unchain_on_target_invalidation(self):
        cache = TranslationCache()
        a = make_translation(entry=0x1000)
        b = make_translation(entry=0x2000)
        cache.insert(a)
        cache.insert(b)
        cache.chain(a, a.exit_atoms[0], b)
        cache.invalidate_translation(b)
        assert a.exit_atoms[0].chained_translation is None
        assert cache.unchains == 1

    def test_unchain_on_source_invalidation(self):
        cache = TranslationCache()
        a = make_translation(entry=0x1000)
        b = make_translation(entry=0x2000)
        cache.insert(a)
        cache.insert(b)
        cache.chain(a, a.exit_atoms[0], b)
        cache.invalidate_translation(a)
        assert a.exit_atoms[0] not in b.incoming_chains

    def test_chain_idempotent(self):
        cache = TranslationCache()
        a = make_translation(entry=0x1000)
        b = make_translation(entry=0x2000)
        cache.insert(a)
        cache.insert(b)
        cache.chain(a, a.exit_atoms[0], b)
        cache.chain(a, a.exit_atoms[0], b)
        assert b.incoming_chains.count(a.exit_atoms[0]) == 1

    def test_flush_unchains_everything(self):
        cache = TranslationCache()
        a = make_translation(entry=0x1000)
        b = make_translation(entry=0x2000)
        cache.insert(a)
        cache.insert(b)
        cache.chain(a, a.exit_atoms[0], b)
        cache.flush()
        assert not a.valid and not b.valid


class TestGroups:
    def test_retire_and_match(self):
        groups = TranslationGroups()
        v1 = make_translation(snapshot=b"\x01" * 32)
        v2 = make_translation(snapshot=b"\x02" * 32)
        groups.retire(v1)
        groups.retire(v2)
        hit = groups.match(0x1000, b"\x01" * 32)
        assert hit is v1
        # Popped on match: a second identical match misses.
        assert groups.match(0x1000, b"\x01" * 32) is None

    def test_match_current_reads_ranges(self):
        groups = TranslationGroups()
        v1 = make_translation(snapshot=b"\x01" * 32)
        groups.retire(v1)

        def reader(ranges):
            return b"\x01" * sum(length for _start, length in ranges)

        assert groups.match_current(0x1000, reader) is v1

    def test_match_current_misses_on_changed_bytes(self):
        groups = TranslationGroups()
        groups.retire(make_translation(snapshot=b"\x01" * 32))
        assert groups.match_current(
            0x1000, lambda ranges: b"\x02" * 32
        ) is None

    def test_capacity_evicts_oldest(self):
        groups = TranslationGroups(max_versions_per_group=2)
        v1 = make_translation(snapshot=b"\x01" * 32)
        v2 = make_translation(snapshot=b"\x02" * 32)
        v3 = make_translation(snapshot=b"\x03" * 32)
        for v in (v1, v2, v3):
            groups.retire(v)
        assert groups.versions(0x1000) == 2
        assert groups.match(0x1000, b"\x01" * 32) is None  # evicted
        assert groups.match(0x1000, b"\x03" * 32) is v3

    def test_same_bytes_replaces(self):
        groups = TranslationGroups()
        v1 = make_translation(snapshot=b"\x01" * 32)
        v1b = make_translation(snapshot=b"\x01" * 32)
        groups.retire(v1)
        groups.retire(v1b)
        assert groups.versions(0x1000) == 1
        assert groups.match(0x1000, b"\x01" * 32) is v1b

    def test_groups_keyed_by_entry(self):
        groups = TranslationGroups()
        a = make_translation(entry=0x1000, snapshot=b"\x01" * 32)
        b = make_translation(entry=0x2000, snapshot=b"\x01" * 32)
        groups.retire(a)
        groups.retire(b)
        assert groups.match(0x1000, b"\x01" * 32) is a
        assert groups.match(0x2000, b"\x01" * 32) is b


# A nested counted loop: the inner loop's translation gets hot enough
# for the template JIT to compile it.
HOT_NEST = """
        mov edi, 60
        mov eax, 0
        mov ebx, 0
        mov edx, 0
        mov ebp, 0
outer:  mov ecx, 50
inner:  add eax, 1
        add ebx, 3
        add edx, 5
        add ebp, 7
        xor eax, ebx
        sub ecx, 1
        jnz inner
        sub edi, 1
        jnz outer
        hlt
"""
HOT_NEST_CONFIG = CMSConfig(translation_threshold=4)


class TestFlushDropsParkedCallables:
    """Regression: ``tcache.flush()`` nulled ``host_code`` on resident
    translations but left compiled JIT callables alive on group-parked
    retired versions — a whole generation of generated functions kept
    reachable by the group table after the cache decided to drop
    everything."""

    def test_flush_drops_parked_host_code(self):
        system, _ = run_cms(HOT_NEST, HOT_NEST_CONFIG)
        loop = system.tcache.lookup(assemble(HOT_NEST).symbols["inner"])
        assert loop is not None
        assert loop.host_code is not None, "JIT should have compiled it"
        # Park it the way SMC version churn does: out of the cache,
        # into the group table, callable still attached.
        system.tcache.remove(loop)
        system.groups.retire(loop)
        assert loop.host_code is not None

        system.tcache.flush()

        parked = [t for versions in
                  system.groups.export_versions().values()
                  for t in versions]
        assert loop in parked, "flush must not drop the version itself"
        assert all(t.host_code is None for t in parked), \
            "flush left compiled callables on group-parked versions"

    def test_flush_drops_resident_host_code(self):
        system, _ = run_cms(HOT_NEST, HOT_NEST_CONFIG)
        residents = system.tcache.translations()
        assert any(t.host_code is not None for t in residents)
        system.tcache.flush()
        assert all(t.host_code is None for t in residents)

    def test_evicted_victims_lose_host_code(self):
        system, _ = run_cms(HOT_NEST, HOT_NEST_CONFIG)
        victims = system.tcache.evict_cold(fraction=1.0)
        assert victims
        assert all(t.host_code is None for t in victims)
