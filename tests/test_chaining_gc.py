"""Tests for indirect-exit inline caching and generational tcache GC."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro import CMSConfig, CodeMorphingSystem, Machine
from repro.cache.tcache import TranslationCache
from repro.isa.assembler import assemble

from conftest import assert_equivalent, run_cms
from test_tcache import make_translation

FAST = CMSConfig(translation_threshold=4)

# A call-heavy program: every call/ret is an indirect exit, so inline
# caches are the only way these regions chain.
CALL_HEAVY = """
start:
    mov esp, 0x8000
    mov esi, 0
    mov ecx, 0
outer:
    call work_a
    call work_b
    inc ecx
    cmp ecx, 150
    jne outer
    cli
    hlt
work_a:
    add esi, 3
    rol esi, 1
    ret
work_b:
    xor esi, 0x5A
    add esi, 0x9E3779B9
    ret
"""

# A dispatch table through an indirect jump: the inline cache must cope
# with a *changing* target (monomorphic cache misses and retargets).
POLYMORPHIC = """
start:
    mov esp, 0x8000
    mov esi, 0
    mov ecx, 0
disp:
    mov eax, ecx
    and eax, 1
    loadx eax, [ebx+eax*4+table]
    jmp eax
h0:
    add esi, 1
    jmp next
h1:
    xor esi, 0x77
    rol esi, 3
next:
    inc ecx
    cmp ecx, 200
    jne disp
    cli
    hlt
table:
    .word h0, h1
"""


class TestIndirectChaining:
    def test_call_heavy_equivalence_and_chaining(self):
        both = assert_equivalent(CALL_HEAVY, config=FAST)
        stats = both.cms_system.stats
        assert stats.indirect_chains >= 1, "no inline caches installed"
        assert stats.chains_followed >= 50, (
            f"indirect chains barely followed: {stats.chains_followed}"
        )

    def test_polymorphic_target_still_correct(self):
        both = assert_equivalent(POLYMORPHIC, config=FAST)
        stats = both.cms_system.stats
        # The cache keeps retargeting between h0 and h1: installs pile
        # up, and execution stays correct throughout.
        assert stats.indirect_chains >= 2

    def test_inline_cache_guard_blocks_wrong_target(self):
        # Under alternating targets, every chained follow must still
        # reach the architecturally correct handler; equivalence above
        # proves it, and here the dispatcher stats show both handlers
        # were entered many times.
        system, _result = run_cms(POLYMORPHIC, config=FAST)
        entries = {t.entry_eip: t.entries
                   for t in system.tcache.translations()}
        hot = [count for count in entries.values() if count > 10]
        assert len(hot) >= 2, "both handlers should run hot"

    def test_chain_dispatch_reduction(self):
        # With inline caches, dispatcher round-trips drop.
        system, _ = run_cms(CALL_HEAVY, config=FAST)
        stats = system.stats
        assert stats.chains_followed > stats.dispatches * 0.5


# Two straight-line regions split by a two-instruction region cap: the
# dispatcher enters ``head``, whose exit chains into ``tail``; ``tail``
# exits to the interpreter-only ``cli``, so back to the dispatcher.
CHAIN_PAIR = """
start:
    mov esi, 0
head:
    add esi, 1
    add esi, 2
tail:
    add esi, 4
    cli
    hlt
"""


class TestEntryAccounting:
    def test_dispatched_and_chained_translations_count_once(self):
        config = replace(FAST, translation_threshold=1,
                         max_region_instructions=2)
        program = assemble(CHAIN_PAIR)
        machine = Machine()
        machine.load_program(program)
        system = CodeMorphingSystem(machine, config)
        head_eip = program.symbols["head"]
        head = system._maybe_translate(head_eip)
        tail = system._maybe_translate(program.symbols["tail"])
        assert head is not None and tail is not None

        def dispatch():
            system.state.eip = head_eip
            system._dispatch_inner()

        dispatch()  # head exits to tail, and that exit gets chained
        head.entries = tail.entries = 0
        runs = 5
        for _ in range(runs):
            dispatch()
        assert system.stats.chains_followed == runs
        # One entry each per run: the dispatcher's into head, the
        # chain's into tail.
        assert (head.entries, tail.entries) == (runs, runs)


class TestGenerationalGC:
    def test_evict_cold_keeps_hot(self):
        cache = TranslationCache(capacity_molecules=20)
        hot = make_translation(entry=0x1000, molecules=8)
        hot.entries = 100
        cold = make_translation(entry=0x2000, molecules=8)
        cold.entries = 1
        cache.insert(hot)
        cache.insert(cold)
        # Next insert exceeds capacity: the cold one is evicted.
        third = make_translation(entry=0x3000, molecules=8)
        cache.insert(third)
        assert cache.lookup(0x1000) is hot
        assert cache.lookup(0x2000) is None
        assert cache.lookup(0x3000) is third
        assert cache.evictions >= 1
        assert cache.flushes == 0

    def test_on_evict_callback(self):
        cache = TranslationCache(capacity_molecules=20)
        victims_seen = []
        cache.on_evict = victims_seen.extend
        a = make_translation(entry=0x1000, molecules=8)
        b = make_translation(entry=0x2000, molecules=8)
        cache.insert(a)
        cache.insert(b)
        cache.insert(make_translation(entry=0x3000, molecules=8))
        assert victims_seen

    def test_oversized_translation_falls_back_to_flush(self):
        cache = TranslationCache(capacity_molecules=10)
        cache.insert(make_translation(entry=0x1000, molecules=8))
        cache.insert(make_translation(entry=0x2000, molecules=9))
        assert cache.flushes >= 0  # eviction may suffice
        assert cache.lookup(0x2000) is not None

    def test_eviction_unchains(self):
        cache = TranslationCache(capacity_molecules=24)
        hot = make_translation(entry=0x1000, molecules=8)
        hot.entries = 50
        cold = make_translation(entry=0x2000, molecules=8)
        cache.insert(hot)
        cache.insert(cold)
        cache.chain(hot, hot.exit_atoms[0], cold)
        cache.insert(make_translation(entry=0x3000, molecules=10))
        if cache.lookup(0x2000) is None:  # cold was evicted
            assert hot.exit_atoms[0].chained_translation is None

    def test_system_equivalence_under_gc_pressure(self):
        config = replace(FAST, tcache_capacity_molecules=40)
        both = assert_equivalent("""
        start:
            mov esp, 0x8000
            mov esi, 0
            mov ecx, 0
        outer:
            call f1
            call f2
            call f3
            call f4
            inc ecx
            cmp ecx, 180
            jne outer
            cli
            hlt
        f1:
            add esi, 1
            ret
        f2:
            xor esi, 0x3C
            ret
        f3:
            rol esi, 2
            ret
        f4:
            add esi, 0x9E3779B9
            ret
        """, config=config)
        tcache = both.cms_system.tcache
        assert tcache.evictions >= 1 or tcache.flushes >= 1
