"""Paging coherency: translated code vs a live guest MMU (§3.2, §3.6.1).

Pins the MMU-related fixes plus the precise-exception contract:

* stale translated code must not survive a page-table remap — neither
  via dispatch (a translation whose pages are no longer identity-
  mapped) nor via a chain patched before the remap,
* a write-protect #PF raised mid-translation must roll back and
  re-deliver in the interpreter at the exact faulting instruction,
* a translated store into the live page table must abort the region
  (store-buffer contents are invisible to the MMU's table walker), and
  a recurring one is pinned to the interpreter,
* region selection reads only identity-mapped code, so a region ends
  at the first page that is not, instead of being built and discarded,
* CMS-internal mapping probes, translator fetches, and rolled-back
  translated accesses must never perturb the architectural
  ``translations``/``faults`` counters.
"""

from __future__ import annotations

from repro import CMSConfig
from repro.cms.system import CodeMorphingSystem
from repro.isa.assembler import assemble
from repro.machine import Machine
from repro.memory.mmu import PTE_PRESENT, PTE_WRITABLE
from repro.memory.physical import PAGE_SIZE

from conftest import assert_equivalent, run_cms

FAST = CMSConfig(translation_threshold=4, fault_threshold=2)

# Identity page table over all 1024 frames at 0x00200000, then paging
# on.  EBX is left pointing at the table.
_PAGING_ON = """
    mov ebx, 0x00200000
    mov ecx, 0
ptbuild:
    mov eax, ecx
    shl eax, 12
    or eax, 3
    storex [ebx + ecx*4], eax
    inc ecx
    cmp ecx, 1024
    jne ptbuild
    mov eax, 0x00200000
    setpt eax
    pgon
"""

# A hot routine whose head (page 0x302) falls through a `jmp` into a
# tail on the next page (0x303).  Once both sides are translated and
# chained, remapping the tail page to an alternate frame must force the
# next call through the new mapping — a stale tail translation (or a
# stale chain into it) folds 0x2222 where the interpreter folds 0x4444.
STALE_TAIL_PROGRAM = """
.org 0x00010000
start:
    mov esp, 0x0007F000
    mov esi, 0
""" + _PAGING_ON + """
    mov edi, 0
hot:
    call span
    add esi, eax
    inc edi
    cmp edi, 16
    jne hot
    storei [ebx + 0xC0C], 0x00304003    ; vpn 0x303 -> alt frame 0x304
    call span
    add esi, eax
    storei [ebx + 0xC0C], 0x00303003    ; back to identity
    call span
    add esi, eax
    pgoff
    cli
    hlt

.org 0x00302FF0
span:
    mov eax, 0x1111
    jmp span_tail

.org 0x00303000
span_tail:
    add eax, 0x2222
    ret

.org 0x00304000
span_alt:
    add eax, 0x4444
    ret
"""

# A hot store loop sharing its page (0x60) with its data cell.  After a
# warm-up that gets it translated, the main program clears the PTE's
# writable bit and calls it once more: the store must deliver a precise
# #PF — the handler records the pushed EIP and restores the bit.
WP_FLIP_PROGRAM = """
.org 0x00010000
start:
    mov esp, 0x0007F000
    mov ecx, 0
    storei [ecx + 56], isr_pf           ; IVT vector 14
    storei [ecx + expected], wp_store
""" + _PAGING_ON + """
    mov esi, 0
    mov edi, 0
warm:
    call wp_fn
    inc edi
    cmp edi, 6
    jne warm
    load eax, [ebx + 0x180]             ; PTE of vpn 0x60
    and eax, 0xFFFFFFFD                 ; clear writable
    store [ebx + 0x180], eax
    call wp_fn                          ; store faults mid-translation
    pgoff
    mov ecx, 0
    load eax, [ecx + wp_cell]
    add esi, eax
    load eax, [ecx + fault_eip]
    add esi, eax
    cli
    hlt

isr_pf:
    push eax
    push ecx
    load eax, [esp + 12]                ; pushed (faulting) EIP
    mov ecx, 0
    store [ecx + fault_eip], eax
    load eax, [ecx + 0x200180]
    or eax, 2                           ; restore writable
    store [ecx + 0x200180], eax
    pop ecx
    pop eax
    add esp, 4                          ; drop the error code
    iret

.org 0x00060000
wp_fn:
    mov ecx, 3
    mov edx, 0
wp_loop:
    load eax, [edx + wp_cell]
    imul eax, 5
    add eax, 0x777
wp_store:
    store [edx + wp_cell], eax
    dec ecx
    jnz wp_loop
    ret
.align 16
wp_cell:
    .word 0x1234

.org 0x00100000
fault_eip:
    .word 0
expected:
    .word 0
"""

# A hot loop whose store reaches the live page table only after the
# loop is translated: the first call stores to a data word, the second
# rewrites the PTE of vpn 0x3FF with its current value.  The interpreter
# never saw the site touch the table, so the translated store must trip
# the MMU_MUTATION interlock (abort, re-execute in the interpreter)
# until the controller pins the site to the interpreter.
PT_STORE_PROGRAM = """
.org 0x00010000
start:
    mov esp, 0x0007F000
    mov esi, 0
""" + _PAGING_ON + """
    mov edx, 0x00100000                 ; a data word, not the table
    mov eax, 0x12345
    call mutate
    mov edx, 0x00200FFC                 ; PTE of vpn 0x3FF
    mov eax, 0x003FF003                 ; its current value
    call mutate
    pgoff
    cli
    hlt

mutate:
    mov edi, 0
mutloop:
    add esi, 7
pt_store:
    store [edx], eax
    rol esi, 3
    inc edi
    cmp edi, 24
    jne mutloop
    ret
"""

# Code on identity page 0x5F that reaches vpn 0x60 (mapped to frame
# 0x70) by a call, and vpn 0x61 (not present) by a jump, under
# make_paged_system's page table.
NON_IDENTITY_CODE = """
.org 0x0005F000
caller:
    mov eax, 1
    add eax, 2
    call 0x00060000
    add eax, 3
    ret
.org 0x0005F100
jumper:
    mov eax, 4
    jmp 0x00061000
"""


def _ram32(machine: Machine, addr: int) -> int:
    return machine.ram.read32(addr)


class TestStaleCodeAfterRemap:
    def test_remapped_tail_is_refetched(self):
        both = assert_equivalent(STALE_TAIL_PROGRAM, config=FAST)
        stats = both.cms_system.stats
        assert stats.translations_made > 0
        # The hazard was armed: the head had really chained into the
        # tail, and the remap severed those chains (§3.6.1).
        assert stats.chains_followed > 0
        assert stats.mapping_unchains > 0
        # The folded value proves the alternate tail actually ran:
        # 16 * (0x1111 + 0x2222) + (0x1111 + 0x4444) + (0x1111 + 0x2222)
        expected = 16 * 0x3333 + 0x5555 + 0x3333
        regs, _, _ = both.cms_system.state.snapshot()
        assert regs[6] == expected  # ESI

    def test_remap_while_cold_is_also_correct(self):
        # Interpreter-threshold run: no translations, same result —
        # the reference semantics the translated path must match.
        system, result = run_cms(STALE_TAIL_PROGRAM,
                                 config=FAST.interpreter_only())
        assert result.halted
        assert system.stats.translations_made == 0


class TestPreciseWriteProtectFault:
    def test_pf_delivers_at_exact_faulting_instruction(self):
        both = assert_equivalent(WP_FLIP_PROGRAM, config=FAST)
        # Exactly one #PF in each leg — speculative rollback must not
        # double-deliver.
        assert both.ref_system.interpreter.exceptions_delivered == 1
        assert both.cms_system.interpreter.exceptions_delivered == 1
        # The fault really was taken out of translated code ...
        stats = both.cms_system.stats
        assert stats.faults.get("GUEST_FAULT", 0) >= 1
        assert stats.rollbacks >= 1
        # ... and the handler saw the exact faulting store's address.
        machine = both.cms_machine
        assert _ram32(machine, 0x00100000) == _ram32(machine, 0x00100004)
        assert _ram32(machine, 0x00100000) != 0


class TestLivePageTableStores:
    def test_translated_pt_store_aborts_and_reexecutes(self):
        both = assert_equivalent(PT_STORE_PROGRAM, config=FAST)
        system = both.cms_system
        stats = system.stats
        symbols = assemble(PT_STORE_PROGRAM).symbols
        site, loop = symbols["pt_store"], symbols["mutloop"]
        # The translated store into the table aborted and re-executed
        # in the interpreter ...
        assert stats.faults.get("MMU_MUTATION", 0) > 0
        assert stats.rollbacks > 0
        # ... until the recurring site was pinned to the interpreter;
        # the remaining iterations of the second call took no interlock.
        assert site in system.controller.policy_for(loop).stop_addrs
        assert stats.faults["MMU_MUTATION"] == FAST.fault_threshold
        # The loop still runs translated, up to the store.
        translation = system.tcache.lookup(loop)
        assert translation is not None
        assert all(not start <= site < start + length
                   for start, length in translation.code_ranges)


def make_paged_system(source: str = "start:\n    cli\n    hlt\n"
                      ) -> CodeMorphingSystem:
    machine = Machine()
    machine.load_source(source)
    pt_base = 0x00200000
    for vpn in range(1024):
        machine.ram.write32(pt_base + vpn * 4,
                            (vpn << 12) | PTE_PRESENT | PTE_WRITABLE)
    # vpn 0x60 non-identity, vpn 0x61 not present.
    machine.ram.write32(pt_base + 0x60 * 4,
                        (0x70 << 12) | PTE_PRESENT)
    machine.ram.write32(pt_base + 0x61 * 4, 0)
    machine.mmu.set_page_table(pt_base)
    machine.mmu.enable_paging()
    return CodeMorphingSystem(machine, FAST)


class TestProbePurity:
    def test_identity_mapped_check_is_non_counting(self):
        system = make_paged_system()
        mmu = system.machine.mmu
        before = (mmu.translations, mmu.faults)
        for _ in range(5):
            assert system._identity_mapped(0x10000)  # identity
            assert not system._identity_mapped(0x60 * PAGE_SIZE)
            assert not system._identity_mapped(0x61 * PAGE_SIZE)
        assert (mmu.translations, mmu.faults) == before
        assert mmu.probes == 15

    def test_translator_fetch_is_non_counting(self):
        # Region selection fetches code through the host-side probe:
        # regions reaching the non-identity and the unmapped page leave
        # the guest's MMU counters alone.
        system = make_paged_system(NON_IDENTITY_CODE)
        mmu = system.machine.mmu
        before = (mmu.translations, mmu.faults)
        for entry in (0x5F000, 0x5F100):
            policy = system.controller.policy_for(entry)
            assert system.translator.translate(entry, policy) is not None
        assert (mmu.translations, mmu.faults) == before

    def test_oracle_leg_fault_counter_parity(self):
        # Runner-level pin: every MMU fault counted is a #PF the
        # interpreter delivers, so the architectural fault counter must
        # exactly equal delivered exceptions — in the interpreter-only
        # leg, and in the CMS leg, where a #PF out of translated code is
        # rolled back and counted only when the interpreter re-raises
        # it.  Counting CMS-side probes, translator fetches or
        # rolled-back accesses breaks this equality.
        from repro.scenarios.matrix import get
        from repro.scenarios.runner import _build_machine

        # 9k is the smallest budget whose CMS leg takes #PFs out of
        # translated code.
        prog = get("paging").build(9_000, 3)
        machine, entry = _build_machine(prog, 3)
        oracle = CodeMorphingSystem(machine,
                                    CMSConfig().interpreter_only())
        oracle.run(entry, max_instructions=prog.max_instructions)
        delivered = oracle.interpreter.exceptions_delivered
        assert delivered > 0
        assert machine.mmu.faults == delivered
        assert machine.mmu.probes > 0  # the dispatcher really probed

        machine, entry = _build_machine(prog, 3)
        cms = CodeMorphingSystem(machine, CMSConfig())
        cms.run(entry, max_instructions=prog.max_instructions)
        # Translated code really took #PFs.
        assert cms.stats.faults.get("GUEST_FAULT", 0) > 0
        assert cms.interpreter.exceptions_delivered == delivered
        assert machine.mmu.faults == delivered


class TestIdentityRegionSelection:
    def test_call_into_non_identity_page_ends_region(self):
        system = make_paged_system(NON_IDENTITY_CODE)
        entry = 0x5F000
        system.profile.anchor_counts[entry] = \
            system.config.translation_threshold - 1
        translation = system._maybe_translate(entry)
        # Admitted, not built and discarded: the region ends at the
        # call, whose target page does not map to itself.
        assert translation is not None
        assert system.tcache.lookup(entry) is translation
        assert translation.pages() == {0x5F}
        assert translation.guest_instr_count == 3
        assert system._translation_mapped(translation)

    def test_profiled_page_table_store_never_reaches_translate(self):
        system = make_paged_system(NON_IDENTITY_CODE)
        entry = 0x5F000
        system.profile.on_pt_store(entry)
        system.profile.anchor_counts[entry] = \
            system.config.translation_threshold
        calls = []
        system.translator.translate = \
            lambda *args, **kwargs: calls.append(args)
        assert system._maybe_translate(entry) is None
        assert calls == []
