"""Self-modifying-code integration tests (paper §3.6).

Each test runs a guest program that modifies (or writes near) its own
code, asserts exact architectural equivalence with the reference
interpreter, and checks that the expected CMS adaptation mechanism
actually engaged.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro import CMSConfig

from conftest import assert_equivalent, run_both, run_cms

FAST = CMSConfig(translation_threshold=4, fault_threshold=2)


# A self-modifying kernel in the style the paper attributes to Doom and
# Adobe Premiere: the immediate field of an instruction inside an inner
# loop is patched just before entering that loop.
STYLIZED_SMC_PROGRAM = """
start:
    mov edi, 0            ; frame counter
    mov esi, 0            ; checksum
frame:
    mov eax, edi
    imul eax, 17
    add eax, 0x01010101
    mov ebx, patch_site + 2   ; the imm32 field of the add below
    store [ebx], eax          ; self-modifying write
    mov ecx, 0
inner:
patch_site:
    add esi, 0x11111111       ; immediate is rewritten every frame
    rol esi, 1
    inc ecx
    cmp ecx, 30
    jl inner
    inc edi
    cmp edi, 40
    jl frame
    cli
    hlt
"""


class TestStylizedSMC:
    def test_equivalence(self):
        both = assert_equivalent(STYLIZED_SMC_PROGRAM, config=FAST)
        stats = both.cms_system.stats
        assert stats.smc_invalidations >= 1
        assert stats.protection_faults >= 1

    def test_stylized_policy_adopted(self):
        both = assert_equivalent(STYLIZED_SMC_PROGRAM, config=FAST)
        controller = both.cms_system.controller
        stylized_entries = [
            entry for entry in controller._policies
            if controller.policy_for(entry).stylized_imm_addrs
        ]
        assert stylized_entries, "no region adopted stylized-SMC reloading"

    def test_stylized_translation_survives_patches(self):
        # Once stylized translations are in place, further patches must
        # not invalidate them: the hot loop stays in the tcache.
        both = assert_equivalent(STYLIZED_SMC_PROGRAM, config=FAST)
        stats = both.cms_system.stats
        # Far fewer translations than frames: the steady state reuses
        # the stylized translation across patches.
        assert stats.translations_made < 35

    def test_stylized_disabled_still_correct(self):
        config = replace(FAST, stylized_smc=False)
        assert_equivalent(STYLIZED_SMC_PROGRAM, config=config)


# Mixed code and data on one page: a loop that stores to a data word on
# the same page (different granule) as its own code — the Windows/9X
# driver pattern that fine-grain protection exists for (§3.6.1).
MIXED_PAGE_PROGRAM = """
.org 0x2000
start:
    mov ebx, scratch
    mov ecx, 0
    mov esi, 0
loop:
    mov eax, ecx
    imul eax, 3
    store [ebx], eax       ; data write onto the code page
    load edx, [ebx]
    add esi, edx
    inc ecx
    cmp ecx, 400
    jne loop
    cli
    hlt
.org 0x2800                 ; same page as the code, far granule
scratch:
    .word 0
"""


class TestFineGrainProtection:
    def test_equivalence_with_fine_grain(self):
        both = assert_equivalent(MIXED_PAGE_PROGRAM, config=FAST)
        protection = both.cms_system.protection
        # The data stores were allowed through after one miss service.
        assert protection.fg_allowed_stores > 100
        assert both.cms_system.stats.fg_miss_services >= 1

    def test_equivalence_without_fine_grain(self):
        config = replace(FAST, fine_grain_protection=False)
        assert_equivalent(MIXED_PAGE_PROGRAM, config=config)

    def test_fine_grain_reduces_faults(self):
        _, with_fg = run_cms(MIXED_PAGE_PROGRAM, config=FAST)
        system_fg, _ = run_cms(MIXED_PAGE_PROGRAM, config=FAST)
        system_nofg, _ = run_cms(
            MIXED_PAGE_PROGRAM,
            config=replace(FAST, fine_grain_protection=False),
        )
        faults_fg = system_fg.protection.protection_faults
        faults_nofg = system_nofg.protection.protection_faults
        assert faults_nofg > faults_fg * 2, (
            f"fine-grain should cut faults: {faults_fg} vs {faults_nofg}"
        )


# Data stored in the *same granule* as code: fine-grain protection alone
# cannot help (the granule legitimately contains code), so CMS escalates
# to a self-revalidating translation (§3.6.2).
SAME_GRANULE_PROGRAM = """
.org 0x2000
scratch:                    ; same 64-byte granule as the loop code below
    .word 0
.entry start
start:
    mov ebx, scratch
    mov edx, 0
    mov esi, 0
outer:
    mov ecx, 0
loop:
    store [ebx], ecx       ; store lands in the granule holding 'loop'
    load eax, [ebx]
    add esi, eax
    inc ecx
    cmp ecx, 60
    jne loop
    inc edx
    cmp edx, 20
    jne outer
    cli
    hlt
"""


class TestSelfRevalidation:
    def test_equivalence(self):
        both = assert_equivalent(SAME_GRANULE_PROGRAM, config=FAST)
        stats = both.cms_system.stats
        assert stats.protection_faults >= 1

    def test_revalidation_arms_and_passes(self):
        both = assert_equivalent(SAME_GRANULE_PROGRAM, config=FAST)
        stats = both.cms_system.stats
        assert stats.revalidations_armed >= 1
        assert stats.revalidations_passed >= 1

    def test_without_revalidation_still_correct(self):
        config = replace(FAST, self_revalidation=False)
        both = assert_equivalent(SAME_GRANULE_PROGRAM, config=config)
        assert both.cms_system.stats.revalidations_armed == 0

    def test_revalidation_cheaper_than_none(self):
        system_with, _ = run_cms(SAME_GRANULE_PROGRAM, config=FAST)
        system_without, _ = run_cms(
            SAME_GRANULE_PROGRAM,
            config=replace(FAST, self_revalidation=False),
        )
        cost_with = system_with.stats.total_molecules(FAST.cost)
        cost_without = system_without.stats.total_molecules(FAST.cost)
        assert cost_with < cost_without


# Patch-then-call in a hot loop: the patching store, the call, and the
# patched instruction all sit in one granule, so the trace that inlines
# the call contains both the store and the stale code.  Regression for
# the armed-prologue hole: arming a *running* translation's
# self-revalidation prologue drops protection mid-body, and a later
# store in the same body could rewrite code the body then executed
# stale — the prologue only re-verifies on the next entry.  The host
# CPU now detects the buffered self-write at the commit boundary.
PATCH_AND_CALL_PROGRAM = """
start:
    mov ebx, 0
    mov ecx, 120
    mov esi, 0
loop:
    mov eax, ecx
    imul eax, 40503
    xor eax, 0x5A5A5A5A
    store [ebx + patch_site + 2], eax  ; rewrite the add immediate
    call helper
    xor esi, eax
    rol esi, 7
    dec ecx
    jnz loop
    cli
    hlt
helper:
    mov eax, 100
patch_site:
    add eax, 0                         ; immediate patched per call
    ret
.align 16
side_data:
    .word 0                            ; data in the code granule
"""


class TestArmedBodySelfWrite:
    def test_equivalence(self):
        assert_equivalent(PATCH_AND_CALL_PROGRAM, config=FAST)

    def test_equivalence_default_config(self):
        assert_equivalent(PATCH_AND_CALL_PROGRAM, config=CMSConfig())

    def test_equivalence_without_stylized(self):
        assert_equivalent(PATCH_AND_CALL_PROGRAM,
                          config=replace(FAST, stylized_smc=False))


# BLT-driver-style version cycling (§3.6.5): the opcode byte of one
# instruction alternates between ADD (0x20) and XOR (0x24) register
# forms, producing two code versions that repeat.
GROUPS_PROGRAM = """
start:
    mov edi, 0
    mov esi, 1
frame:
    ; choose version: even frames ADD_RR (0x20), odd frames XOR_RR (0x24)
    mov eax, 0x20
    test edi, 1
    jz patch
    mov eax, 0x24
patch:
    mov ebx, mutating
    storeb [ebx], eax
    mov ecx, 0
inner:
mutating:
    add esi, edx          ; opcode byte is rewritten between versions
    rol esi, 1
    inc ecx
    cmp ecx, 25
    jl inner
    mov edx, esi
    and edx, 0xFF
    inc edi
    cmp edi, 30
    jl frame
    cli
    hlt
"""


class TestTranslationGroups:
    def test_equivalence(self):
        assert_equivalent(GROUPS_PROGRAM, config=FAST)

    def test_versions_reactivated(self):
        both = assert_equivalent(GROUPS_PROGRAM, config=FAST)
        system = both.cms_system
        assert system.groups.retired >= 2
        assert system.stats.group_reactivations >= 1

    def test_reactivation_avoids_retranslation(self):
        both_groups = run_both(GROUPS_PROGRAM, config=FAST)
        no_groups = replace(FAST, translation_groups=False)
        both_plain = run_both(GROUPS_PROGRAM, config=no_groups)
        assert (both_groups.cms_system.stats.translations_made
                < both_plain.cms_system.stats.translations_made)

    def test_groups_disabled_still_correct(self):
        assert_equivalent(GROUPS_PROGRAM,
                          config=replace(FAST, translation_groups=False))


class TestForcedSelfCheck:
    def test_equivalence_with_forced_self_check(self):
        config = replace(FAST, force_self_check=True)
        both = assert_equivalent("""
        start:
            mov ecx, 0
            mov esi, 0
        loop:
            add esi, ecx
            xor esi, 0x5A5A5A5A
            inc ecx
            cmp ecx, 300
            jne loop
            cli
            hlt
        """, config=config)
        for translation in both.cms_system.tcache.translations():
            assert translation.policy.self_check

    def test_self_check_costs_more_molecules(self):
        source = """
        start:
            mov ecx, 0
            mov esi, 0
        loop:
            add esi, ecx
            xor esi, 0x5A5A5A5A
            inc ecx
            cmp ecx, 2000
            jne loop
            cli
            hlt
        """
        plain_system, _ = run_cms(source, config=FAST)
        checked_system, _ = run_cms(
            source, config=replace(FAST, force_self_check=True)
        )
        assert (checked_system.stats.host_molecules
                > plain_system.stats.host_molecules)

    def test_self_check_catches_smc_on_unprotected_page(self):
        # With self-checking forced, pages are left unprotected; a code
        # patch must still be caught by the entry/back-edge check.
        config = replace(FAST, force_self_check=True)
        assert_equivalent(STYLIZED_SMC_PROGRAM, config=config)


class TestDMAInvalidation:
    def test_dma_rewrites_hot_code(self):
        # A hot routine is overwritten by a DMA transfer (modelling OS
        # paging, §3.6.1); after the DMA completes the guest re-runs the
        # routine and must see the new code.
        source = """
        start:
            mov esi, 0
            ; make 'routine' hot
            mov edi, 0
        warm:
            mov esp, 0x8000
            call routine
            inc edi
            cmp edi, 30
            jl warm
            ; stage replacement code at 'staging', then DMA it over
            ; 'routine' (replacement adds 7 instead of 3)
            mov eax, staging
            out 0x50            ; DMA source
            mov eax, routine
            out 0x51            ; DMA destination
            mov eax, routine_len
            out 0x52            ; DMA length
            mov eax, 1
            out 0x53            ; start
        wait:
            in 0x53
            test eax, eax
            jnz wait
            ; run the rewritten routine
            mov edi, 0
        rerun:
            call routine
            inc edi
            cmp edi, 30
            jl rerun
            cli
            hlt
        routine:
            add esi, 3
            ret
        routine_end:
        routine_len = routine_end - routine
        staging:
            add esi, 7
            ret
        """
        both = assert_equivalent(source, config=FAST)
        # esi = 30*3 + 30*7 = 300 in both engines (checked by snapshot);
        # the CMS run must have invalidated the stale translation.
        assert both.cms_system.state.get_reg(6) == 300
        assert both.cms_system.stats.smc_invalidations >= 1


class TestInterpreterStoreServicing:
    def test_interpreted_smc_invalidates_translations(self):
        # Keep the threshold high so the *patcher* stays interpreted
        # while the patched loop is translated.
        config = CMSConfig(translation_threshold=6, fault_threshold=2)
        assert_equivalent(STYLIZED_SMC_PROGRAM, config=config)


class TestInsertionMasks:
    """Inserting a translation only ORs its granules into the page
    masks; the masks are rebuilt only where a translation leaves.  That
    must leave every page of a new translation exactly as the auditor's
    rebuild from all resident translations would."""

    @staticmethod
    def _checked_run(monkeypatch, name: str, config: CMSConfig):
        from repro import CodeMorphingSystem
        from repro.workloads import get_workload

        checked = []

        def check(system, translation):
            for page in translation.pages():
                assert system.protection.page_mask(page) == \
                    system.auditor._expected_mask(page), hex(page)
            checked.append(translation)

        translate = CodeMorphingSystem._maybe_translate
        register = CodeMorphingSystem.register_loaded_translation

        def checked_translate(system, eip):
            translation = translate(system, eip)
            if translation is not None:
                check(system, translation)
            return translation

        def checked_register(system, translation):
            register(system, translation)
            check(system, translation)

        # Snapshot admission runs inside the constructor, so patch the
        # class rather than the instance.
        monkeypatch.setattr(CodeMorphingSystem, "_maybe_translate",
                            checked_translate)
        monkeypatch.setattr(CodeMorphingSystem,
                            "register_loaded_translation", checked_register)
        workload = get_workload(name)
        machine, entry = workload.build_machine()
        system = CodeMorphingSystem(machine, config)
        result = system.run(entry, max_instructions=workload.max_instructions)
        assert result.halted
        system.shutdown()  # saves the snapshot when configured
        return system, checked

    @pytest.mark.parametrize("name", ["quake_demo2", "dos_boot",
                                      "linux_boot"])
    def test_masks_exact_after_each_insertion(self, monkeypatch, name):
        _, checked = self._checked_run(monkeypatch, name, CMSConfig())
        assert len(checked) >= 5

    def test_masks_exact_after_each_snapshot_admission(self, monkeypatch,
                                                       tmp_path):
        config = CMSConfig(snapshot_path=str(tmp_path / "snap.json"),
                           snapshot_save=True)
        self._checked_run(monkeypatch, "quake_demo2", config)
        system, checked = self._checked_run(monkeypatch, "quake_demo2",
                                            config)
        assert system.stats.snapshot_translations_loaded > 0
        assert any(translation.imported for translation in checked)
