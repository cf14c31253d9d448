"""Golden equivalence tests: CMS must match the pure interpreter exactly
on deterministic workloads (identical console output, registers, flags,
and RAM), while actually exercising the translation path."""

from __future__ import annotations

import pytest

from repro import CMSConfig
from repro.machine import CONSOLE_MMIO_BASE

from conftest import assert_equivalent, run_both

FAST = CMSConfig(translation_threshold=4)


class TestArithmeticEquivalence:
    def test_counting_loop(self):
        both = assert_equivalent("""
        start:
            mov ecx, 0
        loop:
            inc ecx
            cmp ecx, 500
            jne loop
            cli
            hlt
        """, config=FAST)
        assert both.cms_system.stats.translations_made >= 1
        assert both.cms_system.stats.host_molecules > 0

    def test_nested_loops_with_flags(self):
        assert_equivalent("""
        start:
            mov esi, 0          ; checksum
            mov ecx, 0
        outer:
            mov edx, 0
        inner:
            mov eax, ecx
            imul eax, 13
            add eax, edx
            xor esi, eax
            rol esi, 3
            inc edx
            cmp edx, 20
            jl inner
            inc ecx
            cmp ecx, 20
            jl outer
            cli
            hlt
        """, config=FAST)

    def test_signed_unsigned_branches(self):
        assert_equivalent("""
        start:
            mov esi, 0
            mov ecx, 0xFFFFFF00
        loop:
            mov eax, ecx
            cmp eax, 0x100
            jb below
            ja above
            jmp next
        below:
            add esi, 1
            jmp next
        above:
            add esi, 0x10000
        next:
            inc ecx
            cmp ecx, 0x100
            jne loop
            cli
            hlt
        """, config=FAST)

    def test_adc_sbb_wide_arithmetic(self):
        assert_equivalent("""
        start:
            mov eax, 0xFFFFFFF0  ; low
            mov edx, 0x0         ; high
            mov ecx, 0
        loop:
            add eax, 7
            adc edx, 0
            inc ecx
            cmp ecx, 300
            jne loop
            cli
            hlt
        """, config=FAST)

    def test_division_loop(self):
        assert_equivalent("""
        start:
            mov esi, 1000000
            mov edi, 0
        loop:
            mov edx, 0
            mov eax, esi
            mov ecx, 7
            div ecx
            add edi, edx
            sub esi, 13
            cmp esi, 100
            jg loop
            cli
            hlt
        """, config=FAST)

    def test_shift_by_cl(self):
        assert_equivalent("""
        start:
            mov esi, 0
            mov ecx, 0
        loop:
            mov eax, 0x12345678
            shl eax, cl
            xor esi, eax
            mov ebx, 0x87654321
            shr ebx, cl
            add esi, ebx
            mov edx, 0x80000000
            sar edx, cl
            xor esi, edx
            inc ecx
            cmp ecx, 40
            jne loop
            cli
            hlt
        """, config=FAST)

    def test_parity_flag_consumers(self):
        assert_equivalent("""
        start:
            mov esi, 0
            mov ecx, 0
        loop:
            mov eax, ecx
            and eax, 0xFF
            jp even_par
            add esi, 1
            jmp next
        even_par:
            add esi, 0x100
        next:
            inc ecx
            cmp ecx, 256
            jne loop
            cli
            hlt
        """, config=FAST)


class TestMemoryEquivalence:
    def test_array_sum(self):
        assert_equivalent("""
        BUF = 0x4000
        start:
            mov ebx, BUF
            mov ecx, 0
        fill:
            mov eax, ecx
            imul eax, 3
            storex [ebx+ecx*4], eax
            inc ecx
            cmp ecx, 100
            jne fill
            mov ecx, 0
            mov esi, 0
        sum:
            loadx eax, [ebx+ecx*4]
            add esi, eax
            inc ecx
            cmp ecx, 100
            jne sum
            cli
            hlt
        """, config=FAST)

    def test_byte_string_copy(self):
        assert_equivalent("""
        SRC = 0x4000
        DST = 0x5000
        start:
            ; write a pattern
            mov ecx, 0
            mov ebx, SRC
        init:
            mov eax, ecx
            imul eax, 7
            storebx [ebx+ecx*1], eax
            inc ecx
            cmp ecx, 256
            jne init
            ; copy bytes
            mov ecx, 0
            mov edx, DST
        copy:
            loadbx eax, [ebx+ecx*1]
            storebx [edx+ecx*1], eax
            inc ecx
            cmp ecx, 256
            jne copy
            cli
            hlt
        """, config=FAST)

    def test_pointer_chase(self):
        assert_equivalent("""
        NODES = 0x4000
        start:
            ; build a linked list of 64 nodes: [next, value]
            mov ecx, 0
            mov ebx, NODES
        build:
            mov eax, ecx
            inc eax
            imul eax, 8
            add eax, NODES      ; next pointer
            storex [ebx+ecx*8], eax
            mov eax, ecx
            imul eax, ecx
            lea edx, [ebx+8]
            storex [edx+ecx*8], eax   ; value at offset +8? no: +4
            inc ecx
            cmp ecx, 64
            jne build
            ; walk it
            mov esi, 0
            mov eax, NODES
            mov ecx, 0
        walk:
            load edx, [eax]
            mov eax, edx
            inc ecx
            cmp ecx, 63
            jne walk
            cli
            hlt
        """, config=FAST)

    def test_store_load_same_address_in_loop(self):
        # Exercises store-to-load forwarding through the gated buffer.
        assert_equivalent("""
        CELL = 0x4000
        start:
            mov ebx, CELL
            mov ecx, 0
        loop:
            load eax, [ebx]
            add eax, 3
            store [ebx], eax
            load edx, [ebx]     ; must observe the buffered store
            add esi, edx
            inc ecx
            cmp ecx, 200
            jne loop
            cli
            hlt
        """, config=FAST)

    def test_overlapping_loads_stores_alias_pressure(self):
        # Loads and stores through two registers that alias the same
        # buffer — designed so the scheduler's speculation is wrong some
        # of the time and the alias hardware must catch it.
        assert_equivalent("""
        BUF = 0x4000
        start:
            mov ebx, BUF
            mov edx, BUF        ; edx aliases ebx exactly
            mov ecx, 0
        loop:
            store [ebx+4], ecx
            load eax, [edx+4]   ; overlaps the store above
            add esi, eax
            store [ebx+8], eax
            load edi, [edx+8]
            add esi, edi
            inc ecx
            cmp ecx, 300
            jne loop
            cli
            hlt
        """, config=FAST)

    def test_stack_heavy_calls(self):
        assert_equivalent("""
        start:
            mov esp, 0x8000
            mov esi, 0
            mov ecx, 0
        loop:
            push ecx
            call double_it
            pop ecx
            add esi, eax
            inc ecx
            cmp ecx, 100
            jne loop
            cli
            hlt
        double_it:
            load eax, [esp+4]    ; argument
            add eax, eax
            ret
        """, config=FAST)


class TestMMIOEquivalence:
    def test_console_port_output(self):
        both = assert_equivalent("""
        start:
            mov ebx, msg
        next:
            loadb eax, [ebx]
            test eax, eax
            jz done
            out 0xE9
            inc ebx
            jmp next
        done:
            cli
            hlt
        msg:
            .asciz "hello from the translation cache! 0123456789"
        """, config=FAST)
        assert "translation cache" in both.cms_result.console_output

    def test_console_mmio_stores_in_hot_loop(self):
        both = assert_equivalent(f"""
        start:
            mov ebx, {CONSOLE_MMIO_BASE}
            mov ecx, 0
        loop:
            mov eax, ecx
            and eax, 0x3F
            add eax, 0x20
            storeb [ebx], eax   ; memory-mapped I/O in a hot loop
            inc ecx
            cmp ecx, 400
            jne loop
            cli
            hlt
        """, config=FAST)
        stats = both.cms_system.stats
        # Either the profile pre-learned the MMIO site, or a speculation
        # fault taught CMS about it; either way output must match and
        # the loop must still end up translated.
        assert both.cms_system.stats.translations_made >= 1
        assert len(both.cms_result.console_output) == 400

    def test_mixed_ram_and_mmio_same_instruction(self):
        # One instruction alternates between RAM and MMIO targets: the
        # hardest case of §3.4 ("a given x86 instruction can access both
        # regular memory and I/O space over the course of execution").
        assert_equivalent(f"""
        RAMBUF = 0x4000
        start:
            mov ecx, 0
        loop:
            mov ebx, RAMBUF
            test ecx, 1
            jz use_ram
            mov ebx, {CONSOLE_MMIO_BASE}
        use_ram:
            mov eax, 0x41
            storeb [ebx], eax    ; RAM on even, MMIO on odd iterations
            inc ecx
            cmp ecx, 100
            jne loop
            cli
            hlt
        """, config=FAST)


class TestExceptionEquivalence:
    def test_genuine_divide_fault_in_hot_loop(self):
        # The divisor becomes zero late, after the loop is translated:
        # the translation takes a guest fault, rolls back, and the
        # interpreter must deliver #DE precisely.
        assert_equivalent("""
        .org 0
        .word handler
        .org 0x1000
        start:
            mov esp, 0x8000
            mov esi, 0
            mov ecx, 200
        loop:
            mov edx, 0
            mov eax, 10000
            div ecx             ; faults when ecx reaches 0
            add esi, eax
            dec ecx
            jmp loop
        handler:
            ; reached with #DE when ecx == 0
            mov edi, 0xFA17
            cli
            hlt
        """, config=FAST)

    def test_page_fault_recovery_precise(self):
        assert_equivalent("""
        PT = 0x100000
        .org 14*4
        .word pf_handler
        .org 0x1000
        start:
            mov esp, 0x8000
            ; identity-map the first 64 pages
            mov ebx, PT
            mov ecx, 0
        build:
            mov eax, ecx
            shl eax, 12
            or eax, 3
            storex [ebx+ecx*4], eax
            inc ecx
            cmp ecx, 64
            jne build
            mov eax, PT
            setpt eax
            pgon
            ; hot loop reading mapped memory, then one unmapped access
            mov esi, 0
            mov ecx, 0
            mov ebx, 0x4000
        loop:
            load eax, [ebx]
            add esi, eax
            inc ecx
            cmp ecx, 150
            jne loop
            mov ebx, 0x50000      ; VPN 80: unmapped -> #PF
            load eax, [ebx]
        pf_handler:
            pgoff
            pop edi               ; error code
            mov edx, 0xFEED
            cli
            hlt
        """, config=FAST)

    def test_int3_breakpoint_flow(self):
        assert_equivalent("""
        .org 3*4
        .word handler
        .org 0x1000
        start:
            mov esp, 0x8000
            mov ecx, 0
        loop:
            inc ecx
            cmp ecx, 50
            jne loop
            int 3
        after:
            mov ebx, 2
            cli
            hlt
        handler:
            mov edi, 0xB9
            iret
        """, config=FAST)

    # A store the bus rejects with #GP must fault when it executes, not
    # when its commit drains the store buffer: by then the commit has
    # published the window's registers.

    def test_store_past_end_of_ram_faults_before_commit(self):
        # The inner loop is translated while it stays below the 4 MiB
        # top of RAM; the last pass walks its store off the end.
        both = assert_equivalent("""
        .org 13*4
        .word gp_handler
        .org 0x1000
        start:
            mov esp, 0x8000
            mov ecx, 0
            mov esi, 0
            mov edi, 0
            mov edx, 0x400000
        outer:
            mov ebx, 0x3FFF00
        inner:
            store [ebx], ecx
            add ebx, 4
            add esi, ecx
            inc ecx
            cmp ebx, edx
            jne inner
            inc edi
            cmp edi, 30
            jl outer
            mov edx, 0x400100
            jmp outer
        gp_handler:
            cli
            hlt
        """)
        assert both.ref_system.interpreter.exceptions_delivered == 1
        assert both.cms_system.stats.faults["GUEST_FAULT"] >= 1
        assert both.cms_system.stats.contained_errors == 0

    def test_io_store_into_unmapped_gap_faults_before_commit(self):
        # A console-MMIO store site, fenced and translated, later
        # straddles the unmapped gap below the timer window: its first
        # byte hits nothing, so the bus raises #GP.
        both = assert_equivalent("""
        .org 13*4
        .word gp_handler
        .org 0x1000
        start:
            mov esp, 0x8000
            mov ecx, 0
            mov esi, 0
            mov ebx, 0xFFF00000
        loop:
            store [ebx], ecx
            add esi, ecx
            inc ecx
            cmp ecx, 200
            jne loop
            mov ebx, 0xFFF0FFFE
            jmp loop
        gp_handler:
            cli
            hlt
        """, max_instructions=50_000)
        assert both.ref_system.interpreter.exceptions_delivered == 1
        assert both.cms_system.stats.faults["GUEST_FAULT"] >= 1
        assert both.cms_system.stats.contained_errors == 0


class TestChainingAndCache:
    def test_call_heavy_code_with_indirect_exits(self):
        both = assert_equivalent("""
        start:
            mov esp, 0x8000
            mov esi, 0
            mov ecx, 0
        outer:
            call work_a
            call work_b
            inc ecx
            cmp ecx, 120
            jne outer
            cli
            hlt
        work_a:
            add esi, 3
            ret
        work_b:
            xor esi, 0x55
            ret
        """, config=FAST)
        assert both.cms_system.stats.translations_made >= 1

    def test_chaining_between_hot_regions(self):
        # Two loop regions connected by static branches: the side exit
        # of region A gets chained directly to region B's translation.
        both = assert_equivalent("""
        start:
            mov esi, 0
            mov edi, 30
        again:
            mov ecx, 0
        loop_a:
            add esi, 1
            inc ecx
            cmp ecx, 40
            jl loop_a
            mov edx, 0
        loop_b:
            xor esi, edx
            inc edx
            cmp edx, 40
            jl loop_b
            dec edi
            jnz again
            cli
            hlt
        """, config=FAST)
        stats = both.cms_system.stats
        assert stats.chain_patches >= 1
        assert stats.chains_followed >= 1

    def test_tcache_flush_on_capacity(self):
        from dataclasses import replace

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
            inc ecx
            cmp ecx, 200
            jne outer
            cli
            hlt
        f1:
            add esi, 1
            ret
        f2:
            add esi, 2
            ret
        f3:
            add esi, 3
            ret
        """, config=config)
        tcache = both.cms_system.tcache
        assert tcache.evictions >= 1 or tcache.flushes >= 1
