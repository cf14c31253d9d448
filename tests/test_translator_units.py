"""Unit tests for the translator pipeline stages."""

from __future__ import annotations

import copy
import pickle

import pytest

from repro.host.atoms import AtomKind
from repro.host.registers import R_EIP, R_FLAG_BASE
from repro.interp.profile import ExecutionProfile
from repro.machine import Machine
from repro.translator.codegen import CodeGenerator
from repro.translator.frontend import Frontend
from repro.translator.ir import (GuestEip, GuestFlag, GuestReg, IROpKind,
                                 Temp)
from repro.translator.optimize import optimize
from repro.translator.policies import TranslationPolicy
from repro.translator.region import Region, RegionEnd, RegionSelector
from repro.translator.schedule import Scheduler
from repro.translator.translator import Translator


def build_machine(source: str) -> tuple[Machine, int]:
    machine = Machine()
    entry = machine.load_source(source)
    return machine, entry


def select(source: str, policy: TranslationPolicy | None = None,
           profile: ExecutionProfile | None = None) -> Region:
    machine, entry = build_machine(source)
    selector = RegionSelector(machine, profile or ExecutionProfile())
    region = selector.select(entry, policy or TranslationPolicy())
    assert region is not None
    return region


def lower(source: str, policy: TranslationPolicy | None = None):
    policy = policy or TranslationPolicy()
    region = select(source, policy)
    trace = Frontend(policy).lower(region)
    return region, trace


class TestOperands:
    def test_operands_are_interned_and_kinds_stay_distinct(self):
        assert Temp(3) is Temp(3) and GuestReg(3) is GuestReg(3)
        assert GuestFlag(2) is GuestFlag(2) and GuestEip() is GuestEip()
        assert Temp(3) != GuestReg(3) != GuestFlag(3)
        assert len({Temp(3), GuestReg(3), GuestFlag(3)}) == 3
        assert Temp(3).index == GuestReg(3).index == GuestReg(3).host_reg
        assert GuestFlag(2).slot == 2
        assert GuestFlag(2).host_reg == R_FLAG_BASE + 2
        assert GuestEip().host_reg == R_EIP

    def test_operands_are_immutable_and_copies_stay_interned(self):
        with pytest.raises(AttributeError):
            Temp(1).index = 2
        assert pickle.loads(pickle.dumps(GuestFlag(4))) is GuestFlag(4)
        assert copy.deepcopy((Temp(9), GuestEip())) == (Temp(9), GuestEip())
        assert copy.deepcopy(Temp(9)) is Temp(9)


class TestRegionSelection:
    def test_straight_line_ends_at_hlt(self):
        region = select("start: mov eax, 1\nadd eax, 2\ncli\nhlt\n")
        assert len(region.instrs) == 2
        assert region.end is RegionEnd.CONT

    def test_loop_detected(self):
        region = select("""
        start:
            inc eax
            cmp eax, 10
            jne start
            cli
            hlt
        """)
        assert region.end is RegionEnd.LOOP

    def test_loop_by_fallthrough_into_entry(self):
        region = select("""
        start:
            inc eax
            jmp mid
        mid:
            cmp eax, 10
            jne start
            cli
            hlt
        """)
        # Taking the backward branch reaches the entry: loop region.
        assert region.end is RegionEnd.LOOP

    def test_follows_unconditional_jumps(self):
        region = select("""
        start:
            mov eax, 1
            jmp away
        between:
            .space 64
        away:
            mov ebx, 2
            cli
            hlt
        """)
        assert len(region.instrs) == 3  # mov, jmp, mov
        addrs = sorted(region.addresses)
        assert addrs[-1] > addrs[0] + 64  # crossed the gap

    def test_follows_direct_calls(self):
        region = select("""
        start:
            mov esp, 0x8000
            call fn
            cli
            hlt
        fn:
            mov eax, 1
            ret
        """)
        # mov esp, call, mov eax — then ret ends it as INDIRECT.
        assert region.end is RegionEnd.INDIRECT
        assert len(region.instrs) == 4

    def test_stops_at_interp_only(self):
        region = select("start: mov eax, 1\nsti\nmov ebx, 2\ncli\nhlt\n")
        assert len(region.instrs) == 1
        assert region.end is RegionEnd.CONT

    def test_stop_addrs_respected(self):
        machine, entry = build_machine(
            "start: mov eax, 1\nadd eax, 2\nmov ebx, 3\ncli\nhlt\n")
        selector = RegionSelector(machine, ExecutionProfile())
        # Stop at the second instruction (entry + 6).
        policy = TranslationPolicy(stop_addrs=frozenset({entry + 6}))
        region = selector.select(entry, policy)
        assert len(region.instrs) == 1

    def test_stops_before_profiled_page_table_store(self):
        machine, entry = build_machine(
            "start: mov eax, 1\nadd eax, 2\nmov ebx, 3\ncli\nhlt\n")
        profile = ExecutionProfile()
        profile.on_pt_store(entry + 6)
        region = RegionSelector(machine, profile).select(
            entry, TranslationPolicy())
        assert len(region.instrs) == 1
        assert region.end is RegionEnd.CONT
        assert region.end_target == entry + 6
        # A profiled site at the entry leaves nothing to translate.
        assert RegionSelector(machine, profile).select(
            entry + 6, TranslationPolicy()) is None

    def test_max_instructions_cap(self):
        source = "start:\n" + "    inc eax\n" * 50 + "    cli\n    hlt\n"
        policy = TranslationPolicy(max_instructions=10)
        region = select(source, policy)
        assert len(region.instrs) == 10

    def test_branch_bias_steers_trace(self):
        source = """
        start:
            cmp eax, 5
            je taken_path
            mov ebx, 1
            cli
            hlt
        taken_path:
            mov ecx, 2
            cli
            hlt
        """
        machine, entry = build_machine(source)
        profile = ExecutionProfile()
        # Mark the branch as strongly taken.
        branch_addr = entry + 6
        for _ in range(10):
            profile.on_branch(branch_addr, taken=True)
        selector = RegionSelector(machine, profile)
        region = selector.select(entry, TranslationPolicy())
        assert region.follow_taken[branch_addr] is True
        # The trace contains the taken-path mov ecx.
        mnemonics = [i.info.mnemonic for i in region.instrs]
        assert mnemonics == ["cmp", "je", "mov"]

    def test_code_ranges_merge_contiguous(self):
        region = select("start: mov eax, 1\nadd eax, 2\ncli\nhlt\n")
        ranges = region.code_ranges()
        assert len(ranges) == 1
        assert ranges[0][1] == 12  # two 6-byte instructions


class TestFrontend:
    def test_flags_fully_materialized_before_optimization(self):
        _, trace = lower("start: add eax, 1\ncli\nhlt\n")
        flag_writes = [
            op for op in trace.ops
            if op.kind is IROpKind.MOV and isinstance(op.dest, GuestFlag)
        ]
        # add defines CF, PF, ZF, SF, OF.
        assert len(flag_writes) == 5

    def test_commit_every_interval(self):
        source = "start:\n" + "    inc eax\n" * 30 + "    cli\n    hlt\n"
        policy = TranslationPolicy(commit_interval=8)
        _, trace = lower(source, policy)
        commits = [op for op in trace.ops if op.kind is IROpKind.COMMIT]
        assert len(commits) == 3  # after 8, 16, 24 of 30 instructions

    def test_io_instruction_is_barrier_with_commit(self):
        _, trace = lower("start: mov eax, 65\nout 0xE9\nmov ebx, 1\ncli\nhlt\n")
        kinds = [op.kind for op in trace.ops]
        out_index = kinds.index(IROpKind.PORT_OUT)
        assert IROpKind.COMMIT in kinds[out_index:]

    def test_windows_cover_all_instructions(self):
        source = "start:\n" + "    inc eax\n" * 20 + "    cli\n    hlt\n"
        policy = TranslationPolicy(commit_interval=6)
        region, trace = lower(source, policy)
        covered = set()
        for op in trace.ops:
            if op.kind in (IROpKind.COMMIT, IROpKind.EXIT, IROpKind.LOOP,
                           IROpKind.EXIT_IND):
                covered.update(range(op.window_start, op.window_end))
        assert covered == set(range(len(region.instrs)))

    def test_stylized_immediate_reloaded(self):
        machine, entry = build_machine("start: mov eax, 0x1234\ncli\nhlt\n")
        policy = TranslationPolicy(stylized_imm_addrs=frozenset({entry}))
        selector = RegionSelector(machine, ExecutionProfile())
        region = selector.select(entry, policy)
        trace = Frontend(policy).lower(region)
        loads = [op for op in trace.ops if op.kind is IROpKind.LD]
        assert loads, "stylized immediate must become a runtime load"

    def test_cl_shift_uses_selects(self):
        _, trace = lower("start: mov ecx, 3\nshl eax, cl\ncli\nhlt\n")
        sels = [op for op in trace.ops if op.kind is IROpKind.SEL]
        assert sels  # flag writes guarded on count==0


class TestOptimizer:
    def test_dead_flags_eliminated(self):
        # Three adds in a row: only the last one's flags can survive to
        # the exit; the first two's flag recipes must die.
        _, trace = lower("""
        start:
            add eax, 1
            add eax, 2
            add eax, 3
            cli
            hlt
        """)
        before = len([
            op for op in trace.ops
            if op.kind is IROpKind.MOV and isinstance(op.dest, GuestFlag)
        ])
        optimize(trace)
        after = len([
            op for op in trace.ops
            if op.kind is IROpKind.MOV and isinstance(op.dest, GuestFlag)
        ])
        assert before == 15
        assert after == 5  # only the final add's five flags remain

    def test_constant_folding_collapses(self):
        _, trace = lower("""
        start:
            mov eax, 10
            add eax, 20
            cli
            hlt
        """)
        optimize(trace)
        # eax's final writeback source must be a folded constant 30.
        movis = [op for op in trace.ops if op.kind is IROpKind.MOVI]
        assert any(op.imm == 30 for op in movis)
        alus = [op for op in trace.ops if op.kind is IROpKind.ALU]
        assert not alus  # everything folded

    def test_redundant_load_eliminated(self):
        _, trace = lower("""
        start:
            load eax, [ebx+4]
            load ecx, [ebx+4]
            cli
            hlt
        """)
        optimize(trace)
        loads = [op for op in trace.ops if op.kind is IROpKind.LD]
        assert len(loads) == 1

    def test_store_to_load_forwarding(self):
        # The stored value is a computed temp, so the later load of the
        # same address is forwarded away entirely.
        _, trace = lower("""
        start:
            add eax, 1
            store [ebx+8], eax
            load ecx, [ebx+8]
            cli
            hlt
        """)
        optimize(trace)
        loads = [op for op in trace.ops if op.kind is IROpKind.LD]
        assert not loads  # forwarded from the store

    def test_store_of_guest_loc_not_forwarded(self):
        # A raw guest-register value is not substituted forward (the
        # register may be redefined before the load); the load stays.
        _, trace = lower("""
        start:
            store [ebx+8], eax
            mov eax, 5
            load ecx, [ebx+8]
            cli
            hlt
        """)
        optimize(trace)
        loads = [op for op in trace.ops if op.kind is IROpKind.LD]
        assert len(loads) == 1

    def test_may_alias_store_blocks_forwarding(self):
        _, trace = lower("""
        start:
            load eax, [ebx+4]
            store [edx+4], ecx   ; unknown base: may alias
            load esi, [ebx+4]
            cli
            hlt
        """)
        optimize(trace)
        loads = [op for op in trace.ops if op.kind is IROpKind.LD]
        assert len(loads) == 2

    def test_loads_never_deleted_even_if_dead(self):
        _, trace = lower("""
        start:
            load eax, [ebx]    ; result overwritten: dead, but may fault
            mov eax, 5
            cli
            hlt
        """)
        optimize(trace)
        loads = [op for op in trace.ops if op.kind is IROpKind.LD]
        assert len(loads) == 1

    def test_never_taken_constant_exit_removed(self):
        # xor eax,eax ; jnz: ZF is constant-known? (not folded — flags
        # come from ALU ops, not constants across guest regs); this test
        # pins that EXIT_IF survives when the condition is dynamic.
        _, trace = lower("""
        start:
            xor eax, eax
            jnz start
            cli
            hlt
        """)
        optimize(trace)
        exits = [op for op in trace.ops if op.kind is IROpKind.EXIT_IF]
        assert len(exits) <= 1


class TestScheduler:
    def _schedule(self, source, policy=None):
        policy = policy or TranslationPolicy()
        region, trace = lower(source, policy)
        optimize(trace)
        scheduler = Scheduler(policy)
        schedule = scheduler.schedule(trace)
        return trace, schedule

    def test_stores_stay_in_program_order(self):
        _, schedule = self._schedule("""
        start:
            store [ebx], eax
            store [ebx+4], ecx
            store [edx], esi
            cli
            hlt
        """)
        positions = {}
        for cycle_index, cycle in enumerate(schedule.cycles):
            for op in cycle:
                if op.kind is IROpKind.ST:
                    positions[op.guest_index] = cycle_index
        ordered = [positions[g] for g in sorted(positions)]
        assert ordered == sorted(ordered)

    def test_load_hoisted_above_store_gets_alias_protection(self):
        # Store through edx, later load through ebx: not provably
        # disjoint, so hoisting requires alias machinery.
        _, schedule = self._schedule("""
        start:
            store [edx], eax
            load ecx, [ebx+4]
            add ecx, 1
            cli
            hlt
        """)
        if schedule.speculated_loads:
            # find the marked ops
            all_ops = [op for cycle in schedule.cycles for op in cycle]
            loads = [op for op in all_ops if op.kind is IROpKind.LD]
            stores = [op for op in all_ops if op.kind is IROpKind.ST]
            assert any(op.reordered and op.alias_entry is not None
                       for op in loads)
            assert any(op.alias_check for op in stores)

    def test_no_reorder_policy_blocks_speculation(self):
        policy = TranslationPolicy(reorder_memory=False,
                                   control_speculation=False)
        _, schedule = self._schedule("""
        start:
            store [edx], eax
            load ecx, [ebx+4]
            cmp ecx, 0
            jne start
            load esi, [ebx+8]
            cli
            hlt
        """, policy)
        assert schedule.speculated_loads == 0
        assert schedule.hoisted_over_exits == 0
        all_ops = [op for cycle in schedule.cycles for op in cycle]
        assert not any(op.reordered for op in all_ops)

    def test_provably_disjoint_needs_no_alias_hw(self):
        policy = TranslationPolicy(use_alias_hw=False)
        _, schedule = self._schedule("""
        start:
            store [ebx], eax
            load ecx, [ebx+8]   ; same base, disjoint displacement
            add ecx, 1
            cli
            hlt
        """, policy)
        all_ops = [op for cycle in schedule.cycles for op in cycle]
        loads = [op for op in all_ops if op.kind is IROpKind.LD]
        assert loads  # still present, maybe hoisted, never protected
        assert all(op.alias_entry is None for op in loads)

    def test_guest_writebacks_do_not_cross_exits(self):
        _, schedule = self._schedule("""
        start:
            add eax, 1
            jz out_exit
            mov ebx, 7
            cli
            hlt
        out_exit:
            cli
            hlt
        """)
        all_positions = []
        exit_cycle = None
        writeback_after_exit_cycle = None
        for cycle_index, cycle in enumerate(schedule.cycles):
            for op in cycle:
                if op.kind is IROpKind.EXIT_IF:
                    exit_cycle = cycle_index
                if (op.kind is IROpKind.MOV and
                        isinstance(op.dest, GuestReg) and
                        op.dest.index == 3):  # ebx writeback
                    writeback_after_exit_cycle = cycle_index
        assert exit_cycle is not None
        assert writeback_after_exit_cycle is not None
        assert writeback_after_exit_cycle > exit_cycle

    def test_barrier_ops_schedule_alone(self):
        _, schedule = self._schedule("""
        start:
            mov eax, 65
            out 0xE9
            mov ebx, 1
            cli
            hlt
        """)
        for cycle in schedule.cycles:
            if any(op.kind is IROpKind.PORT_OUT for op in cycle):
                assert len(cycle) == 1

    def test_empty_cycles_exist_for_latency(self):
        # A load feeding an add must leave a latency gap (LD latency 2).
        _, schedule = self._schedule("""
        start:
            load eax, [ebx]
            add eax, 1
            cli
            hlt
        """)
        load_cycle = use_cycle = None
        for index, cycle in enumerate(schedule.cycles):
            for op in cycle:
                if op.kind is IROpKind.LD:
                    load_cycle = index
                if op.kind is IROpKind.ALU and load_cycle is not None \
                        and use_cycle is None:
                    use_cycle = index
        assert use_cycle - load_cycle >= 2


class TestCodegenAndPipeline:
    def _translate(self, source, policy=None, threshold_profile=True):
        machine = Machine()
        entry = machine.load_source(source)
        profile = ExecutionProfile()
        translator = Translator(machine, profile)
        return translator.translate(entry, policy or TranslationPolicy())

    def test_translation_structure(self):
        translation = self._translate("""
        start:
            mov eax, 1
            add eax, 2
            cli
            hlt
        """)
        assert translation.entry_label == "body"
        assert "body" in translation.labels
        assert translation.exit_atoms
        assert translation.guest_instr_count == 2
        # Every exit is preceded by a commit.
        kinds = [atom.kind for mol in translation.molecules
                 for atom in mol.atoms]
        assert AtomKind.COMMIT in kinds
        assert AtomKind.EXIT in kinds

    def test_loop_region_has_backedge(self):
        translation = self._translate("""
        start:
            inc eax
            cmp eax, 100
            jne start
            cli
            hlt
        """)
        kinds = [atom.kind for mol in translation.molecules
                 for atom in mol.atoms]
        assert AtomKind.BR in kinds  # the internal back-edge

    def test_self_check_emits_window_checks(self):
        plain = self._translate("""
        start:
            inc eax
            cmp eax, 100
            jne start
            cli
            hlt
        """)
        checked = self._translate("""
        start:
            inc eax
            cmp eax, 100
            jne start
            cli
            hlt
        """, TranslationPolicy(self_check=True))
        assert checked.num_molecules > plain.num_molecules
        assert "smc_fail" in checked.labels
        fail_atoms = [atom for mol in checked.molecules
                      for atom in mol.atoms
                      if atom.kind is AtomKind.FAIL]
        assert fail_atoms

    def test_self_check_code_size_overhead_band(self):
        # §3.6.3: self-checking adds a mean of 83% to the code size
        # (58%..100%).  Verify a straight-line region lands in a broad
        # band around that.
        source = "start:\n" + "    add eax, 3\n    xor ebx, eax\n" * 10 \
            + "    cli\n    hlt\n"
        plain = self._translate(source)
        checked = self._translate(source, TranslationPolicy(self_check=True))
        overhead = (checked.num_molecules - plain.num_molecules) \
            / plain.num_molecules
        assert 0.2 < overhead < 2.5

    def test_prologue_structure(self):
        translation = self._translate("""
        start:
            inc eax
            cmp eax, 100
            jne start
            cli
            hlt
        """, TranslationPolicy(self_revalidate=True))
        assert translation.prologue_label == "prologue"
        assert translation.entry_label == "body"
        prologue_index = translation.labels["prologue"]
        body_index = translation.labels["body"]
        assert prologue_index < body_index
        # The prologue ends with a prologue_success exit.
        success_exits = [
            atom for mol in translation.molecules for atom in mol.atoms
            if atom.kind is AtomKind.EXIT and atom.prologue_success
        ]
        assert len(success_exits) == 1

    def test_mmio_learned_sites_are_fenced(self):
        machine = Machine()
        entry = machine.load_source("""
        start:
            load eax, [ebx]
            cli
            hlt
        """)
        profile = ExecutionProfile()
        profile.on_mmio(entry)  # profile observed MMIO at the load
        translator = Translator(machine, profile)
        translation = translator.translate(entry, TranslationPolicy())
        load_atoms = [atom for mol in translation.molecules
                      for atom in mol.atoms if atom.kind is AtomKind.LD]
        assert any(atom.io_ok for atom in load_atoms)

    def test_policy_merge_monotone(self):
        a = TranslationPolicy(reorder_memory=False)
        b = TranslationPolicy(max_instructions=50,
                              no_reorder_addrs=frozenset({0x10}))
        merged = a.merge(b)
        assert not merged.reorder_memory
        assert merged.max_instructions == 50
        assert 0x10 in merged.no_reorder_addrs
        # Merge is idempotent and commutative on these fields.
        assert merged.merge(merged) == merged
        assert a.merge(b) == b.merge(a)

    def test_fallback_on_huge_region(self):
        # A pathological straight line of 200 divisions (deep temp
        # pressure) must still translate via the fallback ladder.
        source = "start:\n" + "    mov edx, 0\n    or ecx, 1\n    div ecx\n" * 60 \
            + "    cli\n    hlt\n"
        translation = self._translate(source)
        assert translation is not None
