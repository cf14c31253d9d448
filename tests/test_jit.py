"""Template-JIT semantics tests (host/jit.py).

The JIT is a wall-clock dial: with ``template_jit`` on or off, every
run must be molecule-identical and architecturally identical — the
generated Python only replaces the simulated VLIW's per-atom dispatch,
never what executes.  These tests pin that contract on the edges where
it is easiest to break: mid-translation faults, alias bailouts, SMC
invalidation, fuel exhaustion, compile failure, and compile staging
(cold translations on the simulated VLIW switching to their template).
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from conftest import assert_equivalent, run_cms
from repro import CMSConfig, CodeMorphingSystem, Machine
from repro.cache import persist
from repro.cache.tcache import Translation
from repro.cms.degrade import Tier
from repro.host import jit as jit_module
from repro.host.atoms import Atom, AtomKind
from repro.host.cpu import ExitKind
from repro.host.molecule import Molecule
from repro.host.registers import R_EIP, R_IF
from repro.translator.policies import TranslationPolicy
from repro.workloads import get_workload, run_workload

FAST = CMSConfig(translation_threshold=4, fault_threshold=2)
NO_JIT = replace(FAST, template_jit=False)

HOT_LOOP = """
start:
    mov esi, 0
    mov ecx, 0
loop:
    mov eax, ecx
    imul eax, 13
    xor esi, eax
    inc ecx
    cmp ecx, 400
    jne loop
    cli
    hlt
"""

# Patches its own inner-loop immediate every frame (stylized SMC): the
# JIT-resident translation takes protection/self-check faults mid-run
# and is repeatedly invalidated and recompiled.
SMC_LOOP = """
start:
    mov edi, 0
    mov esi, 0
frame:
    mov eax, edi
    imul eax, 17
    add eax, 0x01010101
    mov ebx, patch_site + 2
    store [ebx], eax
    mov ecx, 0
inner:
patch_site:
    add esi, 0x11111111
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


def _dial_invisible_stats(stats) -> dict:
    """Stats that must match with the JIT dial on or off.

    Only the JIT's own accounting (dispatch/compile/bailout volume) may
    differ between the two engines.
    """
    out = stats.as_dict()
    return {name: value for name, value in out.items()
            if not name.startswith("jit_")}


def _assert_dial_invisible(source: str, config: CMSConfig):
    """Run ``source`` with the JIT on and off; everything but the JIT's
    own counters must be identical, bit for bit.  Returns the JIT-on
    system."""
    on_system, on_result = run_cms(source, config)
    _assert_same_as_vliw(source, config, on_system, on_result)
    return on_system


def _assert_same_as_vliw(source: str, config: CMSConfig, on_system,
                         on_result):
    """A JIT-on run must equal the same program run with the JIT off."""
    off_system, off_result = run_cms(source, replace(config,
                                                     template_jit=False))
    assert on_result.halted and off_result.halted
    assert on_result.console_output == off_result.console_output
    assert on_system.state.snapshot() == off_system.state.snapshot()
    on_ram = on_system.machine.ram
    off_ram = off_system.machine.ram
    assert on_ram.read_bytes(0, on_ram.size) == \
        off_ram.read_bytes(0, off_ram.size)
    assert _dial_invisible_stats(on_system.stats) == \
        _dial_invisible_stats(off_system.stats)
    assert off_system.stats.jit_dispatches == 0


class TestDialInvisibility:
    def test_hot_loop_molecule_identical(self):
        on_system = _assert_dial_invisible(HOT_LOOP, FAST)
        assert on_system.stats.jit_dispatches > 0
        assert on_system.stats.jit_compiles > 0
        assert on_system.stats.jit_compile_failures == 0

    def test_smc_loop_molecule_identical(self):
        on_system = _assert_dial_invisible(SMC_LOOP, FAST)
        assert on_system.stats.smc_invalidations >= 1

    def test_equivalent_to_interpreter(self):
        both = assert_equivalent(HOT_LOOP, config=FAST)
        assert both.cms_system.stats.jit_dispatches > 0


@pytest.fixture
def eager_jit(monkeypatch):
    """Compile on first entry, so faults are raised out of template
    code."""
    monkeypatch.setattr(jit_module.TemplateJIT, "compile_passes", 0)


class TestFaultBailouts:
    def test_mid_translation_fault_rolls_back_exactly(self, eager_jit):
        # The SMC store faults mid-translation out of JIT-generated
        # code; interpreter equivalence (registers, RAM, console)
        # proves the rollback restored the exact pre-dispatch state.
        both = assert_equivalent(SMC_LOOP, config=FAST)
        stats = both.cms_system.stats
        assert stats.rollbacks >= 1
        fault_bails = [reason for reason in stats.jit_bailouts
                       if reason.startswith("fault-")]
        assert fault_bails, (
            f"no fault bailouts recorded: {dict(stats.jit_bailouts)}"
        )

    def test_alias_check_bailout(self, eager_jit):
        workload = get_workload("alias_stress")
        on = run_workload(workload, FAST)
        off = run_workload(workload, NO_JIT)
        assert on.console_output == off.console_output
        assert on.total_molecules == off.total_molecules
        stats = on.system.stats
        assert stats.jit_bailouts["fault-alias_violation"] >= 1
        assert stats.faults["ALIAS_VIOLATION"] >= 1

    def test_interrupt_bailout(self):
        workload = get_workload("dos_boot")
        on = run_workload(workload, FAST)
        off = run_workload(workload, NO_JIT)
        assert on.console_output == off.console_output
        assert on.total_molecules == off.total_molecules
        assert on.system.stats.jit_bailouts["interrupt"] >= 1

    def test_fuel_exhaustion_mid_jit_block(self):
        config = replace(FAST, dispatch_fuel_molecules=8)
        on_system = _assert_dial_invisible(HOT_LOOP, config)
        assert on_system.stats.jit_bailouts["fuel"] >= 1
        assert on_system.stats.fuel_exits >= 1


class TestInvalidation:
    def _jit_resident_translation(self):
        system, result = run_cms(HOT_LOOP, FAST)
        assert result.halted
        resident = [t for t in system.tcache.translations()
                    if t.host_code is not None]
        assert resident, "no JIT-resident translation after a hot loop"
        return system, resident

    def test_invalidation_drops_compiled_callable(self):
        system, resident = self._jit_resident_translation()
        for translation in resident:
            system.tcache.invalidate_translation(translation)
            assert translation.host_code is None
            assert not translation.valid

    def test_flush_drops_compiled_callable(self):
        system, resident = self._jit_resident_translation()
        system.tcache.flush()
        assert all(t.host_code is None for t in resident)

    def test_smc_invalidation_drops_compiled_callable(self):
        system, result = run_cms(SMC_LOOP, FAST)
        assert result.halted
        assert system.stats.smc_invalidations >= 1
        # Anything still resident must be valid; every invalidated
        # translation must have dropped its template on the way out.
        for translation in system.tcache.translations():
            if translation.host_code is not None:
                assert translation.valid


class TestFallbacks:
    def test_uncompilable_translation_falls_back_to_vliw(self, monkeypatch):
        monkeypatch.setattr(jit_module, "compile_translation",
                            lambda translation, cpu, stats=None: None)
        on_system, on_result = run_cms(HOT_LOOP, FAST)
        off_system, off_result = run_cms(HOT_LOOP, NO_JIT)
        assert on_result.halted
        assert on_result.console_output == off_result.console_output
        assert _dial_invisible_stats(on_system.stats) == \
            _dial_invisible_stats(off_system.stats)
        stats = on_system.stats
        assert stats.jit_compile_failures >= 1
        assert stats.jit_bailouts["uncompilable"] >= 1
        assert stats.jit_compiles == 0

    def test_degraded_tiers_skip_the_jit(self):
        config = replace(FAST, degrade_tier_floor=2)
        system, result = run_cms(HOT_LOOP, config)
        assert result.halted
        assert system.stats.dispatches > 0
        assert system.stats.jit_dispatches == 0

    def test_warm_loaded_translations_recompile_lazily(self, tmp_path):
        path = str(tmp_path / "snap.json")
        cold = replace(FAST, snapshot_path=path, snapshot_save=True)
        cold_system, cold_result = run_cms(HOT_LOOP, cold)
        cold_system.shutdown()
        warm = replace(FAST, snapshot_path=path)
        warm_system, warm_result = run_cms(HOT_LOOP, warm)
        assert warm_result.halted
        assert warm_result.console_output == cold_result.console_output
        assert warm_system.stats.snapshot_translations_loaded >= 1
        # The callable is process-local: never persisted, rebuilt on
        # first dispatch of the reloaded translation.
        assert warm_system.stats.jit_compiles >= 1


# Three procedures, each called a few times past the translation
# threshold: translated, but never hot enough to pay for a template.
PROCEDURES = """
start:
    mov esp, 0x8000
    mov esi, 0
    mov edi, 0
again:
    call p0
    call p1
    call p2
    inc edi
    cmp edi, 8
    jne again
    cli
    hlt
p0:
    add esi, 3
    xor esi, 0x55
    ret
p1:
    imul esi, 5
    add esi, edi
    ret
p2:
    rol esi, 7
    sub esi, 11
    ret
"""

# The inner loop's translation turns hot in its first dispatch; the
# outer loop's region ends with a direct exit into it and stays cold.
NESTED_LOOPS = """
start:
    mov esi, 0
    mov edi, 0
outer:
    mov ecx, 0
inner:
    add esi, ecx
    inc ecx
    cmp ecx, 50
    jne inner
    inc edi
    cmp edi, 12
    jne outer
    cli
    hlt
"""


class _EngineLog:
    """Spy on one system's engines: for every JIT dispatch, its
    ``ExitInfo`` and the simulated-VLIW runs made inside it, as
    ``(translation, run kwargs, ExitInfo)``."""

    def __init__(self, system) -> None:
        self.dispatches: list[tuple] = []
        self._runs: list[tuple] = []
        cpu_run = system.cpu.run
        jit_run = system.jit.run

        def vliw(translation, **kwargs):
            info = cpu_run(translation, **kwargs)
            self._runs.append((translation, kwargs, info))
            return info

        def dispatch(translation, **kwargs):
            self._runs = []
            info = jit_run(translation, **kwargs)
            self.dispatches.append((info, self._runs))
            return info

        system.cpu.run = vliw
        system.jit.run = dispatch


def _spied_run(source: str, config: CMSConfig = FAST, setup=None):
    machine = Machine()
    entry = machine.load_source(source)
    system = CodeMorphingSystem(machine, config)
    log = _EngineLog(system)
    if setup is not None:
        setup(system)
    result = system.run(entry)
    return system, result, log


class TestStagedCompilation:
    """Templates are compiled only once a translation is hot
    (``TemplateJIT.compile_passes``); until then it runs on the simulated VLIW
    and switches to its template mid-dispatch."""

    def test_lukewarm_procedures_never_compile(self):
        on_system = _assert_dial_invisible(PROCEDURES, FAST)
        stats = on_system.stats
        assert stats.jit_dispatches > 0
        assert stats.guest_instructions_translated > 0
        assert stats.jit_compiles == 0
        assert all(t.host_code is None
                   for t in on_system.tcache.translations())

    def test_loop_switches_to_its_template_mid_dispatch(self):
        system, result, log = _spied_run(HOT_LOOP)
        _assert_same_as_vliw(HOT_LOOP, FAST, system, result)
        loop = max(system.tcache.translations(),
                   key=lambda t: t.executions_molecules)
        assert loop.entries == 1
        [(info, runs)] = [entry for entry in log.dispatches
                          if entry[0].translations_entered[0] is loop]
        # One cold VLIW run, stopped at the back-edge once hot...
        [(translation, kwargs, cold)] = runs
        assert translation is loop
        assert kwargs["hot_at"] == system.jit.hot_at(loop)
        assert cold.kind is ExitKind.HOT
        assert cold.resume_pc in loop.labels.values()
        # ...then the template, compiled there, ran the loop to its exit.
        assert loop.host_code is not None
        assert system.stats.jit_compiles == 1
        assert info.kind is ExitKind.EXITED
        assert cold.molecules < system.jit.hot_at(loop) + \
            loop.num_molecules < info.molecules

    def test_cold_exit_chains_into_hot_template(self):
        system, result, log = _spied_run(NESTED_LOOPS)
        _assert_same_as_vliw(NESTED_LOOPS, FAST, system, result)
        handoffs = 0
        for info, runs in log.dispatches:
            cold = {id(t) for t, kwargs, _ in runs
                    if kwargs.get("hot_at") is not None}
            on_vliw = {id(t) for t, _, _ in runs}
            entered = info.translations_entered
            for source, target in zip(entered, entered[1:]):
                if id(source) in cold and id(target) not in on_vliw:
                    assert target.host_code is not None
                    handoffs += 1
        assert handoffs > 0

    def test_translation_invalidated_mid_cold_run_never_compiles(
            self, monkeypatch):
        compiled = []
        real_compile = jit_module.compile_translation

        def compile_spy(translation, cpu, stats=None):
            compiled.append(translation)
            return real_compile(translation, cpu, stats)

        monkeypatch.setattr(jit_module, "compile_translation", compile_spy)
        victims = []

        def invalidate_mid_run(system):
            cpu = system.cpu
            commit = cpu.commit

            def commit_then_invalidate(instr_count=0):
                commit(instr_count)
                current = cpu.current_translation
                if victims or current is None or \
                        current.host_code is not None or \
                        2 * current.executions_molecules < \
                        system.jit.hot_at(current):
                    return
                # What an SMC or DMA invalidation does to the code of
                # the translation running on the VLIW.
                system.tcache.invalidate_translation(current)
                for page in current.pages():
                    system.smc.recompute_page(page)
                victims.append(current)

            cpu.commit = commit_then_invalidate

        system, result, log = _spied_run(HOT_LOOP,
                                         setup=invalidate_mid_run)
        [victim] = victims
        assert not victim.valid
        assert all(t is not victim for t in compiled)
        # The VLIW finished the dispatch from where the cold run
        # turned hot.
        [runs] = [runs for _, runs in log.dispatches
                  if runs and runs[0][0] is victim]
        (_, _, cold), (again, kwargs, _) = runs
        assert cold.kind is ExitKind.HOT
        assert again is victim and kwargs.get("hot_at") is None
        assert kwargs["start_pc"] == cold.resume_pc
        reference, ref_result = run_cms(HOT_LOOP, FAST.interpreter_only())
        assert result.halted and ref_result.halted
        assert system.state.snapshot() == reference.state.snapshot()

    def test_loaded_translation_compiles_on_first_dispatch(
            self, tmp_path, monkeypatch):
        path = str(tmp_path / "snap.json")
        cold = replace(FAST, snapshot_path=path, snapshot_save=True)
        cold_system, cold_result = run_cms(PROCEDURES, cold)
        cold_system.shutdown()
        assert cold_system.stats.jit_compiles == 0  # all lukewarm
        compiled_after = {}  # translation id -> molecules run before
        real_compile = jit_module.compile_translation

        def compile_spy(translation, cpu, stats=None):
            compiled_after[translation.id] = translation.executions_molecules
            return real_compile(translation, cpu, stats)

        monkeypatch.setattr(jit_module, "compile_translation", compile_spy)
        warm_system, warm_result = run_cms(
            PROCEDURES, replace(FAST, snapshot_path=path))
        assert warm_result.console_output == cold_result.console_output
        entered = [t for t in warm_system.tcache.translations()
                   if t.imported and t.entries]
        assert entered
        for translation in entered:
            # Compiled before its first molecule ran: a fleet tenant
            # may share the code object another tenant already paid for.
            assert compiled_after[translation.id] == 0
            assert translation.host_code is not None
            assert "imported" not in persist.encode_translation(
                translation)

    def test_fuel_exhaustion_across_template_switch(self):
        config = replace(FAST, dispatch_fuel_molecules=60)
        system, result, log = _spied_run(HOT_LOOP, config)
        _assert_same_as_vliw(HOT_LOOP, config, system, result)
        switched = [info for info, runs in log.dispatches
                    if runs and runs[-1][2].kind is ExitKind.HOT]
        assert switched
        assert all(info.kind is ExitKind.FUEL for info in switched)
        assert system.stats.jit_bailouts["fuel"] >= len(switched)


# ----------------------------------------------------------------------
# Inline RAM guards at the edges of the bus's RAM runs
# ----------------------------------------------------------------------

RAM_TOP = 4 << 20
# Every address within 4 bytes of a RAM-run edge: the framebuffer hole
# [0xA0000, 0xB0000) and the end of RAM.
RUN_EDGES = [edge + delta for edge in (0xA0000, 0xB0000, RAM_TOP)
             for delta in range(-4, 4)]


def _translation(entry_eip: int, *atoms) -> Translation:
    """A straight-line translation, one atom per molecule; the last
    atom is its exit."""
    molecules = []
    for atom in atoms:
        molecule = Molecule()
        molecule.add(atom)
        molecules.append(molecule)
    return Translation(
        entry_eip=entry_eip, molecules=molecules, labels={"body": 0},
        entry_label="body", policy=TranslationPolicy(),
        code_ranges=[(entry_eip, 16)], code_snapshot=bytes(16),
        guest_instr_count=1, exit_atoms=[atoms[-1]])


def _edge_translation(addr: int, size: int, store: bool):
    """movi; movi; one load or store at ``addr``; exit — no commit, so
    the store buffer shows how the access was classified."""
    if store:
        access = Atom(AtomKind.ST, rs1=40, rs2=41, size=size, io_ok=True,
                      guest_addr=0x1000)
    else:
        access = Atom(AtomKind.LD, rd=42, rs1=40, size=size, io_ok=True,
                      guest_addr=0x1000)
    return _translation(
        0x1000, Atom(AtomKind.MOVI, rd=40, imm=addr),
        Atom(AtomKind.MOVI, rd=41, imm=0xA1B2C3D4), access,
        Atom(AtomKind.EXIT, exit_target=0x1010))


class TestRamRunGuards:
    def test_edge_accesses_match_the_simulated_vliw(self):
        systems = []
        for config in (NO_JIT, FAST):
            machine = Machine()
            # RAM under the framebuffer window differs from what the
            # device returns, so a wrongly inlined load reads the wrong
            # bytes.
            machine.ram.write_bytes(0x9F000, bytes(
                (i * 13 + 5) & 0xFF for i in range(0x12000)))
            machine.ram.write_bytes(RAM_TOP - 8, bytes(range(1, 9)))
            systems.append(CodeMorphingSystem(machine, config))
        vliw, jitted = systems
        jitted.jit.compile_passes = 0
        for addr in RUN_EDGES:
            for size in (1, 2, 4):
                for store in (False, True):
                    results = []
                    for system, engine in ((vliw, vliw.cpu.run),
                                           (jitted, jitted.jit.run)):
                        translation = _edge_translation(addr, size, store)
                        info = engine(translation)
                        cpu = system.cpu
                        fault = info.fault
                        results.append((
                            info.kind, info.molecules,
                            None if fault is None else (
                                fault.kind, fault.guest_exception.vector
                                if fault.guest_exception else None),
                            cpu.molecules_executed,
                            list(cpu.regs.working), cpu._io_uncommitted,
                            [(e.paddr, e.size, e.value, e.is_io)
                             for e in cpu.store_buffer._entries],
                            system.machine.bus.io_reads,
                        ))
                        if system is jitted:
                            assert translation.host_code is not None
                        cpu.rollback()
                    assert results[0] == results[1], (hex(addr), size,
                                                      store)

    def test_guest_accesses_at_run_edges_are_dial_invisible(self,
                                                            eager_jit):
        source = f"""
        start:
            mov esp, 0x8000
            mov esi, 0
            mov ecx, 0
        loop:
            mov ebx, 0x9FFFC
            load eax, [ebx]
            add esi, eax
            store [ebx], ecx
            mov ebx, 0x9FFFF
            loadb eax, [ebx]
            add esi, eax
            storeb [ebx], ecx
            mov ebx, 0xB0000
            load eax, [ebx]
            add esi, eax
            store [ebx], esi
            loadb eax, [ebx]
            add esi, eax
            mov ebx, {RAM_TOP - 4:#x}
            load eax, [ebx]
            add esi, eax
            store [ebx], esi
            mov ebx, {RAM_TOP - 1:#x}
            loadb eax, [ebx]
            add esi, eax
            storeb [ebx], ecx
            inc ecx
            cmp ecx, 50
            jne loop
            cli
            hlt
        """
        system = _assert_dial_invisible(source, FAST)
        assert system.stats.jit_compiles > 0


# ----------------------------------------------------------------------
# The driver: one loop follows every chain, for both engines
# ----------------------------------------------------------------------


def _chained_pair(exit_target=0x2000, guard=None):
    """``t1`` sets register 0, commits EIP 0x2000 and exits chained into
    ``t2`` (a direct exit, or an indirect one when ``exit_target`` is
    None, guarded by ``guard``); ``t2`` sets register 1, commits EIP
    0x3000 and exits unchained."""
    t2 = _translation(
        0x2000, Atom(AtomKind.MOVI, rd=1, imm=42),
        Atom(AtomKind.MOVI, rd=R_EIP, imm=0x3000),
        Atom(AtomKind.COMMIT, instr_count=1),
        Atom(AtomKind.EXIT, exit_target=0x3000))
    exit_atom = Atom(AtomKind.EXIT, exit_target=exit_target)
    exit_atom.chained_translation = t2
    exit_atom.chained_guard = guard
    t1 = _translation(
        0x1000, Atom(AtomKind.MOVI, rd=0, imm=7),
        Atom(AtomKind.MOVI, rd=R_EIP, imm=0x2000),
        Atom(AtomKind.COMMIT, instr_count=1), exit_atom)
    return t1, t2


def _driver_system():
    system = CodeMorphingSystem(Machine(), FAST)
    system.jit.compile_passes = 0  # templates compile on first entry
    return system


def _run_on(templates: bool, t1, system=None):
    """Dispatch ``t1``; both translations must have run on the engine
    ``templates`` selects."""
    system = system or _driver_system()
    info = system.jit.run(t1, templates=templates)
    for translation in info.translations_entered:
        assert (translation.host_code is not None) is templates
    assert system.stats.jit_dispatches == int(templates)
    return system, info


@pytest.mark.parametrize("templates", [True, False])
class TestDriver:
    def test_follows_a_direct_chain(self, templates):
        t1, t2 = _chained_pair()
        system, info = _run_on(templates, t1)
        assert info.kind is ExitKind.EXITED
        assert info.chains_followed == 1
        assert info.translations_entered == [t1, t2]
        assert info.exit_atom is t2.exit_atoms[0]
        assert t2.entries == 1
        assert info.next_eip == 0x3000
        assert system.cpu.regs.shadow[:2] == [7, 42]
        assert info.molecules == t1.num_molecules + t2.num_molecules

    @pytest.mark.parametrize("guard", [0x2000, 0x2004])
    def test_follows_an_indirect_chain_only_through_its_guard(
            self, templates, guard):
        t1, t2 = _chained_pair(exit_target=None, guard=guard)
        system, info = _run_on(templates, t1)
        followed = guard == 0x2000  # the EIP t1 commits
        assert info.kind is ExitKind.EXITED
        assert info.chains_followed == int(followed)
        assert info.translations_entered == ([t1, t2] if followed
                                              else [t1])
        assert info.exit_atom is (t2 if followed else t1).exit_atoms[0]
        assert info.next_eip == (0x3000 if followed else 0x2000)
        assert t2.executions_molecules == \
            (t2.num_molecules if followed else 0)

    def test_follows_no_chain_while_an_interrupt_is_pending(self,
                                                            templates):
        t1, t2 = _chained_pair()
        system = _driver_system()
        regs = system.cpu.regs
        regs.working[R_IF] = regs.shadow[R_IF] = 1
        # An interrupt turns pending as t1's exit molecule completes
        # (installed before any template binds the PIC's method).
        system.machine.pic.has_pending = \
            lambda: t1.executions_molecules == t1.num_molecules
        system, info = _run_on(templates, t1, system)
        assert info.kind is ExitKind.EXITED
        assert info.chains_followed == 0
        assert info.exit_atom is t1.exit_atoms[0]
        assert t2.executions_molecules == 0 and t2.entries == 0


def test_degraded_region_chains_into_a_hot_template_on_the_vliw(
        monkeypatch):
    """A degraded region's dispatch runs on the simulated VLIW to its
    end: a chained successor that already has a template runs on the
    VLIW too, and nothing compiles."""
    system = _driver_system()
    t1, t2 = _chained_pair()
    for translation in (t1, t2):
        system.tcache.insert(translation)
    system.tcache.chain(t1, t1.exit_atoms[0], t2)
    template = system.jit.ensure_compiled(t2)
    assert template is not None
    template_runs = []

    def spy(fuel, pc):
        template_runs.append(pc)
        return template(fuel, pc)

    t2.host_code = spy
    compiles = []
    monkeypatch.setattr(jit_module, "compile_translation",
                        lambda translation, cpu, stats=None:
                        compiles.append(translation))
    tier_of = system.degrade.tier_of
    monkeypatch.setattr(system.degrade, "tier_of", lambda eip: (
        Tier.CONSERVATIVE if eip == t1.entry_eip else tier_of(eip)))
    assert system.degrade.tier_of(t2.entry_eip) is Tier.AGGRESSIVE
    system.state.eip = t1.entry_eip
    system._dispatch_once()
    stats = system.stats
    assert (stats.dispatches, stats.jit_dispatches) == (1, 0)
    assert stats.chains_followed == 1
    assert t2.executions_molecules == t2.num_molecules
    assert template_runs == [] and compiles == []
    assert t1.host_code is None
    assert system.state.eip == 0x3000
