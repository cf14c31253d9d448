"""Differential oracle: interpreter vs CMS across a matrix of dials.

The reference semantics is the pure interpreter
(``CMSConfig.interpreter_only``), which executes one guest instruction
at a time with no speculation and therefore *is* the sequential x86 the
paper's correctness story appeals to.  Each generated program runs once
under the reference, then once per dial variant under full CMS; any
difference in final architectural state — registers, eip, flags,
console output, guest RAM, or delivered fault counts — is a mismatch.

For injected (asynchronous) runs the stack scratch region is excluded
from the RAM comparison: interrupt *delivery points* are not
architecturally pinned, so the dead frames below the stack top may
legitimately differ while everything the program actually computed must
still agree (the guest converges on an interrupt counter before
halting, see ``genprog``).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field, replace

from repro.cms.config import CMSConfig
from repro.cms.degrade import derive_seed
from repro.cms.system import CodeMorphingSystem
from repro.fuzz.genprog import FuzzProgram, generate
from repro.fuzz.inject import FaultInjector
from repro.isa.registers import REG_NAMES
from repro.machine import Machine
from repro.state import FLAG_SLOTS

# Every variant translates eagerly so short fuzz programs actually
# exercise the translated paths, and re-faults adapt quickly.
_BASE = CMSConfig(translation_threshold=4, fault_threshold=2)


@dataclass(frozen=True)
class DialVariant:
    """One named point in the CMSConfig dial space.

    ``snapshot_roundtrip`` runs the program twice — a cold run that
    saves a warm-start snapshot, then a warm run that reloads it — and
    differentially checks the *warm* outcome, so the persistence layer
    (PR 5) sits inside the fuzzing oracle.

    Every variant compiles templates on first entry, since at the
    runtime compile threshold (``host/jit.py``) few short programs would
    run any template code at all; ``lazy_jit`` keeps the threshold.
    """

    name: str
    config: CMSConfig
    snapshot_roundtrip: bool = False
    lazy_jit: bool = False


def default_matrix() -> tuple[DialVariant, ...]:
    """The dial matrix every program is checked against."""
    return (
        DialVariant("full", _BASE),
        DialVariant("no-reorder", replace(_BASE, reorder_memory=False,
                                          control_speculation=False)),
        DialVariant("no-alias-hw", replace(_BASE, use_alias_hw=False)),
        DialVariant("no-fine-grain",
                    replace(_BASE, fine_grain_protection=False)),
        DialVariant("forced-self-check",
                    replace(_BASE, force_self_check=True)),
        DialVariant("tiny-regions",
                    replace(_BASE, max_region_instructions=6,
                            commit_interval=4, store_buffer_capacity=8,
                            alias_entries=2)),
        DialVariant("no-groups-no-reval",
                    replace(_BASE, translation_groups=False,
                            self_revalidation=False, stylized_smc=False)),
        DialVariant("seed-paths", _BASE.seed_performance()),
        # Template JIT (PR 6): _BASE runs with the JIT on, so every
        # variant above already differentially checks JIT-generated code
        # against the interpreter; this variant pins the simulated-VLIW
        # path on the same programs, closing the three-way
        # JIT / VLIW / interpreter comparison.
        DialVariant("no-template-jit", replace(_BASE, template_jit=False)),
        # Every campaign also exercises the conservative rungs of the
        # degradation ladder: regions start (and stay) at NO_REORDER, so
        # the clamped-policy translation paths are differentially
        # checked even when no storm occurs.
        DialVariant("degraded-ladder",
                    replace(_BASE, degrade_tier_floor=2,
                            ladder_promote_clean=8)),
        # Persistence (PR 5): cold run saves, warm run reloads and
        # revalidates; the warm run must still match the interpreter.
        DialVariant("snapshot-roundtrip", _BASE,
                    snapshot_roundtrip=True),
        # Template staging at the runtime compile threshold: a
        # translation starts on the simulated VLIW, its exits chain
        # through the JIT driver, and once hot it switches to its
        # template mid-dispatch.
        DialVariant("lazy-jit", _BASE, lazy_jit=True),
    )


def chaos_matrix(variants: tuple[DialVariant, ...], rate: float,
                 seed: int) -> tuple[DialVariant, ...]:
    """Arm every variant with chaos injection at ``rate``.

    The reference engine stays chaos-free (it never translates), so a
    chaos campaign checks the full containment contract: injected
    internal translator failures must never change architectural
    outcomes — only make the run slower.  Each variant's chaos stream
    is seeded from its name, so adding or deleting a variant leaves
    every other variant's stream where it was.
    """
    return tuple(
        replace(
            variant,
            name=f"{variant.name}+chaos",
            config=replace(variant.config, chaos_rate=rate,
                           chaos_seed=derive_seed(seed, 0, variant.name)),
        )
        for variant in variants
    )


def variant_by_name(name: str) -> DialVariant:
    for variant in default_matrix():
        if variant.name == name:
            return variant
    raise KeyError(f"unknown dial variant {name!r}; "
                   f"known: {[v.name for v in default_matrix()]}")


@dataclass
class RunOutcome:
    """Architectural outcome of one engine running one program."""

    halted: bool
    console: str
    regs: tuple[int, ...]
    eip: int
    flags: tuple[int, ...]
    ram: bytes
    exceptions: int
    interrupts: int
    guest_instructions: int


def capture_outcome(system: CodeMorphingSystem,
                    ram_masks: Iterable[tuple[int, int]]) -> RunOutcome:
    """The architectural outcome of a finished ``system``.

    ``ram_masks`` are ``(start, end)`` ranges zeroed before the RAM is
    compared (scratch whose contents are not architecturally pinned).
    Halted, console and instruction count are the values a
    ``RunResult`` of the same run carries.
    """
    machine = system.machine
    regs, eip, flags = system.state.snapshot()
    ram = bytearray(machine.ram.read_bytes(0, machine.ram.size))
    for start, end in ram_masks:
        ram[start:end] = b"\x00" * (end - start)
    return RunOutcome(
        halted=system.halted,
        console=machine.console.output,
        regs=regs,
        eip=eip,
        flags=flags,
        ram=bytes(ram),
        exceptions=system.interpreter.exceptions_delivered,
        interrupts=system.interpreter.interrupts_delivered,
        guest_instructions=machine.instructions_retired,
    )


def execute(program: FuzzProgram, config: CMSConfig,
            max_instructions: int = 400_000,
            cms_factory=None, lazy_jit: bool = False) -> RunOutcome:
    """Run one program to completion under one configuration.

    ``cms_factory``, when given, is called with the freshly built
    ``CodeMorphingSystem`` before the run starts — the hook the
    broken-dial tests use to sabotage one engine.  Templates compile on
    first entry unless ``lazy_jit`` (see ``DialVariant``).
    """
    machine = Machine()
    entry = machine.load_source(program.source)
    system = CodeMorphingSystem(machine, config)
    if config.template_jit and not lazy_jit:
        system.jit.compile_passes = 0
    if cms_factory is not None:
        cms_factory(system)
    if program.plan is not None:
        FaultInjector(machine, program.plan)
    system.run(entry, max_instructions=max_instructions)
    system.shutdown()  # persists the warm-start snapshot when configured
    return capture_outcome(system, program.ram_masks())


def execute_roundtrip(program: FuzzProgram, config: CMSConfig,
                      max_instructions: int = 400_000,
                      cms_factory=None,
                      lazy_jit: bool = False) -> RunOutcome:
    """Run cold (saving a snapshot), then warm (reloading it).

    The warm run starts from a fresh machine, so every persisted
    translation is revalidated against the pristine program image —
    translations the cold run made *after* SMC or DMA rewrote code
    bytes must be dropped at load, never trusted.  The returned warm
    outcome is what the differential harness compares.
    """
    import os
    import tempfile

    handle, path = tempfile.mkstemp(suffix=".cms-snapshot.json")
    os.close(handle)
    os.unlink(path)  # let the cold run's save create it
    try:
        execute(program,
                replace(config, snapshot_path=path, snapshot_save=True),
                max_instructions, cms_factory, lazy_jit)
        return execute(program,
                       replace(config, snapshot_path=path,
                               snapshot_save=False),
                       max_instructions, cms_factory, lazy_jit)
    finally:
        if os.path.exists(path):
            os.unlink(path)


def compare(ref: RunOutcome, cms: RunOutcome) -> list[str]:
    """All architectural differences between two outcomes."""
    diffs: list[str] = []
    if ref.halted != cms.halted:
        diffs.append(f"halted: ref={ref.halted} cms={cms.halted}")
    if ref.console != cms.console:
        diffs.append(f"console: ref={ref.console!r} cms={cms.console!r}")
    for i, name in enumerate(REG_NAMES):
        if ref.regs[i] != cms.regs[i]:
            diffs.append(f"{name}: ref={ref.regs[i]:#010x} "
                         f"cms={cms.regs[i]:#010x}")
    if ref.eip != cms.eip:
        diffs.append(f"eip: ref={ref.eip:#010x} cms={cms.eip:#010x}")
    for i, name in enumerate(FLAG_SLOTS):
        if ref.flags[i] != cms.flags[i]:
            diffs.append(f"flag {name}: ref={ref.flags[i]} "
                         f"cms={cms.flags[i]}")
    if ref.exceptions != cms.exceptions:
        diffs.append(f"exceptions_delivered: ref={ref.exceptions} "
                     f"cms={cms.exceptions}")
    if ref.interrupts != cms.interrupts:
        diffs.append(f"interrupts_delivered: ref={ref.interrupts} "
                     f"cms={cms.interrupts}")
    if ref.ram != cms.ram:
        first = [i for i in range(len(ref.ram))
                 if ref.ram[i] != cms.ram[i]][:8]
        diffs.append(f"ram: first diffs at {[hex(a) for a in first]}")
    return diffs


@dataclass
class Mismatch:
    """One confirmed differential failure."""

    program: FuzzProgram
    variant: DialVariant
    diffs: list[str]

    def describe(self) -> str:
        lines = [f"seed {self.program.seed} x variant {self.variant.name} "
                 f"({len(self.diffs)} diffs):"]
        lines += [f"  {d}" for d in self.diffs]
        return "\n".join(lines)


def run_differential(program: FuzzProgram,
                     variants: tuple[DialVariant, ...] | None = None,
                     max_instructions: int = 400_000,
                     cms_factory=None) -> list[Mismatch]:
    """Check one program against the reference across ``variants``."""
    variants = variants or default_matrix()
    ref = execute(program, _BASE.interpreter_only(), max_instructions)
    if not ref.halted:
        # The reference itself ran out of budget — the program is not a
        # valid differential subject (should not happen: generated
        # programs are bounded loops).
        return []
    mismatches = []
    for variant in variants:
        runner = execute_roundtrip if variant.snapshot_roundtrip \
            else execute
        cms = runner(program, variant.config, max_instructions,
                     cms_factory=cms_factory, lazy_jit=variant.lazy_jit)
        diffs = compare(ref, cms)
        if diffs:
            mismatches.append(Mismatch(program, variant, diffs))
    return mismatches


@dataclass
class CampaignResult:
    """Aggregate outcome of one fuzzing campaign."""

    programs: int = 0
    trials: int = 0
    injected_programs: int = 0
    mismatches: list[Mismatch] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches


def run_campaign(budget: int, seed: int,
                 variants: tuple[DialVariant, ...] | None = None,
                 inject_every: int = 4,
                 max_instructions: int = 400_000,
                 cms_factory=None,
                 on_program=None,
                 stop_on_mismatch: bool = True) -> CampaignResult:
    """Run differential trials until ``budget`` (program, variant)
    comparisons have been spent.

    Every ``inject_every``-th program carries an injection plan; program
    seeds are derived from ``seed`` so a campaign is reproducible from
    its command line alone.
    """
    variants = variants or default_matrix()
    result = CampaignResult()
    index = 0
    while result.trials < budget:
        inject = inject_every > 0 and index % inject_every == inject_every - 1
        program = generate(seed * 1_000_003 + index, inject=inject)
        index += 1
        result.programs += 1
        if inject:
            result.injected_programs += 1
        if on_program is not None:
            on_program(program)
        remaining = budget - result.trials
        subset = variants[:remaining]
        result.trials += len(subset)
        found = run_differential(program, subset, max_instructions,
                                 cms_factory=cms_factory)
        result.mismatches.extend(found)
        if found and stop_on_mismatch:
            break
    return result
