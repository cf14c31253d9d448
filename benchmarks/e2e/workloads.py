"""The benchmark's four guest workloads, each run to halt per rep.

A workload builds one or more ``ScenarioProgram`` instances from
``(seed, smoke)``.  Every program is loaded and digested through the
scenario runner's machine builder and outcome capture, so the CMS leg
and the interpreter-only oracle are compared by exactly the rules the
scenario matrix uses (stack arenas masked, unpinned interrupt counts
ignored).

Why each workload is here (see README.md for the layer map):

* ``steady-apps`` — hot loops.  Nearly all instructions run in chained
  template-JIT code; the translator, interpreter, SMC and MMU barely
  run.  The control for changes to those layers.
* ``cold-flat`` — boot-like flat profile.  Many distinct procedures,
  each called just past the translation threshold, so translation,
  interpreter profiling, JIT compile and SMC page protection never
  amortize.
* ``smc-guestjit`` — the guest rewrites and re-enters its own code, so
  the §3.6 ladder (protection faults, self-check, revalidation, group
  reactivation, rollback) and tcache invalidation run continuously.
* ``paging-os`` — a paging guest OS: MMU and software TLB, #PF
  delivery, the page-table-store interlock and recovery interpretation.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Callable

from repro.scenarios import matrix
from repro.scenarios.base import Scenario, ScenarioProgram
from repro.scenarios.runner import _outcome
from repro.workloads.apps import APP_FACTORIES
from repro.workloads.builder import DATA_BASE, wrap

STEADY_KERNELS = ("compress", "tomcatv", "eqntott", "crafty")

# Cold-flat shape: every procedure runs CALLS times, just past the
# default translation threshold (20), so each pays interpretation,
# translation and JIT compile and then runs translated only a few times.
CALLS = 25
PROC_MIN, PROC_MAX = 6, 24  # instructions per procedure body
BODY_REGS = ("eax", "ebx", "ecx", "edx")  # edi/ebp/esp/esi reserved
ALU_RR = ("add", "sub", "and", "or", "xor", "imul")
ALU_RI = ("add", "sub", "and", "or", "xor")
SHIFTS = ("shl", "shr", "rol", "ror")
CONDS = ("jz", "jnz", "jc", "jnc", "js", "jns", "jl", "jge", "jb", "jae")


@dataclass(frozen=True)
class Size:
    """Per-workload sizes: the full benchmark and the smoke test."""

    full: int
    smoke: int


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``size`` is the workload's own knob (app scale, procedure count or
    scenario budget); ``slice_instructions`` is ``S`` in ``run_slice(S)``,
    chosen so a full-size rep has over 1000 slices and the slice p99
    has at least ten slices beyond it.
    A workload whose programs ignore the seed (``seeded=False``) has one
    oracle outcome for every seed.  A workload is either a matrix
    ``scenario`` (one program per rep, with the scenario's own interrupt
    pinning) or a ``build`` of its own programs, none of which takes
    interrupts.
    """

    name: str
    size: Size
    slice_instructions: int
    seeded: bool
    build: Callable[[int, int], list[ScenarioProgram]] | None = None
    scenario: Scenario | None = None

    @property
    def pin_interrupts(self) -> bool:
        return self.scenario is None or self.scenario.pin_interrupts

    def programs(self, seed: int, smoke: bool) -> list[ScenarioProgram]:
        size = self.size.smoke if smoke else self.size.full
        if self.scenario is not None:
            return [self.scenario.build(size, seed)]
        return self.build(size, seed)


def _steady_apps(scale: int, seed: int) -> list[ScenarioProgram]:
    programs = []
    for name in STEADY_KERNELS:
        workload = APP_FACTORIES[name](scale)
        programs.append(ScenarioProgram(
            source=workload.source,
            max_instructions=workload.max_instructions,
            ram_masks=()))
    return programs


def _procedure(rng: random.Random, index: int) -> list[str]:
    """One procedure: ALU, ebp-relative load/store and forward-branch
    traffic, folded into the ESI checksum before ``ret``."""
    window = (index * 16) % 4096  # words; neighbours share data words
    lines: list[str] = []
    target = rng.randint(PROC_MIN, PROC_MAX) - 3  # fold + ret below
    skip = 0
    while len(lines) < target:
        reg = rng.choice(BODY_REGS)
        draw = rng.random()
        if draw < 0.25:
            lines.append(f"    {rng.choice(ALU_RR)} {reg}, "
                         f"{rng.choice(BODY_REGS)}")
        elif draw < 0.45:
            lines.append(f"    {rng.choice(ALU_RI)} {reg}, "
                         f"{rng.randint(0, 0xFFFF):#x}")
        elif draw < 0.55:
            lines.append(f"    {rng.choice(SHIFTS)} {reg}, "
                         f"{rng.randint(1, 31)}")
        elif draw < 0.70:
            disp = (window + rng.randint(0, 31)) * 4
            lines.append(f"    load {reg}, [ebp+{disp:#x}]")
        elif draw < 0.85:
            disp = (window + rng.randint(0, 31)) * 4
            lines.append(f"    store [ebp+{disp:#x}], {reg}")
        else:
            label = f"cf_{index}_s{skip}"
            skip += 1
            lines += [f"    test {reg}, {1 << rng.randint(0, 7):#x}",
                      f"    {rng.choice(CONDS)} {label}",
                      f"    {rng.choice(ALU_RR)} {rng.choice(BODY_REGS)}, "
                      f"{reg}",
                      f"{label}:"]
    fold = rng.choice(BODY_REGS)
    return lines + [f"    xor esi, {fold}", "    rol esi, 5", "    ret"]


def cold_flat_source(procedures: int, seed: int) -> str:
    """Seeded flat-profile program: ``procedures`` distinct procedures,
    each called ``CALLS`` times round-robin."""
    rng = random.Random(seed)
    lines = [f"    mov ebp, {DATA_BASE:#x}", f"    mov edi, {CALLS}",
             "cf_outer:"]
    lines += [f"    call cf_p{i}" for i in range(procedures)]
    lines += ["    dec edi", "    jnz cf_outer", "    jmp cf_done"]
    for i in range(procedures):
        lines.append(f"cf_p{i}:")
        lines += _procedure(rng, i)
    lines.append("cf_done:")
    return wrap("\n".join(lines))


def _cold_flat(procedures: int, seed: int) -> list[ScenarioProgram]:
    return [ScenarioProgram(source=cold_flat_source(procedures, seed),
                            max_instructions=50_000_000, ram_masks=())]


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="steady-apps",
        size=Size(full=5, smoke=1),
        # Hot JIT dispatches retire far more than S instructions each,
        # so with S = 1 a slice is one dispatcher iteration.
        slice_instructions=1,
        seeded=False,
        build=_steady_apps,
    ),
    Workload(
        name="cold-flat",
        size=Size(full=300, smoke=60),
        slice_instructions=50,
        seeded=True,
        build=_cold_flat,
    ),
    Workload(
        name="smc-guestjit",
        size=Size(full=300_000, smoke=20_000),
        slice_instructions=100,
        seeded=False,
        scenario=matrix.get("guest-jit"),
    ),
    Workload(
        name="paging-os",
        size=Size(full=40_000, smoke=10_000),
        slice_instructions=20,
        seeded=True,
        scenario=matrix.get("paging"),
    ),
)}


def outcome_digest(system, program: ScenarioProgram, result,
                   pin_interrupts: bool) -> str:
    """sha256 over one run's architectural outcome.

    Covers halted, console, registers, eip, flags, RAM (minus the
    program's ``ram_masks``), delivered exceptions, and delivered
    interrupts when the workload pins them.  The retired-instruction
    count is left out: interrupt delivery points legitimately differ
    between engines.
    """
    outcome = _outcome(system, program, result)
    digest = hashlib.sha256()
    digest.update(repr((outcome.halted, outcome.console, outcome.regs,
                        outcome.eip, outcome.flags, outcome.exceptions,
                        outcome.interrupts if pin_interrupts else None)
                       ).encode())
    digest.update(outcome.ram)
    return digest.hexdigest()
