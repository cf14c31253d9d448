"""Constrained random t86 program generator for differential fuzzing.

Programs are generated as assembly text and assembled with
``repro.isa.assembler`` (so the code genuinely lives as bytes in guest
RAM), from a ``random.Random`` seeded stream: the same seed always
yields the same program and the same injection schedule.

Every program has the same skeleton — register seeding, a counted loop
over a random body, ``cli; hlt`` — and the body is drawn from blocks
chosen to hit the paper's hard cases:

* plain ALU/shift/flag traffic (dead-flag elimination, scheduling);
* aliasing store/load clusters, including byte stores into the middle
  of just-stored words (store-buffer forwarding, alias hardware §3.5);
* loads and stores across a page edge and the end of a RAM run
  (straddle routing, the store hook's page filter, RAM-run guards);
* flag-consuming forward branches (side exits, condition recipes);
* MMIO touches on the console window and port I/O (§3.4 speculation
  barriers);
* self-modifying stores that patch an immediate inside the loop
  (§3.6 protection, self-checking, stylized SMC);
* divisions that genuinely fault, delivered through a vector-0 handler
  (§3.2 precise exceptions, speculative-vs-genuine classification).

In inject mode the skeleton additionally installs interrupt handlers,
enables interrupts, and spins after the loop until every scheduled
asynchronous event (see ``repro.fuzz.inject``) has been observed, so
runs converge no matter which molecule boundary an interrupt hit.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, replace

from repro.fuzz.inject import (INJECTABLE_IRQ_LINES, DMA_COMPLETE_IRQ,
                               InjectionEvent, InjectionPlan)

ARENA = 0x00100000  # data arena, ebp-relative loads/stores live here
ARENA_WORDS = 64  # random nonzero words seeded at [ARENA, ARENA+0x100)
COUNTER_ADDR = ARENA + 0x800  # interrupt counter, above every body disp
DMA_SRC = ARENA + 0x1000
DMA_DST = ARENA + 0x2000
STACK_TOP = 0x0007F000
CONSOLE_MMIO = 0xFFF00000
IRQ_VECTOR_BASE = 32

BODY_REGS = ("eax", "ebx", "edx", "esi", "edi")  # ecx/esp/ebp reserved
ALU_RR = ("add", "sub", "and", "or", "xor", "adc", "sbb", "imul", "cmp",
          "test")
SHIFTS = ("shl", "shr", "sar", "rol", "ror")
UNARY = ("not", "neg", "inc", "dec")
CONDS = ("jz", "jnz", "jc", "jnc", "js", "jns", "jo", "jno", "jl", "jge",
         "jle", "jg", "jb", "jbe", "ja", "jae", "jp", "jnp")
SETCC = ("setz", "setnz", "setc", "setl", "setg", "setle", "setae", "sets")
CMOVCC = ("cmovz", "cmovnz", "cmovc", "cmovl", "cmovg", "cmovs", "cmovae")

_LABEL_LINE = re.compile(r"^\s*[A-Za-z_.$][\w.$]*:\s*$")


@dataclass(frozen=True)
class FuzzProgram:
    """A generated guest program plus its injection schedule."""

    seed: int
    body_blocks: tuple[str, ...]
    iterations: int
    reg_seeds: tuple[tuple[str, int], ...]
    plan: InjectionPlan | None = None

    @property
    def source(self) -> str:
        return _render(self)

    def body_instruction_count(self) -> int:
        """Instructions in the loop body (labels excluded)."""
        count = 0
        for block in self.body_blocks:
            for line in block.splitlines():
                if line.strip() and not _LABEL_LINE.match(line):
                    count += 1
        return count

    def with_body(self, body_blocks, iterations=None) -> "FuzzProgram":
        return replace(
            self, body_blocks=tuple(body_blocks),
            iterations=self.iterations if iterations is None else iterations,
        )

    def ram_masks(self) -> list[tuple[int, int]]:
        """RAM ranges excluded from the differential comparison.

        With asynchronous interrupts the *delivery boundary* is not an
        architectural invariant, so the transient frames pushed below
        the stack top legitimately differ between engines; everything
        else must still match exactly.
        """
        if self.plan is None:
            return []
        return [(STACK_TOP - 0x1000, STACK_TOP)]


# --------------------------------------------------------------------------
# Body blocks
# --------------------------------------------------------------------------


def _reg(rng: random.Random) -> str:
    return rng.choice(BODY_REGS)


def _imm(rng: random.Random) -> int:
    # Mix small constants (flag corner cases) with full-width values.
    return rng.choice((
        rng.randint(0, 16),
        0x7FFFFFFF + rng.randint(0, 2),
        rng.randint(0, 0xFFFFFFFF),
    ))


def _disp(rng: random.Random) -> int:
    return rng.randint(0, 255) * 4


def _block_mov_imm(rng, index):
    return f"    mov {_reg(rng)}, {_imm(rng):#x}"


def _block_mov_rr(rng, index):
    return f"    mov {_reg(rng)}, {_reg(rng)}"


def _block_alu_rr(rng, index):
    return f"    {rng.choice(ALU_RR)} {_reg(rng)}, {_reg(rng)}"


def _block_alu_ri(rng, index):
    return f"    {rng.choice(ALU_RR)} {_reg(rng)}, {_imm(rng):#x}"


def _block_shift(rng, index):
    return f"    {rng.choice(SHIFTS)} {_reg(rng)}, {rng.randint(0, 31)}"


def _block_unary(rng, index):
    return f"    {rng.choice(UNARY)} {_reg(rng)}"


def _block_load(rng, index):
    return f"    load {_reg(rng)}, [ebp+{_disp(rng):#x}]"


def _block_store(rng, index):
    return f"    store [ebp+{_disp(rng):#x}], {_reg(rng)}"


def _block_alias_cluster(rng, index):
    """Overlapping store/load traffic inside one commit window."""
    d = _disp(rng)
    lines = [f"    store [ebp+{d:#x}], {_reg(rng)}"]
    if rng.random() < 0.5:
        lines.append(f"    storeb [ebp+{d + rng.randint(0, 3):#x}], "
                     f"{_reg(rng)}")
    if rng.random() < 0.3:
        lines.append(f"    store [ebp+{d + 4:#x}], {_reg(rng)}")
    lines.append(f"    load {_reg(rng)}, [ebp+{d:#x}]")
    return "\n".join(lines)


def _block_edge_access(rng, index):
    """A load or store inside RAM across an edge: 1 or 4 bytes at
    ``[ebp-1]`` to ``[ebp-3]``, into the arena's page, or 4 bytes at
    0x9FFFD to 0x9FFFF, from the first RAM run into the framebuffer
    window.  ``ecx`` holds the absolute address and is saved around it.
    """
    store = rng.random() < 0.5
    if rng.random() < 0.5:
        size = rng.choice((1, 4))
        addr, lines = f"ebp-{rng.randint(1, 3)}", []
    else:
        size, addr = 4, "ecx"
        run_edge = 0x9FFFD + rng.randint(0, 2)
        lines = ["    push ecx", f"    mov ecx, {run_edge:#x}"]
    suffix = "b" if size == 1 else ""
    if store:
        lines.append(f"    store{suffix} [{addr}], {_reg(rng)}")
    else:
        lines.append(f"    load{suffix} {_reg(rng)}, [{addr}]")
    if addr == "ecx":
        lines.append("    pop ecx")
    return "\n".join(lines)


def _block_branch_skip(rng, index):
    cond = rng.choice(CONDS)
    inner = rng.choice(ALU_RR)
    return (f"    {cond} skip_{index}\n"
            f"    {inner} {_reg(rng)}, {_reg(rng)}\n"
            f"skip_{index}:")


def _block_setcc_cmov(rng, index):
    lines = [f"    cmp {_reg(rng)}, {_reg(rng)}"]
    if rng.random() < 0.5:
        lines.append(f"    {rng.choice(SETCC)} {_reg(rng)}")
    else:
        lines.append(f"    {rng.choice(CMOVCC)} {_reg(rng)}, {_reg(rng)}")
    return "\n".join(lines)


def _block_safe_div(rng, index):
    """A division that cannot fault (high half zeroed, divisor odd)."""
    return (f"    mov eax, {_imm(rng):#x}\n"
            f"    mov edx, 0\n"
            f"    or esi, 1\n"
            f"    div esi")


def _block_faulting_div(rng, index):
    """A division that faults whenever the drawn divisor register is 0
    (or the quotient overflows); the vector-0 handler resumes after it."""
    divisor = rng.choice(("ebx", "esi", "edi"))
    high = "0" if rng.random() < 0.7 else f"{rng.randint(1, 7):#x}"
    return (f"    mov eax, {_imm(rng):#x}\n"
            f"    mov edx, {high}\n"
            f"    div {divisor}")


def _block_mmio_write(rng, index):
    r = _reg(rng)
    return (f"    mov {r}, {CONSOLE_MMIO:#x}\n"
            f"    storeb [{r}], {_reg(rng)}")


def _block_mmio_read(rng, index):
    r = _reg(rng)
    return (f"    mov {r}, {CONSOLE_MMIO:#x}\n"
            f"    load {_reg(rng)}, [{r}+4]")


def _block_port_io(rng, index):
    if rng.random() < 0.5:
        return "    out 0xE9"  # prints EAX's low byte
    return "    in 0xEA"  # console status: always 1


def _block_push_pop(rng, index):
    return f"    push {_reg(rng)}\n    pop {_reg(rng)}"


def _block_smc_patch(rng, index):
    """Patch the immediate of an instruction inside the loop body.

    RI encodings carry their 32-bit immediate at byte offset 2; the
    patched value is whatever the drawn register holds, so the rewrite
    is deterministic and the next iteration executes the new bytes.
    """
    r_addr = _reg(rng)
    target = rng.choice(("add", "xor", "or"))
    return (f"    mov {r_addr}, patch_{index} + 2\n"
            f"    store [{r_addr}], {_reg(rng)}\n"
            f"patch_{index}:\n"
            f"    {target} {_reg(rng)}, {0x11111111:#x}")


# (generator, weight) — weights skew toward plain dataflow so programs
# stay mostly well-behaved, with regular spikes of the hard cases.
_BLOCKS = (
    (_block_mov_imm, 8),
    (_block_mov_rr, 6),
    (_block_alu_rr, 10),
    (_block_alu_ri, 10),
    (_block_shift, 6),
    (_block_unary, 5),
    (_block_load, 8),
    (_block_store, 8),
    (_block_alias_cluster, 8),
    (_block_branch_skip, 8),
    (_block_setcc_cmov, 5),
    (_block_safe_div, 3),
    (_block_faulting_div, 3),
    (_block_mmio_write, 4),
    (_block_mmio_read, 2),
    (_block_port_io, 2),
    (_block_push_pop, 3),
    (_block_smc_patch, 4),
    (_block_edge_access, 4),
)
_BLOCK_FUNCS = tuple(f for f, _ in _BLOCKS)
_BLOCK_WEIGHTS = tuple(w for _, w in _BLOCKS)


# --------------------------------------------------------------------------
# Generation
# --------------------------------------------------------------------------


def generate(seed: int, inject: bool = False,
             min_blocks: int = 4, max_blocks: int = 18,
             tenant: int = 0) -> FuzzProgram:
    """Generate one deterministic program (and schedule) from ``seed``.

    ``tenant`` salts only the *injection schedule* (asynchronous
    events), never the program body: fleet tenants run byte-identical
    guest code but see independently timed interrupts/DMA, so
    same-seed tenants cannot fault in lockstep.  Tenant 0 keeps the
    historical stream (existing campaigns replay unchanged).
    """
    rng = random.Random(seed)
    count = rng.randint(min_blocks, max_blocks)
    blocks = tuple(
        rng.choices(_BLOCK_FUNCS, weights=_BLOCK_WEIGHTS, k=1)[0](rng, i)
        for i, count_i in enumerate(range(count))
    )
    iterations = rng.randint(8, 32)
    reg_seeds = tuple((reg, rng.randint(0, 0xFFFFFFFF))
                      for reg in BODY_REGS)
    plan = None
    if inject:
        if tenant != 0:
            from repro.cms.degrade import derive_seed

            rng = random.Random(derive_seed(seed, tenant, "inject"))
        plan = _generate_plan(rng)
    return FuzzProgram(seed=seed, body_blocks=blocks, iterations=iterations,
                       reg_seeds=reg_seeds, plan=plan)


def _generate_plan(rng: random.Random) -> InjectionPlan:
    events = []
    at = rng.randint(80, 200)
    for _ in range(rng.randint(1, 4)):
        events.append(InjectionEvent(
            kind="irq", at=at, line=rng.choice(INJECTABLE_IRQ_LINES)
        ))
        at += rng.randint(150, 900)
    for _ in range(rng.randint(0, 2)):
        length = rng.choice((32, 64, 128, 256))
        events.append(InjectionEvent(
            kind="dma", at=at, source=DMA_SRC, dest=DMA_DST, length=length
        ))
        at += rng.randint(200, 900)
    return InjectionPlan(tuple(events))


# --------------------------------------------------------------------------
# Rendering
# --------------------------------------------------------------------------


def _render(program: FuzzProgram) -> str:
    rng = random.Random(program.seed ^ 0x5EED_DA7A)
    lines = [".org 0x1000", "start:", f"    mov esp, {STACK_TOP:#x}"]
    lines += ["    mov eax, 0", "    storei [eax+0], de_handler"]
    plan = program.plan
    if plan is not None:
        vectors = {IRQ_VECTOR_BASE + line for line in plan.irq_lines()}
        if plan.has_dma():
            vectors.add(IRQ_VECTOR_BASE + DMA_COMPLETE_IRQ)
        for vector in sorted(vectors):
            lines.append(f"    storei [eax+{vector * 4:#x}], irq_isr")
    lines.append(f"    mov ebp, {ARENA:#x}")
    for reg, value in program.reg_seeds:
        lines.append(f"    mov {reg}, {value:#x}")
    lines.append(f"    mov ecx, {program.iterations}")
    if plan is not None:
        lines.append("    sti")
    lines.append("loop:")
    for block in program.body_blocks:
        lines.append(block)
    lines += ["    dec ecx", "    jnz loop"]
    if plan is not None:
        lines += [
            f"    mov eax, {plan.expected_interrupts}",
            f"    mov ebx, {COUNTER_ADDR:#x}",
            "wait_irqs:",
            "    load edx, [ebx]",
            "    cmp edx, eax",
            "    jl wait_irqs",
        ]
    lines += ["    cli", "    hlt", ""]
    # Vector-0 handler: skip the faulting 2-byte div (leaves EAX holding
    # the resume address — deterministic on both engines).
    lines += [
        "de_handler:",
        "    pop eax",
        "    add eax, 2",
        "    push eax",
        "    iret",
        "",
    ]
    if plan is not None:
        lines += [
            "irq_isr:",
            "    push eax",
            "    push ebx",
            f"    mov ebx, {COUNTER_ADDR:#x}",
            "    load eax, [ebx]",
            "    inc eax",
            "    store [ebx], eax",
            "    mov eax, 0x20",
            "    out 0x20",
            "    pop ebx",
            "    pop eax",
            "    iret",
            "",
        ]
    # Data arena: nonzero words so loads observe interesting values.
    lines.append(f".org {ARENA:#x}")
    lines.append("arena:")
    for i in range(0, ARENA_WORDS, 8):
        words = ", ".join(f"{rng.randint(0, 0xFFFFFFFF):#x}"
                          for _ in range(8))
        lines.append(f"    .word {words}")
    if plan is not None and plan.has_dma():
        lines.append(f".org {DMA_SRC:#x}")
        lines.append("dmasrc:")
        for i in range(0, 256, 16):
            data = ", ".join(f"{rng.randint(0, 255):#x}"
                             for _ in range(16))
            lines.append(f"    .byte {data}")
    return "\n".join(lines) + "\n"
