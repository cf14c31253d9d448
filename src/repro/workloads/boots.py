"""Synthetic OS-boot workloads.

The paper's boot benchmarks (DOS, Linux, OS/2, Windows 95/98/ME/NT/XP)
stress exactly the system-level behaviours CMS must survive: port and
memory-mapped device probing, interrupt handlers, DMA/disk traffic into
RAM, large one-shot initialization sequences that never get hot, kernel
memcpy/table loops that do, and driver code that mixes code and data on
the same pages (the dominant source of Table 1's protection faults).

``make_boot`` assembles those phases with per-OS intensity knobs chosen
to reproduce the *spread* of the paper's figures: memcpy/table-heavy
boots (DOS, 98, ME, XP) are the most sensitive to suppressed memory
reordering (Figure 2), interpretation-heavy boots with large one-shot
init (Linux, NT, 95) the least, and the Win9x family generates the most
mixed code/data driver traffic (Table 1).
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass

from repro.machine import TIMER_MMIO_BASE, DMA_MMIO_BASE
from repro.workloads.base import Workload
from repro.workloads.builder import (
    DATA_BASE,
    RUNTIME_LIBRARY,
    STACK_TOP,
    random_words,
    word_table,
)

IRQ_TIMER_VECTOR = 32
IRQ_DMA_VECTOR = 34


@dataclass(frozen=True)
class BootProfile:
    """Phase intensities for one synthetic boot."""

    name: str
    cold_init_blocks: int = 4  # one-shot unique code blocks (dilution)
    probe_rounds: int = 30  # port + MMIO device probing iterations
    memcpy_rounds: int = 20  # hot kernel copy loops (reorder-sensitive)
    memcpy_words: int = 192
    table_rounds: int = 15  # pointer-table initialization loops
    driver_routines: int = 6  # routines with data beside code
    driver_rounds: int = 40  # calls per routine (Table 1 pressure)
    timer_ticks: int = 4  # interrupts to wait for
    timer_period: int = 3000
    dma_rounds: int = 3  # DMA transfers (paging-style traffic)
    paging: bool = False  # identity paging on


def _cold_init(profile: BootProfile) -> str:
    """One-shot straight-line code: executed once, never translated.

    Seeded from a stable digest of the boot's name: ``hash(str)`` is
    salted per process, so it would assemble a different guest program
    in every process.
    """
    rng = random.Random(zlib.crc32(profile.name.encode()) & 0xFFFF)
    blocks = []
    for block in range(profile.cold_init_blocks):
        lines = [f"cold_{block}:"]
        for _ in range(60):
            op = rng.choice(["add", "xor", "or", "and", "sub"])
            reg = rng.choice(["eax", "ebx", "ecx", "edx"])
            lines.append(f"    {op} {reg}, {rng.randint(1, 0xFFFF)}")
        lines.append("    xor esi, eax")
        blocks.append("\n".join(lines))
    return "\n".join(blocks)


def _driver_section(profile: BootProfile) -> tuple[str, str]:
    """Driver routines each followed by their own state word.

    The state word shares a page (usually a granule) with the routine's
    code — the Windows/9X driver pattern §3.6.1 is about.
    """
    routines = []
    calls = []
    for k in range(profile.driver_routines):
        # Device state lives on the same *page* as the routine's code
        # but (via alignment) in a different 64-byte granule — the
        # common mixed code/data layout that fine-grain protection
        # handles without faulting (§3.6.1, Table 1).  Page-granularity
        # protection faults on every one of these stores.
        routines.append(f"""
drv_{k}:
    mov ebx, drvdata_{k}
    load eax, [ebx]
    add eax, {k + 3}
    store [ebx], eax
    xor esi, eax
    ret
.align 64
drvdata_{k}:
    .word {k * 17 + 1}
.space 60
""")
        calls.append(f"    call drv_{k}")
    call_block = "\n".join(calls)
    driver_loop = f"""
    mov edi, {profile.driver_rounds}
driver_loop:
{call_block}
    dec edi
    jnz driver_loop
"""
    return driver_loop, "\n".join(routines)


def make_boot(profile: BootProfile) -> Workload:
    paging_setup = ""
    if profile.paging:
        paging_setup = """
    ; build an identity page table for the first 2 MiB and enable paging
    mov ebx, 0x00200000
    mov ecx, 0
pt_build:
    mov eax, ecx
    shl eax, 12
    or eax, 3
    storex [ebx+ecx*4], eax
    inc ecx
    cmp ecx, 512
    jne pt_build
    mov eax, 0x00200000
    setpt eax
    pgon
"""

    driver_loop, driver_routines = _driver_section(profile)
    cold = _cold_init(profile)
    kernel_image = word_table("kimage", random_words(7, profile.memcpy_words),
                              org=DATA_BASE)

    source = f"""
.org 0x1000
start:
    mov esp, {STACK_TOP:#x}
    mov esi, 0

    ; ---- interrupt vector table -------------------------------------
    mov ebx, 0
    storei [ebx+{IRQ_TIMER_VECTOR * 4}], timer_isr
    storei [ebx+{IRQ_DMA_VECTOR * 4}], dma_isr

    ; ---- one-shot platform init (interpreted, never hot) -------------
    call cold_entry

    ; ---- device probing: ports and memory-mapped registers -----------
    ; (performed with paging off: the identity table below only covers
    ; low RAM, as on a real early-boot path)
    mov edi, {profile.probe_rounds}
probe_loop:
    in 0xEA                    ; console status
    xor esi, eax
    mov ebx, {TIMER_MMIO_BASE:#x}
    load eax, [ebx]            ; timer period register (MMIO)
    add esi, eax
    mov ebx, {DMA_MMIO_BASE:#x}
    load eax, [ebx+12]         ; DMA status register (MMIO)
    add esi, eax
    in 0x53                    ; DMA status via port too
    xor esi, eax
    rol esi, 1
    dec edi
    jnz probe_loop
{paging_setup}
    ; ---- kernel relocation: hot memcpy loops --------------------------
    ; source and destination behind different pointer registers with a
    ; two-element unroll: the next load hoists above the previous store
    ; only under speculative reordering (Figures 2 and 3)
    mov edi, {profile.memcpy_rounds}
kcopy_round:
    mov ebx, kimage
    mov ebp, kdest
    mov ecx, 0
kcopy_loop:
    ; relocation applies a cheap fixup to each word: a short
    ; load->compute->store chain, moderately reorder-sensitive
    loadx eax, [ebx+ecx*4]
    xor eax, ecx
    storex [ebp+ecx*4], eax
    loadx edx, [ebx+ecx*4+4]
    xor edx, ecx
    storex [ebp+ecx*4+4], edx
    add esi, eax
    xor esi, edx
    add ecx, 2
    cmp ecx, {profile.memcpy_words}
    jne kcopy_loop
    dec edi
    jnz kcopy_round

    ; ---- system table initialization ---------------------------------
    mov edi, {profile.table_rounds}
tab_round:
    mov ebx, systab          ; descriptor source
    mov ebp, systab + 704    ; descriptor shadow copy
    mov ecx, 0
tab_loop:
    loadx eax, [ebx+ecx*4]
    shl eax, 3
    or eax, 5                ; descriptor present+dpl bits
    add eax, ecx
    storex [ebp+ecx*4], eax
    loadx edx, [ebx+ecx*4+4] ; next descriptor: hoists over the store
    xor esi, edx
    inc ecx
    cmp ecx, 159
    jne tab_loop
    dec edi
    jnz tab_round
    mov ebx, 0

    ; ---- driver initialization: code and data on shared pages ---------
{driver_loop}

    ; ---- disk/DMA paging traffic --------------------------------------
    mov ebx, 0
    mov edi, {profile.dma_rounds}
dma_round:
    mov eax, kimage
    out 0x50                   ; DMA source
    mov eax, dmadest
    out 0x51                   ; DMA destination
    mov eax, 256
    out 0x52                   ; length
    mov eax, 1
    out 0x53                   ; go
dma_wait:
    in 0x53
    test eax, eax
    jnz dma_wait
    load eax, [ebx+dmadest]
    xor esi, eax
    dec edi
    jnz dma_round

    ; ---- timer interrupts: idle until enough ticks ---------------------
    mov ebx, tickcount
    storei [ebx], 0
    mov eax, {profile.timer_period}
    out 0x40                   ; timer period
    mov eax, 1
    out 0x41                   ; timer on
    sti
idle_loop:
    mov ebx, tickcount
    load eax, [ebx]
    cmp eax, {profile.timer_ticks}
    jl idle_loop
    cli
    mov eax, 0
    out 0x41                   ; timer off
    add esi, eax

    call print_checksum
    cli
    hlt

cold_entry:
{cold}
    ret

timer_isr:
    push eax
    push ebx
    mov ebx, tickcount
    load eax, [ebx]
    inc eax
    store [ebx], eax
    mov eax, 0x20
    out 0x20                   ; EOI
    pop ebx
    pop eax
    iret

dma_isr:
    push eax
    mov eax, 0x20
    out 0x20
    pop eax
    iret

{driver_routines}
{RUNTIME_LIBRARY}

{kernel_image}
kdest:
    .space {profile.memcpy_words * 4}
systab:
    .space 1408
dmadest:
    .space 1024
tickcount:
    .word 0
"""
    return Workload(
        name=profile.name,
        category="boot",
        source=source,
        description=f"synthetic OS boot ({profile.name})",
    )


# Per-OS intensity profiles.  Knob meanings are described on
# BootProfile; relative settings aim to reproduce the figures' spread.
BOOT_PROFILES = {
    "dos_boot": BootProfile(
        "dos_boot", cold_init_blocks=2, probe_rounds=20, memcpy_rounds=45,
        memcpy_words=160, table_rounds=8, driver_routines=3,
        driver_rounds=20, timer_ticks=3, dma_rounds=1,
    ),
    "linux_boot": BootProfile(
        "linux_boot", cold_init_blocks=10, probe_rounds=25,
        memcpy_rounds=4, table_rounds=4, driver_routines=4,
        driver_rounds=15, timer_ticks=4, dma_rounds=4, paging=True,
    ),
    "os2_boot": BootProfile(
        "os2_boot", cold_init_blocks=7, probe_rounds=30, memcpy_rounds=12,
        table_rounds=8, driver_routines=5, driver_rounds=25,
        timer_ticks=4, dma_rounds=3,
    ),
    "win95_boot": BootProfile(
        "win95_boot", cold_init_blocks=10, probe_rounds=40,
        memcpy_rounds=5, table_rounds=5, driver_routines=8,
        driver_rounds=70, timer_ticks=4, dma_rounds=3,
    ),
    "win98_boot": BootProfile(
        "win98_boot", cold_init_blocks=6, probe_rounds=40,
        memcpy_rounds=28, table_rounds=12, driver_routines=8,
        driver_rounds=80, timer_ticks=5, dma_rounds=4,
    ),
    "winme_boot": BootProfile(
        "winme_boot", cold_init_blocks=4, probe_rounds=35,
        memcpy_rounds=40, memcpy_words=224, table_rounds=16,
        driver_routines=7, driver_rounds=60, timer_ticks=5, dma_rounds=4,
    ),
    "winnt_boot": BootProfile(
        "winnt_boot", cold_init_blocks=10, probe_rounds=30,
        memcpy_rounds=7, table_rounds=6, driver_routines=5,
        driver_rounds=25, timer_ticks=5, dma_rounds=5, paging=True,
    ),
    "winxp_boot": BootProfile(
        "winxp_boot", cold_init_blocks=8, probe_rounds=35,
        memcpy_rounds=30, table_rounds=14, driver_routines=6,
        driver_rounds=40, timer_ticks=6, dma_rounds=5, paging=True,
    ),
}


def make_all_boots() -> dict[str, Workload]:
    return {name: make_boot(profile)
            for name, profile in BOOT_PROFILES.items()}
