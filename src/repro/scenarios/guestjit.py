"""SMC-heavy guest JIT: the guest emits, patches, and re-enters its own
generated code in a tight loop.

Each round the guest byte-copies one of four position-independent
kernel templates into a code buffer, rewrites the first instruction's
32-bit immediate in place (the classic compiled-constant patch), and
then hammers the fresh code with a burst of indirect calls.  Two
buffers alternate by round parity, so a buffer is always rewritten
*while the CMS still holds translations for its previous contents*.

This walks most of the paper's §3.6 adaptation ladder at once: every
emit burst hits fine-grain protected pages (§3.6.1), the repeated
patch-then-reenter rhythm drives self-revalidating prologues (§3.6.2)
and self-checking translations (§3.6.3), and the patch value cycles
with period 8 so identical buffer contents recur and translation-group
reactivation (§3.6.5) has real hits to find.  It does not reach
stylized immediate reloading (§3.6.4): under the default config none
of its translations adopts stylized immediates.  The quake_demo2
workload covers that path.

Convergence is trivial: the scenario is single-context and runs with
interrupts disabled, so it is compared exactly (``pin_interrupts`` on).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.workloads.builder import MACRO_LIBRARY, wrap

from repro.scenarios.base import ScenarioProgram

TMPL_BYTES = 32   # fixed emit size; every template is padded to this
BUF_STRIDE = 64   # the two code buffers sit one cache-line apart


@dataclass(frozen=True)
class JitKnobs:
    """Budget-derived sizing for one guest-JIT phase."""

    rounds: int
    inner: int  # re-entries per emitted kernel

    @classmethod
    def for_budget(cls, budget: int) -> "JitKnobs":
        return cls(rounds=max(4, budget // 360), inner=24)


def phase_body(p: str, knobs: JitKnobs) -> str:
    """The guest-JIT phase with all labels prefixed by ``p``."""
    return f"""
; ---- guest JIT ({p}) -------------------------------------------------
    mov edi, 0
{p}round:
    ; Destination buffer alternates by round parity, so the buffer we
    ; emit into still has live translations from two rounds ago.
    mov ebp, edi
    and ebp, 1
    shl ebp, 6
    add ebp, {p}jbuf
    ; Source template: round mod 4 selects one of the four kernels.
    mov eax, edi
    and eax, 3
    shl eax, 5
    add eax, {p}tmpl
    ; Emit: byte-copy the template into the code buffer.
    mov edx, {TMPL_BYTES}
{p}emit:
    loadb ecx, [eax]
    storeb [ebp], ecx
    inc eax
    inc ebp
    dec edx
    jnz {p}emit
    sub ebp, {TMPL_BYTES}
    ; Patch: bake this round's constant into the first instruction's
    ; immediate field (period-8 values, so buffer contents recur and
    ; translation groups can reactivate old versions).
    mov eax, edi
    and eax, 7
    imul eax, 0x9E3779B1
    add eax, 0x7F4A7C15
    mov ecx, ebp
    add ecx, 2
    store [ecx], eax
    ; Hammer: re-enter the freshly generated kernel.
    mov edx, {knobs.inner}
    mov eax, edi
{p}hammer:
    call ebp
    dec edx
    jnz {p}hammer
    mix eax
    inc edi
    cmp edi, {knobs.rounds}
    jne {p}round
    ; Fold the final machine code itself into the checksum.
    mov ebx, 0
    load eax, [ebx + {p}jbuf]
    mix eax
    load eax, [ebx + {p}jbuf + {BUF_STRIDE}]
    mix eax
    jmp {p}phase_end

; Four position-independent kernels, each padded to {TMPL_BYTES} bytes
; so the emitter can copy a fixed-size block.  Each starts with an
; `add eax, imm32` whose immediate (at offset +2) is the patch site.
.align {TMPL_BYTES}
{p}tmpl:
    add eax, 0                          ; patched after every emit
    xor eax, 0x0F1E2D3C
    rol eax, 3
    ret
.align {TMPL_BYTES}
    add eax, 0                          ; patched after every emit
    add eax, 0x01234567
    rol eax, 5
    ret
.align {TMPL_BYTES}
    add eax, 0                          ; patched after every emit
    xor eax, 0x51CC5151
    rol eax, 7
    ret
.align {TMPL_BYTES}
    add eax, 0                          ; patched after every emit
    imul eax, 9
    rol eax, 11
    ret
.align {BUF_STRIDE}
{p}jbuf:
    .space {2 * BUF_STRIDE}
{p}phase_end:
"""


def build(budget: int, seed: int) -> ScenarioProgram:
    knobs = JitKnobs.for_budget(budget)
    source = MACRO_LIBRARY + wrap(phase_body("gj_", knobs))
    return ScenarioProgram(
        source=source,
        max_instructions=budget * 2,
    )
