"""Property-based equivalence: random guest programs must produce
identical architectural state under CMS and under the reference
interpreter.

This is the strongest single check in the suite: it exercises the whole
translator pipeline (flag recipes, dead-flag elimination, scheduling,
speculation, alias protection, store-buffer forwarding) against the
reference semantics on inputs nobody hand-picked.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import CMSConfig

from conftest import assert_equivalent

FAST = CMSConfig(translation_threshold=3, fault_threshold=2)

REGS = ("eax", "edx", "ebx", "esi", "edi")  # ecx/esp/ebp reserved
BUF = 0x4000

ALU_RR = ("add", "sub", "and", "or", "xor", "adc", "sbb", "imul", "cmp",
          "test")
ALU_RI = ALU_RR
SHIFTS = ("shl", "shr", "sar", "rol", "ror")
UNARY = ("not", "neg", "inc", "dec")
CONDS = ("jz", "jnz", "jc", "jnc", "js", "jns", "jo", "jno", "jl", "jge",
         "jle", "jg", "jb", "jbe", "ja", "jae", "jp", "jnp")


@st.composite
def body_instruction(draw) -> str:
    """One safe instruction for the randomized loop body."""
    choice = draw(st.integers(min_value=0, max_value=9))
    r1 = draw(st.sampled_from(REGS))
    r2 = draw(st.sampled_from(REGS))
    imm = draw(st.integers(min_value=0, max_value=0xFFFFFFFF))
    disp = draw(st.integers(min_value=0, max_value=255)) * 4
    if choice == 0:
        return f"mov {r1}, {imm:#x}"
    if choice == 1:
        return f"mov {r1}, {r2}"
    if choice == 2:
        op = draw(st.sampled_from(ALU_RR))
        return f"{op} {r1}, {r2}"
    if choice == 3:
        op = draw(st.sampled_from(ALU_RI))
        return f"{op} {r1}, {imm:#x}"
    if choice == 4:
        op = draw(st.sampled_from(SHIFTS))
        count = draw(st.integers(min_value=0, max_value=31))
        return f"{op} {r1}, {count}"
    if choice == 5:
        op = draw(st.sampled_from(UNARY))
        return f"{op} {r1}"
    if choice == 6:
        return f"load {r1}, [ebp+{disp:#x}]"
    if choice == 7:
        return f"store [ebp+{disp:#x}], {r1}"
    if choice == 8:
        # A conditional skip over one instruction: creates side exits.
        # The {L} placeholder is replaced with a per-program position so
        # labels are always unique.
        cond = draw(st.sampled_from(CONDS))
        inner = draw(st.sampled_from(ALU_RR))
        return (f"{cond} skip_{{L}}\n    {inner} {r1}, {r2}\n"
                f"skip_{{L}}:")
    # choice == 9: a division that cannot fault: the high half is
    # zeroed and the divisor (esi) is forced odd, so the quotient fits.
    return (f"mov eax, {imm:#x}\n    mov edx, 0\n"
            f"    or esi, 1\n    div esi")


@st.composite
def random_program(draw) -> str:
    body = draw(st.lists(body_instruction(), min_size=4, max_size=24))
    iterations = draw(st.integers(min_value=8, max_value=40))
    body = [line.replace("{L}", str(index))
            for index, line in enumerate(body)]
    lines = "\n    ".join(body)
    return f"""
start:
    mov esp, 0x8000
    mov ebp, {BUF:#x}
    mov ecx, {iterations}
loop:
    {lines}
    dec ecx
    jnz loop
    cli
    hlt
"""


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(random_program())
def test_random_programs_equivalent(source):
    assert_equivalent(source, config=FAST)


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(random_program())
def test_random_programs_equivalent_no_reordering(source):
    config = CMSConfig(translation_threshold=3, reorder_memory=False,
                       control_speculation=False)
    assert_equivalent(source, config=config)


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(random_program())
def test_random_programs_equivalent_no_alias_hw(source):
    config = CMSConfig(translation_threshold=3, use_alias_hw=False)
    assert_equivalent(source, config=config)


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(random_program())
def test_random_programs_equivalent_forced_self_check(source):
    config = CMSConfig(translation_threshold=3, force_self_check=True)
    assert_equivalent(source, config=config)


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(random_program())
def test_random_programs_equivalent_tiny_regions(source):
    config = CMSConfig(translation_threshold=3, max_region_instructions=8,
                       commit_interval=4)
    assert_equivalent(source, config=config)


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(random_program())
def test_random_programs_equivalent_no_fine_grain(source):
    config = CMSConfig(translation_threshold=3, fine_grain_protection=False)
    assert_equivalent(source, config=config)


# Branchy and nested-loop programs at an eager threshold, so hot in-cache
# loop regions, their guarded exits and rollback through them run on
# programs nobody hand-built.
DEEP_TRACES = CMSConfig(translation_threshold=3)


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(random_program())
def test_random_programs_equivalent_deep_traces(source):
    assert_equivalent(source, config=DEEP_TRACES)


@st.composite
def nested_random_program(draw) -> str:
    """An outer loop re-entering a small randomized inner loop: a hot
    in-cache loop region entered again and again, with ragged and
    shallow trip counts."""
    body = draw(st.lists(body_instruction(), min_size=2, max_size=8))
    inner_iters = draw(st.integers(min_value=1, max_value=7))
    outer_iters = draw(st.integers(min_value=8, max_value=25))
    body = [line.replace("{L}", str(index))
            for index, line in enumerate(body)]
    lines = "\n    ".join(body)
    # The outer counter lives in memory above the body's store range
    # (disp caps at 0x3fc): every general register is fair game for the
    # randomized body, so none of them can carry loop state.
    return f"""
start:
    mov esp, 0x8000
    mov ebp, {BUF:#x}
    mov ecx, {outer_iters}
    store [ebp+0x400], ecx
outer:
    mov ecx, {inner_iters}
inner:
    {lines}
    dec ecx
    jnz inner
    load ecx, [ebp+0x400]
    dec ecx
    store [ebp+0x400], ecx
    jnz outer
    cli
    hlt
"""


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(nested_random_program())
def test_nested_random_programs_equivalent_deep_traces(source):
    assert_equivalent(source, config=DEEP_TRACES)
