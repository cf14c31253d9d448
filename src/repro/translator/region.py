"""Region selection.

Paper §2: translation regions "may be fairly large and complex, contain
long traces, IF statements, and nested loops, and include up to 200 x86
instructions".  This reproduction selects *traces*: straight-line
instruction sequences that follow unconditional jumps and direct calls,
follow the profiled-likely direction of conditional branches (the other
direction becomes a side exit), and recognize the common case of a
backward branch to the region entry, which produces a loop region whose
translation iterates entirely inside the translation cache.

Regions stop at indirect control flow (the exit target is computed at
runtime), at interpreter-only system instructions, at instructions the
profile saw storing into the live page table, at the first byte that is
not fetchable through an identity mapping, and at the instruction-count
cap.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.interp.profile import ExecutionProfile
from repro.isa.decoder import decode
from repro.isa.exceptions import GuestException, general_protection
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Kind, Op
from repro.memory.physical import PAGE_SHIFT
from repro.translator.policies import TranslationPolicy

MASK32 = 0xFFFFFFFF


class RegionEnd(enum.Enum):
    CONT = enum.auto()  # exit to the fall-through address
    BRANCH = enum.auto()  # exit to a direct branch target
    LOOP = enum.auto()  # back-edge to the region entry
    INDIRECT = enum.auto()  # final instruction computes the target


@dataclass
class Region:
    """A selected trace, ready for the frontend."""

    entry_eip: int
    instrs: list[Instruction] = field(default_factory=list)
    follow_taken: dict[int, bool] = field(default_factory=dict)
    end: RegionEnd = RegionEnd.CONT
    end_target: int | None = None

    def __len__(self) -> int:
        return len(self.instrs)

    @property
    def addresses(self) -> set[int]:
        return {instr.addr for instr in self.instrs}

    def code_ranges(self) -> list[tuple[int, int]]:
        """Merged (start, length) byte ranges covering the region's code."""
        spans = sorted((i.addr, i.end) for i in self.instrs)
        merged: list[list[int]] = []
        for start, end in spans:
            if merged and start <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], end)
            else:
                merged.append([start, end])
        return [(start, end - start) for start, end in merged]

    def describe(self) -> str:
        return (
            f"region@{self.entry_eip:#x} n={len(self.instrs)} "
            f"end={self.end.name}"
            + (f"->{self.end_target:#x}" if self.end_target is not None else "")
        )


class IdentityFetcher:
    """Region selection's code fetcher: identity-mapped code only.

    The dispatcher runs a translation only while every page of it maps
    to itself, and SMC protection watches those pages by physical
    address, so a translation must hold only bytes fetched through
    identity mappings.  Fetching from any other page (unmapped or
    mapped elsewhere) raises ``GuestException`` like any unfetchable
    byte (MMIO, beyond RAM), which ends the region at that instruction
    and admits the identity-mapped prefix — the way a front end ends a
    fetch block where the request can no longer be served.  Each page
    is tested once per fetcher with the MMU's non-counting ``probe``:
    selection is not a guest access, so the architectural
    ``translations``/``faults`` counters do not move.
    """

    def __init__(self, machine) -> None:
        self._mmu = machine.mmu
        self._bus = machine.bus
        self._ram = machine.ram
        self._identity: dict[int, bool] = {}

    def fetch_byte(self, addr: int) -> int:
        addr &= MASK32
        page = addr >> PAGE_SHIFT
        identity = self._identity.get(page)
        if identity is None:
            base = page << PAGE_SHIFT
            identity = self._identity[page] = self._mmu.probe(base) == base
        if not identity or self._bus.is_io(addr, 1):
            raise general_protection()
        try:
            return self._ram.read8(addr)
        except IndexError:
            raise general_protection() from None


class RegionSelector:
    """Grows a trace from a hot entry address using the profile."""

    def __init__(self, fetcher, profile: ExecutionProfile) -> None:
        self._fetcher = fetcher
        self._profile = profile

    def select(self, entry_eip: int,
               policy: TranslationPolicy) -> Region | None:
        """Select a region starting at ``entry_eip``.

        Returns None when the entry instruction itself cannot be
        translated (undecodable or interpreter-only) — the dispatcher
        then leaves that address to the interpreter.
        """
        region = Region(entry_eip=entry_eip)
        addr = entry_eip
        seen: set[int] = set()
        limit = policy.max_instructions
        pt_store_sites = self._profile.pt_store_sites

        while len(region.instrs) < limit:
            if addr in policy.stop_addrs or addr in pt_store_sites:
                # The adaptive controller pinned this instruction to the
                # interpreter (recurring faults, §3.2), or the profile
                # saw it store into the live page table, which only the
                # interpreter makes visible to the next walk at once.
                region.end = RegionEnd.CONT
                region.end_target = addr
                break
            if addr == entry_eip and region.instrs:
                # Control returned to the entry (by branch or by falling
                # through): a loop region with an internal back-edge.
                region.end = RegionEnd.LOOP
                region.end_target = entry_eip
                break
            if addr in seen:
                # A join inside the trace that is not the entry: end the
                # region with a direct exit to it (chaining will link a
                # separate translation there).
                region.end = RegionEnd.BRANCH
                region.end_target = addr
                break
            try:
                instr = decode(self._fetcher, addr)
            except GuestException:
                # Undecodable or unfetchable: leave it to the interpreter.
                region.end = RegionEnd.CONT
                region.end_target = addr
                break
            info = instr.info
            if info.interp_only:
                region.end = RegionEnd.CONT
                region.end_target = addr
                break
            seen.add(addr)
            region.instrs.append(instr)
            kind = info.kind

            if kind is Kind.BRANCH:  # direct jmp: follow it
                target = instr.branch_target
                if target == entry_eip:
                    region.end = RegionEnd.LOOP
                    region.end_target = entry_eip
                    break
                addr = target
                continue
            if kind is Kind.COND_BRANCH:
                taken = self._likely_taken(instr)
                region.follow_taken[instr.addr] = taken
                target = instr.branch_target if taken else instr.next_addr
                if target == entry_eip:
                    region.end = RegionEnd.LOOP
                    region.end_target = entry_eip
                    break
                addr = target
                continue
            if kind is Kind.CALL and instr.op is Op.CALL:
                # Follow direct calls (partial inlining into the trace).
                target = instr.branch_target
                if target == entry_eip:
                    region.end = RegionEnd.LOOP
                    region.end_target = entry_eip
                    break
                addr = target
                continue
            if kind in (Kind.INDIRECT, Kind.RET):
                region.end = RegionEnd.INDIRECT
                region.end_target = None
                break
            addr = instr.next_addr
        else:
            region.end = RegionEnd.CONT
            region.end_target = addr

        if not region.instrs:
            return None
        if region.end is RegionEnd.CONT and region.end_target is None:
            region.end_target = region.instrs[-1].next_addr
        return region

    def _likely_taken(self, instr: Instruction) -> bool:
        bias = self._profile.bias_for(instr.addr)
        if bias.total == 0:
            # Static heuristic: backward branches are loops, predict
            # taken; forward branches predict fall-through.
            return instr.branch_target <= instr.addr
        return bias.likely_taken()
