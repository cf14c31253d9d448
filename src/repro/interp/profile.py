"""Execution profiling collected by the interpreter.

Paper §2: the interpreter collects "data on execution frequency, branch
directions, and memory-mapped I/O operations" while it runs.  The
translator consumes this profile: execution counts at translation
anchors trigger translation at the threshold, branch bias picks the
direction region selection follows through a conditional branch, and
the observed-MMIO set lets the translator avoid speculatively
reordering accesses it already knows touch devices.  The
page-table-store set is the same idea for the MMU: instructions seen
storing into the live page table stay in the interpreter, where the
store is visible to the next table walk at once.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass


@dataclass
class BranchBias:
    """Taken/not-taken counts for one conditional branch site."""

    taken: int = 0
    not_taken: int = 0

    @property
    def total(self) -> int:
        return self.taken + self.not_taken

    @property
    def taken_fraction(self) -> float:
        return self.taken / self.total if self.total else 0.5

    def likely_taken(self, threshold: float = 0.5) -> bool:
        return self.taken_fraction > threshold


class ExecutionProfile:
    """Anchor execution counts, branch bias, and MMIO and
    page-table-store observations."""

    def __init__(self) -> None:
        self.branch_bias: dict[int, BranchBias] = {}
        self.mmio_sites: set[int] = set()
        self.pt_store_sites: set[int] = set()
        # Executions at potential translation entries: the addresses the
        # dispatcher looked up and missed (branch targets reached from
        # outside any translation).  The translation threshold applies
        # to anchors, so translations start at real control-flow join
        # points rather than mid-trace.
        self.anchor_counts: Counter[int] = Counter()

    def on_branch(self, addr: int, taken: bool) -> None:
        bias = self.branch_bias.get(addr)
        if bias is None:
            bias = self.branch_bias[addr] = BranchBias()
        if taken:
            bias.taken += 1
        else:
            bias.not_taken += 1

    def on_mmio(self, instr_addr: int) -> None:
        self.mmio_sites.add(instr_addr)

    def on_pt_store(self, instr_addr: int) -> None:
        self.pt_store_sites.add(instr_addr)

    def bias_for(self, addr: int) -> BranchBias:
        return self.branch_bias.get(addr, BranchBias())

    def is_mmio_site(self, instr_addr: int) -> bool:
        return instr_addr in self.mmio_sites
