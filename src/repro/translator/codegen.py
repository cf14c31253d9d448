"""Code generation: scheduled IR -> molecules -> a Translation.

Responsibilities:

* map temps onto the host temp registers (16..59; 60..63 are reserved
  scratch for check prologues) with a linear-scan over the schedule;
* lower each scheduled cycle to one molecule (empty cycles become
  explicit no-op molecules — the scheduling gaps the VLIW really pays);
* expand exits into stubs: update the working EIP, commit (retiring the
  guest instructions of the window), and leave through an EXIT atom that
  the dispatcher can chain (§2);
* emit self-checking entry code (§3.6.3) or a self-revalidation
  prologue (§3.6.2) comparing the translated guest bytes against their
  translation-time snapshot — honoring stylized-SMC immediate masking
  (§3.6.4), which excludes runtime-reloaded immediate fields from the
  comparison;
* loop regions branch back to the self-check label when checking is
  enabled, so a translation that rewrites its own region is caught at
  the next iteration boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.tcache import Translation
from repro.host.atoms import AluOp, Atom, AtomKind
from repro.host.molecule import Molecule
from repro.host.registers import R_EIP, TEMP_BASE
from repro.isa.encoder import immediate_field_offset
from repro.translator.ir import (
    COMMIT_POINT_KINDS,
    FINAL_EXIT_KINDS,
    GUEST_FLAGS,
    GUEST_REGS,
    GuestEip,
    IROp,
    IROpKind,
    Temp,
    TraceIR,
)
from repro.translator.policies import TranslationPolicy
from repro.translator.region import Region
from repro.translator.schedule import Schedule

TEMP_POOL_END = 56  # host regs 56..63 reserved for check prologues
SCRATCH_BASE = 56


# Host register of every guest location; ``generate`` adds the temps.
_GUEST_HOST_REGS = {loc: loc.host_reg
                    for loc in GUEST_REGS + GUEST_FLAGS + (GuestEip(),)}


class CodegenError(Exception):
    """Code generation could not complete (e.g. out of temp registers)."""


@dataclass
class _CheckPlan:
    """What the self-check/prologue code must verify."""

    words: list[tuple[int, int, int]]  # (guest addr, expected, byte mask)


class CodeGenerator:
    """Lowers one scheduled trace into a Translation."""

    def __init__(self, policy: TranslationPolicy) -> None:
        self.policy = policy

    def generate(
        self,
        region: Region,
        trace: TraceIR,
        schedule: Schedule,
        code_snapshot: bytes,
    ) -> Translation:
        temp_map = self._allocate_temps(schedule)
        molecules: list[Molecule] = []
        labels: dict[str, int] = {}
        exit_atoms: list[Atom] = []
        stub_queue: list[tuple[str, IROp]] = []
        needs_fail_stub = False

        checking = self.policy.self_check
        prologue = self.policy.self_revalidate and not checking
        self._check_context = (
            self._build_check_context(region, code_snapshot)
            if (checking or prologue) else None
        )
        if prologue:
            # Self-revalidation prologue (§3.6.2): verify the whole
            # region's code bytes, then exit back to CMS so it can
            # re-enable protection and disarm the prologue before the
            # body runs.
            labels["prologue"] = len(molecules)
            plan = self._plan_words(region.instrs)
            molecules.extend(self._emit_check(plan))
            needs_fail_stub = True
            done = Molecule()
            done.add(Atom(AtomKind.MOVI, rd=R_EIP, imm=region.entry_eip))
            done.add(Atom(AtomKind.COMMIT))
            molecules.append(done)
            exit_mol = Molecule()
            exit_atom = Atom(AtomKind.EXIT, exit_target=region.entry_eip)
            exit_atom.prologue_success = True
            exit_mol.add(exit_atom)
            molecules.append(exit_mol)
        if checking:
            needs_fail_stub = True

        labels["body"] = len(molecules)

        host_regs = dict(_GUEST_HOST_REGS)
        host_regs.update(temp_map)
        host = host_regs.__getitem__  # operand -> host register

        # Incremental self-checking (§3.6.3): each instruction's code
        # bytes are verified exactly once per body pass, on the main
        # path, *after* every store that precedes it in program order
        # (stores have DAG edges to the exit/commit that retires them,
        # so emitting the check just before that branch/commit molecule
        # is sound).  The check loads forward from the gated store
        # buffer, so a translation that patches its own bytes fails its
        # check before the stale results can commit.
        checked_upto = 0

        def emit_check_upto(end_index: int) -> None:
            nonlocal checked_upto
            if not checking or end_index <= checked_upto:
                return
            plan = self._plan_words(region.instrs[checked_upto:end_index])
            molecules.extend(self._emit_check(plan))
            checked_upto = end_index

        exit_counter = 0
        for cycle in schedule.cycles:
            if checking:
                # Checks guarding an exit in this cycle must precede the
                # whole cycle's molecule.
                for op in cycle:
                    if op.kind in COMMIT_POINT_KINDS:
                        emit_check_upto(op.window_end)
            molecule = Molecule()
            pending_stub: IROp | None = None
            pending_commit: IROp | None = None
            for op in cycle:
                kind = op.kind
                if kind is IROpKind.EXIT_IF:
                    label = f"exit{exit_counter}"
                    exit_counter += 1
                    molecule.add(
                        Atom(AtomKind.BRNZ, rs1=host(op.srcs[0]), label=label,
                             guest_addr=op.guest_addr)
                    )
                    stub_queue.append((label, op))
                elif kind in FINAL_EXIT_KINDS:
                    pending_stub = op
                elif kind is IROpKind.COMMIT:
                    pending_commit = op
                else:
                    molecule.add(self._lower(op, host))
            if not molecule.atoms and pending_stub is None and \
                    pending_commit is None:
                molecule.add(Atom(AtomKind.NOPA))  # latency gap
            if molecule.atoms:
                molecules.append(molecule)
            if pending_commit is not None:
                op = pending_commit
                commit_mol = Molecule()
                commit_mol.add(Atom(AtomKind.MOVI, rd=R_EIP,
                                    imm=op.exit_target))
                commit_mol.add(Atom(AtomKind.COMMIT,
                                    instr_count=op.commit_count,
                                    guest_addr=op.guest_addr))
                molecules.append(commit_mol)
            if pending_stub is not None:
                exit_atom = self._emit_final_stub(
                    molecules, pending_stub, host, "body", region.entry_eip
                )
                if exit_atom is not None:
                    exit_atoms.append(exit_atom)

        for label, op in stub_queue:
            labels[label] = len(molecules)
            head = Molecule()
            head.add(Atom(AtomKind.MOVI, rd=R_EIP, imm=op.exit_target))
            head.add(Atom(AtomKind.COMMIT, instr_count=op.commit_count,
                          guest_addr=op.guest_addr))
            molecules.append(head)
            tail = Molecule()
            exit_atom = Atom(AtomKind.EXIT, exit_target=op.exit_target,
                             guest_addr=op.guest_addr)
            tail.add(exit_atom)
            molecules.append(tail)
            exit_atoms.append(exit_atom)

        if needs_fail_stub:
            labels["smc_fail"] = len(molecules)
            fail = Molecule()
            fail.add(Atom(AtomKind.FAIL, fail_reason="self-check mismatch",
                          guest_addr=region.entry_eip))
            molecules.append(fail)

        translation = Translation(
            entry_eip=region.entry_eip,
            molecules=molecules,
            labels=labels,
            entry_label="body",
            policy=self.policy,
            code_ranges=region.code_ranges(),
            code_snapshot=code_snapshot,
            guest_instr_count=len(region.instrs),
            exit_atoms=exit_atoms,
            prologue_label="prologue" if prologue else None,
            modeled_cycles=schedule.modeled_cycles,
        )
        return translation

    # ------------------------------------------------------------------
    # Temp register allocation
    # ------------------------------------------------------------------

    def _allocate_temps(self, schedule: Schedule) -> dict[Temp, int]:
        first_def: dict[Temp, int] = {}
        last_use: dict[Temp, int] = {}
        past_end = len(schedule.cycles) + 1
        for position, cycle in enumerate(schedule.cycles):
            for op in cycle:
                for dest in (op.dest, op.dest2):
                    if isinstance(dest, Temp) and dest not in first_def:
                        first_def[dest] = position
                        last_use.setdefault(dest, position)
                # An indirect exit's target stays live to the very end.
                use = past_end if op.kind is IROpKind.EXIT_IND else position
                for src in op.srcs:
                    if isinstance(src, Temp):
                        if use > last_use.get(src, -1):
                            last_use[src] = use
        free = list(range(TEMP_POOL_END - 1, TEMP_BASE - 1, -1))
        active: list[tuple[int, Temp]] = []  # (last_use, temp)
        mapping: dict[Temp, int] = {}
        # In (first definition, temp index) order; the pair is unique.
        for start, _, temp in sorted((position, temp.index, temp)
                                     for temp, position in first_def.items()):
            if active:
                still: list[tuple[int, Temp]] = []
                for entry in active:
                    if entry[0] < start:
                        free.append(mapping[entry[1]])
                    else:
                        still.append(entry)
                active = still
            if not free:
                raise CodegenError("out of host temp registers")
            mapping[temp] = free.pop()
            active.append((last_use[temp], temp))
        return mapping

    # ------------------------------------------------------------------
    # Op lowering
    # ------------------------------------------------------------------

    def _lower(self, op: IROp, host) -> Atom:
        kind = op.kind
        if kind is IROpKind.MOVI:
            return Atom(AtomKind.MOVI, rd=host(op.dest), imm=op.imm,
                        guest_addr=op.guest_addr)
        if kind is IROpKind.MOV:
            return Atom(AtomKind.MOV, rd=host(op.dest),
                        rs1=host(op.srcs[0]), guest_addr=op.guest_addr)
        if kind is IROpKind.ALU:
            return Atom(AtomKind.ALU, aluop=op.aluop, rd=host(op.dest),
                        rs1=host(op.srcs[0]), rs2=host(op.srcs[1]),
                        guest_addr=op.guest_addr)
        if kind is IROpKind.ALUI:
            return Atom(AtomKind.ALUI, aluop=op.aluop, rd=host(op.dest),
                        rs1=host(op.srcs[0]), imm=op.imm,
                        guest_addr=op.guest_addr)
        if kind is IROpKind.SEL:
            return Atom(AtomKind.SEL, rd=host(op.dest),
                        rs1=host(op.srcs[0]), rs2=host(op.srcs[1]),
                        rs3=host(op.srcs[2]), guest_addr=op.guest_addr)
        if kind in (IROpKind.DIVU, IROpKind.DIVS):
            atom_kind = (AtomKind.DIVU if kind is IROpKind.DIVU
                         else AtomKind.DIVS)
            return Atom(atom_kind, rd=host(op.dest), rd2=host(op.dest2),
                        rs1=host(op.srcs[0]), rs2=host(op.srcs[1]),
                        rs3=host(op.srcs[2]), guest_addr=op.guest_addr)
        if kind is IROpKind.LD:
            return Atom(AtomKind.LD, rd=host(op.dest),
                        rs1=host(op.srcs[0]), disp=op.disp, size=op.size,
                        reordered=op.reordered, alias_entry=op.alias_entry,
                        io_ok=op.io_ok, guest_addr=op.guest_addr)
        if kind is IROpKind.ST:
            return Atom(AtomKind.ST, rs1=host(op.srcs[0]),
                        rs2=host(op.srcs[1]), disp=op.disp, size=op.size,
                        reordered=op.reordered,
                        alias_check=op.alias_check, io_ok=op.io_ok,
                        guest_addr=op.guest_addr)
        if kind is IROpKind.PORT_IN:
            return Atom(AtomKind.PORT_IN, rd=host(op.dest), imm=op.imm,
                        guest_addr=op.guest_addr)
        if kind is IROpKind.PORT_OUT:
            return Atom(AtomKind.PORT_OUT, rs1=host(op.srcs[0]), imm=op.imm,
                        guest_addr=op.guest_addr)
        raise AssertionError(f"unloterable op {op}")

    # ------------------------------------------------------------------
    # Exit stubs
    # ------------------------------------------------------------------

    def _emit_final_stub(self, molecules: list[Molecule], op: IROp, host,
                         loop_target: str, entry_eip: int) -> Atom | None:
        head = Molecule()
        if op.kind is IROpKind.EXIT_IND:
            head.add(Atom(AtomKind.MOV, rd=R_EIP, rs1=host(op.srcs[0]),
                          guest_addr=op.guest_addr))
        else:
            target = (entry_eip if op.kind is IROpKind.LOOP
                      else op.exit_target)
            head.add(Atom(AtomKind.MOVI, rd=R_EIP, imm=target,
                          guest_addr=op.guest_addr))
        head.add(Atom(AtomKind.COMMIT, instr_count=op.commit_count,
                      guest_addr=op.guest_addr))
        molecules.append(head)
        tail = Molecule()
        if op.kind is IROpKind.LOOP:
            tail.add(Atom(AtomKind.BR, label=loop_target,
                          guest_addr=op.guest_addr))
            molecules.append(tail)
            return None
        exit_atom = Atom(AtomKind.EXIT, exit_target=op.exit_target,
                         guest_addr=op.guest_addr)
        tail.add(exit_atom)
        molecules.append(tail)
        return exit_atom

    # ------------------------------------------------------------------
    # Self-check / prologue emission
    # ------------------------------------------------------------------

    def _build_check_context(self, region: Region,
                             code_snapshot: bytes):
        """Precompute snapshot offsets and stylized-immediate skips."""
        cursor = 0
        offsets: dict[int, int] = {}  # guest addr -> snapshot offset
        for start, length in region.code_ranges():
            for i in range(length):
                offsets[start + i] = cursor + i
            cursor += length
        skip: set[int] = set()  # guest addrs excluded from checking
        for instr in region.instrs:
            if instr.addr in self.policy.stylized_imm_addrs:
                field_off = immediate_field_offset(instr)
                if field_off is not None:
                    skip.update(range(instr.addr + field_off,
                                      instr.addr + field_off + 4))
        return offsets, skip, code_snapshot

    def _plan_words(self, instrs) -> _CheckPlan:
        """Word-granular expected values for a set of instructions, with
        stylized-immediate masking (§3.6.4).

        Adjacent instruction byte ranges are merged before word
        splitting so that a run of instructions checks with dense,
        full-mask words (partial masks only at run tails and at
        stylized immediate fields).
        """
        offsets, skip, snapshot = self._check_context
        spans = sorted((i.addr, i.end) for i in instrs)
        merged: list[list[int]] = []
        for start, end in spans:
            if merged and start <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], end)
            else:
                merged.append([start, end])
        words: list[tuple[int, int, int]] = []
        for start, end in merged:
            for word_addr in range(start, end, 4):
                size = min(4, end - word_addr)
                mask = 0
                expected = 0
                for i in range(size):
                    addr = word_addr + i
                    if addr in skip:
                        continue
                    mask |= 0xFF << (8 * i)
                    expected |= snapshot[offsets[addr]] << (8 * i)
                if mask:
                    words.append((word_addr, expected, mask))
        return _CheckPlan(words=words)

    def _emit_check(self, plan: _CheckPlan) -> list[Molecule]:
        """Software-pipelined compare of code words against the snapshot.

        Steady state is one molecule per checked word: each molecule
        loads word *i*, compares word *i-2* (honouring the two-cycle
        load latency), and branches on the comparison of word *i-3*.
        Atoms within a molecule execute left-to-right, so comparisons
        are placed before the load that reuses their word register.

        Scratch registers (reserved out of the temp pool): the base
        address, two rotating load targets, two rotating comparison
        results, and one masked-word temporary.
        """
        words = plan.words
        if not words:
            return []
        molecules: list[Molecule] = []
        base_reg = SCRATCH_BASE
        load_regs = (SCRATCH_BASE + 1, SCRATCH_BASE + 2)
        cmp_regs = (SCRATCH_BASE + 3, SCRATCH_BASE + 4)
        mask_reg = SCRATCH_BASE + 5

        base_addr = words[0][0]
        setup = Molecule()
        setup.add(Atom(AtomKind.MOVI, rd=base_reg, imm=base_addr))
        molecules.append(setup)

        n = len(words)
        # Pipeline stages: LD at step i, CMPNE at step i+2, BRNZ at
        # step i+3; total steps n+3.
        for step in range(n + 3):
            molecule = Molecule()
            cmp_index = step - 2
            if 0 <= cmp_index < n:
                _, expected, mask = words[cmp_index]
                source = load_regs[cmp_index % 2]
                if mask != 0xFFFFFFFF:
                    # Masked word: drain-style extra molecule for the
                    # AND (rare: run tails and stylized immediates).
                    masked = Molecule()
                    masked.add(Atom(AtomKind.ALUI, aluop=AluOp.AND,
                                    rd=mask_reg, rs1=source, imm=mask))
                    molecules.append(masked)
                    source = mask_reg
                    expected &= mask
                molecule.add(Atom(AtomKind.ALUI, aluop=AluOp.CMPNE,
                                  rd=cmp_regs[cmp_index % 2], rs1=source,
                                  imm=expected))
            if step < n:
                addr, _, _ = words[step]
                molecule.add(Atom(AtomKind.LD, rd=load_regs[step % 2],
                                  rs1=base_reg, disp=addr - base_addr,
                                  size=4))
            branch_index = step - 3
            if 0 <= branch_index < n:
                molecule.add(Atom(AtomKind.BRNZ,
                                  rs1=cmp_regs[branch_index % 2],
                                  label="smc_fail"))
            if molecule.atoms:
                molecules.append(molecule)
        return molecules
