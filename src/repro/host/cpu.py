"""Host CPU: executes translations molecule-by-molecule.

This is the "hardware" half of the co-design.  It enforces, at runtime,
every speculative assumption the translator made:

* memory atoms marked ``reordered`` fault if they touch I/O space
  (§3.4), and loads from I/O space additionally require the ``io_ok``
  attribute (an access the translator fenced with commits) so that a
  rollback can never replay a device read;
* alias entries protect the addresses of hoisted loads and stores
  carrying check masks fault on overlap (§3.5);
* stores against write-protected code pages fault through the
  protection map, consulting the fine-grain hardware cache (§3.6.1);
* stores are gated in the store buffer until a commit atom releases
  them (§3.1);
* a pending interrupt observed at a molecule boundary aborts the
  translation so CMS can roll back to the last consistent state (§3.3).

Faults do *not* modify committed state: the CPU raises them to CMS,
which performs the rollback and recovery procedure.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.host.alias import AliasHardware
from repro.host.atoms import AluOp, Atom, AtomKind
from repro.host.faults import HostFault, HostFaultError, HostFaultKind
from repro.host.registers import R_EIP, R_IF, HostRegisterFile
from repro.host.store_buffer import GatedStoreBuffer, StoreBufferOverflow
from repro.isa.exceptions import GuestException, general_protection
from repro.machine import Machine
from repro.memory.mmu import PT_SPAN

MASK32 = 0xFFFFFFFF
SIGN32 = 0x80000000


class ExitKind(enum.Enum):
    EXITED = enum.auto()  # translation left through an EXIT atom
    INTERRUPT = enum.auto()  # pending interrupt at a molecule boundary
    FAULT = enum.auto()  # a host fault fired (CMS must roll back)
    FUEL = enum.auto()  # molecule budget exhausted mid-translation
    HOT = enum.auto()  # cold mode: turned hot at a taken branch (resume_pc)


@dataclass
class ExitInfo:
    """Result of one ``HostCPU.run`` (one translation) or one
    ``TemplateJIT.run`` (a dispatch, with the chains it followed)."""

    kind: ExitKind
    next_eip: int = 0
    fault: HostFault | None = None
    exit_atom: Atom | None = None
    molecules: int = 0
    chains_followed: int = 0
    translations_entered: list = field(default_factory=list)
    resume_pc: int | None = None  # HOT: the molecule to continue from


class HostCPU:
    """The native VLIW executor with commit/rollback support."""

    def __init__(self, machine: Machine, protection,
                 store_buffer_capacity: int = 64,
                 alias_entries: int = 8) -> None:
        self.machine = machine
        self.protection = protection
        # CMS fault handler invoked *inline* for store protection faults
        # (classic fault semantics: the handler may fix the condition —
        # fill the fine-grain cache, drop protection and arm a
        # revalidation prologue — and return True to retry the store in
        # place).  Returning False unwinds the translation for the full
        # rollback + recovery path.
        self.protection_service = None
        self.regs = HostRegisterFile()
        self.store_buffer = GatedStoreBuffer(store_buffer_capacity)
        self.alias = AliasHardware(alias_entries)
        self.molecules_executed = 0
        # True between an irrevocable device interaction (port I/O or an
        # io_ok MMIO access) and the commit that fences it; interrupt
        # exits are suppressed in that window so a rollback can never
        # replay the device operation.
        self._io_uncommitted = False
        # The translation currently being executed.
        # The SMC manager consults this from the inline fault service:
        # arming a *running* translation's revalidation prologue would
        # drop its protection mid-execution, letting a later store in
        # the same body silently rewrite code the body then executes.
        self.current_translation = None

    # ------------------------------------------------------------------
    # Commit / rollback (§3.1)
    # ------------------------------------------------------------------

    def commit(self, instr_count: int = 0) -> None:
        current = self.current_translation
        if current is not None and current.prologue_armed and \
                not self._io_uncommitted:
            self._check_armed_writes(current)
        self.regs.commit()
        self.store_buffer.drain(self.machine.bus)
        self.alias.clear()
        self._io_uncommitted = False
        if instr_count:
            self.machine.tick(instr_count)

    def _check_armed_writes(self, translation) -> None:
        """Catch an armed translation's body rewriting its own code.

        While a self-revalidation prologue is armed the translation's
        pages run unprotected (§3.6.2), so a store in its own body can
        target its code bytes without faulting — and the prologue only
        re-verifies on the *next* entry, not mid-body.  Publishing such
        a store and then continuing to execute the now-stale body would
        diverge from the guest semantics.  Detecting it here, before
        any state is committed, makes the outcome exact: the rollback
        discards the store, memory still matches the translation's
        snapshot, and recovery interprets through the modifying store
        precisely (the dispatcher's self-check case (a)).
        """
        for entry in self.store_buffer._entries:
            if not entry.is_io and \
                    translation.overlaps(entry.paddr, entry.size):
                raise HostFaultError(HostFault(
                    kind=HostFaultKind.SELF_CHECK,
                    guest_addr=translation.entry_eip,
                    paddr=entry.paddr,
                    detail="armed-body code write",
                ))

    def rollback(self) -> None:
        self.regs.rollback()
        self.store_buffer.drop()
        self.alias.clear()
        self._io_uncommitted = False

    # ------------------------------------------------------------------
    # Top-level execution
    # ------------------------------------------------------------------

    def run(self, translation, fuel: int = 1_000_000,
            start_pc: int | None = None,
            hot_at: int | None = None) -> ExitInfo:
        """Execute one translation until exit, fault, interrupt or fuel.

        Starts at the entry, or at molecule index ``start_pc`` (where a
        template or a cold run handed back control), and returns at the
        first exit atom with ``EXITED`` and ``exit_atom`` set: following
        chains is the driver's job (``TemplateJIT.run``).  On FAULT and
        INTERRUPT outcomes the caller must invoke ``rollback`` before
        touching guest state.

        ``hot_at`` selects the cold mode a translation runs in before
        it has a template.  Once the translation's lifetime
        ``executions_molecules`` reaches ``hot_at``, the run stops at
        the next taken branch with ``ExitKind.HOT``; ``resume_pc`` is
        the branch target, where the template takes over.
        """
        info = ExitInfo(kind=ExitKind.EXITED)
        pc = translation.labels[translation.entry_label] \
            if start_pc is None else start_pc
        info.translations_entered.append(translation)
        start_molecules = self.molecules_executed
        self.current_translation = translation

        try:
            self._run_loop(info, translation, pc, fuel, start_molecules,
                           hot_at)
        finally:
            self.current_translation = None

        info.next_eip = self.regs.shadow[R_EIP]
        info.molecules = self.molecules_executed - start_molecules
        return info

    def _run_loop(self, info, current, pc, fuel, start_molecules,
                  hot_at) -> None:
        molecules = current.molecules
        labels = current.labels
        pending = self._interrupt_pending
        while True:
            if pending():
                info.kind = ExitKind.INTERRUPT
                break
            if self.molecules_executed - start_molecules >= fuel:
                info.kind = ExitKind.FUEL
                break
            molecule = molecules[pc]
            self.molecules_executed += 1
            current.executions_molecules += 1
            next_pc = pc + 1
            exit_atom: Atom | None = None
            try:
                for atom in molecule.atoms:
                    kind = atom.kind
                    if kind is AtomKind.BR:
                        next_pc = labels[atom.label]
                    elif kind is AtomKind.BRZ:
                        if self.regs.working[atom.rs1] == 0:
                            next_pc = labels[atom.label]
                    elif kind is AtomKind.BRNZ:
                        if self.regs.working[atom.rs1] != 0:
                            next_pc = labels[atom.label]
                    elif kind is AtomKind.EXIT:
                        exit_atom = atom
                    else:
                        self._execute_atom(atom)
            except HostFaultError as error:
                info.kind = ExitKind.FAULT
                info.fault = error.fault
                break
            if exit_atom is not None:
                info.exit_atom = exit_atom
                break
            if hot_at is not None and next_pc != pc + 1 and \
                    current.executions_molecules >= hot_at:
                info.kind = ExitKind.HOT
                info.resume_pc = next_pc
                break
            pc = next_pc

    def _interrupt_pending(self) -> bool:
        if self._io_uncommitted:
            return False
        return bool(self.regs.shadow[R_IF]) and \
            self.machine.pic.has_pending()

    # ------------------------------------------------------------------
    # Atom execution
    # ------------------------------------------------------------------

    def _execute_atom(self, atom: Atom) -> None:
        kind = atom.kind
        regs = self.regs.working
        if kind is AtomKind.MOVI:
            regs[atom.rd] = atom.imm & MASK32
        elif kind is AtomKind.MOV:
            regs[atom.rd] = regs[atom.rs1]
        elif kind is AtomKind.ALU:
            regs[atom.rd] = _alu(atom.aluop, regs[atom.rs1], regs[atom.rs2])
        elif kind is AtomKind.ALUI:
            regs[atom.rd] = _alu(atom.aluop, regs[atom.rs1], atom.imm & MASK32)
        elif kind is AtomKind.SEL:
            regs[atom.rd] = regs[atom.rs2] if regs[atom.rs1] else regs[atom.rs3]
        elif kind is AtomKind.LD:
            self._load(atom)
        elif kind is AtomKind.ST:
            self._store(atom)
        elif kind is AtomKind.COMMIT:
            self.commit(atom.instr_count)
        elif kind in (AtomKind.DIVU, AtomKind.DIVS):
            self._divide(atom)
        elif kind is AtomKind.PORT_IN:
            regs[atom.rd] = self.machine.ports.read(atom.imm)
            self._io_uncommitted = True
        elif kind is AtomKind.PORT_OUT:
            self.machine.ports.write(atom.imm, regs[atom.rs1])
            self._io_uncommitted = True
        elif kind is AtomKind.FAIL:
            raise HostFaultError(
                HostFault(HostFaultKind.SELF_CHECK, guest_addr=atom.guest_addr,
                          detail=atom.fail_reason)
            )
        elif kind is AtomKind.NOPA:
            pass
        else:  # pragma: no cover - BR/EXIT handled by the run loop
            raise AssertionError(f"unexpected atom in _execute_atom: {atom}")

    def _divide(self, atom: Atom) -> None:
        regs = self.regs.working
        divisor = regs[atom.rs2]
        if atom.kind is AtomKind.DIVU:
            dividend = (regs[atom.rs3] << 32) | regs[atom.rs1]
            if divisor == 0:
                self._guest_fault(atom)
            quotient, remainder = divmod(dividend, divisor)
            if quotient > MASK32:
                self._guest_fault(atom)
        else:
            dividend = (regs[atom.rs3] << 32) | regs[atom.rs1]
            dividend = dividend - (1 << 64) if dividend & (1 << 63) else dividend
            divisor = divisor - (1 << 32) if divisor & SIGN32 else divisor
            if divisor == 0:
                self._guest_fault(atom)
            quotient = int(dividend / divisor)
            remainder = dividend - quotient * divisor
            if not -(1 << 31) <= quotient <= (1 << 31) - 1:
                self._guest_fault(atom)
        regs[atom.rd] = quotient & MASK32
        regs[atom.rd2] = remainder & MASK32

    def _guest_fault(self, atom: Atom,
                     exc: GuestException | None = None) -> None:
        from repro.isa.exceptions import divide_error

        raise HostFaultError(
            HostFault(
                HostFaultKind.GUEST_FAULT,
                guest_addr=atom.guest_addr,
                guest_exception=exc if exc is not None else divide_error(
                    atom.guest_addr),
            )
        )

    # ------------------------------------------------------------------
    # Memory atoms: where speculation meets hardware checks
    # ------------------------------------------------------------------

    def _load(self, atom: Atom) -> None:
        regs = self.regs.working
        vaddr = (regs[atom.rs1] + atom.disp) & MASK32
        try:
            # Speculative until commit: a #PF here is rolled back and
            # counted by the interpreter if it recurs there.
            paddr = self.machine.mmu.translate_range(
                vaddr, atom.size, False, speculative=True)
        except GuestException as exc:
            self._guest_fault(atom, exc)
            raise AssertionError  # unreachable
        if self.machine.bus.is_io(paddr, atom.size):
            if atom.reordered or not atom.io_ok:
                raise HostFaultError(
                    HostFault(HostFaultKind.SPEC_MMIO,
                              guest_addr=atom.guest_addr, paddr=paddr)
                )
            regs[atom.rd] = self.machine.bus.read(paddr, atom.size)
            self._io_uncommitted = True
            return
        if atom.alias_entry is not None:
            self.alias.record(atom.alias_entry, paddr, atom.size)
        if atom.alias_check:
            violated = self.alias.check(atom.alias_check, paddr, atom.size)
            if violated is not None:
                raise HostFaultError(
                    HostFault(HostFaultKind.ALIAS_VIOLATION,
                              guest_addr=atom.guest_addr, paddr=paddr,
                              detail=f"entry {violated}")
                )
        try:
            value = self.machine.bus.read(paddr, atom.size)
        except GuestException as exc:
            self._guest_fault(atom, exc)
            raise AssertionError  # unreachable
        regs[atom.rd] = self.store_buffer.forward(paddr, atom.size, value)

    def _store(self, atom: Atom) -> None:
        regs = self.regs.working
        vaddr = (regs[atom.rs1] + atom.disp) & MASK32
        try:
            paddr = self.machine.mmu.translate_range(
                vaddr, atom.size, True, speculative=True)
        except GuestException as exc:
            self._guest_fault(atom, exc)
            raise AssertionError  # unreachable
        bus = self.machine.bus
        is_io = False
        if not bus.in_ram_run(paddr, atom.size):
            if bus.write_faults(paddr, atom.size):
                # Draining this store would raise #GP after the commit
                # had published the registers, so fault here: the
                # window rolls back and recovery delivers the #GP
                # precisely, as for a load.  The drain relies on it: a
                # buffered store is MMIO or lies in one RAM run.
                self._guest_fault(atom, general_protection())
            is_io = bus.is_io(paddr, atom.size)
        if is_io:
            if atom.reordered or not atom.io_ok:
                raise HostFaultError(
                    HostFault(HostFaultKind.SPEC_MMIO,
                              guest_addr=atom.guest_addr, paddr=paddr)
                )
        else:
            mmu = self.machine.mmu
            if mmu.paging_enabled and \
                    0 <= paddr - mmu.page_table_base < PT_SPAN:
                # A store into the live page table: buffered stores are
                # invisible to MMU walks until commit, so a later access
                # in this same region could translate through the stale
                # mapping.  Treat the mutation as a serializing event —
                # abort the region and let the interpreter execute the
                # store (immediately visible, §3.6.1 conservatively).
                # Sites the interpreter profiled storing here are never
                # translated; this catches the rest, and the controller
                # pins a recurring one to the interpreter.
                raise HostFaultError(
                    HostFault(HostFaultKind.MMU_MUTATION,
                              guest_addr=atom.guest_addr, paddr=paddr)
                )
            # Up to three check/service rounds: a fine-grain miss fill
            # may be followed by a code-granule fault on the refilled
            # entry whose service (e.g. arming a revalidation prologue)
            # also succeeds; the store then passes the third check.
            for _ in range(3):
                check = self.protection.check_store(paddr, atom.size)
                if not check.faults:
                    break
                fault = HostFault(HostFaultKind.PROTECTION,
                                  guest_addr=atom.guest_addr, paddr=paddr,
                                  store_class=check.store_class,
                                  page=check.page, access_size=atom.size)
                if self.protection_service is None or \
                        not self.protection_service(fault):
                    raise HostFaultError(fault)
            else:
                raise HostFaultError(fault)
            if atom.alias_check:
                violated = self.alias.check(atom.alias_check, paddr, atom.size)
                if violated is not None:
                    raise HostFaultError(
                        HostFault(HostFaultKind.ALIAS_VIOLATION,
                                  guest_addr=atom.guest_addr, paddr=paddr,
                                  detail=f"entry {violated}")
                    )
            if atom.alias_entry is not None:
                self.alias.record(atom.alias_entry, paddr, atom.size)
        try:
            self.store_buffer.write(paddr, regs[atom.rs2], atom.size, is_io)
        except StoreBufferOverflow:
            raise HostFaultError(
                HostFault(HostFaultKind.STOREBUF_OVERFLOW,
                          guest_addr=atom.guest_addr, paddr=paddr)
            ) from None


def _alu(op: AluOp, a: int, b: int) -> int:
    if op is AluOp.ADD:
        return (a + b) & MASK32
    if op is AluOp.SUB:
        return (a - b) & MASK32
    if op is AluOp.AND:
        return a & b
    if op is AluOp.OR:
        return a | b
    if op is AluOp.XOR:
        return a ^ b
    if op is AluOp.SHL:
        return (a << (b & 31)) & MASK32
    if op is AluOp.SHR:
        return (a & MASK32) >> (b & 31)
    if op is AluOp.SAR:
        signed = a - (1 << 32) if a & SIGN32 else a
        return (signed >> (b & 31)) & MASK32
    if op is AluOp.MUL:
        return (a * b) & MASK32
    if op is AluOp.UMULH:
        return ((a * b) >> 32) & MASK32
    if op is AluOp.SMULH:
        sa = a - (1 << 32) if a & SIGN32 else a
        sb = b - (1 << 32) if b & SIGN32 else b
        return ((sa * sb) >> 32) & MASK32
    if op is AluOp.PARITY:
        from repro.isa.flags import parity
        return parity(a)
    if op is AluOp.CMPEQ:
        return 1 if a == b else 0
    if op is AluOp.CMPNE:
        return 1 if a != b else 0
    if op is AluOp.CMPLTU:
        return 1 if (a & MASK32) < (b & MASK32) else 0
    if op is AluOp.CMPLTS:
        sa = a - (1 << 32) if a & SIGN32 else a
        sb = b - (1 << 32) if b & SIGN32 else b
        return 1 if sa < sb else 0
    if op is AluOp.CMPLEU:
        return 1 if (a & MASK32) <= (b & MASK32) else 0
    if op is AluOp.CMPLES:
        sa = a - (1 << 32) if a & SIGN32 else a
        sb = b - (1 << 32) if b & SIGN32 else b
        return 1 if sa <= sb else 0
    raise AssertionError(f"unhandled ALU op {op}")
