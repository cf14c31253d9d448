"""Template JIT: committed translations lowered to generated Python.

The simulated VLIW in :mod:`repro.host.cpu` walks molecule and atom
*objects*, paying a Python-level dispatch (one method call plus an
if-ladder) per atom.  That interpretive overhead — not the guest — is
what kept the translated path slower than the interpreter in
``BENCH_wallclock.json``.  This module removes it: each committed
translation that stays hot is lowered once into a specialized Python
function (``exec``-compiled, constants folded, the RAM fast path
inlined over every RAM run of the bus) whose straight-line statements
*are* the molecule sequence.

A compile costs about as much as thirty passes of the translation on
the simulated VLIW, and most translations that live past a few passes
live far longer, so a translation is compiled only once it has run
``JIT_COMPILE_PASSES`` passes of its own length there — the paper's
interpret-then-translate staging (§2, Figure 1), one tier up.  A loop
switches to its template at the taken branch where it crossed the
threshold, mid-dispatch.  Translations imported from a snapshot or a
fleet share compile on first entry instead.

Semantics are bit-identical to ``HostCPU.run`` by construction:

* every molecule still performs the interrupt check and the fuel check
  at its boundary, in the same order;
* ``molecules_executed`` and the per-translation
  ``executions_molecules`` advance exactly as the simulated VLIW
  advances them (flushed in a ``finally``, so a fault keeps the count
  of the molecule it fired in);
* alias record/check, the gated store buffer, fine-grain protection,
  MMIO routing, commit/rollback, and SMC invalidation all run through
  the same objects — the generated code only *inlines* the provably
  side-effect-free guard (unprotected RAM, buffer not full, paging
  off) and falls back to the exact ``HostCPU`` helpers whenever any
  guard fails;
* any host fault raises the same ``HostFaultError`` the dispatcher
  already handles, so rollback and recovery are unchanged.

``TemplateJIT.run`` is the dispatch path in every configuration: it
runs each translation on its template or on the simulated VLIW, and it
is the one loop that follows chained exits between them.  The
wall-clock dial contract of ``CMSConfig`` holds: ``template_jit`` off
means "never compile", and with it on or off, console output and every
molecule count are identical; only host seconds change.  The
differential fuzz oracle checks this over the whole dial matrix
(``fuzz/oracle.py``).
"""

from __future__ import annotations

import hashlib

from repro.host.atoms import AluOp, AtomKind
from repro.host.cpu import ExitInfo, ExitKind
from repro.host.faults import HostFault, HostFaultError, HostFaultKind
from repro.host.registers import R_EIP, R_IF
from repro.host.store_buffer import BufferedStore
from repro.isa.flags import parity
from repro.memory.physical import PAGE_SHIFT

MASK32 = 0xFFFFFFFF
SIGN32 = 0x80000000

# Passes of its own length a translation runs on the simulated VLIW
# before its template is compiled (``TemplateJIT.compile_passes``).
# Measured (EXPERIMENTS.md, "Compiling only hot translations"): a first
# compile costs C = 167–238 µs per static molecule, and the VLIW costs
# Δ = 4.9–8.1 µs more than a template per executed molecule, so the
# worst-case (ski-rental) break-even C/Δ is about 32 passes.  Lifetimes
# are bimodal — most translations die within a few passes or live far
# past 32 — so rent paid beyond the first few passes mostly buys
# nothing.  8 minimizes the modelled cost over the four workloads of
# benchmarks/e2e, and was then checked on traffic outside them: against 32
# it won 182 of 210 timed pairs on the 30 other bundled workloads and
# 23 of 35 on the five scenario classes, and it tied compile-on-entry.
JIT_COMPILE_PASSES = 8

# Generated-function status codes (first element of the return tuple).
_EXIT = 0  # an EXIT atom finished its molecule; aux = the exit atom
_INTERRUPT = 1  # pending interrupt at a molecule boundary
_FUEL = 2  # molecule budget exhausted at a molecule boundary
_RESUME = 3  # pc left the template's arms; aux = pc for the VLIW


class _Unsupported(Exception):
    """The translation contains something the template cannot lower."""


# ----------------------------------------------------------------------
# Expression lowering
# ----------------------------------------------------------------------


def _signed(expr: str) -> str:
    """32-bit two's-complement reinterpretation of a masked value."""
    return f"({expr} if {expr} < {SIGN32} else {expr} - {1 << 32})"


def _alu_expr(op: AluOp, a: str, b: str, bc: int | None) -> str:
    """Python expression for ``a op b``.

    ``a``/``b`` are expressions yielding 32-bit-masked ints; when the
    right operand is an immediate, ``bc`` carries its folded value so
    shift counts and sign conversions happen at compile time.
    """
    if op is AluOp.ADD:
        return f"({a} + {b}) & {MASK32}"
    if op is AluOp.SUB:
        return f"({a} - {b}) & {MASK32}"
    if op is AluOp.AND:
        return f"{a} & {b}"
    if op is AluOp.OR:
        return f"{a} | {b}"
    if op is AluOp.XOR:
        return f"{a} ^ {b}"
    if op is AluOp.SHL:
        count = f"({b} & 31)" if bc is None else str(bc & 31)
        return f"({a} << {count}) & {MASK32}"
    if op is AluOp.SHR:
        count = f"({b} & 31)" if bc is None else str(bc & 31)
        return f"{a} >> {count}"
    if op is AluOp.SAR:
        count = f"({b} & 31)" if bc is None else str(bc & 31)
        return f"({_signed(a)} >> {count}) & {MASK32}"
    if op is AluOp.MUL:
        return f"({a} * {b}) & {MASK32}"
    if op is AluOp.UMULH:
        return f"({a} * {b}) >> 32"
    if op is AluOp.SMULH:
        sb = _signed(b) if bc is None else str(
            bc - (1 << 32) if bc & SIGN32 else bc)
        return f"(({_signed(a)} * {sb}) >> 32) & {MASK32}"
    if op is AluOp.PARITY:
        return f"par({a})"
    if op is AluOp.CMPEQ:
        return f"(1 if {a} == {b} else 0)"
    if op is AluOp.CMPNE:
        return f"(1 if {a} != {b} else 0)"
    if op is AluOp.CMPLTU:
        return f"(1 if {a} < {b} else 0)"
    if op is AluOp.CMPLEU:
        return f"(1 if {a} <= {b} else 0)"
    if op in (AluOp.CMPLTS, AluOp.CMPLES):
        cmp = "<" if op is AluOp.CMPLTS else "<="
        sb = _signed(b) if bc is None else str(
            bc - (1 << 32) if bc & SIGN32 else bc)
        return f"(1 if {_signed(a)} {cmp} {sb} else 0)"
    raise _Unsupported(f"ALU op {op}")


# ----------------------------------------------------------------------
# The compiler
# ----------------------------------------------------------------------


class _Codegen:
    """Builds the source of one translation's template function."""

    def __init__(self, translation, cpu) -> None:
        self.t = translation
        self.cpu = cpu
        self.lines: list[str] = []
        self.consts: dict[str, object] = {}
        self._atom_names: dict[int, str] = {}
        # The bus's MMIO-free RAM runs: an access wholly inside one can
        # never be I/O and lies inside RAM's bytes, so it needs no
        # bounds check.
        self.ram_runs = cpu.machine.bus.ram_runs
        self.sb_capacity = cpu.store_buffer.capacity

    def bind(self, atom) -> str:
        """Name an atom object for slow-path references."""
        name = self._atom_names.get(id(atom))
        if name is None:
            name = f"a{len(self._atom_names)}"
            self._atom_names[id(atom)] = name
            self.consts[name] = atom
        return name

    def emit(self, depth: int, text: str) -> None:
        self.lines.append("    " * depth + text)

    # -- per-atom statements -------------------------------------------

    def _fault_args(self, atom) -> str:
        ga = atom.guest_addr
        return "guest_addr=" + (str(ga) if ga is not None else "None")

    def _alias_lines(self, atom, depth: int, store: bool) -> None:
        """Alias record/check in the VLIW's order (loads record first,
        stores check first) with the fault raised inline."""
        record = f"arec({atom.alias_entry}, x, {atom.size})"
        if store and atom.alias_check:
            self._alias_check(atom, depth)
        if atom.alias_entry is not None:
            self.emit(depth, record)
        if not store and atom.alias_check:
            self._alias_check(atom, depth)

    def _alias_check(self, atom, depth: int) -> None:
        self.emit(depth, f"vi = achk({atom.alias_check}, x, {atom.size})")
        self.emit(depth, "if vi is not None:")
        self.emit(depth + 1,
                  f"raise HFE(HF(AVK, {self._fault_args(atom)}, paddr=x, "
                  f"detail='entry ' + str(vi)))")

    def _outside_ram(self, size: int) -> str:
        """Condition true unless [x, x+size) lies inside one RAM run."""
        terms = []
        for start, end in self.ram_runs:
            last = end - size
            if last >= start:
                terms.append(f"x <= {last}" if start == 0
                             else f"{start} <= x <= {last}")
        if not terms:
            return "True"
        return "not (" + " or ".join(terms) + ")"

    def _addr_line(self, atom, depth: int) -> None:
        if atom.disp:
            self.emit(depth, f"x = (w[{atom.rs1}] + {atom.disp}) & {MASK32}")
        else:
            self.emit(depth, f"x = w[{atom.rs1}]")

    def _load(self, atom, depth: int) -> None:
        name = self.bind(atom)
        self._addr_line(atom, depth)
        self.emit(depth, "if mmu.paging_enabled or "
                  f"{self._outside_ram(atom.size)}:")
        self.emit(depth + 1, f"ld({name})")
        self.emit(depth, "else:")
        self._alias_lines(atom, depth + 1, store=False)
        # Inside a RAM run the bytes are read straight from RAM.
        if atom.size == 1:
            self.emit(depth + 1, "v = mem[x]")
        else:
            self.emit(depth + 1,
                      f"v = ifb(mem[x:x + {atom.size}], 'little')")
        # Store-forwarding with the buffer's O(1) bounds reject inlined:
        # most loads miss the buffered range and skip the call entirely.
        self.emit(depth + 1, f"if x < sb._hi and x + {atom.size} > sb._lo:")
        self.emit(depth + 2, f"v = fwd(x, {atom.size}, v)")
        self.emit(depth + 1, f"w[{atom.rd}] = v")

    def _store(self, atom, depth: int) -> None:
        name = self.bind(atom)
        self._addr_line(atom, depth)
        size = atom.size
        guards = [
            "mmu.paging_enabled",
            self._outside_ram(size),
            f"(x >> {PAGE_SHIFT}) in pgs",
        ]
        if size > 1:
            guards.append(f"((x + {size - 1}) >> {PAGE_SHIFT}) in pgs")
        guards.append(f"len(ent) >= {self.sb_capacity}")
        self.emit(depth, "if " + " or ".join(guards) + ":")
        self.emit(depth + 1, f"st({name})")
        self.emit(depth, "else:")
        self._alias_lines(atom, depth + 1, store=True)
        self.emit(depth + 1, f"v = w[{atom.rs2}]")
        self.emit(depth + 1, f"ent.append(BS(x, {size}, v, False))")
        self.emit(depth + 1, "ovl[x] = v & 255")
        for i in range(1, size):
            self.emit(depth + 1, f"ovl[x + {i}] = (v >> {8 * i}) & 255")
        self.emit(depth + 1, "if x < sb._lo:")
        self.emit(depth + 2, "sb._lo = x")
        self.emit(depth + 1, f"if x + {size} > sb._hi:")
        self.emit(depth + 2, f"sb._hi = x + {size}")

    def _plain_atom(self, atom, depth: int) -> None:
        kind = atom.kind
        if kind is AtomKind.MOVI:
            self.emit(depth, f"w[{atom.rd}] = {atom.imm & MASK32}")
        elif kind is AtomKind.MOV:
            self.emit(depth, f"w[{atom.rd}] = w[{atom.rs1}]")
        elif kind is AtomKind.ALU:
            expr = _alu_expr(atom.aluop, f"w[{atom.rs1}]",
                             f"w[{atom.rs2}]", None)
            self.emit(depth, f"w[{atom.rd}] = {expr}")
        elif kind is AtomKind.ALUI:
            imm = atom.imm & MASK32
            expr = _alu_expr(atom.aluop, f"w[{atom.rs1}]", str(imm), imm)
            self.emit(depth, f"w[{atom.rd}] = {expr}")
        elif kind is AtomKind.SEL:
            self.emit(depth,
                      f"w[{atom.rd}] = w[{atom.rs2}] if w[{atom.rs1}] "
                      f"else w[{atom.rs3}]")
        elif kind is AtomKind.LD:
            self._load(atom, depth)
        elif kind is AtomKind.ST:
            self._store(atom, depth)
        elif kind is AtomKind.COMMIT:
            self.emit(depth, f"cmt({atom.instr_count})")
        elif kind in (AtomKind.DIVU, AtomKind.DIVS):
            self.emit(depth, f"dv({self.bind(atom)})")
        elif kind is AtomKind.PORT_IN:
            self.emit(depth, f"w[{atom.rd}] = pin({atom.imm})")
            self.emit(depth, "cpu._io_uncommitted = True")
        elif kind is AtomKind.PORT_OUT:
            self.emit(depth, f"pout({atom.imm}, w[{atom.rs1}])")
            self.emit(depth, "cpu._io_uncommitted = True")
        elif kind is AtomKind.FAIL:
            self.emit(depth,
                      f"raise HFE(HF(SCK, {self._fault_args(atom)}, "
                      f"detail={atom.fail_reason!r}))")
        elif kind is AtomKind.NOPA:
            pass
        else:
            raise _Unsupported(f"atom kind {kind}")

    _BRANCH_KINDS = frozenset({AtomKind.BR, AtomKind.BRZ, AtomKind.BRNZ})

    # -- per-molecule lowering -----------------------------------------

    def _branch_cond(self, atom) -> str | None:
        """Taken-condition expression (None = unconditional)."""
        if atom.kind is AtomKind.BR:
            return None
        if atom.kind is AtomKind.BRZ:
            return f"not w[{atom.rs1}]"
        return f"w[{atom.rs1}]"

    def _molecule(self, pc: int, molecule, depth: int) -> None:
        t = self.t
        atoms = molecule.atoms
        self.emit(depth,
                  f"if sh[{R_IF}] and not cpu._io_uncommitted and pend():")
        self.emit(depth + 1, f"return ({_INTERRUPT}, None)")
        self.emit(depth, "if m >= fuel:")
        self.emit(depth + 1, f"return ({_FUEL}, None)")
        self.emit(depth, "m += 1")

        exit_atom = next(
            (atom for atom in atoms if atom.kind is AtomKind.EXIT), None)
        branches = [atom for atom in atoms
                    if atom.kind in self._BRANCH_KINDS]
        # Branches followed by more atoms in the same molecule must read
        # their condition at their own position (the VLIW executes
        # left-to-right) but transfer control only after the molecule
        # finishes; ``np`` latches the taken target.
        last_is_branch = bool(atoms) and atoms[-1] in branches
        defer = branches and not (
            len(branches) == 1 and last_is_branch and exit_atom is None)
        if defer:
            self.emit(depth, f"np = {pc + 1}")

        for atom in atoms:
            if atom.kind is AtomKind.EXIT:
                continue  # handled after the molecule completes
            if atom.kind in self._BRANCH_KINDS:
                if defer:
                    target = t.labels[atom.label]
                    cond = self._branch_cond(atom)
                    if cond is None:
                        self.emit(depth, f"np = {target}")
                    else:
                        self.emit(depth, f"if {cond}:")
                        self.emit(depth + 1, f"np = {target}")
                # Non-deferred: the branch is the molecule's last atom,
                # emitted below.
                continue
            self._plain_atom(atom, depth)

        if exit_atom is not None:
            self.emit(depth, f"return ({_EXIT}, {self.bind(exit_atom)})")
        elif defer:
            # Taken-to-fallthrough branches are the same as not taken.
            self.emit(depth, f"if np != {pc + 1}:")
            self.emit(depth + 1, "pc = np")
            self.emit(depth + 1, "continue")
        elif branches:
            atom = branches[0]
            target = t.labels[atom.label]
            cond = self._branch_cond(atom)
            if target != pc + 1:
                if cond is None:
                    self.emit(depth, f"pc = {target}")
                    self.emit(depth, "continue")
                else:
                    self.emit(depth, f"if {cond}:")
                    self.emit(depth + 1, f"pc = {target}")
                    self.emit(depth + 1, "continue")

    # -- whole-function assembly ---------------------------------------

    def generate(self) -> tuple[str, dict]:
        t = self.t
        cpu = self.cpu
        machine = cpu.machine
        self.consts.update(
            cpu=cpu, t=t,
            w=cpu.regs.working, sh=cpu.regs.shadow,
            mmu=machine.mmu, pend=machine.pic.has_pending,
            ld=cpu._load, st=cpu._store, dv=cpu._divide, cmt=cpu.commit,
            pin=machine.ports.read, pout=machine.ports.write,
            arec=cpu.alias.record, achk=cpu.alias.check,
            sb=cpu.store_buffer,
            ent=cpu.store_buffer._entries, ovl=cpu.store_buffer._overlay,
            fwd=cpu.store_buffer.forward,
            mem=machine.ram._data, ifb=int.from_bytes,
            pgs=cpu.protection._pages,
            BS=BufferedStore, HFE=HostFaultError, HF=HostFault,
            AVK=HostFaultKind.ALIAS_VIOLATION,
            SCK=HostFaultKind.SELF_CHECK,
            par=parity,
        )
        arms = sorted(set(t.labels.values()))
        count = len(t.molecules)
        if any(arm < 0 or arm > count for arm in arms):
            raise _Unsupported("label outside molecule range")
        arms = [arm for arm in arms if arm < count]
        self.emit(1, "def _jit(fuel, pc):")
        self.emit(2, "m = 0")
        self.emit(2, "try:")
        self.emit(3, "while 1:")
        for index, arm in enumerate(arms):
            end = arms[index + 1] if index + 1 < len(arms) else count
            self.emit(4, f"if pc == {arm}:")
            for pc in range(arm, end):
                self._molecule(pc, t.molecules[pc], 5)
            self.emit(5, f"pc = {end}")
        self.emit(4, f"return ({_RESUME}, pc)")
        self.emit(2, "finally:")
        self.emit(3, "cpu.molecules_executed += m")
        self.emit(3, "t.executions_molecules += m")
        self.emit(1, "return _jit")
        params = ", ".join(self.consts)
        header = f"def _make({params}):"
        return "\n".join([header, *self.lines, ""]), self.consts


# Process-wide cache of compiled template code objects, keyed by the
# sha256 of the generated source.  The source embeds everything the
# code object depends on (molecule structure, folded constants, the RAM
# runs and ``sb_capacity``); all per-CPU state is late-bound via
# ``_make``, so one code object serves every tenant whose translation
# lowers to the same text.  ``compile`` dominates template cost, so a
# fleet of tenants running the same guest code pays it once.
_CODE_CACHE: dict[str, object] = {}
_CODE_CACHE_MAX = 4096


def compile_translation(translation, cpu, stats=None):
    """Lower one translation; returns the template function or None.

    ``None`` means the translation stays on the simulated-VLIW path —
    lowering is best-effort and unsupported shapes are not an error.
    """
    try:
        source, consts = _Codegen(translation, cpu).generate()
        key = hashlib.sha256(source.encode("utf-8")).hexdigest()
        code = _CODE_CACHE.get(key)
        if code is None:
            code = compile(source, "<jit-template>", "exec")
            if len(_CODE_CACHE) >= _CODE_CACHE_MAX:
                _CODE_CACHE.clear()
            _CODE_CACHE[key] = code
        elif stats is not None:
            stats.jit_code_cache_hits += 1
        env: dict = {}
        exec(code, env)  # noqa: S102 — our own generated source
        return env["_make"](**consts)
    except Exception:
        return None


# ----------------------------------------------------------------------
# The driver: every dispatch, both engines, every chain
# ----------------------------------------------------------------------


class TemplateJIT:
    """The dispatch driver: runs each translation on its template or on
    the simulated VLIW, and follows chained exits between them.

    One instance per :class:`CodeMorphingSystem`, in every config;
    ``run`` is the only way a translation is dispatched and the only
    loop that follows chains (``HostCPU.run`` returns at every exit).

    The paper's staging rule (§2, Figure 1), one tier up: a translation
    runs on the simulated VLIW, in its cold mode, until its lifetime
    ``executions_molecules`` reaches ``compile_passes`` times its
    length, and is compiled then — at entry, or at the taken branch
    where the cold run crossed the threshold, so a loop switches to its
    template mid-dispatch.  Both engines share every register, buffer
    and counter, so the switch is invisible to everything but host
    seconds.  ``compile_passes == 0`` compiles on first entry, and so
    does an imported translation (``Translation.imported``).
    """

    compile_passes = JIT_COMPILE_PASSES

    def __init__(self, cpu, stats=None) -> None:
        self.cpu = cpu
        self.stats = stats
        self._uncompilable: set[int] = set()  # translation ids

    def hot_at(self, translation) -> int:
        """Lifetime molecules after which ``translation`` is compiled."""
        if translation.imported:
            return 0
        return self.compile_passes * translation.num_molecules

    def is_cold(self, translation) -> bool:
        """No template yet, and not yet worth compiling one."""
        return translation.host_code is None and \
            translation.executions_molecules < self.hot_at(translation)

    def ensure_compiled(self, translation):
        """Compile (or fetch) the translation's template function."""
        fn = translation.host_code
        if fn is not None:
            return fn
        if translation.id in self._uncompilable:
            return None
        fn = compile_translation(translation, self.cpu, self.stats)
        stats = self.stats
        if fn is None:
            self._uncompilable.add(translation.id)
            if stats is not None:
                stats.jit_compile_failures += 1
            return None
        translation.host_code = fn
        if stats is not None:
            stats.jit_compiles += 1
        return fn

    def _bail(self, reason: str) -> None:
        if self.stats is not None:
            self.stats.jit_bailouts[reason] += 1

    def run(self, translation, fuel: int = 1_000_000,
            templates: bool = True) -> ExitInfo:
        """Run ``translation`` and the chains it leads into, until an
        unchained exit, a fault, an interrupt or ``fuel`` molecules; no
        chain is followed while an interrupt is pending.  With
        ``templates`` false (or once a template cannot continue, or a
        cold translation is invalidated mid-run) every translation runs
        on the simulated VLIW."""
        cpu = self.cpu
        if templates and self.stats is not None:
            self.stats.jit_dispatches += 1
        info = ExitInfo(kind=ExitKind.EXITED)
        info.translations_entered.append(translation)
        start = cpu.molecules_executed
        try:
            self._run_loop(info, translation, fuel, start, templates)
        finally:
            cpu.current_translation = None
        info.next_eip = cpu.regs.shadow[R_EIP]
        info.molecules = cpu.molecules_executed - start
        return info

    def _run_loop(self, info, current, fuel, start, templates) -> None:
        cpu = self.cpu
        pending = cpu._interrupt_pending
        shadow = cpu.regs.shadow
        pc = current.labels[current.entry_label]
        while True:
            left = fuel - (cpu.molecules_executed - start)
            fn = None
            if templates:
                fn = current.host_code
                if fn is None and not self.is_cold(current):
                    fn = self.ensure_compiled(current)
                    if fn is None:
                        self._bail("uncompilable")
                        templates = False
            if fn is None:
                hot_at = self.hot_at(current) if templates else None
                sub = cpu.run(current, fuel=left, start_pc=pc,
                              hot_at=hot_at)
                if sub.kind is ExitKind.HOT:
                    # Hot now: compiled on the next pass, unless it was
                    # invalidated during its cold run; then it never
                    # compiles and the VLIW finishes the dispatch.
                    pc = sub.resume_pc
                    templates = current.valid
                    continue
                if sub.kind is not ExitKind.EXITED:
                    info.kind = sub.kind
                    info.fault = sub.fault
                    break
                atom = sub.exit_atom
            else:
                cpu.current_translation = current
                try:
                    status, aux = fn(left, pc)
                except HostFaultError as error:
                    info.kind = ExitKind.FAULT
                    info.fault = error.fault
                    self._bail("fault-" + error.fault.kind.name.lower())
                    break
                if status == _EXIT:
                    atom = aux
                elif status == _INTERRUPT:
                    info.kind = ExitKind.INTERRUPT
                    self._bail("interrupt")
                    break
                elif status == _FUEL:
                    info.kind = ExitKind.FUEL
                    self._bail("fuel")
                    break
                else:
                    # _RESUME: the template ran off its arms (a malformed
                    # translation); the VLIW resumes from that exact
                    # molecule and finishes the dispatch.
                    self._bail("resume")
                    templates = False
                    pc = aux
                    continue
            # Direct exits chain always, indirect exits only through
            # their inline-cache guard (§2's chaining, extended to
            # computed targets).
            chained = atom.chained_translation
            if chained is not None and not pending() and (
                    atom.exit_target is not None
                    or atom.chained_guard == shadow[R_EIP]):
                current = chained
                pc = current.labels[current.entry_label]
                info.chains_followed += 1
                info.translations_entered.append(current)
                current.entries += 1
                continue
            info.exit_atom = atom
            break
