"""VLIW trace scheduling with speculation.

This is where the paper's performance story lives.  The scheduler builds
a dependence DAG over the optimized trace IR and then list-schedules it
into VLIW cycles (future molecules).  Ordering edges:

* data dependences through temps and guest locations;
* store-store order (the gated store buffer drains in issue order);
* load-store anti order (a program-earlier load never sinks below a
  store);
* **store-load order, speculatively omitted**: a program-later load may
  be hoisted above an earlier store when the policy allows it — either
  because the addresses are provably disjoint, or under alias-hardware
  protection (§3.5): the load records its address in an alias entry and
  every store it crossed carries a check mask;
* exits order all architectural effects (guest-location writebacks,
  stores, potentially-faulting ops must complete before a later exit),
  but *loads may be hoisted above side exits* under control speculation
  (§3.2) — a hoisted load that faults produces a speculative fault that
  rollback-and-reinterpret discovers to be harmless;
* commits and barrier (I/O) ops order everything.

Any load actually scheduled out of program order is marked
``reordered`` so the hardware can detect speculative accesses to
memory-mapped I/O space at runtime (§3.4).

Cycles with no issued atoms become explicit no-op molecules: the
TM5800 has "very few hardware interlocks — CMS guarantees correct
operation by careful scheduling, inserting no-ops if necessary" (§2),
so schedule length is honestly visible in the executed-molecule metric.

Issue widths, per-class latencies, and the modeled-cycle (completion
time) objective all come from ``translator.costmodel``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.translator.costmodel import DEFAULT_COST_MODEL, MachineCostModel
from repro.translator.ir import (
    BARRIER_KINDS,
    FINAL_EXIT_KINDS,
    GUEST_LOC_TYPES,
    IROp,
    IROpKind,
    Temp,
    TraceIR,
)
from repro.translator.policies import TranslationPolicy


@dataclass
class Schedule:
    """The scheduler's result: ops grouped into issue cycles.

    ``modeled_cycles`` is the cost model's completion-time estimate for
    this placement — the cycle in which the last result lands, not just
    the issue-cycle count (see ``translator.costmodel``).
    """

    cycles: list[list[IROp]] = field(default_factory=list)
    speculated_loads: int = 0
    hoisted_over_exits: int = 0
    modeled_cycles: int = 0


class _Dag:
    """Dependence graph over trace ops."""

    def __init__(self, n: int) -> None:
        self.succs: list[dict[int, int]] = [dict() for _ in range(n)]
        self.pred_count = [0] * n

    def add_edge(self, src: int, dst: int, latency: int = 1) -> None:
        if src == dst:
            return
        existing = self.succs[src].get(dst)
        if existing is None:
            self.succs[src][dst] = latency
            self.pred_count[dst] += 1
        elif latency > existing:
            self.succs[src][dst] = latency


def _provably_disjoint(a: IROp, b: IROp) -> bool:
    """True when two memory ops certainly do not overlap.

    Requires the same symbolic base operand and non-overlapping
    displacement ranges — the "overlap is not obvious" test from §3.5.
    """
    if a.srcs[0] != b.srcs[0]:
        return False
    return a.disp + a.size <= b.disp or b.disp + b.size <= a.disp


def _provably_overlapping(a: IROp, b: IROp) -> bool:
    """True when two memory ops certainly DO overlap (same base operand,
    intersecting ranges).  Speculating on such a pair would fault every
    single execution; the scheduler keeps them ordered instead."""
    if a.srcs[0] != b.srcs[0]:
        return False
    return not (a.disp + a.size <= b.disp or b.disp + b.size <= a.disp)


_PORT_KINDS = frozenset({IROpKind.PORT_IN, IROpKind.PORT_OUT})


class Scheduler:
    """DAG construction + list scheduling for one trace."""

    def __init__(self, policy: TranslationPolicy,
                 alias_entries: int = 8,
                 model: MachineCostModel | None = None) -> None:
        self.policy = policy
        self.alias_entries = alias_entries
        self.model = model if model is not None else DEFAULT_COST_MODEL

    # ------------------------------------------------------------------
    # DAG construction
    # ------------------------------------------------------------------

    def build_dag(self, trace: TraceIR) -> tuple[_Dag, list[tuple[int, int]]]:
        """Returns the DAG and the list of speculative (store, load) pairs
        whose ordering edge was omitted under alias protection."""
        ops = trace.ops
        n = len(ops)
        dag = _Dag(n)
        add_edge = dag.add_edge
        policy = self.policy
        latency = [self.model.latency(op) for op in ops]

        last_def: dict = {}  # operand -> op index of last writer
        readers: dict = {}  # operand -> list of reader indices since write
        stores: list[int] = []  # store indices since last barrier
        loads: list[int] = []
        faulting: list[int] = []  # LD/ST/DIV since last barrier
        guest_effects: list[int] = []  # guest-loc writes + STs + exits
        exits: list[int] = []
        last_barrier: int | None = None
        spec_pairs: list[tuple[int, int]] = []
        spec_budget = self.alias_entries

        for j, op in enumerate(ops):
            kind = op.kind

            # Data dependences.
            for src in op.srcs:
                definer = last_def.get(src)
                if definer is not None:
                    add_edge(definer, j, latency[definer])
                if not isinstance(src, Temp):  # a guest location
                    readers.setdefault(src, []).append(j)
            for dest in (op.dest, op.dest2):
                if dest is None:
                    continue
                definer = last_def.get(dest)
                if definer is not None:
                    add_edge(definer, j, 1)  # output dependence
                for reader in readers.get(dest, ()):  # anti dependence
                    add_edge(reader, j, 1)
                readers[dest] = []
                last_def[dest] = j

            if last_barrier is not None:
                add_edge(last_barrier, j, 1)

            is_barrier = op.barrier or kind in BARRIER_KINDS
            is_final = kind in FINAL_EXIT_KINDS

            if is_barrier or is_final:
                # Full barrier: ordered after everything so far.  Ops
                # before the previous barrier already reach this one
                # through it, with more latency than a direct edge
                # would carry, so only the current window needs edges:
                # the schedule is the same as with edges from all.
                for i in range(last_barrier or 0, j):
                    prior = ops[i]
                    add_edge(i, j, latency[i] if prior.dest is not None
                             or prior.dest2 is not None else 1)
                last_barrier = j
                stores, loads, faulting = [], [], []
                guest_effects, exits = [], []
                if kind is IROpKind.COMMIT:
                    continue

            if kind is IROpKind.ST and not is_barrier:
                for i in stores:
                    add_edge(i, j, 1)  # store-store order
                for i in loads:
                    # A program-earlier load must not sink below a store
                    # unless provably disjoint.
                    if not _provably_disjoint(ops[i], op):
                        add_edge(i, j, 1)
                for e in exits:
                    add_edge(e, j, 1)  # stores never cross exits
                stores.append(j)
                faulting.append(j)
                guest_effects.append(j)
            elif kind is IROpKind.LD and not is_barrier:
                speculated = False
                for i in stores:
                    if _provably_disjoint(ops[i], op):
                        continue
                    can_speculate = (
                        policy.reorder_memory
                        and policy.use_alias_hw
                        and not _provably_overlapping(ops[i], op)
                        and not op.no_speculate
                        and not ops[i].no_speculate
                        and spec_budget > 0
                    )
                    if can_speculate:
                        spec_pairs.append((i, j))
                        speculated = True
                    else:
                        add_edge(i, j, 1)
                if speculated:
                    spec_budget -= 1
                if not policy.control_speculation or op.no_speculate:
                    for e in exits:
                        add_edge(e, j, 1)
                loads.append(j)
                faulting.append(j)
            elif kind in (IROpKind.DIVU, IROpKind.DIVS):
                if not policy.control_speculation:
                    for e in exits:
                        add_edge(e, j, 1)
                faulting.append(j)
            elif kind is IROpKind.MOV and isinstance(op.dest,
                                                     GUEST_LOC_TYPES):
                for e in exits:
                    add_edge(e, j, 1)  # writebacks stay below exits
                guest_effects.append(j)
            elif kind is IROpKind.EXIT_IF:
                # All architectural effects and fault sources before the
                # exit must complete first; later ones wait (handled when
                # they are visited).
                for i in guest_effects:
                    add_edge(i, j, 1)
                for i in faulting:
                    add_edge(i, j, 1)
                for e in exits:
                    add_edge(e, j, 1)  # exits stay ordered
                exits.append(j)
                guest_effects.append(j)

        # Reset the per-window speculation budget at commits: entries are
        # cleared by commit, so each window gets the full set.  (The
        # budget bookkeeping above is conservative across the whole
        # trace; refine it per window.)
        return dag, spec_pairs

    # ------------------------------------------------------------------
    # List scheduling
    # ------------------------------------------------------------------

    def schedule(self, trace: TraceIR) -> Schedule:
        ops = trace.ops
        n = len(ops)
        if n == 0:
            return Schedule()
        dag, spec_pairs = self.build_dag(trace)
        succs = dag.succs

        # Critical-path priorities.
        priority = [1] * n
        for i in range(n - 1, -1, -1):
            best = 0
            for j, lat in succs[i].items():
                path = priority[j] + lat
                if path > best:
                    best = path
            priority[i] = best + 1

        port_preferences = self.model.port_preferences
        prefs = [port_preferences(op.kind) for op in ops]
        # Barrier ops issue alone.
        alone = [op.barrier or op.kind in _PORT_KINDS for op in ops]
        ports = self.model.ports
        issue_width = self.model.issue_width

        pred_count = dag.pred_count[:]
        earliest = [0] * n
        placed_cycle = [-1] * n
        ready: list[int] = [i for i in range(n) if pred_count[i] == 0]
        remaining = n
        cycles: list[list[IROp]] = []
        cycle_index = 0

        while remaining > 0:
            issued: list[int] = []
            slots = dict(ports)
            atom_budget = issue_width
            # Highest priority first; ties keep ready-list order (the
            # sort is stable, also with reverse=True).
            candidates = sorted(
                [i for i in ready if earliest[i] <= cycle_index],
                key=priority.__getitem__, reverse=True,
            )
            for i in candidates:
                is_barrier = alone[i]
                if is_barrier and issued:
                    continue
                for port in prefs[i]:
                    if slots[port]:
                        break
                else:
                    continue  # no free port this cycle
                slots[port] -= 1
                atom_budget -= 1
                issued.append(i)
                if is_barrier or atom_budget == 0:
                    break

            for i in issued:
                ready.remove(i)
                placed_cycle[i] = cycle_index
                remaining -= 1
                for j, lat in succs[i].items():
                    pred_count[j] -= 1
                    if cycle_index + lat > earliest[j]:
                        earliest[j] = cycle_index + lat
                    if pred_count[j] == 0:
                        ready.append(j)

            cycles.append([ops[i] for i in issued])
            cycle_index += 1
            if cycle_index > 40 * n + 64:  # pragma: no cover - safety net
                raise RuntimeError("scheduler failed to converge")

        schedule = Schedule(cycles=cycles)
        schedule.modeled_cycles = self.model.completion_cycles(cycles)
        self._apply_speculation_marks(ops, placed_cycle, spec_pairs, schedule)
        return schedule

    def _apply_speculation_marks(
        self,
        ops: list[IROp],
        placed_cycle: list[int],
        spec_pairs: list[tuple[int, int]],
        schedule: Schedule,
    ) -> None:
        """Set reordered/alias attributes from the final placement."""
        # Alias protection: loads actually hoisted above a store they
        # could alias with.
        load_entry: dict[int, int] = {}
        next_entry = 0
        for store_idx, load_idx in spec_pairs:
            if placed_cycle[load_idx] <= placed_cycle[store_idx]:
                load = ops[load_idx]
                store = ops[store_idx]
                entry = load_entry.get(load_idx)
                if entry is None:
                    entry = next_entry % self.alias_entries
                    next_entry += 1
                    load_entry[load_idx] = entry
                    load.alias_entry = entry
                    load.reordered = True
                    schedule.speculated_loads += 1
                store.alias_check |= 1 << entry

        # Control speculation: loads hoisted above a program-earlier exit.
        exit_positions = [
            (i, placed_cycle[i])
            for i, op in enumerate(ops)
            if op.kind is IROpKind.EXIT_IF
        ]
        for i, op in enumerate(ops):
            if op.kind is not IROpKind.LD or op.reordered:
                continue
            for exit_idx, exit_cycle in exit_positions:
                if exit_idx < i and placed_cycle[i] <= exit_cycle:
                    op.reordered = True
                    schedule.hoisted_over_exits += 1
                    break
