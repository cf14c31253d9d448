"""Hierarchical phase profiler for the dispatch loop.

Times the major phases of the dispatcher — interpret, translate,
execute (with JIT compile), fault-service, rollback, SMC-service,
audit — as a tree: a phase entered while another is open becomes its
child, and each node tracks inclusive time, self time (inclusive minus
children), and entry count.  ``Observability.install`` wraps the timed
methods from outside, each call in one :meth:`PhaseProfiler.phase`;
nothing else in the runtime opens a phase.

This is the *only* place in the observability layer that reads a
clock.  Phase times are engineering telemetry about the host; nothing
in the deterministic core (metrics, molecule accounting, adaptation
decisions) may consume them, which is why the perf-regression gate
treats them as advisory.  The clock is injectable so the unit tests
run against a synthetic deterministic one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass


@dataclass
class PhaseStat:
    """Accumulated data for one node of the phase tree."""

    path: tuple[str, ...]
    calls: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0

    @property
    def name(self) -> str:
        return "/".join(self.path)


@dataclass
class _Frame:
    name: str
    start: float
    child_seconds: float = 0.0


class _Phase:
    """Context manager handed out by :meth:`PhaseProfiler.phase`."""

    __slots__ = ("_profiler", "_name")

    def __init__(self, profiler: "PhaseProfiler", name: str) -> None:
        self._profiler = profiler
        self._name = name

    def __enter__(self) -> None:
        self._profiler._enter(self._name)

    def __exit__(self, exc_type, exc, tb) -> None:
        self._profiler._exit()


class PhaseProfiler:
    """Nested wall-clock phase accounting."""

    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self._stack: list[_Frame] = []
        self._nodes: dict[tuple[str, ...], PhaseStat] = {}

    def phase(self, name: str) -> _Phase:
        return _Phase(self, name)

    def _enter(self, name: str) -> None:
        self._stack.append(_Frame(name, self._clock()))

    def _exit(self) -> None:
        frame = self._stack.pop()
        elapsed = self._clock() - frame.start
        path = tuple(f.name for f in self._stack) + (frame.name,)
        node = self._nodes.get(path)
        if node is None:
            node = self._nodes[path] = PhaseStat(path)
        node.calls += 1
        node.seconds += elapsed
        node.self_seconds += elapsed - frame.child_seconds
        if self._stack:
            self._stack[-1].child_seconds += elapsed

    # -- reporting ---------------------------------------------------------

    def stats(self) -> list[PhaseStat]:
        """All nodes, outermost first, siblings by descending time."""
        return sorted(
            self._nodes.values(), key=lambda n: (len(n.path), -n.seconds)
        )

    def snapshot(self) -> dict:
        """JSON-serializable view keyed by slash-joined phase path."""
        return {
            node.name: {
                "calls": node.calls,
                "seconds": round(node.seconds, 6),
                "self_seconds": round(node.self_seconds, 6),
            }
            for node in self.stats()
        }

    def describe(self) -> str:
        lines = [f"{'phase':<32} {'calls':>10} {'seconds':>10} {'self':>10}"]
        for node in self.stats():
            indent = "  " * (len(node.path) - 1)
            label = indent + node.path[-1]
            lines.append(
                f"{label:<32} {node.calls:>10} {node.seconds:>10.4f} "
                f"{node.self_seconds:>10.4f}"
            )
        return "\n".join(lines)

    def reset(self) -> None:
        self._nodes.clear()
        self._stack.clear()
