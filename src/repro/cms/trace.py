"""CMS event trace.

A lightweight ring buffer of runtime events — translations, faults,
rollbacks, adaptations, SMC actions — for debugging, the examples, and
behavioural tests.  Recording is cheap (one tuple append); the buffer
is bounded so long runs cannot grow without limit.
"""

from __future__ import annotations

import enum
from collections import Counter, deque
from dataclasses import dataclass


class Event(enum.Enum):
    TRANSLATE = "translate"
    RETRANSLATE = "retranslate"
    GROUP_REACTIVATE = "group-reactivate"
    CHAIN = "chain"
    FAULT = "fault"
    ROLLBACK = "rollback"
    INTERRUPT = "interrupt"
    GUEST_EXCEPTION = "guest-exception"
    SPECULATIVE_FAULT = "speculative-fault"
    GENUINE_FAULT = "genuine-fault"
    SMC_INVALIDATE = "smc-invalidate"
    REVALIDATE_ARM = "revalidate-arm"
    REVALIDATE_PASS = "revalidate-pass"
    POLICY_ESCALATE = "policy-escalate"
    TCACHE_FLUSH = "tcache-flush"
    CONTAINED_ERROR = "contained-error"
    QUARANTINE = "quarantine"
    LADDER_DEMOTE = "ladder-demote"
    LADDER_PROMOTE = "ladder-promote"
    AUDIT_REPAIR = "audit-repair"
    SNAPSHOT_SAVE = "snapshot-save"
    SNAPSHOT_LOAD = "snapshot-load"
    SNAPSHOT_DROP = "snapshot-drop"
    CONTROLLER_PRUNE = "controller-prune"


@dataclass
class TraceRecord:
    """One recorded event."""

    sequence: int
    event: Event
    eip: int | None = None
    detail: str = ""

    def __str__(self) -> str:
        location = f" @{self.eip:#x}" if self.eip is not None else ""
        text = f" {self.detail}" if self.detail else ""
        return f"[{self.sequence:6d}] {self.event.value}{location}{text}"


class EventTrace:
    """Bounded event log with counting and simple querying.

    Counting semantics (kept consistent with the bounded ring):
    ``counts`` tallies only the records *currently in the ring* — when
    the ring evicts its oldest record, that record leaves ``counts``
    too, so the two views never disagree about what the trace holds.
    ``lifetime_counts`` is the monotone all-time total per event kind;
    it grows one integer per event *kind* (a small fixed set), never
    per event, so it is bounded regardless of run length.
    """

    def __init__(self, capacity: int = 4096, enabled: bool = True) -> None:
        self.enabled = enabled
        self._records: deque[TraceRecord] = deque(maxlen=capacity)
        self.counts: Counter = Counter()  # records still in the ring
        self.lifetime_counts: Counter = Counter()  # all-time totals
        self._sequence = 0

    def record(self, event: Event, eip: int | None = None,
               detail: str = "") -> None:
        if not self.enabled:
            return
        self._sequence += 1
        self.lifetime_counts[event] += 1
        self.counts[event] += 1
        records = self._records
        if len(records) == records.maxlen:
            evicted = records[0]
            self.counts[evicted.event] -= 1
            if not self.counts[evicted.event]:
                del self.counts[evicted.event]
        records.append(
            TraceRecord(self._sequence, event, eip, detail)
        )

    def __len__(self) -> int:
        return len(self._records)

    def records(self, event: Event | None = None,
                eip: int | None = None) -> list[TraceRecord]:
        """Records, optionally filtered by kind and/or address."""
        out = []
        for record in self._records:
            if event is not None and record.event is not event:
                continue
            if eip is not None and record.eip != eip:
                continue
            out.append(record)
        return out

    def last(self, count: int = 20) -> list[TraceRecord]:
        return list(self._records)[-count:]

    def dump(self, count: int = 50) -> str:
        return "\n".join(str(record) for record in self.last(count))

    def sequence_of(self, *events: Event) -> list[Event]:
        """The order in which the given event kinds occurred."""
        wanted = set(events)
        return [record.event for record in self._records
                if record.event in wanted]
