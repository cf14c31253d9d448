"""CMS event trace.

A lightweight ring buffer of runtime events — translations, faults,
rollbacks, adaptations, SMC actions — for debugging, the examples, and
behavioural tests.  Recording is cheap (one tuple append); the buffer
is bounded so long runs cannot grow without limit.  It counts nothing:
every event's run total is a :class:`~repro.cms.stats.CMSStats`
counter, bumped at the site that records the event.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass


class Event(enum.Enum):
    TRANSLATE = "translate"
    RETRANSLATE = "retranslate"
    GROUP_REACTIVATE = "group-reactivate"
    CHAIN = "chain"
    FAULT = "fault"
    ROLLBACK = "rollback"
    INTERRUPT = "interrupt"
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
    """Bounded event log with simple querying."""

    def __init__(self, capacity: int = 4096, enabled: bool = True) -> None:
        self.enabled = enabled
        self._records: deque[TraceRecord] = deque(maxlen=capacity)
        self._sequence = 0

    def record(self, event: Event, eip: int | None = None,
               detail: str = "") -> None:
        if not self.enabled:
            return
        self._sequence += 1
        self._records.append(TraceRecord(self._sequence, event, eip, detail))

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
