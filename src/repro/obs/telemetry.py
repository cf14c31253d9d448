"""Structured JSONL telemetry sink with bounded file rotation.

Every record is one JSON object per line carrying the schema version
(``"v"``), a record kind (``"kind"``), and a per-sink sequence number
(``"seq"``); consumers can therefore mix records from the CMS runtime,
the benchmarks, the fuzz harness, and ``repro-health`` in one file and
still demultiplex them.  When the active file would exceed
``max_bytes`` it is rotated to ``<path>.1`` (shifting older
generations up to ``max_files``), so long campaigns cannot grow a log
without bound.

The sink also speaks the :class:`repro.obs.bus.ObservationBus` sink
protocol (``record(event, eip, detail)``), turning every traced CMS
event into an ``event`` record.
"""

from __future__ import annotations

import json
import os

#: Version of the record envelope.  Bump when the envelope or the
#: payload layout of a built-in record kind changes shape.  Version 2:
#: run-summary ``metrics`` carry no ``events.*`` counters (event totals
#: are the ``stats.*`` counters; events stream as ``event`` records).
SCHEMA_VERSION = 2


class TelemetrySink:
    """Append-only JSONL writer with size-bounded rotation."""

    def __init__(
        self,
        path: str,
        max_bytes: int = 4_000_000,
        max_files: int = 3,
        source: str = "cms",
    ) -> None:
        self.path = path
        self.max_bytes = max_bytes
        self.max_files = max(1, max_files)
        self.source = source
        self._seq = 0
        self._handle = None
        self._bytes = 0

    # -- core --------------------------------------------------------------

    def emit(self, kind: str, payload: dict) -> None:
        """Write one schema-versioned record."""
        self._seq += 1
        record = {
            "v": SCHEMA_VERSION,
            "kind": kind,
            "seq": self._seq,
            "source": self.source,
        }
        record.update(payload)
        line = json.dumps(record, sort_keys=True, default=str) + "\n"
        data = line.encode("utf-8")
        if self._handle is None:
            self._open()
        if self._bytes and self._bytes + len(data) > self.max_bytes:
            self._rotate()
        self._handle.write(data)
        self._bytes += len(data)

    def _open(self) -> None:
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        self._handle = open(self.path, "ab")
        self._bytes = self._handle.tell()

    def _rotate(self) -> None:
        self._handle.close()
        self._handle = None
        oldest = f"{self.path}.{self.max_files - 1}"
        if self.max_files == 1:
            os.remove(self.path)
        else:
            if os.path.exists(oldest):
                os.remove(oldest)
            for index in range(self.max_files - 2, 0, -1):
                older = f"{self.path}.{index}"
                if os.path.exists(older):
                    os.replace(older, f"{self.path}.{index + 1}")
            os.replace(self.path, f"{self.path}.1")
        self._open()

    def flush(self) -> None:
        if self._handle is not None:
            self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "TelemetrySink":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- ObservationBus sink protocol --------------------------------------

    def record(self, event, eip=None, detail: str = "") -> None:
        payload = {"event": getattr(event, "value", str(event))}
        if eip is not None:
            payload["eip"] = eip
        if detail:
            payload["detail"] = detail
        self.emit("event", payload)


def read_jsonl(path: str) -> list[dict]:
    """Parse one telemetry file (skipping blank lines)."""
    records = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records
