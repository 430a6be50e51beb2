"""A write-ahead journal with per-record checksums and torn-tail rollback.

The journal is an append-only file of newline-delimited JSON frames::

    {"record": {...}, "sha": "<blake2b-128 of the record's canonical JSON>"}

Appends are flushed and fsync'd, so once :meth:`Journal.append` returns the
record survives a crash.  A crash *during* an append can leave one torn
frame — half a line, or a full line whose checksum does not match — but
only at the tail: :meth:`Journal.replay` validates frames in order and
stops at the first bad one, so recovery is always "the longest valid
prefix".  :meth:`Journal.truncate_to_valid` rewrites the file to exactly
that prefix (atomically), which is what ``expresso fuzz --repair`` and the
``--resume`` path use to roll a corpus back to its last good record.

Fault sites: ``journal.append`` (token = the record's ``type`` field).  A
``crash`` action before the write models dying between a checkpoint's
entry-file writes and its commit record; tests also simulate *torn* appends by truncating the
file mid-frame — replay must degrade identically in both cases.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.record import record
from repro.resilience.atomic import atomic_write_text, checksum_payload
from repro.resilience.faults import fault_check


@record
class JournalReplay:
    """The outcome of replaying a journal file."""

    records: List[Dict[str, Any]]
    #: Number of bytes holding the valid prefix (truncation point).
    valid_bytes: int
    #: True when a torn/corrupt frame was found after the valid prefix.
    torn: bool

    @property
    def last(self) -> Optional[Dict[str, Any]]:
        return self.records[-1] if self.records else None


class Journal:
    """Append-only, checksummed, crash-recoverable record log."""

    def __init__(self, path: Path):
        self.path = Path(path)
        #: Checksum of the last appended/replayed record (None = not known
        #: yet); lets :meth:`append_if_changed` stay O(1) per call.
        self._last_sha: Optional[str] = None

    def exists(self) -> bool:
        return self.path.exists()

    # -- writing -------------------------------------------------------------

    def append(self, record: Dict[str, Any]) -> None:
        """Durably append one record (flush + fsync before returning)."""
        sha = checksum_payload(record)
        fault_check("journal.append", token=str(record.get("type", "?")))
        frame = json.dumps({"record": record, "sha": sha}, sort_keys=True)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(frame + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        self._last_sha = sha

    def append_if_changed(self, record: Dict[str, Any]) -> bool:
        """Append unless *record* equals the journal's current last record.

        Keeps re-runs idempotent: resuming an already-finished campaign (or
        finalizing right after a round checkpoint) must not grow the journal
        — byte-identical trees are the resume-equivalence contract.
        """
        sha = checksum_payload(record)
        if self._last_sha is None and self.path.exists():
            records = self.replay().records
            self._last_sha = (checksum_payload(records[-1]) if records
                              else "")
        if sha == self._last_sha:
            return False
        self.append(record)
        return True

    # -- recovery ------------------------------------------------------------

    def replay(self) -> JournalReplay:
        """Validate frames in order; stop at the first torn/corrupt one."""
        if not self.path.exists():
            return JournalReplay(records=[], valid_bytes=0, torn=False)
        raw = self.path.read_bytes()
        records: List[Dict[str, Any]] = []
        offset = 0
        while offset < len(raw):
            newline = raw.find(b"\n", offset)
            if newline == -1:
                return JournalReplay(records, offset, torn=True)
            line = raw[offset:newline]
            try:
                frame = json.loads(line.decode("utf-8"))
                record = frame["record"]
                if frame["sha"] != checksum_payload(record):
                    return JournalReplay(records, offset, torn=True)
            except (ValueError, KeyError, TypeError, UnicodeDecodeError):
                return JournalReplay(records, offset, torn=True)
            records.append(record)
            offset = newline + 1
        return JournalReplay(records, offset, torn=False)

    def truncate_to_valid(self) -> JournalReplay:
        """Atomically rewrite the journal to its longest valid prefix."""
        replay = self.replay()
        if replay.torn:
            raw = self.path.read_bytes()[:replay.valid_bytes]
            atomic_write_text(self.path, raw.decode("utf-8"))
        self._last_sha = (checksum_payload(replay.records[-1])
                          if replay.records else "")
        return replay
