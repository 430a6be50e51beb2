"""The SQLite-WAL-backed campaign store (``--store PATH``).

One file holds everything a campaign shares across processes:

========== =================================================================
table      contents
========== =================================================================
meta       campaign config fingerprint, driver lease, free-form flags
frontier   the fuzz campaign's last checkpoint record (``fuzz/checkpoint``,
           read by the console); explore checkpoints are the ``units`` rows
units      the work-stealing queue (see :mod:`repro.distrib.queue`)
counters   ``distrib.*`` observability counters, aggregated transactionally
telemetry  per-worker heartbeat/progress rows for ``expresso status``
========== =================================================================

Integrity: every row carries a blake2b-128 checksum of its payload
(:func:`repro.resilience.atomic.checksum_payload` — the same canonical-JSON
checksum the journal uses), so silent corruption is detectable row by row:
:meth:`CampaignStore.verify` reports every bad row, :meth:`CampaignStore.repair`
drops them (the campaign re-derives dropped state deterministically).

Concurrency: SQLite in WAL mode with ``BEGIN IMMEDIATE`` write
transactions.  WAL gives readers a stable snapshot while one writer
commits, so a cooperating process never observes a torn batch; the busy
timeout serializes writers.  Connections are per-process — a store object
that crosses a ``fork`` lazily reopens in the child, and the driver closes
its handle before forking pools so no SQLite file lock is shared across
the fork boundary.

Fault sites: ``store.write`` before every write transaction and
``store.read`` before every read snapshot, with the operation name (and
unit id where there is one) as the token — a chaos plan can kill a process
at any specific lease boundary with ``{"site": "store.write",
"match": "claim:..."}``.
"""

from __future__ import annotations

import json
import os
import sqlite3
import tempfile
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.resilience.atomic import checksum_payload, checksum_text
from repro.resilience.faults import fault_check

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key TEXT PRIMARY KEY, value TEXT NOT NULL, sha TEXT NOT NULL);
CREATE TABLE IF NOT EXISTS frontier (
    key TEXT PRIMARY KEY, payload TEXT NOT NULL, sha TEXT NOT NULL);
CREATE TABLE IF NOT EXISTS units (
    unit_id TEXT PRIMARY KEY, batch TEXT NOT NULL,
    payload BLOB NOT NULL, sha TEXT NOT NULL,
    status TEXT NOT NULL DEFAULT 'pending',
    owner TEXT, lease_expires REAL, attempts INTEGER NOT NULL DEFAULT 0,
    result BLOB, result_sha TEXT, error TEXT);
CREATE INDEX IF NOT EXISTS units_batch ON units (batch, status);
CREATE TABLE IF NOT EXISTS counters (
    name TEXT PRIMARY KEY, value INTEGER NOT NULL, sha TEXT NOT NULL);
CREATE TABLE IF NOT EXISTS telemetry (
    worker TEXT PRIMARY KEY, payload TEXT NOT NULL, sha TEXT NOT NULL);
"""

#: Row-payload tables verify() knows how to checksum, with the expression
#: rebuilding each row's checksummed payload.  ``units`` checksums cover the
#: immutable payload (and, separately, the result) — lease fields mutate.
_CHECKED = (
    ("meta", ("key",), lambda row: [row["key"], row["value"]]),
    ("frontier", ("key",), lambda row: [row["key"], row["payload"]]),
    ("counters", ("name",), lambda row: [row["name"], row["value"]]),
    ("telemetry", ("worker",), lambda row: [row["worker"], row["payload"]]),
)


class StoreMismatchError(RuntimeError):
    """The store belongs to a campaign with different parameters."""

    def __init__(self, path, detail: str):
        self.path = Path(path)
        self.detail = detail
        super().__init__(f"campaign store at {self.path}: {detail}")


def _row_sha(*fields: Any) -> str:
    return checksum_payload(list(fields))


class CampaignStore:
    """One shared on-disk campaign store (SQLite, WAL, checksummed rows)."""

    def __init__(self, path, busy_timeout: float = 30.0,
                 read_only: bool = False):
        self.path = Path(path)
        self.busy_timeout = busy_timeout
        self.read_only = read_only
        self._conn: Optional[sqlite3.Connection] = None
        self._owner: Optional[Tuple[int, int]] = None  # (pid, thread id)

    # -- connection lifecycle -------------------------------------------------

    def _connection(self) -> sqlite3.Connection:
        """The per-process (and per-thread) connection, opened lazily.

        SQLite connections must not cross ``fork`` (shared file locks) or
        threads (the default isolation checks); reopening on owner change
        makes one store object safe to hold across both.
        """
        owner = (os.getpid(), threading.get_ident())
        if self._conn is not None and self._owner != owner:
            self._conn = None           # inherited across fork/thread: drop
        if self._conn is None:
            if self.read_only:
                # A console/status reader: never create the file, never run
                # the schema, never take a write lock on someone's campaign.
                uri = f"file:{self.path}?mode=ro"
                conn = sqlite3.connect(uri, uri=True,
                                       timeout=self.busy_timeout,
                                       isolation_level=None)
                conn.row_factory = sqlite3.Row
                conn.execute("PRAGMA query_only=ON")
                conn.execute(
                    f"PRAGMA busy_timeout={int(self.busy_timeout * 1000)}")
            else:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                conn = sqlite3.connect(self.path, timeout=self.busy_timeout,
                                       isolation_level=None)
                conn.row_factory = sqlite3.Row
                self._enable_wal(conn)
                conn.execute("PRAGMA synchronous=NORMAL")
                conn.execute(
                    f"PRAGMA busy_timeout={int(self.busy_timeout * 1000)}")
                conn.executescript(_SCHEMA)
            self._conn = conn
            self._owner = owner
        return self._conn

    def _enable_wal(self, conn: sqlite3.Connection) -> None:
        """Put the store in WAL mode, waiting out a concurrent opener.

        Switching the journal mode needs an exclusive lock, and SQLite
        reports ``database is locked`` at once, without consulting the busy
        handler, while another process holds any lock on the file — e.g. a
        helper process and the campaign opening a fresh store together.
        The switch is retried with backoff for up to the busy timeout, and
        skipped once the file is already in WAL mode (the mode persists).
        """
        deadline = time.monotonic() + self.busy_timeout
        delay = 0.001
        while True:
            try:
                if conn.execute("PRAGMA journal_mode").fetchone()[0] == "wal":
                    return
                if conn.execute("PRAGMA journal_mode=WAL").fetchone()[0] == "wal":
                    return
            except sqlite3.OperationalError as exc:
                if "locked" not in str(exc) or time.monotonic() >= deadline:
                    raise
            if time.monotonic() >= deadline:
                raise sqlite3.OperationalError(
                    f"could not switch {self.path} to WAL mode")
            time.sleep(delay)
            delay = min(2 * delay, 0.05)

    def close(self) -> None:
        """Close this process's connection (reopens lazily on next use).

        Call before forking worker pools: a SQLite handle shared across a
        fork can release the parent's file locks when the child exits.
        """
        if self._conn is not None and self._owner == (os.getpid(),
                                                      threading.get_ident()):
            self._conn.close()
        self._conn = None
        self._owner = None

    # -- transactions ---------------------------------------------------------

    @contextmanager
    def transaction(self, op: str, close: bool = False) -> Iterator[sqlite3.Connection]:
        """One single-writer batch: ``BEGIN IMMEDIATE`` .. commit/rollback.

        Concurrent processes serialize on the write lock (busy timeout),
        and WAL readers keep their stable snapshot until the commit — no
        observer ever sees half the batch.  The ``store.write`` fault check
        runs *before* the lock is taken, so an injected crash models a
        process dying at the boundary with nothing committed.  With
        *close*, the commit is this process's last write for now: the
        connection is closed after it (see :meth:`close`).
        """
        if self.read_only:
            raise StoreMismatchError(
                self.path, f"store opened read-only; refusing write '{op}'")
        fault_check("store.write", token=op)
        conn = self._connection()
        conn.execute("BEGIN IMMEDIATE")
        try:
            yield conn
        except BaseException:
            conn.execute("ROLLBACK")
            raise
        conn.execute("COMMIT")
        if close:
            self.close()

    def _read(self, op: str) -> sqlite3.Connection:
        fault_check("store.read", token=op)
        return self._connection()

    # -- meta -----------------------------------------------------------------

    def meta_get(self, key: str) -> Optional[Any]:
        row = self._read(f"meta:{key}").execute(
            "SELECT value FROM meta WHERE key = ?", (key,)).fetchone()
        return json.loads(row["value"]) if row is not None else None

    def meta_set(self, key: str, value: Any,
                 conn: Optional[sqlite3.Connection] = None) -> None:
        text = json.dumps(value, sort_keys=True)
        args = (key, text, _row_sha(key, text))
        if conn is not None:
            conn.execute("INSERT OR REPLACE INTO meta VALUES (?, ?, ?)", args)
            return
        with self.transaction(f"meta:{key}") as conn:
            conn.execute("INSERT OR REPLACE INTO meta VALUES (?, ?, ?)", args)

    def bind_campaign(self, fingerprint: dict) -> None:
        """Bind the store to one campaign configuration (or validate it).

        The first invocation records the config fingerprint; later ones —
        resumes, cooperating helpers, post-crash restarts — must present
        the same fingerprint, exactly like the journal's resume check.
        """
        stamp = checksum_payload(fingerprint)
        with self.transaction("bind") as conn:
            row = conn.execute("SELECT value FROM meta WHERE key = 'campaign'"
                               ).fetchone()
            if row is None:
                self.meta_set("campaign", stamp, conn=conn)
            elif json.loads(row["value"]) != stamp:
                raise StoreMismatchError(
                    self.path, "store was created by a campaign with "
                    "different parameters; use the original flags or a "
                    "fresh --store path")

    # -- frontier -------------------------------------------------------------

    def set_frontier(self, key: str, payload: dict,
                     conn: Optional[sqlite3.Connection] = None) -> None:
        text = json.dumps(payload, sort_keys=True)
        args = (key, text, _row_sha(key, text))
        if conn is not None:
            conn.execute("INSERT OR REPLACE INTO frontier VALUES (?, ?, ?)",
                         args)
            return
        with self.transaction(f"frontier:{key}") as conn:
            conn.execute("INSERT OR REPLACE INTO frontier VALUES (?, ?, ?)",
                         args)

    # -- counters -------------------------------------------------------------

    def inc_counter(self, conn: sqlite3.Connection, name: str,
                    delta: int = 1) -> None:
        """Bump a ``distrib.*`` counter inside an open write transaction.

        Counters commit atomically with the operation they count, so the
        aggregate is exact across any number of cooperating processes.
        """
        row = conn.execute("SELECT value FROM counters WHERE name = ?",
                           (name,)).fetchone()
        value = (row["value"] if row is not None else 0) + delta
        conn.execute("INSERT OR REPLACE INTO counters VALUES (?, ?, ?)",
                     (name, value, _row_sha(name, value)))

    def counters(self) -> Dict[str, int]:
        rows = self._read("counters").execute(
            "SELECT name, value FROM counters ORDER BY name").fetchall()
        return {row["name"]: row["value"] for row in rows}

    # -- telemetry ------------------------------------------------------------

    def record_telemetry(self, worker: str, updates: Dict[str, Any],
                         conn: Optional[sqlite3.Connection] = None,
                         increments: Optional[Dict[str, int]] = None) -> None:
        """Merge *updates* into *worker*'s telemetry row (read-merge-write).

        Pass the open transaction's ``conn`` to piggyback on an existing
        batch — every production caller does (claim/renew/complete in the
        queue, the checkpoint mirror in the fuzz campaign), so telemetry
        costs no extra ``store.write`` fault-point crossings and no extra
        commits.  *increments* adds to existing numeric fields instead of
        replacing them.
        """
        if conn is None:
            with self.transaction(f"telemetry:{worker}") as conn:
                self.record_telemetry(worker, updates, conn=conn,
                                      increments=increments)
            return
        row = conn.execute("SELECT payload FROM telemetry WHERE worker = ?",
                           (worker,)).fetchone()
        payload = json.loads(row["payload"]) if row is not None else {}
        payload.update(updates)
        for name, delta in (increments or {}).items():
            payload[name] = int(payload.get(name, 0)) + int(delta)
        text = json.dumps(payload, sort_keys=True)
        conn.execute("INSERT OR REPLACE INTO telemetry VALUES (?, ?, ?)",
                     (worker, text, _row_sha(worker, text)))

    def telemetry(self) -> Dict[str, dict]:
        """All per-worker telemetry rows (empty for un-migrated stores)."""
        try:
            rows = self._read("telemetry").execute(
                "SELECT worker, payload FROM telemetry ORDER BY worker"
            ).fetchall()
        except sqlite3.OperationalError:
            return {}                  # store predates the telemetry table
        return {row["worker"]: json.loads(row["payload"]) for row in rows}

    # -- integrity ------------------------------------------------------------

    def verify(self) -> List[str]:
        """Scan every row's checksum; one human-readable line per problem."""
        problems: List[str] = []
        conn = self._read("verify")
        for table, key_cols, payload in _CHECKED:
            try:
                rows = conn.execute(f"SELECT * FROM {table}").fetchall()
            except sqlite3.OperationalError:
                continue               # read-only view of an older store
            for row in rows:
                key = ", ".join(str(row[col]) for col in key_cols)
                try:
                    ok = row["sha"] == _row_sha(*payload(row))
                except (ValueError, TypeError):
                    ok = False
                if not ok:
                    problems.append(f"{table} row ({key}) fails its checksum")
        for row in conn.execute("SELECT unit_id, payload, sha, result, "
                                "result_sha FROM units"):
            if checksum_text(row["payload"].hex()) != row["sha"]:
                problems.append(f"units row ({row['unit_id']}) payload fails "
                                f"its checksum")
            if row["result"] is not None and (
                    checksum_text(row["result"].hex()) != row["result_sha"]):
                problems.append(f"units row ({row['unit_id']}) result fails "
                                f"its checksum")
        return problems

    def repair(self) -> dict:
        """Drop rows whose checksums fail; campaigns re-derive them.

        Frontier rows are re-derivable: the fuzz frontier is rewritten at
        the next checkpoint (the corpus journal and entry files stay
        authoritative for the corpus itself); a corrupt unit is re-enqueued
        by the next driver, and a unit whose result was dropped runs again.
        Returns ``{"rows_dropped": n, "problems": [...]}``.
        """
        problems = self.verify()
        dropped = 0
        with self.transaction("repair") as conn:
            for table, key_cols, payload in _CHECKED:
                for row in conn.execute(f"SELECT * FROM {table}").fetchall():
                    try:
                        ok = row["sha"] == _row_sha(*payload(row))
                    except (ValueError, TypeError):
                        ok = False
                    if not ok:
                        where = " AND ".join(f"{col} = ?" for col in key_cols)
                        conn.execute(f"DELETE FROM {table} WHERE {where}",
                                     tuple(row[col] for col in key_cols))
                        dropped += 1
            for row in conn.execute("SELECT unit_id, payload, sha, result, "
                                    "result_sha FROM units").fetchall():
                bad_payload = checksum_text(row["payload"].hex()) != row["sha"]
                bad_result = row["result"] is not None and (
                    checksum_text(row["result"].hex()) != row["result_sha"])
                if bad_payload:
                    conn.execute("DELETE FROM units WHERE unit_id = ?",
                                 (row["unit_id"],))
                    dropped += 1
                elif bad_result:
                    conn.execute(
                        "UPDATE units SET status = 'pending', owner = NULL, "
                        "lease_expires = NULL, result = NULL, "
                        "result_sha = NULL WHERE unit_id = ?",
                        (row["unit_id"],))
                    dropped += 1
        return {"rows_dropped": dropped, "problems": problems}


@contextmanager
def private_store() -> Iterator[CampaignStore]:
    """A throwaway :class:`CampaignStore` in a temp directory.

    What a campaign dispatches through when no ``--store`` is given; the
    directory and everything in it are removed on exit.
    """
    with tempfile.TemporaryDirectory(prefix="expresso-store-") as root:
        store = CampaignStore(Path(root) / "campaign.sqlite3")
        try:
            yield store
        finally:
            store.close()

