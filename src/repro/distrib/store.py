"""The SQLite-WAL-backed campaign store (``--store PATH``).

One file holds everything a campaign shares across processes:

========== =================================================================
table      contents
========== =================================================================
meta       campaign config fingerprint, driver lease, free-form flags
visited    completion-gated visited-state hashes, namespaced by *scope*
corpus     the fuzz corpus index: entry id -> file checksum + fingerprint
coverage   the merged coverage map, one (axis, feature) row each
frontier   checkpointed exploration frontier (per-benchmark results, the
           fuzz campaign's last checkpoint record)
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
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.resilience.atomic import checksum_payload, checksum_text
from repro.resilience.faults import fault_check

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key TEXT PRIMARY KEY, value TEXT NOT NULL, sha TEXT NOT NULL);
CREATE TABLE IF NOT EXISTS visited (
    scope TEXT NOT NULL, hash TEXT NOT NULL, sha TEXT NOT NULL,
    PRIMARY KEY (scope, hash));
CREATE TABLE IF NOT EXISTS corpus (
    entry_id TEXT PRIMARY KEY, payload TEXT NOT NULL, sha TEXT NOT NULL);
CREATE TABLE IF NOT EXISTS coverage (
    axis TEXT NOT NULL, feature TEXT NOT NULL, sha TEXT NOT NULL,
    PRIMARY KEY (axis, feature));
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
    ("visited", ("scope", "hash"), lambda row: [row["scope"], row["hash"]]),
    ("corpus", ("entry_id",), lambda row: [row["entry_id"], row["payload"]]),
    ("coverage", ("axis", "feature"), lambda row: [row["axis"], row["feature"]]),
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
    """One shared on-disk campaign store (SQLite, WAL, checksummed rows).

    A *private* store is the dispatcher's throwaway queue for a campaign run
    without ``--store`` (see :func:`private_store`): its lease counters stay
    out of the session metrics registry, so such a run reports no
    ``distrib.*`` names.
    """

    def __init__(self, path, busy_timeout: float = 30.0,
                 read_only: bool = False, private: bool = False):
        self.path = Path(path)
        self.busy_timeout = busy_timeout
        self.read_only = read_only
        self.private = private
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
    def transaction(self, op: str) -> Iterator[sqlite3.Connection]:
        """One single-writer batch: ``BEGIN IMMEDIATE`` .. commit/rollback.

        Concurrent processes serialize on the write lock (busy timeout),
        and WAL readers keep their stable snapshot until the commit — no
        observer ever sees half the batch.  The ``store.write`` fault check
        runs *before* the lock is taken, so an injected crash models a
        process dying at the boundary with nothing committed.
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

    # -- visited-state hashes (completion-gated publish) ----------------------

    def publish_hashes(self, scope: str, hashes: Sequence[int]) -> None:
        if not hashes:
            return
        with self.transaction("visited.publish") as conn:
            conn.executemany(
                "INSERT OR IGNORE INTO visited VALUES (?, ?, ?)",
                [(scope, str(value), _row_sha(scope, str(value)))
                 for value in hashes])

    def visited_snapshot(self, scope: str) -> set:
        rows = self._read("visited.snapshot").execute(
            "SELECT hash FROM visited WHERE scope = ?", (scope,)).fetchall()
        return {int(row["hash"]) for row in rows}

    # -- corpus index / coverage / frontier -----------------------------------

    def index_entries(self, records: Dict[str, dict],
                      conn: Optional[sqlite3.Connection] = None) -> None:
        """Mirror corpus entries into the index (id -> checksummed summary)."""
        rows = []
        for entry_id, record in sorted(records.items()):
            payload = json.dumps(record, sort_keys=True)
            rows.append((entry_id, payload, _row_sha(entry_id, payload)))
        if not rows:
            return
        if conn is not None:
            conn.executemany(
                "INSERT OR REPLACE INTO corpus VALUES (?, ?, ?)", rows)
            return
        with self.transaction("corpus.index") as conn:
            conn.executemany(
                "INSERT OR REPLACE INTO corpus VALUES (?, ?, ?)", rows)

    def corpus_index(self) -> Dict[str, dict]:
        rows = self._read("corpus.index").execute(
            "SELECT entry_id, payload FROM corpus").fetchall()
        return {row["entry_id"]: json.loads(row["payload"]) for row in rows}

    def merge_coverage(self, features: Dict[str, Sequence[str]],
                       conn: Optional[sqlite3.Connection] = None) -> None:
        rows = [(axis, str(feature), _row_sha(axis, str(feature)))
                for axis, values in sorted(features.items())
                for feature in values]
        if not rows:
            return
        if conn is not None:
            conn.executemany(
                "INSERT OR IGNORE INTO coverage VALUES (?, ?, ?)", rows)
            return
        with self.transaction("coverage.merge") as conn:
            conn.executemany(
                "INSERT OR IGNORE INTO coverage VALUES (?, ?, ?)", rows)

    def coverage_map(self) -> Dict[str, List[str]]:
        rows = self._read("coverage.map").execute(
            "SELECT axis, feature FROM coverage ORDER BY axis, feature"
        ).fetchall()
        merged: Dict[str, List[str]] = {}
        for row in rows:
            merged.setdefault(row["axis"], []).append(row["feature"])
        return merged

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

    def get_frontier(self, key: str) -> Optional[dict]:
        row = self._read(f"frontier:{key}").execute(
            "SELECT payload FROM frontier WHERE key = ?", (key,)).fetchone()
        return json.loads(row["payload"]) if row is not None else None

    def frontier_keys(self, prefix: str = "") -> List[str]:
        rows = self._read("frontier.keys").execute(
            "SELECT key FROM frontier ORDER BY key").fetchall()
        return [row["key"] for row in rows if row["key"].startswith(prefix)]

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

        Visited hashes, coverage rows and corpus-index rows are all
        re-computable (the journal + entry files stay authoritative for the
        corpus itself); a corrupt unit is re-enqueued by the next driver.
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
        store = CampaignStore(Path(root) / "campaign.sqlite3", private=True)
        try:
            yield store
        finally:
            store.close()


class VisitedStore:
    """The engine-facing visited-state memo over a :class:`CampaignStore`.

    Same completion-gated contract the manager-dict ``SharedStateStore``
    had: DFS shards keep their fast process-local ``seen`` sets; on top,
    :meth:`probe` buffers the stable hashes of fresh states and consults a
    periodically refreshed snapshot of what *completed* shards published.
    :meth:`publish` — called by the engine only once the shard's whole
    slice drained failure-free — pushes the buffer in one transaction.
    Gating publication on clean completion is what keeps cross-shard
    pruning sound: a sibling treats a published state as a fully covered,
    failure-free subtree.  ``probe`` errs toward ``False`` between
    refreshes — a shard then merely re-explores a little overlap, never
    skips coverage.

    *scope* namespaces the hash space: states of different benchmarks (or
    different workload bounds) share one store file without ever
    cross-pruning.
    """

    def __init__(self, store: CampaignStore, scope: str,
                 refresh_every: int = 32):
        self.store = store
        self.scope = scope
        self.refresh_every = max(int(refresh_every), 1)
        self._snapshot: set = set()
        self._pending: List[int] = []
        self._probes = 0
        self.refreshes = 0
        self.refresh()                 # pull what completed shards published

    def probe(self, state_hash: int) -> bool:
        """Buffer *state_hash*; True when a *completed* shard published it."""
        self._probes += 1
        if self._probes % self.refresh_every == 0:
            self.refresh()
        if state_hash in self._snapshot:
            return True
        self._pending.append(state_hash)
        return False

    def refresh(self) -> None:
        """Re-pull the local snapshot of published foreign hashes."""
        try:
            self._snapshot = self.store.visited_snapshot(self.scope)
        except sqlite3.Error:
            # The store is unreachable (driver tearing down, disk gone):
            # degrade to local-only exploration, never lose soundness.
            self._snapshot = set()
        self.refreshes += 1

    def publish(self) -> None:
        """Push the buffered hashes (call only when fully drained clean)."""
        if not self._pending:
            return
        try:
            self.store.publish_hashes(self.scope, self._pending)
        except sqlite3.Error:
            pass
        self._pending.clear()
