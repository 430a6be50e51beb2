"""The campaign console: read-only live status over a shared store.

``expresso status --store PATH`` renders one snapshot of a running (or
finished, or crashed) campaign: units by state, per-worker lease and
heartbeat health, corpus/coverage/frontier progress, and the transactional
``distrib.*`` counters.  ``expresso watch`` polls the same snapshot and
turns it into a CI-usable anomaly watchdog (stalled leases, no progress).

Everything here is **read-only**: the store is opened with
``CampaignStore(path, read_only=True)`` (SQLite URI ``mode=ro`` +
``query_only``), ``bind_campaign`` is never called, and a
fingerprint-mismatched or mid-repair store still renders a snapshot —
with its integrity problems listed as warnings — instead of refusing.

Determinism: given a fixed store state and a fixed clock (``--now``), the
snapshot — and its ``--json`` rendering — is byte-stable: every derived
age is rounded, every mapping is emitted in sorted key order.

Worker health is derived from the checksummed ``telemetry`` table the
drivers and helpers update inside their existing heartbeat/checkpoint
transactions (see :meth:`repro.distrib.store.CampaignStore.record_telemetry`):

========  ==================================================================
health    meaning (ages measured against the campaign's recorded knobs)
========  ==================================================================
live      heartbeat age <= 2x ``heartbeat_interval`` — renewing on schedule
expired   heartbeat age <= 2x ``lease_ttl`` — missed renewals; its leases
          are (or are about to be) stealable
dead      heartbeat older than that — the process is gone; anything it
          held has been stolen or re-queued
========  ==================================================================
"""

from __future__ import annotations

import json
import sqlite3
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from repro.distrib.store import CampaignStore

#: Fallbacks when the store predates the recorded knobs (or the driver
#: never ran): the DistribConfig defaults.
DEFAULT_LEASE_TTL = 30.0
DEFAULT_HEARTBEAT_INTERVAL = 5.0

#: Unit states the queue can leave a row in (display order).
UNIT_STATES = ("pending", "leased", "done", "quarantined")


class ConsoleError(RuntimeError):
    """The store cannot be opened at all (missing file, not a database)."""


def open_readonly(path) -> CampaignStore:
    """Open *path* read-only, failing fast when there is nothing to read."""
    path = Path(path)
    if not path.exists():
        raise ConsoleError(f"no campaign store at {path}")
    return CampaignStore(path, read_only=True)


def worker_health(age: float, heartbeat_interval: float,
                  lease_ttl: float) -> str:
    """Classify one worker's heartbeat *age* as live/expired/dead."""
    if age <= 2 * heartbeat_interval:
        return "live"
    if age <= 2 * lease_ttl:
        return "expired"
    return "dead"


def _round(value: float) -> float:
    """Stable float rendering for derived ages (3 decimals is plenty)."""
    return round(float(value), 3)


def store_snapshot(store: CampaignStore,
                   now: Optional[float] = None) -> Dict[str, Any]:
    """One deterministic, read-only status snapshot of *store*.

    Never raises on a mismatched, partially migrated, or mid-repair store:
    missing tables read as empty and checksum failures become entries in
    ``snapshot["problems"]`` / ``snapshot["warnings"]``.
    """
    now = time.time() if now is None else float(now)
    try:
        conn = store._read("status")
    except sqlite3.Error as exc:
        raise ConsoleError(f"cannot open {store.path}: {exc}") from exc

    def rows(query: str, args: tuple = ()) -> List[sqlite3.Row]:
        try:
            return conn.execute(query, args).fetchall()
        except sqlite3.OperationalError:
            return []                  # table missing: an older store

    warnings: List[str] = []

    # -- campaign binding / driver liveness -----------------------------------
    meta = {row["key"]: json.loads(row["value"])
            for row in rows("SELECT key, value FROM meta")}
    campaign = meta.get("campaign")
    if campaign is None:
        warnings.append("store has no bound campaign yet (bootstrap, "
                        "mid-repair, or written by an older version)")
    active_until = meta.get("active_until")
    driver_active = active_until is not None and active_until > now
    lease_ttl = float(meta.get("distrib.lease_ttl", DEFAULT_LEASE_TTL))
    heartbeat_interval = float(meta.get("distrib.heartbeat_interval",
                                        DEFAULT_HEARTBEAT_INTERVAL))

    # -- units by state + live leases -----------------------------------------
    units = {state: 0 for state in UNIT_STATES}
    for row in rows("SELECT status, COUNT(*) AS n FROM units "
                    "GROUP BY status"):
        units[row["status"]] = row["n"]
    units["total"] = sum(units[state] for state in UNIT_STATES)
    leases = []
    for row in rows("SELECT unit_id, owner, lease_expires, attempts "
                    "FROM units WHERE status = 'leased' ORDER BY unit_id"):
        expires_in = float(row["lease_expires"]) - now
        leases.append({
            "unit": row["unit_id"],
            "owner": row["owner"],
            "attempts": row["attempts"],
            "expires_in": _round(expires_in),
            "state": "live" if expires_in > 0 else "expired",
        })

    # -- per-worker telemetry -------------------------------------------------
    workers = {}
    for name, payload in sorted(store.telemetry().items()):
        heartbeat = payload.get("last_heartbeat")
        age = now - float(heartbeat) if heartbeat is not None else None
        entry = {key: value for key, value in sorted(payload.items())
                 if key != "last_heartbeat"}
        entry["role"] = payload.get("role") or name.split("-", 1)[0]
        entry["heartbeat_age"] = _round(age) if age is not None else None
        entry["health"] = (worker_health(age, heartbeat_interval, lease_ttl)
                           if age is not None else "unknown")
        workers[name] = entry

    # -- progress surfaces ----------------------------------------------------
    counters = {row["name"]: row["value"]
                for row in rows("SELECT name, value FROM counters "
                                "ORDER BY name")}
    frontier_keys = [row["key"] for row in
                     rows("SELECT key FROM frontier ORDER BY key")]
    # Corpus and coverage progress come from the fuzz campaign's last
    # mirrored checkpoint record.
    coverage: Dict[str, int] = {}
    corpus_entries = 0
    checkpoint = None
    for row in rows("SELECT payload FROM frontier WHERE key = ?",
                    ("fuzz/checkpoint",)):
        record = json.loads(row["payload"])
        coverage = {axis: len(values) for axis, values
                    in sorted((record.get("coverage") or {}).items())
                    if values}
        corpus_entries = len(record.get("entries") or ())
        checkpoint = {
            "round_index": record.get("round_index"),
            "schedules_run": (record.get("result") or {}).get("schedules_run"),
            "entries": corpus_entries,
            "findings": len(record.get("findings") or ()),
        }

    # -- integrity (mid-repair stores render, with warnings) ------------------
    try:
        problems = store.verify()
    except sqlite3.Error as exc:
        problems = [f"verify failed: {exc}"]
    if problems:
        warnings.append(f"integrity: {len(problems)} row(s) fail their "
                        f"checksum (run `expresso fuzz --repair --store "
                        f"{store.path}`)")

    return {
        "store": str(store.path),
        "now": _round(now),
        "campaign": {
            "bound": campaign is not None,
            "fingerprint": campaign,
            "driver_active": driver_active,
            "active_for": (_round(active_until - now)
                           if driver_active else None),
            "lease_ttl": _round(lease_ttl),
            "heartbeat_interval": _round(heartbeat_interval),
        },
        "units": units,
        "leases": leases,
        "workers": workers,
        "counters": counters,
        "coverage": {"axes": coverage,
                     "features": sum(coverage.values())},
        "corpus_entries": corpus_entries,
        "frontier_keys": frontier_keys,
        "checkpoint": checkpoint,
        "problems": problems,
        "warnings": warnings,
    }


def snapshot_at(path, now: Optional[float] = None) -> Dict[str, Any]:
    """:func:`store_snapshot` over a freshly opened read-only store."""
    store = open_readonly(path)
    try:
        return store_snapshot(store, now=now)
    finally:
        store.close()


def snapshot_json(snapshot: Dict[str, Any]) -> str:
    """The byte-deterministic ``--json`` rendering."""
    return json.dumps(snapshot, indent=2, sort_keys=True)


def render_snapshot(snapshot: Dict[str, Any]) -> str:
    """The human one-shot ``expresso status`` rendering."""
    campaign = snapshot["campaign"]
    units = snapshot["units"]
    lines = [f"campaign store: {snapshot['store']}"]
    binding = ("bound " + str(campaign["fingerprint"])[:12]
               if campaign["bound"] else "unbound")
    driver = (f"driver active ({campaign['active_for']:.1f}s left)"
              if campaign["driver_active"] else "driver window lapsed")
    lines.append(f"  campaign: {binding} — {driver}")
    lines.append(
        f"  units: {units['total']} total — "
        + ", ".join(f"{units[state]} {state}" for state in UNIT_STATES))
    for lease in snapshot["leases"]:
        lines.append(f"    lease {lease['unit']}  owner={lease['owner']}  "
                     f"expires_in={lease['expires_in']}s [{lease['state']}]")
    if snapshot["workers"]:
        lines.append("  workers:")
        for name, entry in snapshot["workers"].items():
            stats = "  ".join(
                f"{key}={entry[key]}" for key in
                ("claims", "renewals", "completed", "failed") if key in entry)
            lines.append(f"    {name:24s} {entry['role']:8s} "
                         f"heartbeat={entry['heartbeat_age']}s "
                         f"[{entry['health']}]  {stats}".rstrip())
    coverage = snapshot["coverage"]
    lines.append(f"  coverage: {coverage['features']} feature(s) over "
                 f"{len(coverage['axes'])} axis(es); corpus "
                 f"{snapshot['corpus_entries']} entries; frontier "
                 f"{len(snapshot['frontier_keys'])} key(s)")
    if snapshot["checkpoint"]:
        ckpt = snapshot["checkpoint"]
        lines.append(f"  checkpoint: round {ckpt['round_index']}, "
                     f"{ckpt['schedules_run']} schedules, "
                     f"{ckpt['entries']} entries, "
                     f"{ckpt['findings']} finding(s)")
    if snapshot["counters"]:
        lines.append("  counters: " + "  ".join(
            f"{name}={value}" for name, value in
            sorted(snapshot["counters"].items())))
    for warning in snapshot["warnings"]:
        lines.append(f"  WARNING: {warning}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# watch: the polling anomaly watchdog
# ---------------------------------------------------------------------------


def progress_vector(snapshot: Dict[str, Any]) -> str:
    """A stable digest of everything that moves when the campaign does.

    Lease renewals count as progress (a slow round is not a stall), so the
    vector covers the transactional counters, settled units, coverage and
    the fuzz checkpoint — unchanged vector + unsettled work = stalled.
    """
    return json.dumps({
        "counters": snapshot["counters"],
        "done": snapshot["units"]["done"],
        "quarantined": snapshot["units"]["quarantined"],
        "coverage": snapshot["coverage"]["features"],
        "checkpoint": snapshot["checkpoint"],
    }, sort_keys=True)


class Watchdog:
    """Tick-over-tick anomaly detection for :func:`watch`.

    *stall_ticks* consecutive observations of the same anomaly are required
    before it fires, so one slow poll never fails CI.
    """

    def __init__(self, stall_ticks: int = 3):
        self.stall_ticks = max(int(stall_ticks), 1)
        self._last_vector: Optional[str] = None
        self._no_progress = 0
        self._expired_streaks: Dict[str, int] = {}
        self.anomalies: List[str] = []

    def observe(self, snapshot: Dict[str, Any]) -> List[str]:
        """Feed one snapshot; returns the anomalies that fired this tick."""
        fired: List[str] = []
        units = snapshot["units"]
        outstanding = units["pending"] + units["leased"]

        vector = progress_vector(snapshot)
        if vector == self._last_vector and outstanding > 0:
            self._no_progress += 1
            if self._no_progress == self.stall_ticks:
                fired.append(
                    f"no progress for {self.stall_ticks} tick(s) with "
                    f"{outstanding} unsettled unit(s)")
        else:
            self._no_progress = 0
        self._last_vector = vector

        expired_now = {lease["unit"]: lease for lease in snapshot["leases"]
                       if lease["state"] == "expired"}
        for unit, lease in sorted(expired_now.items()):
            streak = self._expired_streaks.get(unit, 0) + 1
            self._expired_streaks[unit] = streak
            if streak == self.stall_ticks:
                fired.append(
                    f"lease on {unit} (owner {lease['owner']}) expired and "
                    f"unstolen for {self.stall_ticks} tick(s)")
        for unit in list(self._expired_streaks):
            if unit not in expired_now:
                del self._expired_streaks[unit]   # stolen or completed

        self.anomalies.extend(fired)
        return fired


def watch_line(snapshot: Dict[str, Any],
               delta: Optional[Dict[str, int]] = None) -> str:
    """One compact per-tick line (units, worker health, throughput delta)."""
    units = snapshot["units"]
    healths = [entry["health"] for entry in snapshot["workers"].values()]
    workers = "/".join(f"{healths.count(kind)}{kind[0].upper()}"
                       for kind in ("live", "expired", "dead")
                       if healths.count(kind))
    moved = ""
    if delta:
        completed = delta.get("distrib.units.completed", 0)
        renewed = delta.get("distrib.lease.renewed", 0)
        stolen = delta.get("distrib.lease.stolen", 0)
        moved = f"  +{completed} done, +{renewed} renewals, +{stolen} steals"
    return (f"[{snapshot['now']:.1f}] units "
            f"{units['done']}/{units['total']} done, "
            f"{units['pending']} pending, {units['leased']} leased, "
            f"{units['quarantined']} quarantined  "
            f"workers {workers or 'none'}{moved}")


def watch(store_path, ticks: Optional[int] = None, interval: float = 2.0,
          start: Optional[float] = None, stall_ticks: int = 3,
          out: Callable[[str], None] = print,
          clock: Callable[[], float] = time.time,
          sleep: Callable[[float], None] = time.sleep) -> int:
    """Poll the store until *ticks* run out; nonzero exit on anomalies.

    With *start* given the clock is simulated (``start + i * interval``,
    no sleeping) — the deterministic test/CI mode.  Without *ticks* the
    watch runs until interrupted.
    """
    watchdog = Watchdog(stall_ticks=stall_ticks)
    previous: Optional[Dict[str, int]] = None
    tick = 0
    try:
        while ticks is None or tick < ticks:
            now = start + tick * interval if start is not None else clock()
            snapshot = snapshot_at(store_path, now=now)
            delta = (None if previous is None else
                     {name: snapshot["counters"].get(name, 0)
                      - previous.get(name, 0)
                      for name in snapshot["counters"]})
            out(watch_line(snapshot, delta))
            for anomaly in watchdog.observe(snapshot):
                out(f"ANOMALY: {anomaly}")
            previous = snapshot["counters"]
            tick += 1
            if ticks is not None and tick >= ticks:
                break
            if start is None:
                sleep(interval)
    except KeyboardInterrupt:          # pragma: no cover - interactive exit
        pass
    if watchdog.anomalies:
        out(f"watch: {len(watchdog.anomalies)} anomaly(ies) detected")
        return 1
    return 0
