"""The work dispatcher: lease-based work stealing over a campaign store.

Every job that reaches another process goes through :func:`queue_map` —
fuzz candidate batches, explore shards, the mutation sweep and Table 1's
parallel compile.  A campaign run without ``--store`` dispatches through a
private temp store (:func:`~repro.distrib.store.private_store`) that nobody
else sees.

A **work unit** is one pickled ``(function, job)`` pair with a
deterministic id (``<batch>/<slot>``); *batches* are a campaign's natural
barriers (the fuzz bootstrap, each mutation round, an explore shard set).
The protocol:

* :meth:`WorkQueue.claim` — atomically take the first claimable unit in id
  order: ``pending``, or ``leased`` past its expiry (the previous owner
  crashed or hung — the claim *steals* it).  Claiming bumps the unit's
  attempt counter; a unit that has burned ``max_attempts`` leases is
  **quarantined** instead of handed out again — it becomes a
  :class:`JobFailure` in its slot at merge time, never a livelock.
* :meth:`WorkQueue.renew` — heartbeat: the owner extends its lease every
  ``heartbeat_interval`` while evaluating.  A worker that stops heartbeating
  loses the unit after ``lease_ttl``.  With a ``deadline`` no lease runs
  past claim time + deadline, so a hung job loses its lease even though
  its heartbeat thread is alive.
* :meth:`WorkQueue.complete` — store the pickled result *iff* the caller
  still owns the lease; a stale owner's late result is discarded (the
  stealer's result — byte-identical, evaluation is deterministic — wins).

:func:`queue_map` returns results in job order whatever processes did the
work, so campaign merges stay deterministic.  It is also the one trace
channel: a unit enqueued inside a traced session runs inside an
observability session of its own, in whichever process claims it, and its
events and counters come back with its result and are absorbed into the
driver's session at collect (:func:`repro.obs.absorb`), in unit order.
With ``workers=1`` the driver works the batch in-process; otherwise it
runs a process pool and reaps it:

* **crash** — a dead worker breaks the whole pool.  The driver returns the
  leases the pool held to the queue at once (no TTL wait) and continues on
  a fresh *one-worker* pool, so a job that kills its worker again is blamed
  alone and a poison job can never kill the driver;
* **hang** — a pool worker holding an expired lease (past its deadline) is
  terminated with its pool, its leases are returned, and the pool is
  respawned.  Pool workers never steal each other's leases; that is the
  driver's call.

Either way the attempt counts as paid, so a unit that keeps failing is
quarantined after ``max_attempts``.  :func:`run_helper` is the same worker
loop for a *separate invocation* pointed at the shared store — how
multiple processes cooperate on one campaign.

Fault sites: ``store.write`` fires with token ``claim:<unit id>`` right
after a lease commits (killing there models a worker dying at the lease
boundary — the unit returns via TTL expiry), ``lease.renew`` and
``worker.heartbeat`` fire in the renewal path (token = unit id).
"""

from __future__ import annotations

import os
import pickle
import sys
import threading
import time
from concurrent.futures import FIRST_EXCEPTION, wait
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Collection, Dict, List, Optional, Sequence

from repro import obs
from repro.distrib.store import CampaignStore, private_store
from repro.resilience import faults
from repro.resilience.atomic import checksum_text
from repro.resilience.faults import fault_check

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor


@dataclass
class DistribConfig:
    """Dispatch knobs (``--store/--lease-ttl/--heartbeat-interval``,
    ``--job-deadline/--job-retries``)."""

    store_path: Optional[str] = None
    lease_ttl: float = 30.0
    heartbeat_interval: float = 5.0
    #: Leases per unit before it is quarantined (``--job-retries``).
    max_attempts: int = 3
    #: Wall-clock seconds a lease may run past its claim, renewals
    #: included (``--job-deadline``); ``None`` disables hang detection.
    deadline: Optional[float] = None

    def __post_init__(self) -> None:
        if self.lease_ttl <= 2 * self.heartbeat_interval:
            raise ValueError(
                f"--lease-ttl ({self.lease_ttl}s) must exceed twice the "
                f"--heartbeat-interval ({self.heartbeat_interval}s): a "
                f"healthy worker must get at least two renewal chances "
                f"before its lease can be stolen")

    @property
    def poll_interval(self) -> float:
        return min(max(self.heartbeat_interval / 2, 0.02), 1.0)


@dataclass
class JobFailure:
    """A job the dispatcher gave up on — returned in place of its result."""

    job: Any
    error: str
    attempts: int
    quarantined: bool = False

    def error_dict(self, **extra: Any) -> Dict[str, Any]:
        """The failure as an outcome-shaped dict (campaign merge surface)."""
        return {"error": f"worker: {self.error}",
                "attempts": self.attempts,
                "quarantined": self.quarantined, **extra}


@dataclass
class _Recorded:
    """A traced unit's result with the events and counters it recorded."""

    result: Any
    events: list
    metrics: Dict[str, int]


@dataclass
class Claim:
    """One leased work unit (attempt is 0-based: prior lease count)."""

    unit_id: str
    payload: bytes
    attempt: int
    claimed_at: float


def _set_plan_attempt(attempt: int) -> Optional[int]:
    plan = faults.active_plan()
    if plan is None:
        return None
    previous = plan.attempt
    plan.attempt = attempt
    return previous


class WorkQueue:
    """The work-stealing unit queue over one :class:`CampaignStore`."""

    def __init__(self, store: CampaignStore, config: DistribConfig):
        self.store = store
        self.config = config

    def _lease_end(self, claimed_at: float, now: float) -> float:
        """One TTL past *now*, but never past claim time + deadline."""
        end = now + self.config.lease_ttl
        if self.config.deadline is not None:
            end = min(end, claimed_at + self.config.deadline)
        return end

    # -- enqueue --------------------------------------------------------------

    def enqueue(self, batch: str, payloads: Sequence[bytes],
                keys: Optional[Sequence[str]] = None) -> List[str]:
        """Idempotently insert one unit per payload; returns the unit ids.

        ``INSERT OR IGNORE`` keys on the deterministic unit id
        (``<batch>/<key>``; slot numbers by default), so a resumed driver
        re-enqueueing a replayed round reuses completed units' stored
        results instead of re-running them.  Callers whose job lists can
        *shrink* across a resume (the fuzz driver skips already-admitted
        entries) must pass stable per-job *keys* so ids never shift.
        """
        if keys is None:
            keys = [f"{slot:05d}" for slot in range(len(payloads))]
        unit_ids = [f"{batch}/{key}" for key in keys]
        with self.store.transaction(f"enqueue:{batch}") as conn:
            before = conn.total_changes
            conn.executemany(
                "INSERT OR IGNORE INTO units (unit_id, batch, payload, sha) "
                "VALUES (?, ?, ?, ?)",
                [(unit_id, batch, payload, checksum_text(payload.hex()))
                 for unit_id, payload in zip(unit_ids, payloads)])
            added = conn.total_changes - before
            if added:
                self.store.inc_counter(conn, "distrib.units.enqueued", added)
        return unit_ids

    # -- the lease protocol ---------------------------------------------------

    def claim(self, worker: str, batch: Optional[str] = None,
              now: Optional[float] = None,
              spare: Collection[str] = ()) -> Optional[Claim]:
        """Atomically lease the first claimable unit (steal expired leases).

        Expired leases held by an owner in *spare* are left alone: pool
        workers spare their siblings, whose hangs the driver reaps.
        """
        now = time.time() if now is None else now
        claim: Optional[Claim] = None
        with self.store.transaction("claim") as conn:
            where = "WHERE status IN ('pending', 'leased')"
            args: tuple = ()
            if batch is not None:
                where += " AND batch = ?"
                args = (batch,)
            rows = conn.execute(
                f"SELECT unit_id, payload, status, owner, lease_expires, "
                f"attempts, error FROM units {where} ORDER BY unit_id",
                args).fetchall()
            for row in rows:
                stolen = row["status"] == "leased"
                if stolen and (row["lease_expires"] > now
                               or row["owner"] in spare):
                    continue           # someone is (or will be) on it
                if stolen:
                    self.store.inc_counter(conn, "distrib.lease.expired")
                if row["attempts"] >= self.config.max_attempts:
                    # This unit has burned its leases: poison, not livelock.
                    conn.execute(
                        "UPDATE units SET status = 'quarantined', "
                        "owner = NULL, lease_expires = NULL, error = ? "
                        "WHERE unit_id = ?",
                        (f"{row['attempts']} attempt(s) exhausted without "
                         f"a result" + (f"; {row['error']}" if row["error"]
                                        else ""),
                         row["unit_id"]))
                    self.store.inc_counter(conn, "distrib.units.quarantined")
                    continue
                conn.execute(
                    "UPDATE units SET status = 'leased', owner = ?, "
                    "lease_expires = ?, attempts = attempts + 1 "
                    "WHERE unit_id = ?",
                    (worker, self._lease_end(now, now), row["unit_id"]))
                self.store.inc_counter(conn, "distrib.lease.granted")
                if stolen:
                    self.store.inc_counter(conn, "distrib.lease.stolen")
                self.store.record_telemetry(
                    worker, {"last_heartbeat": now, "unit": row["unit_id"]},
                    conn=conn, increments={"claims": 1})
                claim = Claim(unit_id=row["unit_id"], payload=row["payload"],
                              attempt=row["attempts"], claimed_at=now)
                break
        if claim is not None:
            # The fault-plan attempt context tracks the unit's lease count,
            # so crash rules armed for ``attempt=0`` kill only the first
            # claimant — the steal then completes, which is what makes
            # chaos campaigns converge to the fault-free result.
            saved = _set_plan_attempt(claim.attempt)
            try:
                fault_check("store.write", token=f"claim:{claim.unit_id}")
            finally:
                if saved is not None:
                    _set_plan_attempt(saved)
        return claim

    def renew(self, claim: Claim, worker: str,
              now: Optional[float] = None) -> bool:
        """Extend the lease; False when it was lost (stolen/completed) or
        has reached its deadline."""
        fault_check("lease.renew", token=claim.unit_id)
        now = time.time() if now is None else now
        expires = self._lease_end(claim.claimed_at, now)
        if expires <= now:
            return False               # past the deadline: let it expire
        with self.store.transaction("renew") as conn:
            cursor = conn.execute(
                "UPDATE units SET lease_expires = ? WHERE unit_id = ? "
                "AND owner = ? AND status = 'leased'",
                (expires, claim.unit_id, worker))
            renewed = cursor.rowcount > 0
            if renewed:
                self.store.inc_counter(conn, "distrib.lease.renewed")
                self.store.record_telemetry(
                    worker, {"last_heartbeat": now, "unit": claim.unit_id},
                    conn=conn, increments={"renewals": 1})
        return renewed

    def complete(self, claim: Claim, worker: str, result: Any) -> bool:
        """Commit the unit's result iff the caller still holds the lease."""
        payload = pickle.dumps(result)
        with self.store.transaction("complete") as conn:
            cursor = conn.execute(
                "UPDATE units SET status = 'done', result = ?, "
                "result_sha = ?, owner = NULL, lease_expires = NULL, "
                "error = NULL WHERE unit_id = ? AND owner = ? "
                "AND status = 'leased'",
                (payload, checksum_text(payload.hex()), claim.unit_id,
                 worker))
            completed = cursor.rowcount > 0
            if completed:
                self.store.inc_counter(conn, "distrib.units.completed")
                self.store.record_telemetry(
                    worker, {"last_heartbeat": time.time(), "unit": None},
                    conn=conn, increments={"completed": 1})
        return completed

    def release(self, claim: Claim, worker: str, error: str) -> None:
        """Return a unit after a recoverable failure (attempt already paid)."""
        with self.store.transaction("release") as conn:
            cursor = conn.execute(
                "UPDATE units SET status = 'pending', owner = NULL, "
                "lease_expires = NULL, error = ? WHERE unit_id = ? "
                "AND owner = ? AND status = 'leased'",
                (error, claim.unit_id, worker))
            if cursor.rowcount > 0:
                self.store.inc_counter(conn, "distrib.units.failed")
                self.store.record_telemetry(
                    worker, {"last_heartbeat": time.time(), "unit": None},
                    conn=conn, increments={"failed": 1})

    def reclaim(self, workers: Sequence[str], error: str) -> List[str]:
        """Return every unit leased by *workers* (dead processes) to pending.

        The attempts stay paid, like :meth:`release`; returns the unit ids.
        """
        owners = ", ".join("?" * len(workers))
        with self.store.transaction("reclaim") as conn:
            rows = conn.execute(
                f"SELECT unit_id FROM units WHERE status = 'leased' "
                f"AND owner IN ({owners}) ORDER BY unit_id",
                tuple(workers)).fetchall()
            conn.execute(
                f"UPDATE units SET status = 'pending', owner = NULL, "
                f"lease_expires = NULL, error = ? WHERE status = 'leased' "
                f"AND owner IN ({owners})", (error, *workers))
            if rows:
                self.store.inc_counter(conn, "distrib.units.failed",
                                       len(rows))
        return [row["unit_id"] for row in rows]

    # -- batch bookkeeping ----------------------------------------------------

    def batch_remaining(self, batch: str) -> int:
        """Units of *batch* not yet settled (pending or leased)."""
        row = self.store._read("batch.remaining").execute(
            "SELECT COUNT(*) AS n FROM units WHERE batch = ? "
            "AND status IN ('pending', 'leased')", (batch,)).fetchone()
        return row["n"]

    def claimable(self, batch: Optional[str] = None,
                  now: Optional[float] = None) -> int:
        """Units claimable right now (pending, or leased past expiry)."""
        now = time.time() if now is None else now
        where = "WHERE (status = 'pending' OR (status = 'leased' AND " \
                "lease_expires <= ?))"
        args: tuple = (now,)
        if batch is not None:
            where += " AND batch = ?"
            args += (batch,)
        row = self.store._read("claimable").execute(
            f"SELECT COUNT(*) AS n FROM units {where}", args).fetchone()
        return row["n"]

    def expired(self, batch: str, workers: Sequence[str],
                now: Optional[float] = None) -> List[str]:
        """Units of *batch* whose lease, held by one of *workers*, expired."""
        now = time.time() if now is None else now
        owners = ", ".join("?" * len(workers))
        rows = self.store._read("expired").execute(
            f"SELECT unit_id FROM units WHERE batch = ? AND status = "
            f"'leased' AND lease_expires <= ? AND owner IN ({owners}) "
            f"ORDER BY unit_id", (batch, now, *workers)).fetchall()
        return [row["unit_id"] for row in rows]

    def collect(self, batch: str, jobs: Sequence[Any],
                unit_ids: Optional[Sequence[str]] = None) -> List[Any]:
        """The batch's outcomes in job order.

        Quarantined units come back as :class:`JobFailure` carrying the
        original job.
        """
        if unit_ids is None:
            unit_ids = [f"{batch}/{slot:05d}" for slot in range(len(jobs))]
        rows = {row["unit_id"]: row for row in self.store._read(
            f"collect:{batch}").execute(
            "SELECT unit_id, status, result, attempts, error FROM units "
            "WHERE batch = ?", (batch,)).fetchall()}
        outcomes: List[Any] = []
        for unit_id, job in zip(unit_ids, jobs):
            row = rows.get(unit_id)
            if row is not None and row["status"] == "done":
                outcomes.append(pickle.loads(row["result"]))
            elif row is not None:
                outcomes.append(JobFailure(
                    job=job, error=row["error"] or f"unit {row['unit_id']} "
                    f"unresolved ({row['status']})",
                    attempts=row["attempts"], quarantined=True))
            else:
                outcomes.append(JobFailure(
                    job=job, error=f"unit {unit_id} missing from store",
                    attempts=0, quarantined=True))
        return outcomes


class _Heartbeat:
    """Renew a worker loop's current claim every ``heartbeat_interval``.

    One thread serves every claim of a :func:`_worker_loop`:
    :meth:`hold` hands it the claim being evaluated, :meth:`release` takes
    it back, and renewals are timed from each claim's start.  A renewal
    that fails (lost lease, past the deadline, store unreachable) stops
    renewing that claim; the TTL decides the rest.  An injected crash ends
    the thread, as a crash would, and the next claim starts a new one.
    """

    def __init__(self, queue: WorkQueue, worker: str):
        self.queue = queue
        self.worker = worker
        self._claim: Optional[Claim] = None
        self._closed = False
        self._changed = threading.Condition()
        self._thread: Optional[threading.Thread] = None

    def hold(self, claim: Claim) -> None:
        with self._changed:
            self._claim = claim
            self._changed.notify()
        if self._thread is None or not self._thread.is_alive():
            self._thread = threading.Thread(target=self._run, daemon=True)
            self._thread.start()

    def release(self) -> None:
        with self._changed:
            self._claim = None
            self._changed.notify()

    def close(self) -> None:
        with self._changed:
            self._closed = True
            self._changed.notify()

    def _run(self) -> None:
        interval = self.queue.config.heartbeat_interval
        while True:
            with self._changed:
                while self._claim is None and not self._closed:
                    self._changed.wait()
                if self._closed:
                    return
                claim = self._claim
                if self._changed.wait_for(
                        lambda: self._closed or self._claim is not claim,
                        interval):
                    continue           # released or replaced: restart the clock
            if not self._renew(claim):
                with self._changed:
                    if self._claim is claim:
                        self._claim = None

    def _renew(self, claim: Claim) -> bool:
        try:
            fault_check("worker.heartbeat", token=claim.unit_id)
            # False: stolen or past the deadline.
            return self.queue.renew(claim, self.worker)
        except Exception:
            return False               # store unreachable: let the TTL decide


def _evaluate(spec: dict) -> Any:
    """Run one unit's function; a traced unit records into a session of
    its own and returns a :class:`_Recorded`."""
    if not spec["traced"]:
        return spec["function"](spec["job"])
    with obs.observe(trace=True) as session:
        result = spec["function"](spec["job"])
    return _Recorded(result, session.tracer.events,
                     session.registry.snapshot())


def _evaluate_claim(queue: WorkQueue, claim: Claim, worker: str,
                    heartbeat: _Heartbeat, batch: Optional[str]) -> None:
    """Run one claimed unit under heartbeat renewal and commit its result.

    A traced helper (no *batch*, a tracer on) wraps each unit in a
    ``distrib.unit`` span tagged with the unit id and worker name — what
    cross-process stitching keys its per-unit lanes on.
    """
    saved_attempt = _set_plan_attempt(claim.attempt)
    heartbeat.hold(claim)
    span = (obs.tracer().span("distrib.unit", cat="distrib",
                              unit=claim.unit_id, worker=worker)
            if batch is None and obs.tracer().enabled else nullcontext())
    try:
        with span:
            spec = pickle.loads(claim.payload)
            try:
                result = _evaluate(spec)
            except faults.InjectedCrash:
                raise
            except Exception as exc:
                heartbeat.release()
                queue.release(claim, worker,
                              f"{type(exc).__name__}: {exc}")
                return
            heartbeat.release()
            queue.complete(claim, worker, result)
    finally:
        heartbeat.release()
        if saved_attempt is not None:
            _set_plan_attempt(saved_attempt)


def _worker_loop(queue: WorkQueue, worker: str, batch: Optional[str],
                 active: Callable[[], bool],
                 spare: Collection[str] = ()) -> int:
    """Claim-evaluate-complete until nothing is left (or *active* is False).

    Exits when the batch has no unsettled units — or, scoped to no batch
    (helper mode), when *active* reports the campaign is over and nothing
    is claimable.  Polls through live foreign leases: if their owner stops
    heartbeating the next claim steals the unit, which is the liveness
    guarantee.
    """
    completed = 0
    heartbeat = _Heartbeat(queue, worker)
    try:
        while True:
            claim = queue.claim(worker, batch=batch, spare=spare)
            if claim is not None:
                _evaluate_claim(queue, claim, worker, heartbeat, batch)
                completed += 1
                continue
            if batch is not None:
                if queue.batch_remaining(batch) == 0:
                    return completed
            elif not active() and queue.claimable() == 0:
                return completed
            time.sleep(queue.config.poll_interval)
    finally:
        heartbeat.close()


def _pool_worker(spec: dict) -> int:
    """Pool-process entry: install the fault context, work the batch."""
    plan_spec = spec["fault_plan"]
    plan = faults.FaultPlan.from_dict(plan_spec) if plan_spec else None
    if plan is not None:
        os.environ[faults._IN_WORKER_ENV] = "1"
    # Explicit install either way: fork-started workers inherit the driver's
    # plan object, and driver-side rules must not fire in workers.
    faults.install_plan(plan)
    store = CampaignStore(spec["store_path"])
    try:
        return _worker_loop(WorkQueue(store, spec["config"]), spec["worker"],
                            spec["batch"], active=lambda: False,
                            spare=spec["siblings"])
    finally:
        store.close()


def _terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Abandon a pool with a hung or dead worker without joining the hang."""
    # Private attribute, but the only way to reap a genuinely hung worker:
    # shutdown(wait=True) would block on it forever and shutdown(wait=False)
    # would leak it past interpreter exit.
    for process in list(getattr(pool, "_processes", {}).values()):
        try:
            process.terminate()
        except OSError:
            pass
    pool.shutdown(wait=True, cancel_futures=True)


#: How often the driver checks its pool (cheap reads): a settled batch
#: releases its idle workers within this, not within a worker's poll sleep.
_DRIVER_POLL = 0.05


def _run_pool(queue: WorkQueue, batch: str, workers: int) -> None:
    """Work *batch* on pool processes until it settles, reaping failures.

    Each round forks a pool and watches it: a worker death (the pool
    breaks) or a pool worker's expired lease (a hang past the deadline)
    ends the round — the pool is terminated, every lease its workers held
    goes back to the queue with its attempt paid, and the next round
    starts.  After a death the next rounds run one worker, so a job that
    kills its worker again is blamed alone.  A failed round that neither
    returned a lease nor settled a unit raises instead of respawning
    forever.
    """
    from concurrent.futures import ProcessPoolExecutor

    store, config = queue.store, queue.config
    plan = faults.active_plan()
    spec = {"store_path": str(store.path), "batch": batch, "config": config,
            "fault_plan": plan.to_dict() if plan is not None else None}
    generation = 0
    remaining = queue.batch_remaining(batch)
    while remaining > 0:
        names = [f"pool-{os.getpid()}-{generation}-{index}"
                 for index in range(workers)]
        generation += 1
        store.close()                  # no SQLite handle across the fork
        pool = ProcessPoolExecutor(max_workers=workers)
        futures = [pool.submit(_pool_worker, {**spec, "worker": name,
                                              "siblings": names})
                   for name in names]
        died = hung = False
        try:
            while not (died or hung) and queue.batch_remaining(batch) > 0:
                wait(futures, timeout=_DRIVER_POLL,
                     return_when=FIRST_EXCEPTION)
                died = any(future.done() and future.exception() is not None
                           for future in futures)
                hung = not died and bool(queue.expired(batch, names))
        finally:
            if all(future.done() for future in futures):
                pool.shutdown(wait=True)
            else:
                _terminate_pool(pool)
        if not (died or hung):
            return                     # the batch settled
        if died:
            failure = "pool worker died"
            workers = 1
        elif config.deadline is not None:
            failure = f"pool worker ran past the {config.deadline}s deadline"
        else:
            failure = "pool worker stopped renewing its lease"
        released = queue.reclaim(names, failure)
        settled = remaining - queue.batch_remaining(batch)
        if not (released or settled):
            raise RuntimeError(f"{failure} before settling any work unit")
        print(f"warning: {failure}; leases returned to the queue: "
              f"{', '.join(released) or 'none'}", file=sys.stderr)
        remaining -= settled


def queue_map(function: Callable[[Any], Any], jobs: Sequence[Any],
              store: Optional[CampaignStore] = None, batch: str = "map",
              config: Optional[DistribConfig] = None, workers: int = 1,
              keys: Optional[Sequence[str]] = None) -> List[Any]:
    """Order-preserving map over *jobs* through the work-stealing queue.

    Any process pointed at *store* — the pool workers spawned here, a
    cooperating ``expresso`` invocation, the driver itself — may evaluate
    any unit, and the batch result is collected in unit-id order
    regardless, so merges stay deterministic.  Units are stored pickled, so
    *function* and *jobs* must pickle even when one process does all the
    work.  With no *store* the batch runs through a private temp store.
    ``workers=1`` works the batch
    in-process (an injected crash there *is* a driver crash); more workers
    run a reaped process pool (see :func:`_run_pool`).  A unit whose every
    lease fails is quarantined into a :class:`JobFailure` in its slot.
    Inside a traced session each unit is recorded wherever it runs and
    absorbed here (see the module docstring).
    """
    jobs = list(jobs)
    if not jobs:
        return []
    config = config or DistribConfig()
    if store is None:
        with private_store() as private:
            return queue_map(function, jobs, private, batch, config,
                             workers, keys)
    queue = WorkQueue(store, config)
    traced = obs.tracer().enabled
    unit_ids = queue.enqueue(
        batch, [pickle.dumps({"function": function, "job": job,
                              "traced": traced})
                for job in jobs], keys=keys)
    if workers > 1:
        _run_pool(queue, batch, min(workers, len(jobs)))
    elif queue.batch_remaining(batch) > 0:
        _worker_loop(queue, f"driver-{os.getpid()}", batch,
                     active=lambda: False)
    results = []
    for outcome in queue.collect(batch, jobs, unit_ids=unit_ids):
        if isinstance(outcome, _Recorded):
            if traced:
                obs.absorb(outcome.events, outcome.metrics)
            outcome = outcome.result
        results.append(outcome)
    return results


def run_helper(store_path, config: Optional[DistribConfig] = None,
               worker: Optional[str] = None,
               wait_for_store: float = 0.0) -> int:
    """Work a shared store as a cooperating process; returns units done.

    The second-invocation side of a multi-process campaign: claim any
    claimable unit (any batch), evaluate, complete, repeat — until the
    driver's liveness window (``active_until``, refreshed while the driver
    runs, cleared when it finishes) lapses and the queue drains.  The
    helper never merges or journals: the driver owns every artifact, so
    the final state is byte-identical to a single-process run whatever
    work the helper picked up.  ``wait_for_store`` additionally waits for
    the store file itself, so a helper may be started *before* the driver.
    Inside a traced session each unit it evaluates gets a ``distrib.unit``
    span; the unit's own events go back to the driver with its result.
    """
    config = config or DistribConfig(store_path=str(store_path))
    deadline = time.time() + wait_for_store
    while not Path(store_path).exists():
        if time.time() >= deadline:
            return 0
        time.sleep(config.poll_interval)
    store = CampaignStore(store_path)
    queue = WorkQueue(store, config)
    name = worker or f"helper-{os.getpid()}"

    def driver_alive() -> bool:
        until = store.meta_get("active_until")
        return until is not None and until > time.time()

    # Give a driver that has created the store but not yet armed its
    # liveness window the same grace as the store file itself.
    while not driver_alive() and time.time() < deadline:
        if queue.claimable() > 0:
            break
        time.sleep(config.poll_interval)
    try:
        return _worker_loop(queue, name, batch=None, active=driver_alive)
    finally:
        store.close()


def mark_active(store: CampaignStore, config: DistribConfig) -> None:
    """Refresh the driver's liveness window (helpers exit when it lapses).

    The same transaction refreshes the driver's telemetry heartbeat and
    records the campaign's lease knobs, so ``expresso status`` can classify
    worker health (live/expired/dead) without guessing the TTLs.
    """
    now = time.time()
    with store.transaction("mark_active") as conn:
        store.meta_set("active_until",
                       now + max(5 * config.lease_ttl, 30.0), conn=conn)
        store.meta_set("distrib.lease_ttl", config.lease_ttl, conn=conn)
        store.meta_set("distrib.heartbeat_interval",
                       config.heartbeat_interval, conn=conn)
        store.record_telemetry(f"driver-{os.getpid()}",
                               {"last_heartbeat": now, "role": "driver"},
                               conn=conn)


def mark_finished(store: CampaignStore) -> None:
    """Close the liveness window (cooperating helpers drain and exit), then
    this process's connection to the store.

    Closing the last connection checkpoints SQLite's WAL into the database
    file; it happens inside the same transaction context, right after the
    commit.  A later call on *store* reopens the connection.
    """
    with store.transaction("meta:active_until", close=True) as conn:
        store.meta_set("active_until", 0.0, conn=conn)
