"""Resilience: crash-safe state, fault injection.

The campaign layer (``expresso explore/fuzz/mutate``) is built to run
unattended at scale, which means three failure families must become
*per-job events* instead of campaign aborts:

* **process failures** — a worker killed by the OS (OOM, signal) or hung
  past its deadline; the work dispatcher (:func:`repro.distrib.queue_map`)
  reaps its pool, returns the worker's lease to the queue at once, and
  quarantines a job that keeps failing as a per-job error;
* **torn state** — a crash mid-write leaves a half-written JSON file;
  :mod:`repro.resilience.atomic` writes atomically (tmp + fsync +
  ``os.replace``) and :mod:`repro.resilience.journal` provides a
  write-ahead journal with per-record checksums so campaign state always
  rolls back to the last good record;
* **pathological queries** — one SMT query that never terminates hangs the
  pipeline; ``Solver(timeout_seconds=...)`` returns UNKNOWN instead and
  every caller degrades in the sound direction (see
  ``README.md#robustness--resume``).

All of it is testable byte-for-byte through
:class:`~repro.resilience.faults.FaultPlan` — deterministic, seeded
injection of crashes, hangs, solver timeouts, and disk-write failures at
named sites.
"""

from repro.resilience.atomic import (
    atomic_write_json,
    atomic_write_text,
    checksum_payload,
    checksum_text,
)
from repro.resilience.faults import (
    FaultPlan,
    FaultRule,
    InjectedCrash,
    InjectedFault,
    active_plan,
    fault_check,
    injected,
    install_plan,
)
from repro.resilience.journal import Journal, JournalReplay

__all__ = [
    "FaultPlan", "FaultRule", "InjectedCrash", "InjectedFault",
    "active_plan", "fault_check", "injected", "install_plan",
    "atomic_write_json", "atomic_write_text",
    "checksum_payload", "checksum_text",
    "Journal", "JournalReplay",
]
