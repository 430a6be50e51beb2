"""Distributed campaign fabric: a crash-safe shared store + work stealing.

``expresso explore`` and ``fuzz`` campaigns hand their work to two on-disk
primitives any number of *processes* — pool workers and entirely separate
invocations pointing at one ``--store PATH`` — can cooperate through, so a
skewed or killed worker never strands work:

* :mod:`repro.distrib.store` — :class:`CampaignStore`, a SQLite-WAL-backed
  store holding the work queue (whose stored unit results are an explore
  campaign's checkpoint) and the fuzz campaign's checkpoint record.  Every
  row carries a content checksum; all multi-row updates are single-writer
  transactional batches (``BEGIN IMMEDIATE``), so a concurrent reader never
  observes a torn snapshot; ``verify()``/``repair()`` are wired into
  ``expresso fuzz --repair``.
* :mod:`repro.distrib.queue` — :class:`WorkQueue`, a lease-based
  work-stealing queue in the same store: workers claim units under TTL
  leases with heartbeat renewal; an expired lease (crashed/hung worker)
  makes the unit claimable again with bounded attempts and
  quarantine-on-repeat, so a poisoned unit becomes an error record instead
  of a livelock.  :func:`queue_map` over it is the repository's one work
  dispatcher; without ``--store`` it runs on a private temp store.

Fault sites (see :mod:`repro.resilience.faults`): ``store.read`` and
``store.write`` (token = ``"<op>"`` or ``"<op>:<unit id>"``), ``lease.renew``
(token = unit id) and ``worker.heartbeat`` (token = unit id) — every failure
mode above is deterministically injectable.
"""

from repro.distrib.store import (
    CampaignStore,
    StoreMismatchError,
    private_store,
)
from repro.distrib.queue import (
    DistribConfig,
    JobFailure,
    WorkQueue,
    mark_active,
    mark_finished,
    queue_map,
    run_helper,
)

__all__ = [
    "CampaignStore", "StoreMismatchError", "private_store",
    "DistribConfig", "JobFailure", "WorkQueue", "mark_active",
    "mark_finished", "queue_map", "run_helper",
]
