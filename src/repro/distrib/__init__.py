"""Distributed campaign fabric: a crash-safe shared store + work stealing.

``expresso explore/fuzz`` campaigns historically coordinated through
in-process structures only: the cross-worker visited-state memo was a
``multiprocessing.Manager`` dict that died with the driver, and shards were
statically partitioned, so a skewed or killed shard stranded its work.
This package replaces both with two on-disk primitives any number of
*processes* — pool workers and entirely separate invocations pointing at
one ``--store PATH`` — can cooperate through:

* :mod:`repro.distrib.store` — :class:`CampaignStore`, a SQLite-WAL-backed
  store holding visited-state hashes, the fuzz corpus index, coverage maps
  and a checkpointed exploration frontier.  Every row carries a content
  checksum; all multi-row updates are single-writer transactional batches
  (``BEGIN IMMEDIATE``), so a concurrent reader never observes a torn
  snapshot; ``verify()``/``repair()`` are wired into ``expresso fuzz
  --repair``.
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
    VisitedStore,
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
    "CampaignStore", "StoreMismatchError", "VisitedStore", "private_store",
    "DistribConfig", "JobFailure", "WorkQueue", "mark_active",
    "mark_finished", "queue_map", "run_helper",
]
