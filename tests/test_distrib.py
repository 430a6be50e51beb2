"""Tests for the distributed campaign fabric (`src/repro/distrib/`).

Covers the shared on-disk campaign store (checksummed rows, verify/repair,
campaign binding), the lease-based work-stealing queue (claim order, TTL
steals, stale-result discard, quarantine), `queue_map` (ordering, pool
workers, poison jobs), journal roll-forward of admitted corpus entries,
and the headline contracts: a fuzz campaign killed at *any* lease boundary
or store-write point and resumed converges to the byte-identical
fault-free corpus tree, and two cooperating processes working one store
produce the same final state as one.
"""

import json
import multiprocessing
import os
import pickle
import sqlite3
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.distrib import (
    CampaignStore,
    DistribConfig,
    JobFailure,
    StoreMismatchError,
    WorkQueue,
    mark_active,
    mark_finished,
    queue_map,
    run_helper,
)
from repro.fuzz import CorpusStore, FuzzConfig, run_campaign
from repro.obs import stitch
from repro.resilience import (
    FaultPlan,
    FaultRule,
    InjectedCrash,
    injected,
)


#: The kill-and-resume sweeps rerun one small campaign dozens of times.
pytestmark = pytest.mark.usefixtures("warm_worker_pipeline")


# ---------------------------------------------------------------------------
# Helpers (module-level functions: queue payloads are pickled)
# ---------------------------------------------------------------------------

#: Small-but-real campaign shape, mirroring test_resilience's sweep config.
SWEEP = dict(seed=7, budget=20, per_run_budget=10, threads=2, ops=2,
             batch_size=2, bootstrap=2, max_rounds=4, workers=1)


def _square(job):
    return job["value"] ** 2


def _sleepy_pid(job):
    time.sleep(job["sleep"])
    return os.getpid()


def _poison(job):
    if job.get("poison"):
        raise RuntimeError("poisoned unit")
    return job["value"] + 1


def _faulty_square(job):
    from repro.resilience.faults import fault_check

    fault_check("worker.job", token=str(job["value"]))
    return job["value"] ** 2


def _helper_entry(store_path, ttl, hb, out_path):
    """Subprocess entry: cooperate on the store, record units completed."""
    count = run_helper(store_path,
                       DistribConfig(store_path=store_path, lease_ttl=ttl,
                                     heartbeat_interval=hb),
                       wait_for_store=15.0)
    Path(out_path).write_text(str(count))


def _tree_bytes(root):
    return {str(path.relative_to(root)): path.read_bytes()
            for path in sorted(Path(root).rglob("*")) if path.is_file()}


def _strip(result):
    """A result dict without its run-dependent distrib counters."""
    clone = dict(result)
    clone.pop("distrib", None)
    return clone


def _store_config(store_path):
    # Short leases so a resumed driver steals a dead owner's unit quickly.
    return DistribConfig(store_path=str(store_path), lease_ttl=0.5,
                         heartbeat_interval=0.2)


def _run_store_campaign(corpus_dir, store_path, plan=None, resume=False):
    """One shared-store campaign; returns (result_dict | None, crashed)."""
    config = FuzzConfig(**SWEEP, resume=resume,
                        distrib=_store_config(store_path))
    store = CorpusStore(corpus_dir)
    try:
        if plan is None:
            return run_campaign(config, store).to_dict(), False
        with injected(plan):
            return run_campaign(config, store).to_dict(), False
    except InjectedCrash:
        return None, True


def _run_plain_campaign(corpus_dir, resume=False):
    config = FuzzConfig(**SWEEP, resume=resume)
    return run_campaign(config, CorpusStore(corpus_dir)).to_dict()


@pytest.fixture(scope="module")
def plain_baseline(tmp_path_factory):
    """The store-less campaign's result dict and corpus tree."""
    root = tmp_path_factory.mktemp("plain-baseline")
    return _run_plain_campaign(root), _tree_bytes(root)


@pytest.fixture(scope="module")
def store_baseline(tmp_path_factory):
    """The fault-free shared-store campaign, plus its unit ids and the
    number of store.write fault-point occurrences (probed, never fired)."""
    root = tmp_path_factory.mktemp("store-baseline")
    corpus, store_path = root / "corpus", root / "campaign.sqlite3"
    probe = FaultPlan([FaultRule("store.write", at=(10**9,), attempt=None)])
    with injected(probe):
        result, crashed = _run_store_campaign(corpus, store_path)
    assert not crashed
    store = CampaignStore(store_path)
    unit_ids = [row["unit_id"] for row in store._read("test").execute(
        "SELECT unit_id FROM units ORDER BY unit_id")]
    store.close()
    writes = probe._counters.get(("store.write", 0), 0)
    return result, _tree_bytes(corpus), unit_ids, writes


# ---------------------------------------------------------------------------
# DistribConfig
# ---------------------------------------------------------------------------


class TestDistribConfig:
    def test_ttl_must_exceed_twice_heartbeat(self):
        with pytest.raises(ValueError) as err:
            DistribConfig(lease_ttl=10.0, heartbeat_interval=5.0)
        assert "--lease-ttl" in str(err.value)
        DistribConfig(lease_ttl=10.0, heartbeat_interval=4.9)  # just inside

    def test_poll_interval_is_bounded(self):
        assert DistribConfig(heartbeat_interval=1.0).poll_interval == 0.5
        assert DistribConfig(lease_ttl=0.1,
                             heartbeat_interval=0.01).poll_interval == 0.02
        assert DistribConfig(lease_ttl=60.0,
                             heartbeat_interval=10.0).poll_interval == 1.0


# ---------------------------------------------------------------------------
# CampaignStore integrity
# ---------------------------------------------------------------------------


class TestCampaignStore:
    def test_bind_campaign_validates_fingerprint(self, tmp_path):
        store = CampaignStore(tmp_path / "s.sqlite3")
        store.bind_campaign({"seed": 7})
        store.bind_campaign({"seed": 7})        # resume: same config is fine
        with pytest.raises(StoreMismatchError) as err:
            store.bind_campaign({"seed": 8})
        assert "different parameters" in str(err.value)
        store.close()

    def test_concurrent_fresh_open(self, tmp_path):
        """Openers that attach the moment a new store file appears race its
        creator's switch to WAL mode, which SQLite refuses at once (no busy
        handler) while any other connection holds a lock.  Every opener
        must wait that out instead of failing with 'database is locked'."""
        errors = []

        def attach(path):
            deadline = time.monotonic() + 30
            while not path.exists():
                if time.monotonic() > deadline:
                    errors.append("the store file never appeared")
                    return
            try:
                store = CampaignStore(path)
                store.meta_get("campaign")
                store.close()
            except sqlite3.OperationalError as exc:
                errors.append(str(exc))

        for round_index in range(100):
            path = tmp_path / f"s{round_index}.sqlite3"
            openers = [threading.Thread(target=attach, args=(path,), daemon=True)
                       for _ in range(3)]
            for thread in openers:
                thread.start()
            creator = CampaignStore(path)
            creator.bind_campaign({"seed": round_index})
            creator.close()
            for thread in openers:
                thread.join(timeout=60)
                assert not thread.is_alive()
        assert errors == []

    def test_verify_flags_and_repair_drops_corrupt_rows(self, tmp_path):
        path = tmp_path / "s.sqlite3"
        store = CampaignStore(path)
        store.set_frontier("fuzz/checkpoint", {"round": 3})
        store.meta_set("flag", {"ok": True})
        assert store.verify() == []
        raw = sqlite3.connect(path)
        raw.execute("UPDATE frontier SET payload = '{\"round\": 99}'")
        raw.commit()
        raw.close()
        problems = store.verify()
        assert len(problems) == 1 and "frontier" in problems[0]
        summary = store.repair()
        assert summary["rows_dropped"] == 1
        assert summary["problems"] == problems
        # The tampered row is gone; intact rows survive untouched.
        raw = sqlite3.connect(path)
        assert raw.execute("SELECT COUNT(*) FROM frontier").fetchone() == (0,)
        raw.close()
        assert store.meta_get("flag") == {"ok": True}
        assert store.verify() == []
        store.close()

    def test_corrupt_unit_result_is_reset_to_pending(self, tmp_path):
        path = tmp_path / "s.sqlite3"
        store = CampaignStore(path)
        queue = WorkQueue(store, DistribConfig(store_path=str(path),
                                               lease_ttl=10.0,
                                               heartbeat_interval=1.0))
        queue.enqueue("b", [pickle.dumps({"value": 1})])
        claim = queue.claim("w")
        assert queue.complete(claim, "w", 42)
        raw = sqlite3.connect(path)
        raw.execute("UPDATE units SET result = ?", (b"garbage",))
        raw.commit()
        raw.close()
        assert any("result fails" in p for p in store.verify())
        store.repair()
        # The unit went back to pending (its payload is intact): a new
        # claim re-evaluates it instead of serving the torn result.
        retry = queue.claim("w2")
        assert retry is not None and retry.unit_id == claim.unit_id
        assert queue.complete(retry, "w2", 42)
        assert queue.collect("b", [None]) == [42]
        store.close()

    def test_corrupt_unit_payload_drops_the_row(self, tmp_path):
        path = tmp_path / "s.sqlite3"
        store = CampaignStore(path)
        queue = WorkQueue(store, DistribConfig(store_path=str(path),
                                               lease_ttl=10.0,
                                               heartbeat_interval=1.0))
        queue.enqueue("b", [pickle.dumps({"value": 1})])
        raw = sqlite3.connect(path)
        raw.execute("UPDATE units SET payload = ?", (b"torn",))
        raw.commit()
        raw.close()
        summary = store.repair()
        assert summary["rows_dropped"] == 1
        assert queue.claim("w") is None   # nothing claimable: row deleted
        store.close()


# ---------------------------------------------------------------------------
# The lease protocol
# ---------------------------------------------------------------------------


def _queue(tmp_path, **overrides):
    path = tmp_path / "q.sqlite3"
    store = CampaignStore(path)
    knobs = dict(store_path=str(path), lease_ttl=10.0, heartbeat_interval=1.0)
    knobs.update(overrides)
    return store, WorkQueue(store, DistribConfig(**knobs))


class TestWorkQueue:
    def test_claims_in_unit_id_order(self, tmp_path):
        store, queue = _queue(tmp_path)
        queue.enqueue("b", [pickle.dumps(value) for value in range(3)])
        for expected in range(3):
            claim = queue.claim("w")
            assert pickle.loads(claim.payload) == expected
            assert queue.complete(claim, "w", expected ** 2)
        assert queue.collect("b", [None] * 3) == [0, 1, 4]
        assert store.counters()["distrib.units.completed"] == 3
        store.close()

    def test_live_lease_is_not_stolen_expired_lease_is(self, tmp_path):
        store, queue = _queue(tmp_path)
        queue.enqueue("b", [pickle.dumps("job")])
        first = queue.claim("a", now=100.0)
        assert first is not None and first.attempt == 0
        assert queue.claim("b", now=105.0) is None     # live until 110
        stolen = queue.claim("b", now=111.0)
        assert stolen is not None and stolen.attempt == 1
        counters = store.counters()
        assert counters["distrib.lease.expired"] == 1
        assert counters["distrib.lease.stolen"] == 1
        # The dead owner's late result loses; the stealer's wins.
        assert not queue.complete(first, "a", "stale")
        assert queue.complete(stolen, "b", "fresh")
        assert queue.collect("b", [None]) == ["fresh"]
        store.close()

    def test_renew_extends_the_lease(self, tmp_path):
        store, queue = _queue(tmp_path)
        queue.enqueue("b", [pickle.dumps("job")])
        claim = queue.claim("a", now=100.0)
        assert queue.renew(claim, "a", now=108.0)      # expires 118 now
        assert queue.claim("b", now=112.0) is None     # heartbeat held it
        stolen = queue.claim("b", now=119.0)
        assert stolen is not None
        assert not queue.renew(claim, "a", now=120.0)  # lost to the steal
        assert store.counters()["distrib.lease.renewed"] == 1
        store.close()

    def test_quarantine_after_max_attempts(self, tmp_path):
        store, queue = _queue(tmp_path, max_attempts=2)
        queue.enqueue("b", [pickle.dumps("job")])
        assert queue.claim("a", now=0.0) is not None
        assert queue.claim("b", now=20.0) is not None  # steal: attempt 1
        assert queue.claim("c", now=40.0) is None      # burned both leases
        [outcome] = queue.collect("b", ["the-job"])
        assert isinstance(outcome, JobFailure) and outcome.quarantined
        assert outcome.job == "the-job"
        assert "attempt(s) exhausted" in outcome.error
        assert store.counters()["distrib.units.quarantined"] == 1
        store.close()

    def test_release_returns_the_unit_to_pending(self, tmp_path):
        store, queue = _queue(tmp_path)
        queue.enqueue("b", [pickle.dumps("job")])
        claim = queue.claim("a", now=0.0)
        queue.release(claim, "a", "ValueError: recoverable")
        retry = queue.claim("b", now=1.0)               # no TTL wait needed
        assert retry is not None and retry.attempt == 1
        assert store.counters()["distrib.units.failed"] == 1
        store.close()

    def test_enqueue_is_idempotent_and_keeps_results(self, tmp_path):
        store, queue = _queue(tmp_path)
        payloads = [pickle.dumps(value) for value in range(2)]
        ids = queue.enqueue("b", payloads)
        claim = queue.claim("w")
        assert queue.complete(claim, "w", "kept")
        assert queue.enqueue("b", payloads) == ids      # resume re-enqueue
        assert store.counters()["distrib.units.enqueued"] == 2
        rows = queue.collect("b", [None, None])
        assert rows[0] == "kept"                        # result survived
        store.close()

    def test_stable_keys_pin_unit_ids(self, tmp_path):
        store, queue = _queue(tmp_path)
        ids = queue.enqueue("r1", [pickle.dumps(1), pickle.dumps(2)],
                            keys=["gen-7-0", "gen-7-1"])
        assert ids == ["r1/gen-7-0", "r1/gen-7-1"]
        claim = queue.claim("w")
        queue.complete(claim, "w", "first")
        # A resumed driver whose job list shrank still maps by key.
        assert queue.collect("r1", ["only-job"],
                             unit_ids=["r1/gen-7-0"]) == ["first"]
        store.close()

    def test_collect_reports_missing_units(self, tmp_path):
        store, queue = _queue(tmp_path)
        [outcome] = queue.collect("ghost", ["job"])
        assert isinstance(outcome, JobFailure) and outcome.quarantined
        assert "missing from store" in outcome.error
        store.close()

    def test_renewal_stops_at_the_deadline(self, tmp_path):
        store, queue = _queue(tmp_path, deadline=5.0)
        queue.enqueue("b", [pickle.dumps("job")])
        claim = queue.claim("a", now=100.0)
        assert queue.claim("b", now=104.0) is None     # live until 105
        assert queue.renew(claim, "a", now=103.0)      # capped at 105
        assert not queue.renew(claim, "a", now=105.0)  # deadline reached
        assert queue.claim("b", now=106.0) is not None
        store.close()

    def test_spared_owners_are_not_stolen_from(self, tmp_path):
        """Pool workers leave a sibling's expired lease to the driver."""
        store, queue = _queue(tmp_path)
        queue.enqueue("b", [pickle.dumps("job")])
        assert queue.claim("a", now=0.0) is not None
        assert queue.claim("b", now=20.0, spare=("a",)) is None
        assert queue.claim("c", now=20.0) is not None
        store.close()


# ---------------------------------------------------------------------------
# queue_map
# ---------------------------------------------------------------------------


class TestQueueMap:
    def test_results_come_back_in_job_order(self, tmp_path):
        path = tmp_path / "s.sqlite3"
        store = CampaignStore(path)
        config = DistribConfig(store_path=str(path), lease_ttl=10.0,
                               heartbeat_interval=1.0)
        jobs = [{"value": value} for value in range(5)]
        results = queue_map(_square, jobs, store, batch="m", config=config)
        assert results == [0, 1, 4, 9, 16]
        counters = store.counters()
        assert counters["distrib.units.enqueued"] == 5
        assert counters["distrib.units.completed"] == 5
        store.close()

    def test_pool_workers_preserve_order(self, tmp_path):
        path = tmp_path / "s.sqlite3"
        store = CampaignStore(path)
        config = DistribConfig(store_path=str(path), lease_ttl=10.0,
                               heartbeat_interval=1.0)
        jobs = [{"value": value} for value in range(6)]
        results = queue_map(_square, jobs, store, batch="p", config=config,
                            workers=2)
        assert results == [0, 1, 4, 9, 16, 25]
        store.close()

    def test_poison_job_is_quarantined_not_livelocked(self, tmp_path):
        path = tmp_path / "s.sqlite3"
        store = CampaignStore(path)
        config = DistribConfig(store_path=str(path), lease_ttl=10.0,
                               heartbeat_interval=1.0, max_attempts=2)
        jobs = [{"value": 1}, {"value": 2, "poison": True}, {"value": 3}]
        results = queue_map(_poison, jobs, store, batch="x", config=config)
        assert results[0] == 2 and results[2] == 4
        assert isinstance(results[1], JobFailure) and results[1].quarantined
        assert "RuntimeError" in results[1].error
        store.close()

    def test_pool_worker_crash_is_reclaimed_at_once(self, tmp_path):
        """A dead pool worker's lease goes back to the queue when its pool
        breaks, not when the lease TTL runs out."""
        path = tmp_path / "s.sqlite3"
        store = CampaignStore(path)
        config = DistribConfig(store_path=str(path), lease_ttl=10.0,
                               heartbeat_interval=1.0)
        jobs = [{"value": value} for value in range(4)]
        with injected(FaultPlan([FaultRule("worker.job", match="2")])):
            start = time.monotonic()
            results = queue_map(_faulty_square, jobs, store, batch="c",
                                config=config, workers=2)
            elapsed = time.monotonic() - start
        assert results == [0, 1, 4, 9]
        assert elapsed < 5, f"waited {elapsed:.1f}s: the TTL, not the crash"
        assert store.counters()["distrib.units.failed"] >= 1
        store.close()

    def test_one_heartbeat_thread_renews_every_claim(self, tmp_path,
                                                     monkeypatch):
        """A worker loop runs one heartbeat thread for all its claims, and
        it renews each long claim under that claim's unit id."""
        from repro.distrib import queue as queue_module

        runs, tokens = [], []
        run, check = queue_module._Heartbeat._run, queue_module.fault_check

        def counting_run(self):
            runs.append(self.worker)
            run(self)

        def recording_check(site, token=None):
            if site == "worker.heartbeat":
                tokens.append(token)
            return check(site, token)

        monkeypatch.setattr(queue_module._Heartbeat, "_run", counting_run)
        monkeypatch.setattr(queue_module, "fault_check", recording_check)
        path = tmp_path / "s.sqlite3"
        store = CampaignStore(path)
        config = DistribConfig(store_path=str(path), lease_ttl=1.0,
                               heartbeat_interval=0.05)
        jobs = [{"sleep": 0.2} for _ in range(6)]
        # Frequent thread switches stress the claim hand-offs.
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            results = queue_map(_sleepy_pid, jobs, store, batch="hb",
                                config=config)
        finally:
            sys.setswitchinterval(switch)
        assert results == [os.getpid()] * 6
        assert len(runs) == 1
        assert sorted(set(tokens)) == [f"hb/0000{slot}" for slot in range(6)]
        counters = store.counters()
        assert counters["distrib.lease.renewed"] >= 6
        assert counters["distrib.units.completed"] == 6
        store.close()

    def test_hung_pool_worker_is_reaped_at_its_deadline(self, tmp_path):
        """The heartbeat never renews a lease past claim time + deadline,
        so a hung pool worker is reaped although its heartbeat is alive."""
        path = tmp_path / "s.sqlite3"
        store = CampaignStore(path)
        config = DistribConfig(store_path=str(path), lease_ttl=10.0,
                               heartbeat_interval=1.0, deadline=1.5)
        jobs = [{"value": value} for value in range(4)]
        with injected(FaultPlan([FaultRule("worker.job", match="2",
                                           action="hang", seconds=60.0)])):
            start = time.monotonic()
            results = queue_map(_faulty_square, jobs, store, batch="h",
                                config=config, workers=2)
            elapsed = time.monotonic() - start
        assert results == [0, 1, 4, 9]
        assert elapsed < 30, f"waited {elapsed:.1f}s for the hung worker"
        store.close()


# ---------------------------------------------------------------------------
# Campaign equivalence and chaos sweeps
# ---------------------------------------------------------------------------


class TestCampaignEquivalence:
    def test_store_campaign_matches_plain_campaign(self, store_baseline,
                                                   plain_baseline):
        """Routing batches through the work-stealing queue must change
        nothing about the campaign's findings or its corpus tree."""
        store_result, store_tree, unit_ids, _writes = store_baseline
        plain_result, plain_tree = plain_baseline
        assert _strip(store_result) == plain_result
        assert store_tree == plain_tree
        distrib = store_result["distrib"]
        assert distrib["distrib.units.enqueued"] == len(unit_ids)
        assert distrib["distrib.units.completed"] == len(unit_ids)
        assert distrib["distrib.lease.granted"] >= len(unit_ids)

    def test_kill_at_every_lease_boundary(self, tmp_path, store_baseline):
        """Kill the worker right after *each* lease commits (it dies holding
        a live lease); the resumed driver must wait out the TTL, steal the
        unit, and converge to the byte-identical fault-free state."""
        base_result, base_tree, unit_ids, _writes = store_baseline
        assert len(unit_ids) >= 6
        for unit_id in unit_ids:
            slug = unit_id.replace("/", "_")
            corpus = tmp_path / slug / "corpus"
            store_path = tmp_path / slug / "campaign.sqlite3"
            plan = FaultPlan([FaultRule("store.write",
                                        match=f"claim:{unit_id}")])
            _result, crashed = _run_store_campaign(corpus, store_path,
                                                   plan=plan)
            assert crashed, f"no crash fired at lease boundary {unit_id}"
            resumed, crashed = _run_store_campaign(corpus, store_path,
                                                   resume=True)
            assert not crashed
            assert _strip(resumed) == _strip(base_result), \
                f"result diverged after dying with the lease on {unit_id}"
            assert _tree_bytes(corpus) == base_tree, \
                f"corpus diverged after dying with the lease on {unit_id}"

    def test_kill_at_strided_store_writes(self, tmp_path, store_baseline):
        """Crash at every 7th store-write boundary; resume must converge.
        (Heartbeat renewals shift occurrence counts between runs, so a
        point that lands past the end simply runs clean — still checked.)"""
        base_result, base_tree, _ids, writes = store_baseline
        assert writes >= 20
        for occurrence in range(0, writes, max(writes // 6, 1)):
            corpus = tmp_path / f"w{occurrence}" / "corpus"
            store_path = tmp_path / f"w{occurrence}" / "campaign.sqlite3"
            plan = FaultPlan([FaultRule("store.write", at=(occurrence,),
                                        attempt=None)])
            result, crashed = _run_store_campaign(corpus, store_path,
                                                  plan=plan)
            if crashed:
                result, crashed = _run_store_campaign(corpus, store_path,
                                                      resume=True)
                assert not crashed
            assert _strip(result) == _strip(base_result), \
                f"result diverged after store.write[{occurrence}]"
            assert _tree_bytes(corpus) == base_tree, \
                f"corpus diverged after store.write[{occurrence}]"


# ---------------------------------------------------------------------------
# Multi-process cooperation
# ---------------------------------------------------------------------------


class TestCooperation:
    def test_two_processes_share_one_queue(self, tmp_path):
        """A helper process and the driver both drain one batch; results
        stay in job order and both processes verifiably did work."""
        store_path = tmp_path / "campaign.sqlite3"
        out = tmp_path / "helper-count.txt"
        helper = multiprocessing.Process(
            target=_helper_entry, args=(str(store_path), 1.0, 0.3, str(out)))
        helper.start()
        try:
            store = CampaignStore(store_path)
            config = DistribConfig(store_path=str(store_path), lease_ttl=1.0,
                                   heartbeat_interval=0.3)
            mark_active(store, config)
            jobs = [{"slot": slot, "sleep": 0.25} for slot in range(8)]
            results = queue_map(_sleepy_pid, jobs, store, batch="coop",
                                config=config)
            mark_finished(store)
        finally:
            helper.join(timeout=30)
            if helper.is_alive():
                helper.terminate()
                pytest.fail("helper did not exit after mark_finished")
        assert all(isinstance(pid, int) for pid in results)
        assert len(set(results)) >= 2, "the helper never claimed a unit"
        assert int(out.read_text()) >= 1
        assert store.counters()["distrib.units.completed"] == 8
        store.close()

    def test_cooperating_process_preserves_byte_identity(self, tmp_path,
                                                         store_baseline):
        """A full fuzz campaign with a second process stealing work off the
        store must end in the byte-identical corpus tree and result."""
        base_result, base_tree, _ids, _writes = store_baseline
        corpus = tmp_path / "corpus"
        store_path = tmp_path / "campaign.sqlite3"
        helper = multiprocessing.Process(
            target=_helper_entry,
            args=(str(store_path), 1.0, 0.3, str(tmp_path / "count.txt")))
        helper.start()
        try:
            result, crashed = _run_store_campaign(corpus, store_path)
        finally:
            helper.join(timeout=60)
            if helper.is_alive():
                helper.terminate()
                pytest.fail("helper did not exit after the campaign")
        assert not crashed
        assert _strip(result) == _strip(base_result)
        assert _tree_bytes(corpus) == base_tree

    def test_stitched_trace_counts_each_unit_once(self, tmp_path, capsys):
        """A traced driver and a traced helper on one store: the stitched
        trace's ``distrib.*`` counters are the store's own, not the store's
        plus the helper's share again."""
        store_path = str(tmp_path / "campaign.sqlite3")
        lease = ["--store", store_path, "--lease-ttl", "1.0",
                 "--heartbeat-interval", "0.3"]
        # The driver alone stalls a few seconds on its first evaluation of
        # one bootstrap entry, its heartbeat holding the lease, so the other
        # bootstrap units are left for the helper; otherwise the driver can
        # drain the whole campaign before the helper's first claim.
        plan = tmp_path / "driver-plan.json"
        plan.write_text(json.dumps(FaultPlan([FaultRule(
            "fuzz.candidate", action="hang", match="gen-7-0", at=(0,),
            seconds=3.0)]).to_dict()))
        helper_trace = tmp_path / "helper.json"
        helper = multiprocessing.Process(target=cli_main, args=(
            ["fuzz", "--helper", "--helper-wait", "15", "--trace",
             str(helper_trace)] + lease,))
        helper.start()
        try:
            driver_trace = tmp_path / "driver.json"
            # --fault-plan installs process-wide; injected() restores the
            # previous plan afterwards.
            with injected(FaultPlan()):
                assert cli_main(
                    ["fuzz", "--budget", "60", "--seed", "7", "--per-run-budget",
                     "10", "--threads", "2", "--ops", "2", "--batch-size", "4",
                     "--bootstrap", "4", "--json", "--trace", str(driver_trace),
                     "--fault-plan", str(plan)] + lease) == 0
        finally:
            helper.join(timeout=60)
            if helper.is_alive():
                helper.terminate()
                pytest.fail("helper did not exit after the campaign")
        capsys.readouterr()
        assert helper.exitcode == 0
        store = CampaignStore(store_path)
        counters, telemetry = store.counters(), store.telemetry()
        store.close()
        assert telemetry[f"helper-{helper.pid}"].get("completed", 0) >= 1, \
            "the helper never completed a unit"
        stitched = stitch.stitch_files([str(driver_trace), str(helper_trace)])
        metrics = stitched["otherData"]["metrics"]
        assert {name: value for name, value in metrics.items()
                if name.startswith("distrib.")} == counters


# ---------------------------------------------------------------------------
# Journal roll-forward of admitted entries
# ---------------------------------------------------------------------------


class TestRollForward:
    def test_resume_rolls_forward_lost_entry_file(self, tmp_path,
                                                  plain_baseline):
        """A journal ahead of the entry files (crash after the checkpoint
        fsync'd, before the entry write survived) must roll forward on
        resume, not refuse with exit 2."""
        base_result, base_tree = plain_baseline
        root = tmp_path / "corpus"
        _run_plain_campaign(root)
        victims = sorted((root / "entries").glob("gen-*.json"))[:2]
        assert victims, "campaign admitted no generated entries"
        victims[0].unlink()
        if len(victims) > 1:
            victims[1].write_text('{"torn')
        resumed = _run_plain_campaign(root, resume=True)
        assert resumed == base_result
        assert _tree_bytes(root) == base_tree

    def test_repair_restores_entry_files(self, tmp_path, plain_baseline):
        _base_result, base_tree = plain_baseline
        root = tmp_path / "corpus"
        _run_plain_campaign(root)
        victim = sorted((root / "entries").glob("gen-*.json"))[0]
        entry_id = victim.stem
        victim.unlink()
        summary = CorpusStore(root).repair()
        assert entry_id in summary["entries_restored"]
        assert _tree_bytes(root) == base_tree


# ---------------------------------------------------------------------------
# CLI surfaces
# ---------------------------------------------------------------------------

CLI_FUZZ = ["fuzz", "--budget", "20", "--seed", "7", "--per-run-budget",
            "10", "--threads", "2", "--ops", "2", "--batch-size", "2",
            "--bootstrap", "2", "--json"]

CLI_EXPLORE = ["explore", "--benchmark", "BoundedBuffer", "--strategy",
               "dfs", "--threads", "2", "--ops", "2", "--schedules", "200",
               "--json"]


class TestCliDistrib:
    def test_lease_ttl_validation_exits_2(self, tmp_path, capsys):
        args = CLI_FUZZ + ["--corpus-dir", str(tmp_path / "c"),
                           "--store", str(tmp_path / "s.sqlite3"),
                           "--lease-ttl", "1", "--heartbeat-interval", "0.5"]
        assert cli_main(args) == 2
        assert "--lease-ttl" in capsys.readouterr().err

    def test_helper_requires_store(self, tmp_path, capsys):
        args = CLI_FUZZ + ["--corpus-dir", str(tmp_path / "c"), "--helper"]
        assert cli_main(args) == 2
        assert "--store" in capsys.readouterr().err

    def test_fuzz_store_emits_distrib_counters(self, tmp_path, capsys):
        args = CLI_FUZZ + ["--corpus-dir", str(tmp_path / "c"),
                           "--store", str(tmp_path / "s.sqlite3")]
        assert cli_main(args) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["distrib"]["distrib.lease.granted"] > 0
        assert payload["distrib"]["distrib.units.completed"] > 0

    def test_explore_store_then_resume_reuses_frontier(self, tmp_path,
                                                       capsys):
        """Rerunning the same command against the same store is the
        resume: each benchmark's dfs unit comes back from its stored
        result."""
        args = CLI_EXPLORE + ["--benchmark", "Readers-Writers",
                              "--store", str(tmp_path / "s.sqlite3")]
        assert cli_main(args) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["distrib"]["distrib.units.enqueued"] == 2
        assert first["distrib"]["distrib.units.completed"] == 2
        assert cli_main(args) == 0
        second = json.loads(capsys.readouterr().out)
        # No unit was enqueued, leased or completed again, and only the
        # timing fields differ.
        for name in ("distrib.units.enqueued", "distrib.units.completed",
                     "distrib.lease.granted"):
            assert second["distrib"][name] == first["distrib"][name]

        def untimed(doc):
            timing = ("elapsed_seconds", "schedules_per_second")
            return [{key: value for key, value in result.items()
                     if key not in timing} for result in doc["results"]]

        assert untimed(second) == untimed(first)

    def test_explore_traced_rerun_records_its_trace(self, tmp_path, capsys):
        """A traced run against a store an untraced run filled records the
        same trace as a traced run against a fresh store: traced shards
        are units of their own."""
        explore = ["explore", "--benchmark", "BoundedBuffer", "--strategy",
                   "random", "--schedules", "20", "--threads", "2", "--ops",
                   "2", "--json"]
        args = explore + ["--store", str(tmp_path / "s.sqlite3")]
        assert cli_main(args) == 0
        assert cli_main(args + ["--trace", str(tmp_path / "rerun.json")]) == 0
        fresh = explore + ["--store", str(tmp_path / "fresh.sqlite3"),
                           "--trace", str(tmp_path / "fresh.json")]
        assert cli_main(fresh) == 0
        capsys.readouterr()
        assert ((tmp_path / "rerun.json").read_bytes()
                == (tmp_path / "fresh.json").read_bytes())

    def test_repair_verifies_the_store(self, tmp_path, capsys):
        store_path = tmp_path / "s.sqlite3"
        corpus = tmp_path / "c"
        args = CLI_FUZZ + ["--corpus-dir", str(corpus),
                           "--store", str(store_path)]
        assert cli_main(args) == 0
        capsys.readouterr()
        raw = sqlite3.connect(store_path)
        raw.execute("UPDATE frontier SET payload = '{}'")
        raw.commit()
        raw.close()
        rc = cli_main(args + ["--repair"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "dropped" in captured.err
