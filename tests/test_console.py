"""Tests for the campaign console (`src/repro/obs/console.py`,
`report.py`, `stitch.py`) and its CLI verbs.

Covers the read-only snapshot (byte-determinism, worker health
classification, warnings instead of refusals on unbound or corrupted
stores), the `watch` anomaly watchdog on a fake clock (stalled leases,
no-progress), the run-report renderers (markdown/HTML/OpenMetrics),
cross-process trace stitching against the extended schema validator,
and telemetry rows through `verify()`/`repair()`.
"""

import json
import pickle
import sqlite3

import pytest

from repro.cli import main as cli_main
from repro.distrib import (
    CampaignStore,
    DistribConfig,
    StoreMismatchError,
    WorkQueue,
)
from repro.obs import console, report, stitch
from repro.obs.validate import validate_file, validate_trace

#: Snapshot instant used throughout: fixed so ages are deterministic.
NOW = 2000.0


# ---------------------------------------------------------------------------
# Fixture: a small campaign store in a known mid-flight state
# ---------------------------------------------------------------------------


def _seed_store(path):
    """A bound store with 4 units: 1 done, 1 expired lease, 1 live lease
    (at NOW), 1 pending — plus telemetry for a live driver, an expired
    helper, and a dead helper."""
    store = CampaignStore(path)
    store.bind_campaign({"campaign": "console-test", "seed": 7})
    store.meta_set("active_until", NOW + 60.0)
    store.meta_set("distrib.lease_ttl", 30.0)
    store.meta_set("distrib.heartbeat_interval", 5.0)
    queue = WorkQueue(store, DistribConfig(store_path=path, lease_ttl=30.0,
                                           heartbeat_interval=5.0))
    queue.enqueue("round-0",
                  [pickle.dumps({"value": v}) for v in range(4)])
    done = queue.claim("helper-1", now=1000.0)        # round-0/00000
    assert queue.complete(done, "helper-1", 1)
    live = queue.claim("driver-7", now=1985.0)        # round-0/00001
    assert live.unit_id == "round-0/00001"            # expires 2015 > NOW
    stale = queue.claim("helper-1", now=1000.0)       # 00001 held -> 00002
    assert stale.unit_id == "round-0/00002"           # expires 1030 < NOW
    store.set_frontier("fuzz/checkpoint", {
        "round_index": 2, "entries": ["gen-7-0", "mut-7-0-1"],
        "coverage": {"decision": ["a", "b"], "monitor": ["m"]},
        "findings": [], "result": {"schedules_run": 40}})
    store.set_frontier("explore/abc123/Bench", {"ok": True})
    # Heartbeat ages at NOW: 5s (live), 40s (expired), 1900s (dead).
    store.record_telemetry("driver-7", {"last_heartbeat": 1995.0,
                                        "role": "driver"})
    store.record_telemetry("helper-1", {"last_heartbeat": 1960.0})
    store.record_telemetry("helper-2", {"last_heartbeat": 100.0,
                                        "role": "helper"})
    return store


@pytest.fixture
def seeded(tmp_path):
    path = tmp_path / "campaign.sqlite3"
    store = _seed_store(path)
    yield path
    store.close()


def _drained_store(path):
    """A store whose every unit settled (the healthy end state)."""
    store = CampaignStore(path)
    store.bind_campaign({"campaign": "console-test", "seed": 7})
    queue = WorkQueue(store, DistribConfig(store_path=path))
    queue.enqueue("round-0", [pickle.dumps({"value": v}) for v in range(2)])
    for _ in range(2):
        claim = queue.claim("w", now=NOW - 1.0)
        assert queue.complete(claim, "w", 0)
    store.close()
    return path


# ---------------------------------------------------------------------------
# Snapshot: determinism + contents
# ---------------------------------------------------------------------------


def test_snapshot_json_byte_deterministic(seeded):
    first = console.snapshot_json(console.snapshot_at(seeded, now=NOW))
    second = console.snapshot_json(console.snapshot_at(seeded, now=NOW))
    assert first == second
    assert json.loads(first)["now"] == NOW


def test_snapshot_contents(seeded):
    snapshot = console.snapshot_at(seeded, now=NOW)
    assert snapshot["campaign"]["bound"]
    assert snapshot["campaign"]["driver_active"]
    assert snapshot["campaign"]["lease_ttl"] == 30.0
    assert snapshot["units"] == {"pending": 1, "leased": 2, "done": 1,
                                 "quarantined": 0, "total": 4}
    states = {lease["unit"]: lease["state"] for lease in snapshot["leases"]}
    assert states == {"round-0/00001": "live", "round-0/00002": "expired"}
    healths = {name: entry["health"]
               for name, entry in snapshot["workers"].items()}
    assert healths == {"driver-7": "live", "helper-1": "expired",
                       "helper-2": "dead"}
    # Roles default to the worker-name prefix when unreported.
    assert snapshot["workers"]["helper-1"]["role"] == "helper"
    assert snapshot["workers"]["helper-1"]["claims"] == 2
    assert snapshot["workers"]["helper-1"]["completed"] == 1
    assert snapshot["coverage"] == {"axes": {"decision": 2, "monitor": 1},
                                    "features": 3}
    assert snapshot["corpus_entries"] == 2
    assert snapshot["checkpoint"] == {"round_index": 2, "schedules_run": 40,
                                      "entries": 2, "findings": 0}
    assert snapshot["frontier_keys"] == ["explore/abc123/Bench",
                                         "fuzz/checkpoint"]
    assert snapshot["counters"]["distrib.units.completed"] == 1
    assert snapshot["counters"]["distrib.lease.granted"] == 3
    assert snapshot["problems"] == []
    assert snapshot["warnings"] == []
    rendered = console.render_snapshot(snapshot)
    assert "4 total" in rendered and "[expired]" in rendered


def test_worker_health_boundaries():
    assert console.worker_health(10.0, heartbeat_interval=5.0,
                                 lease_ttl=30.0) == "live"
    assert console.worker_health(10.1, heartbeat_interval=5.0,
                                 lease_ttl=30.0) == "expired"
    assert console.worker_health(60.0, heartbeat_interval=5.0,
                                 lease_ttl=30.0) == "expired"
    assert console.worker_health(60.1, heartbeat_interval=5.0,
                                 lease_ttl=30.0) == "dead"


def test_snapshot_is_read_only(seeded):
    store = console.open_readonly(seeded)
    try:
        assert store.read_only
        with pytest.raises(StoreMismatchError):
            with store.transaction("write-attempt"):
                pass                               # pragma: no cover
    finally:
        store.close()


def test_missing_store_refused(tmp_path):
    with pytest.raises(console.ConsoleError):
        console.open_readonly(tmp_path / "nope.sqlite3")
    assert not (tmp_path / "nope.sqlite3").exists()


def test_unbound_store_warns_instead_of_refusing(tmp_path):
    path = tmp_path / "fresh.sqlite3"
    fresh = CampaignStore(path)
    fresh.counters()                               # schema only, no campaign
    fresh.close()
    snapshot = console.snapshot_at(path, now=NOW)
    assert not snapshot["campaign"]["bound"]
    assert any("no bound campaign" in warning
               for warning in snapshot["warnings"])


def test_corrupted_store_still_renders_with_warning(seeded):
    with sqlite3.connect(seeded) as conn:
        conn.execute("UPDATE telemetry SET sha = 'bogus' "
                     "WHERE worker = 'helper-2'")
    snapshot = console.snapshot_at(seeded, now=NOW)
    assert snapshot["units"]["total"] == 4         # still a full snapshot
    assert any("telemetry" in problem for problem in snapshot["problems"])
    assert any("integrity" in warning for warning in snapshot["warnings"])


def test_pre_telemetry_store_reads_as_empty(tmp_path):
    path = _drained_store(tmp_path / "old.sqlite3")
    with sqlite3.connect(path) as conn:
        conn.execute("DROP TABLE telemetry")       # a pre-migration store
    snapshot = console.snapshot_at(path, now=NOW)
    assert snapshot["workers"] == {}
    assert snapshot["units"]["done"] == 2


def test_snapshot_progress_matches_a_store_backed_campaign(
        tmp_path, warm_worker_pipeline):
    from repro.fuzz import CorpusStore, FuzzConfig, run_campaign

    path = tmp_path / "campaign.sqlite3"
    config = FuzzConfig(seed=7, budget=30, per_run_budget=10, threads=2,
                        ops=2, batch_size=2, bootstrap=2, max_rounds=6,
                        distrib=DistribConfig(store_path=str(path)))
    result = run_campaign(config, CorpusStore(str(tmp_path / "corpus")))
    snapshot = console.snapshot_at(path, now=NOW)
    assert result.corpus_size > 0 and result.coverage_total > 0
    assert snapshot["corpus_entries"] == result.corpus_size
    assert snapshot["coverage"]["features"] == result.coverage_total
    assert snapshot["coverage"]["axes"] == {
        axis: count for axis, count in result.coverage_counts.items() if count}
    with sqlite3.connect(path) as conn:
        tables = {row[0] for row in conn.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table'")}
    assert not tables & {"corpus", "coverage"}


# ---------------------------------------------------------------------------
# Telemetry rows through verify()/repair()
# ---------------------------------------------------------------------------


def test_telemetry_survives_verify_and_repair(seeded):
    store = CampaignStore(seeded)
    try:
        assert store.verify() == []
        with sqlite3.connect(seeded) as conn:
            conn.execute("UPDATE telemetry SET sha = 'bogus' "
                         "WHERE worker = 'helper-2'")
        store.close()                              # drop cached connection
        problems = store.verify()
        assert any("telemetry" in problem and "helper-2" in problem
                   for problem in problems)
        dropped = store.repair()
        assert dropped["rows_dropped"] == 1
        assert store.verify() == []
        survivors = store.telemetry()
        assert "helper-2" not in survivors
        assert survivors["driver-7"]["role"] == "driver"
    finally:
        store.close()


# ---------------------------------------------------------------------------
# watch: fake-clock loop + watchdog
# ---------------------------------------------------------------------------


def test_watch_detects_stalled_lease_and_no_progress(seeded):
    lines = []
    status = console.watch(seeded, ticks=5, interval=2.0, start=NOW,
                           stall_ticks=3, out=lines.append)
    assert status == 1
    anomalies = [line for line in lines if line.startswith("ANOMALY:")]
    assert any("round-0/00002" in line and "expired" in line
               for line in anomalies)
    assert any("no progress" in line for line in anomalies)
    # The expired lease fires exactly once, not once per tick.
    assert sum("round-0/00002" in line for line in anomalies) == 1


def test_watch_clean_on_drained_store(tmp_path):
    path = _drained_store(tmp_path / "done.sqlite3")
    lines = []
    status = console.watch(path, ticks=4, interval=2.0, start=NOW,
                           stall_ticks=2, out=lines.append)
    assert status == 0
    assert not any(line.startswith("ANOMALY:") for line in lines)
    assert len([line for line in lines if line.startswith("[")]) == 4


def test_watchdog_resets_on_progress_and_steals():
    def fake(counters, leases=(), pending=1):
        return {"counters": counters, "checkpoint": None,
                "units": {"pending": pending, "leased": len(leases),
                          "done": 0, "quarantined": 0,
                          "total": pending + len(leases)},
                "leases": [{"unit": unit, "owner": "w", "attempts": 1,
                            "expires_in": -1.0, "state": "expired"}
                           for unit in leases],
                "coverage": {"axes": {}, "features": 0}, "workers": {}}

    watchdog = console.Watchdog(stall_ticks=2)
    assert watchdog.observe(fake({"c": 0}, leases=["u1"])) == []
    # Progress (counter moved) resets the no-progress streak; the stolen
    # lease (gone from the expired set) resets the per-unit streak.
    assert watchdog.observe(fake({"c": 1})) == []
    assert watchdog.observe(fake({"c": 1}, leases=["u1"])) == []
    fired = watchdog.observe(fake({"c": 1}, leases=["u1"]))
    assert any("no progress" in anomaly for anomaly in fired)
    assert any("u1" in anomaly for anomaly in fired)


def test_watchdog_quiet_when_nothing_outstanding():
    snapshot = {"counters": {}, "checkpoint": None,
                "units": {"pending": 0, "leased": 0, "done": 3,
                          "quarantined": 0, "total": 3},
                "leases": [], "coverage": {"axes": {}, "features": 3},
                "workers": {}}
    watchdog = console.Watchdog(stall_ticks=1)
    for _ in range(3):
        assert watchdog.observe(snapshot) == []


# ---------------------------------------------------------------------------
# Trace stitching
# ---------------------------------------------------------------------------


def _process_trace(units, metrics):
    events = [{"ph": "B", "name": "campaign", "cat": "fuzz", "ts": 0,
               "pid": 0, "tid": 0, "args": {}}]
    for index, unit in enumerate(units):
        span = {"unit": unit, "worker": "w"}
        events.append({"ph": "B", "name": "distrib.unit", "cat": "distrib",
                       "ts": 1 + 2 * index, "pid": 0, "tid": 0,
                       "args": span})
        events.append({"ph": "E", "name": "distrib.unit", "cat": "distrib",
                       "ts": 2 + 2 * index, "pid": 0, "tid": 0,
                       "args": span})
    events.append({"ph": "E", "name": "campaign", "cat": "fuzz",
                   "ts": 1 + 2 * len(units), "pid": 0, "tid": 0, "args": {}})
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": {"deterministic": True, "metrics": metrics}}


def test_stitch_two_process_trace_validates(tmp_path):
    driver = _process_trace(["round-0/00000"],
                            {"distrib.lease.granted": 2, "fuzz.rounds": 3})
    helper = _process_trace(["round-0/00001", "round-0/00002"],
                            {"distrib.lease.granted": 1})
    document = stitch.stitch_traces([driver, helper],
                                    labels=["driver", "helper"])
    assert validate_trace(document) == []
    assert document["otherData"]["stitched"] is True
    assert document["otherData"]["sources"] == ["driver", "helper"]
    assert document["otherData"]["metrics"] == {"distrib.lease.granted": 3,
                                                "fuzz.rounds": 3}
    events = document["traceEvents"]
    process_names = {event["pid"]: event["args"]["name"] for event in events
                     if event["ph"] == "M"
                     and event["name"] == "process_name"}
    assert process_names == {0: "driver", 1: "helper"}
    lane_names = {(event["pid"], event["tid"]): event["args"]["name"]
                  for event in events
                  if event["ph"] == "M" and event["name"] == "thread_name"}
    assert lane_names == {(0, 1): "round-0/00000",
                          (1, 1): "round-0/00001",
                          (1, 2): "round-0/00002"}
    # Unit spans moved onto their interned lanes; outer spans stay on 0.
    for event in events:
        if event["name"] == "distrib.unit":
            lane = (event["pid"], event["tid"])
            assert lane_names[lane] == event["args"]["unit"]
        if event["name"] == "campaign":
            assert event["tid"] == 0
    out = tmp_path / "stitched.json"
    stitch.write_stitched(out, document)
    first = out.read_bytes()
    stitch.write_stitched(out, stitch.stitch_traces(
        [driver, helper], labels=["driver", "helper"]))
    assert out.read_bytes() == first               # byte-deterministic


def test_stitch_label_mismatch_rejected():
    with pytest.raises(ValueError):
        stitch.stitch_traces([_process_trace([], {})], labels=["a", "b"])


def test_validator_flags_unnamed_pid_in_stitched_doc():
    document = stitch.stitch_traces([_process_trace([], {})])
    document["traceEvents"] = [
        event for event in document["traceEvents"]
        if not (event["ph"] == "M" and event["name"] == "process_name")]
    errors = validate_trace(document)
    assert any("process_name" in error for error in errors)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


PROFILE = {
    "phases": {"placement": {"count": 2, "seconds": 1.5,
                             "self_seconds": 0.5},
               "lint": {"count": 1, "seconds": 0.2, "self_seconds": 0.2}},
    "top": [{"fingerprint": "deadbeef" * 4, "count": 7, "seconds": 0.04,
             "cached": 3, "status": "sat", "phase": "placement",
             "caller": "pipeline", "sample": "(assert true)"}],
    "queries": 7, "solver_seconds": 0.04, "wall_seconds": 1.7,
    "metrics": {"smt.queries": 7},
}


def test_report_renders_all_surfaces(tmp_path, seeded):
    snapshot = console.snapshot_at(seeded, now=NOW)
    trace = stitch.stitch_traces([_process_trace(["round-0/00000"], {})],
                                 labels=["driver"])
    model = report.build_report(snapshot=snapshot, profile=PROFILE,
                                traces=[trace], trace_labels=["stitched"],
                                title="console test report")
    markdown = report.render_markdown(model)
    assert "# console test report" in markdown
    assert "Campaign store" in markdown and "1/4 done" in markdown
    assert "deadbeef" in markdown and "placement" in markdown
    html = report.render_html(model)
    assert html.startswith("<!doctype html>")
    assert 'class="health-dead"' in html           # helper-2's cell
    assert "<script" not in html                   # self-contained, inert
    paths = report.write_report(tmp_path / "out", model,
                                gauges=report.snapshot_gauges(snapshot))
    prom = (tmp_path / "out" / "metrics.prom").read_text()
    assert prom.endswith("# EOF\n")
    assert "# TYPE expresso_distrib_lease_granted counter" in prom
    assert "expresso_distrib_lease_granted 3" in prom
    assert "# TYPE expresso_workers_dead gauge" in prom
    assert "expresso_workers_dead 1.0" in prom
    assert set(paths) == {"markdown", "html", "openmetrics"}


def test_report_faults_section_filters_counters():
    model = report.build_report(snapshot=None, profile={
        "metrics": {"distrib.lease.stolen": 2, "explore.schedules.judged": 9,
                    "fault.injected": 1, "smt.degraded": 0}})
    assert model["faults"] == {"distrib.lease.stolen": 2,
                               "fault.injected": 1}


def test_openmetrics_name_sanitisation():
    text = report.render_openmetrics({"a.b-c/d": 1})
    assert "expresso_a_b_c_d 1" in text
    assert text.count("# EOF") == 1


# ---------------------------------------------------------------------------
# CLI verbs
# ---------------------------------------------------------------------------


def test_cli_status_json_deterministic(seeded, capsys):
    argv = ["status", "--store", str(seeded), "--json", "--now", str(NOW)]
    assert cli_main(argv) == 0
    first = capsys.readouterr().out
    assert cli_main(argv) == 0
    assert capsys.readouterr().out == first
    payload = json.loads(first)
    assert payload["units"]["total"] == 4


def test_cli_status_human(seeded, capsys):
    assert cli_main(["status", "--store", str(seeded),
                     "--now", str(NOW)]) == 0
    assert "campaign store:" in capsys.readouterr().out


def test_cli_status_missing_store_exits_2(tmp_path, capsys):
    assert cli_main(["status", "--store",
                     str(tmp_path / "absent.sqlite3")]) == 2
    assert "no campaign store" in capsys.readouterr().err


def test_cli_watch_exit_codes(seeded, tmp_path, capsys):
    assert cli_main(["watch", "--store", str(seeded), "--ticks", "5",
                     "--interval", "2.0", "--stall-ticks", "3",
                     "--now", str(NOW)]) == 1
    assert "ANOMALY" in capsys.readouterr().out
    drained = _drained_store(tmp_path / "done.sqlite3")
    assert cli_main(["watch", "--store", str(drained), "--ticks", "3",
                     "--now", str(NOW)]) == 0


def test_cli_report_and_stitch(seeded, tmp_path, capsys):
    driver = tmp_path / "driver-trace.json"
    helper = tmp_path / "helper-trace.json"
    driver.write_text(json.dumps(_process_trace(["round-0/00000"], {})))
    helper.write_text(json.dumps(_process_trace(["round-0/00001"], {})))
    stitched = tmp_path / "stitched.json"
    assert cli_main(["stitch", str(driver), str(helper),
                     "--out", str(stitched),
                     "--label", "driver", "--label", "helper"]) == 0
    assert validate_file(str(stitched)) == []
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps(PROFILE))
    out_dir = tmp_path / "report"
    assert cli_main(["report", "--store", str(seeded),
                     "--profile", str(profile), "--trace", str(stitched),
                     "--out", str(out_dir), "--now", str(NOW),
                     "--title", "nightly"]) == 0
    capsys.readouterr()
    html = (out_dir / "report.html").read_text()
    assert "<title>nightly</title>" in html
    assert (out_dir / "report.md").exists()
    assert (out_dir / "metrics.prom").read_text().endswith("# EOF\n")


def test_cli_stitch_label_mismatch(tmp_path, capsys):
    trace = tmp_path / "one.json"
    trace.write_text(json.dumps(_process_trace([], {})))
    assert cli_main(["stitch", str(trace), "--out",
                     str(tmp_path / "out.json"),
                     "--label", "a", "--label", "b"]) == 2


def test_cli_list_json(capsys):
    assert cli_main(["list", "--json"]) == 0
    entries = json.loads(capsys.readouterr().out)
    assert entries and {"name", "figure", "origin"} <= set(entries[0])
    names = [entry["name"] for entry in entries]
    assert "BoundedBuffer" in names
