"""Tests for the resilience subsystem (`src/repro/resilience/`).

Covers the four robustness pillars end to end:

* deterministic fault injection (``FaultPlan`` semantics),
* crash-safe disk state (atomic writes, write-ahead journal),
* the work dispatcher's supervision (retry, quarantine, hang detection,
  pool hardening) with no store configured,
* graceful SMT degradation (query budgets, sound caller fallbacks),

plus the headline contract: a fuzz campaign killed at *any* injected fault
point and resumed produces a byte-identical corpus tree and result.
"""

import dataclasses
import json
import os
import time

import pytest

from repro import obs
from repro.cli import main as cli_main
from repro.distrib import DistribConfig, JobFailure, queue_map
from repro.explore.engine import Counterexample, ExplorationResult
from repro.fuzz import CorpusStore, CorruptCorpusError, FuzzConfig, run_campaign
from repro.logic import add, eq, ge, i, land, le, v
from repro.placement.pipeline import ExpressoPipeline
from repro.resilience import (
    FaultPlan,
    FaultRule,
    InjectedCrash,
    InjectedFault,
    Journal,
    atomic_write_json,
    atomic_write_text,
    checksum_payload,
    injected,
    install_plan,
)
from repro.smt.solver import SatStatus, Solver
from repro.smt.cache import FormulaCache

x = v("x")
y = v("y")

#: The kill-and-resume sweeps rerun one small campaign dozens of times.
pytestmark = pytest.mark.usefixtures("warm_worker_pipeline")


# ---------------------------------------------------------------------------
# FaultPlan semantics
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_no_plan_is_inert(self):
        from repro.resilience.faults import fault_check

        assert install_plan(None) is None or True  # reset any leftover plan
        assert fault_check("journal.append", token="checkpoint") is None

    def test_occurrence_indices(self):
        plan = FaultPlan([FaultRule("site", action="error", at=(1,),
                                    attempt=None)])
        assert plan.check("site") is None          # occurrence 0
        with pytest.raises(InjectedFault):
            plan.check("site")                     # occurrence 1
        assert plan.check("site") is None          # occurrence 2

    def test_match_filters_and_counts_matching_only(self):
        plan = FaultPlan([FaultRule("site", action="error", match="poison",
                                    at=(1,), attempt=None)])
        assert plan.check("site", token="clean") is None
        assert plan.check("site", token="poison-0") is None   # match occ 0
        assert plan.check("site", token="clean") is None
        with pytest.raises(InjectedFault):
            plan.check("site", token="poison-1")              # match occ 1

    def test_attempt_gating(self):
        plan = FaultPlan([FaultRule("site", action="error")])  # attempt=0
        plan.attempt = 1
        assert plan.check("site") is None
        plan.attempt = 0
        with pytest.raises(InjectedFault):
            plan.check("site")

    def test_crash_raises_base_exception(self):
        plan = FaultPlan([FaultRule("site")])
        with pytest.raises(InjectedCrash):
            plan.check("site")
        assert not issubclass(InjectedCrash, Exception)

    def test_unknown_is_returned_not_raised(self):
        plan = FaultPlan([FaultRule("solver.query", action="unknown",
                                    attempt=None)])
        assert plan.check("solver.query") == "unknown"
        assert plan.fired == [("solver.query", None, "unknown")]

    def test_serialization_round_trip(self):
        plan = FaultPlan([FaultRule("a", action="hang", at=(0, 2),
                                    match="tok", attempt=None, seconds=1.5),
                          FaultRule("b")])
        clone = FaultPlan.from_dict(plan.to_dict())
        assert clone.rules == plan.rules

    def test_injected_context_restores_previous(self):
        from repro.resilience.faults import active_plan

        outer = FaultPlan([])
        previous = install_plan(outer)
        try:
            with injected(FaultPlan([])) as inner:
                assert active_plan() is inner
            assert active_plan() is outer
        finally:
            install_plan(previous)


# ---------------------------------------------------------------------------
# Atomic writes
# ---------------------------------------------------------------------------


class TestAtomicWrites:
    def test_write_and_replace(self, tmp_path):
        path = tmp_path / "state.json"
        atomic_write_json(path, {"a": 1})
        atomic_write_json(path, {"a": 2})
        assert json.loads(path.read_text()) == {"a": 2}
        assert not list(tmp_path.glob("*.tmp"))

    def test_crash_before_replace_keeps_old_content(self, tmp_path):
        path = tmp_path / "state.json"
        atomic_write_json(path, {"a": 1})
        with injected(FaultPlan([FaultRule("disk.replace")])):
            with pytest.raises(InjectedCrash):
                atomic_write_json(path, {"a": 2})
        assert json.loads(path.read_text()) == {"a": 1}
        # A real kill leaves the half-staged tmp sibling behind.
        assert list(tmp_path.glob("*.tmp"))

    def test_io_error_cleans_tmp_and_keeps_old_content(self, tmp_path):
        path = tmp_path / "state.json"
        atomic_write_json(path, {"a": 1})
        with injected(FaultPlan([FaultRule("disk.replace", action="error",
                                           attempt=None)])):
            with pytest.raises(OSError):
                atomic_write_json(path, {"a": 2})
        assert json.loads(path.read_text()) == {"a": 1}
        assert not list(tmp_path.glob("*.tmp"))

    def test_checksum_is_order_insensitive(self):
        assert (checksum_payload({"a": 1, "b": 2})
                == checksum_payload({"b": 2, "a": 1}))
        assert checksum_payload({"a": 1}) != checksum_payload({"a": 2})


# ---------------------------------------------------------------------------
# Write-ahead journal
# ---------------------------------------------------------------------------


class TestJournal:
    def test_append_replay_round_trip(self, tmp_path):
        journal = Journal(tmp_path / "j.jsonl")
        records = [{"type": "config", "n": 0}, {"type": "checkpoint", "n": 1}]
        for record in records:
            journal.append(record)
        replay = journal.replay()
        assert replay.records == records
        assert not replay.torn
        assert replay.last == records[-1]

    def test_replay_missing_file(self, tmp_path):
        replay = Journal(tmp_path / "absent.jsonl").replay()
        assert replay.records == [] and not replay.torn

    def test_torn_tail_detected_and_truncated(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = Journal(path)
        journal.append({"type": "a"})
        journal.append({"type": "b"})
        with open(path, "ab") as handle:
            handle.write(b'{"record": {"half')
        replay = journal.replay()
        assert replay.torn and [r["type"] for r in replay.records] == ["a", "b"]
        journal.truncate_to_valid()
        clean = journal.replay()
        assert not clean.torn and len(clean.records) == 2

    def test_corrupted_checksum_invalidates_frame(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = Journal(path)
        journal.append({"type": "a"})
        journal.append({"type": "b"})
        lines = path.read_bytes().splitlines(keepends=True)
        # Flip a byte inside the *first* frame: everything after it is lost.
        broken = lines[0].replace(b'"a"', b'"z"')
        path.write_bytes(broken + lines[1])
        replay = journal.replay()
        assert replay.torn and replay.records == []

    def test_crash_during_append_preserves_prefix(self, tmp_path):
        journal = Journal(tmp_path / "j.jsonl")
        journal.append({"type": "a"})
        with injected(FaultPlan([FaultRule("journal.append")])):
            with pytest.raises(InjectedCrash):
                journal.append({"type": "b"})
        replay = journal.replay()
        assert [r["type"] for r in replay.records] == ["a"]

    def test_append_if_changed_is_idempotent(self, tmp_path):
        journal = Journal(tmp_path / "j.jsonl")
        assert journal.append_if_changed({"type": "a"})
        assert not journal.append_if_changed({"type": "a"})
        assert journal.append_if_changed({"type": "b"})
        assert len(journal.replay().records) == 2
        # A fresh handle consults the file, not in-memory state.
        assert not Journal(tmp_path / "j.jsonl").append_if_changed({"type": "b"})


# ---------------------------------------------------------------------------
# Worker supervision (the work dispatcher without a store)
# ---------------------------------------------------------------------------


def _square_job(job):
    from repro.resilience.faults import fault_check

    fault_check("worker.job", token=str(job))
    return job * job


class TestSupervisor:
    def test_local_fallback(self):
        results = queue_map(_square_job, [1, 2, 3], workers=1)
        assert results == [1, 4, 9]

    def test_pool_happy_path(self):
        results = queue_map(_square_job, [1, 2, 3, 4], workers=2)
        assert results == [1, 4, 9, 16]

    def test_worker_crash_is_retried_and_recovers(self):
        # attempt=0 (default): the job's first attempt dies with os._exit,
        # the retry on a fresh pool runs it clean — all results survive.
        with injected(FaultPlan([FaultRule("worker.job", match="3")])):
            results = queue_map(_square_job, [2, 3, 4], workers=2)
        assert results == [4, 9, 16]

    def test_poison_job_quarantined_siblings_kept(self):
        # attempt=None: the job dies on *every* attempt -> quarantine.
        with injected(FaultPlan([FaultRule("worker.job", match="3",
                                           attempt=None)])):
            results = queue_map(_square_job, [2, 3, 4], workers=2,
                                config=DistribConfig(max_attempts=2))
        assert results[0] == 4 and results[2] == 16
        failure = results[1]
        assert isinstance(failure, JobFailure)
        assert failure.job == 3
        assert failure.attempts == 2
        assert failure.quarantined
        assert failure.error_dict(extra=1)["error"].startswith("worker: ")

    def test_hang_detection_reaps_and_retries(self):
        with injected(FaultPlan([FaultRule("worker.job", match="3",
                                           action="hang", seconds=60.0)])):
            start = time.monotonic()
            results = queue_map(_square_job, [2, 3, 4], workers=2,
                                config=DistribConfig(deadline=1.5))
            elapsed = time.monotonic() - start
        assert results == [4, 9, 16]
        assert elapsed < 30  # one deadline + a respawn, never the 60s hang

    def test_queue_map_surfaces_per_job_failures(self):
        with injected(FaultPlan([FaultRule("worker.job", match="13",
                                           attempt=None)])):
            results = queue_map(_square_job, [12, 13, 14], workers=2,
                                config=DistribConfig(max_attempts=2))
        assert results[0] == 144 and results[2] == 196
        assert isinstance(results[1], JobFailure) and results[1].job == 13


# ---------------------------------------------------------------------------
# Graceful SMT degradation
# ---------------------------------------------------------------------------


class TestSolverDegradation:
    FORMULA = land(ge(x, i(0)), le(x, i(10)), eq(add(x, y), i(7)))

    def test_timeout_returns_unknown_and_counts(self):
        solver = Solver(timeout_seconds=1e-9)
        result = solver.check_sat(self.FORMULA)
        assert result.status is SatStatus.UNKNOWN
        assert solver.statistics["unknowns"] == 1
        assert solver.statistics["timeouts"] == 1
        assert solver.consume_unknown() == "timeout"
        assert solver.consume_unknown() is None

    def test_unknown_is_never_cached(self):
        solver = Solver(cache=FormulaCache(), timeout_seconds=1e-9)
        assert solver.check_sat(self.FORMULA).status is SatStatus.UNKNOWN
        solver.timeout_seconds = None
        result = solver.check_sat(self.FORMULA)
        assert result.status is SatStatus.SAT  # re-decided, not replayed

    def test_injected_unknown(self):
        solver = Solver()
        with injected(FaultPlan([FaultRule("solver.query", action="unknown",
                                           at=(0,), attempt=None)])):
            assert not solver.check_valid(ge(x, x))
            assert solver.consume_unknown() == "injected"
            # The next query decides normally (rule armed for occurrence 0).
            assert solver.check_valid(ge(x, x))
            assert solver.consume_unknown() is None

    def test_decided_query_clears_unknown_flag(self):
        solver = Solver()
        solver.last_unknown = "stale"
        assert solver.check_sat(ge(x, i(0))).is_sat
        assert solver.consume_unknown() is None

    def test_pipeline_degrades_soundly_under_total_unknown(self):
        """Every SMT query UNKNOWN: the compile still succeeds, placement
        over-signals (keeps every notification, all conditional broadcasts),
        lint raises no false missing-signal errors, and every degradation is
        counted in the process registry."""
        before = obs.registry().snapshot()
        plan = FaultPlan([FaultRule("solver.query", action="unknown",
                                    attempt=None)])
        from repro.benchmarks_lib import ALL_BENCHMARKS

        source = ALL_BENCHMARKS["BoundedBuffer"].source
        with injected(plan):
            degraded = ExpressoPipeline().compile(source)
        baseline = ExpressoPipeline().compile(source)
        delta = obs.registry().delta_since(before)

        assert delta.get("degraded.placement", 0) > 0
        assert delta.get("degraded.invariants", 0) > 0
        # Sound direction: never fewer notifications than the precise run.
        assert (degraded.placement.total_notifications()
                >= baseline.placement.total_notifications())
        for decision in degraded.placement.decisions:
            assert decision.needs_notification
            assert decision.conditional and decision.broadcast
        # A degraded cross-check must not accuse the placement it mirrors.
        assert not [f for f in degraded.lint_report.findings
                    if f.check == "missing-signal"]
        assert degraded.solver_statistics["unknowns"] > 0

    def test_lint_suppresses_missing_signal_on_unknown(self):
        """Lint re-checks the omission triples of a *precisely* placed
        monitor with a degraded solver: an UNKNOWN cannot sustain a
        missing-signal accusation, so the advisory is suppressed and
        counted, never reported as an unproven ERROR."""
        from repro.analysis.lint import lint_explicit
        from repro.benchmarks_lib import ALL_BENCHMARKS

        precise = ExpressoPipeline().compile(
            ALL_BENCHMARKS["BoundedBuffer"].source)
        clean = lint_explicit(precise.explicit, solver=Solver())
        assert not [f for f in clean.findings if f.check == "missing-signal"]
        before = obs.registry().snapshot()
        plan = FaultPlan([FaultRule("solver.query", action="unknown",
                                    attempt=None)])
        with injected(plan):
            degraded = lint_explicit(precise.explicit, solver=Solver())
        assert obs.registry().delta_since(before).get("degraded.lint", 0) > 0
        assert not [f for f in degraded.findings
                    if f.check == "missing-signal"]

    def test_commutativity_degrades_to_dependent(self):
        from repro.analysis.commutativity import ccr_commutes_with_all
        from repro.lang import load_monitor
        from repro.benchmarks_lib import ALL_BENCHMARKS

        monitor = load_monitor(ALL_BENCHMARKS["BoundedBuffer"].source)
        _method, ccr = next(iter(monitor.ccrs()))
        before = obs.registry().snapshot()
        plan = FaultPlan([FaultRule("solver.query", action="unknown",
                                    attempt=None)])
        with injected(plan):
            commutes = ccr_commutes_with_all(ccr, monitor, Solver())
        assert not commutes  # dependent is the sound fallback
        assert obs.registry().delta_since(before).get(
            "degraded.commutativity", 0) > 0


# ---------------------------------------------------------------------------
# Resume equivalence: kill at every fault point, resume, compare bytes
# ---------------------------------------------------------------------------

SWEEP_CONFIG = dict(seed=7, budget=30, per_run_budget=10, threads=2, ops=2,
                    batch_size=2, bootstrap=2, max_rounds=6, workers=1)


def _tree_bytes(root):
    return {str(path.relative_to(root)): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


def _run_campaign(corpus_dir, plan=None, resume=False):
    """One campaign invocation; returns (result_dict | None, crashed)."""
    config = FuzzConfig(**SWEEP_CONFIG, resume=resume)
    store = CorpusStore(corpus_dir)
    if plan is None:
        return run_campaign(config, store).to_dict(), False
    try:
        with injected(plan):
            return run_campaign(config, store).to_dict(), False
    except InjectedCrash:
        return None, True


@pytest.fixture(scope="module")
def uninterrupted(tmp_path_factory):
    """Baseline: the fault-free campaign's result dict and corpus tree."""
    root = tmp_path_factory.mktemp("baseline")
    result, crashed = _run_campaign(root)
    assert not crashed
    return result, _tree_bytes(root)


def _fault_point_counts():
    """Count each site's occurrences with never-firing probe rules."""
    import tempfile, shutil

    probe = FaultPlan([FaultRule("journal.append", at=(10**9,)),
                       FaultRule("disk.replace", at=(10**9,)),
                       FaultRule("fuzz.candidate", at=(10**9,))])
    root = tempfile.mkdtemp()
    try:
        with injected(probe):
            run_campaign(FuzzConfig(**SWEEP_CONFIG), CorpusStore(root))
    finally:
        shutil.rmtree(root)
    return {site: count for (site, _idx), count in probe._counters.items()}


class TestResumeEquivalence:
    def test_kill_at_every_checkpoint_boundary(self, tmp_path, uninterrupted):
        """Crash at every journal append (= checkpoint commit), every 6th
        atomic replace, and two mid-candidate points; each crashed campaign
        resumed must converge to the byte-identical baseline tree."""
        baseline_result, baseline_tree = uninterrupted
        counts = _fault_point_counts()
        assert counts["journal.append"] >= 3  # bootstrap + rounds + final
        points = [("journal.append", k)
                  for k in range(counts["journal.append"])]
        points += [("disk.replace", k)
                   for k in range(0, counts["disk.replace"], 6)]
        points += [("fuzz.candidate", k)
                   for k in (0, counts["fuzz.candidate"] - 1)]

        for site, occurrence in points:
            root = tmp_path / f"{site}.{occurrence}"
            plan = FaultPlan([FaultRule(site, at=(occurrence,))])
            _result, crashed = _run_campaign(root, plan=plan)
            assert crashed, f"no crash fired at {site}[{occurrence}]"
            resumed, crashed = _run_campaign(root, resume=True)
            assert not crashed
            assert resumed == baseline_result, \
                f"result diverged after crash at {site}[{occurrence}]"
            assert _tree_bytes(root) == baseline_tree, \
                f"tree diverged after crash at {site}[{occurrence}]"

    def test_resume_of_finished_campaign_is_a_no_op(self, tmp_path,
                                                    uninterrupted):
        baseline_result, baseline_tree = uninterrupted
        root = tmp_path / "finished"
        first, _ = _run_campaign(root)
        again, _ = _run_campaign(root, resume=True)
        assert first == again == baseline_result
        assert _tree_bytes(root) == baseline_tree

    def test_pool_worker_crash_is_absorbed(self, tmp_path, uninterrupted,
                                           capsys):
        """A workers=2 campaign whose pool worker dies evaluating one
        candidate (first attempt only) finishes without a driver crash,
        byte-identical to the fault-free run."""
        baseline_result, baseline_tree = uninterrupted
        root = tmp_path / "pool-crash"
        plan = FaultPlan([FaultRule("fuzz.candidate", match="gen-7-1")])
        with injected(plan):
            result = run_campaign(FuzzConfig(**{**SWEEP_CONFIG, "workers": 2}),
                                  CorpusStore(root)).to_dict()
        assert "pool worker died" in capsys.readouterr().err  # it fired
        assert result == {**baseline_result, "workers": 2}
        assert _tree_bytes(root) == baseline_tree

    def test_resume_rejects_changed_config(self, tmp_path):
        root = tmp_path / "mismatch"
        _run_campaign(root)
        changed = FuzzConfig(**{**SWEEP_CONFIG, "budget": 31}, resume=True)
        with pytest.raises(CorruptCorpusError):
            run_campaign(changed, CorpusStore(root))

    def test_fresh_run_refuses_torn_journal(self, tmp_path):
        root = tmp_path / "torn"
        _run_campaign(root)
        with open(root / "journal.jsonl", "ab") as handle:
            handle.write(b'{"torn')
        with pytest.raises(CorruptCorpusError):
            run_campaign(FuzzConfig(**SWEEP_CONFIG), CorpusStore(root))

    def test_repair_rolls_back_to_last_good_record(self, tmp_path,
                                                   uninterrupted):
        baseline_result, baseline_tree = uninterrupted
        root = tmp_path / "repair"
        _run_campaign(root)
        with open(root / "journal.jsonl", "ab") as handle:
            handle.write(b'{"torn')
        (root / "coverage.json").write_text("{ not json")
        summary = CorpusStore(root).repair()
        assert summary["journal_truncated"] and summary["state_restored"]
        resumed, crashed = _run_campaign(root, resume=True)
        assert not crashed and resumed == baseline_result
        assert _tree_bytes(root) == baseline_tree


# ---------------------------------------------------------------------------
# CLI surfaces
# ---------------------------------------------------------------------------

CLI_FUZZ_ARGS = ["fuzz", "--budget", "30", "--seed", "7",
                 "--per-run-budget", "10", "--threads", "2", "--ops", "2",
                 "--batch-size", "2", "--bootstrap", "2", "--json"]


class TestCliResilience:
    def test_corrupt_corpus_exits_2_and_names_path(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        args = CLI_FUZZ_ARGS + ["--corpus-dir", str(corpus)]
        assert cli_main(args) == 0
        capsys.readouterr()
        with open(corpus / "journal.jsonl", "ab") as handle:
            handle.write(b'{"torn')
        assert cli_main(args) == 2
        err = capsys.readouterr().err
        assert str(corpus) in err and "--repair" in err

    def test_repair_flag_recovers_and_resumes(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        args = CLI_FUZZ_ARGS + ["--corpus-dir", str(corpus)]
        assert cli_main(args) == 0
        clean = capsys.readouterr().out
        with open(corpus / "journal.jsonl", "ab") as handle:
            handle.write(b'{"torn')
        assert cli_main(args + ["--repair"]) == 0
        captured = capsys.readouterr()
        assert captured.out == clean      # repaired resume = clean artifact
        assert "repaired" in captured.err

    def test_resume_requires_corpus_dir(self, capsys):
        assert cli_main(["fuzz", "--resume"]) == 2
        assert "--corpus-dir" in capsys.readouterr().err

    def test_bad_fault_plan_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "absent.json"
        assert cli_main(CLI_FUZZ_ARGS + ["--fault-plan", str(missing)]) == 2
        assert str(missing) in capsys.readouterr().err

    def test_explore_store_kill_and_resume_sweep(self, tmp_path, capsys):
        """Kill a 3-benchmark `explore --store` run at each frontier write
        (one per finished benchmark); the resumed run must report the
        uninterrupted results."""
        args = ["explore", "--benchmark", "BoundedBuffer",
                "--benchmark", "PendingPostQueue",
                "--benchmark", "SimpleBlockingDeployment",
                "--strategy", "random", "--schedules", "20",
                "--threads", "2", "--ops", "2", "--json"]

        def results(out):
            timing = ("elapsed_seconds", "schedules_per_second")
            return [{key: value for key, value in result.items()
                     if key not in timing}
                    for result in json.loads(out)["results"]]

        assert cli_main(args + ["--store", str(tmp_path / "base.sqlite3")]) == 0
        baseline = results(capsys.readouterr().out)
        assert len(baseline) == 3
        for occurrence in range(3):
            store = str(tmp_path / f"kill{occurrence}.sqlite3")
            plan = FaultPlan([FaultRule("store.write", match="frontier:",
                                        at=(occurrence,))])
            with injected(plan), pytest.raises(InjectedCrash):
                cli_main(args + ["--store", store])
            capsys.readouterr()
            assert cli_main(args + ["--store", store, "--resume"]) == 0
            assert results(capsys.readouterr().out) == baseline, \
                f"resume diverged after a crash at frontier write {occurrence}"

    def test_resume_without_store_exits_2(self, capsys):
        assert cli_main(["explore", "--resume"]) == 2
        assert "--store" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Serialization round trips used by the resume paths
# ---------------------------------------------------------------------------


class TestResultRoundTrips:
    def test_exploration_result_round_trip(self):
        result = ExplorationResult(
            benchmark="B", discipline="expresso", strategy="dfs", seed=3,
            threads=2, ops=2, schedules_run=17, completed=15, stalls=2,
            pruned=4, por_skipped=1, distinct_states=9, exhausted=True,
            oracle_hits=17, elapsed_seconds=1.2345678,
            failures=[Counterexample(kind="starvation", detail="d",
                                     schedule=(1, 0), minimized=(0,),
                                     trace="t", strategy="dfs", seed=None)],
            worker_failures=[{"error": "worker: boom", "attempts": 2,
                             "quarantined": True}])
        record = result.to_dict()
        assert ExplorationResult.from_dict(record).to_dict() == record

    def test_counterexample_round_trip_with_witness(self):
        failure = Counterexample(kind="lost-signal", detail="d",
                                 schedule=(0, 1, 2), minimized=(1,),
                                 trace="trace", strategy="random", seed=11,
                                 witness={"implicit_feasible": True})
        assert Counterexample.from_dict(failure.to_dict()) == failure
