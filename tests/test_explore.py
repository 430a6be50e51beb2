"""Tests for the schedule-exploration subsystem (scheduler, strategies,
oracle, reduction, engine, fuzzer, CLI)."""

import dataclasses
import json

import pytest

from repro.benchmarks_lib import get_benchmark
from repro.cli import main as cli_main
from repro.explore import (
    FirstStrategy,
    PCTStrategy,
    RandomStrategy,
    ScheduleStrategy,
    check_run,
    coop_class_for_explicit,
    coop_monitor_and_class,
    ddmin,
    explore_benchmark,
    explore_class,
    explore_explicit,
    render_trace,
    replay_schedule,
    run_schedule,
)
from repro.fuzz.generate import random_monitor
from repro.harness.saturation import expresso_result
from repro.lang.ast import Skip
from repro.placement.target import ExplicitCCR, ExplicitMethod


@pytest.fixture(scope="module")
def buffer_spec():
    return get_benchmark("BoundedBuffer")


@pytest.fixture(scope="module")
def buffer_result(buffer_spec):
    return expresso_result(buffer_spec)


@pytest.fixture(scope="module")
def buffer_coop(buffer_spec):
    return coop_monitor_and_class(buffer_spec, "expresso")


class TestScheduler:
    def test_deterministic_replay(self, buffer_spec, buffer_coop):
        """Same schedule, same programs => identical commits and events."""
        monitor, coop_class = buffer_coop
        programs = buffer_spec.workload(3, 2)
        first = run_schedule(coop_class(), programs, RandomStrategy(11))
        replayed = run_schedule(coop_class(), programs,
                                ScheduleStrategy(first.choices, FirstStrategy()))
        assert replayed.commits == first.commits
        assert replayed.events == first.events
        assert replayed.outcome == first.outcome

    def test_single_candidate_choices_are_not_recorded(self, buffer_spec, buffer_coop):
        _monitor, coop_class = buffer_coop
        result = run_schedule(coop_class(), [[("put", ())]], FirstStrategy())
        assert result.outcome == "completed"
        assert result.decisions == []

    def test_deadlock_detected_not_hung(self, buffer_spec, buffer_coop):
        """A consumer with no producer parks; the scheduler reports it."""
        monitor, coop_class = buffer_coop
        programs = [[("take", ())]]
        instance = coop_class()
        result = run_schedule(instance, programs, FirstStrategy())
        assert result.outcome == "deadlock"
        assert result.waiting == {0: "takeCond"}
        verdict = check_run(monitor, programs, instance, result)
        assert verdict.ok and verdict.kind == "stall"

    def test_commit_order_and_final_state(self, buffer_spec, buffer_coop):
        monitor, coop_class = buffer_coop
        programs = buffer_spec.workload(2, 3)
        instance = coop_class()
        result = run_schedule(instance, programs, RandomStrategy(5))
        assert result.outcome == "completed"
        assert len(result.commits) == 6
        verdict = check_run(monitor, programs, instance, result)
        assert verdict.ok and verdict.kind is None


class TestStrategies:
    def test_random_strategy_is_seed_deterministic(self):
        a = RandomStrategy(3)
        b = RandomStrategy(3)
        picks_a = [a.choose("grant", (0, 1, 2)) for _ in range(20)]
        picks_b = [b.choose("grant", (0, 1, 2)) for _ in range(20)]
        assert picks_a == picks_b

    def test_pct_strategy_prefers_priorities(self):
        strategy = PCTStrategy(0, depth=1)
        first = strategy.choose("grant", (0, 1, 2))
        # With no change points the same candidate set keeps the same winner.
        assert all(strategy.choose("grant", (0, 1, 2)) == first for _ in range(5))

    def test_schedule_strategy_clamps_and_falls_back(self):
        strategy = ScheduleStrategy((7, 0), FirstStrategy())
        assert strategy.choose("grant", (0, 1)) == 1      # 7 clamped to last
        assert strategy.choose("grant", (0, 1)) == 0      # recorded 0
        assert strategy.choose("grant", (0, 1)) == 0      # fallback: first


class TestDdmin:
    def test_minimizes_to_relevant_suffix(self):
        failing = list(range(20))

        def reproduces(candidate):
            return 13 in candidate and 17 in candidate

        minimized = ddmin(failing, reproduces)
        assert sorted(minimized) == [13, 17]

    def test_irreproducible_input_returned_unchanged(self):
        assert ddmin([1, 2, 3], lambda c: False) == (1, 2, 3)


class TestDifferentialOracle:
    def test_lost_wakeup_mutation_is_caught_and_minimized(self, buffer_spec,
                                                          buffer_result):
        """The acceptance-criterion mutation: delete one generated signal and
        the engine must produce a minimized, seed-replayable counterexample."""
        explicit = buffer_result.explicit
        assert ("put#0", 0) in explicit.notification_sites()
        mutant = explicit.without_notification("put#0", 0)
        report = explore_explicit(mutant, buffer_result.monitor,
                                  buffer_spec.workload(2, 2),
                                  strategy="random", budget=500, seed=7)
        assert not report.ok
        failure = report.failures[0]
        assert failure.kind == "lost-wakeup"
        assert 0 < len(failure.minimized) <= len(failure.schedule)
        assert "DEADLOCK" in failure.trace
        # The minimized schedule replays to the same verdict, from scratch.
        coop_class = coop_class_for_explicit(mutant)
        _run, verdict = replay_schedule(buffer_result.monitor, coop_class,
                                        buffer_spec.workload(2, 2),
                                        failure.minimized)
        assert verdict.is_failure and verdict.kind == "lost-wakeup"

    def test_dfs_catches_mutation_exhaustively(self):
        """At capacity 1 the dropped take->put signal deadlocks a putter; the
        exhaustive strategy must find it without any seed luck."""
        from repro.placement import compile_monitor

        tiny = compile_monitor("""
        monitor TinyBuffer {
            unsigned int count = 0;
            atomic void put() { waituntil (count < 1) { count++; } }
            atomic void take() { waituntil (count > 0) { count--; } }
        }
        """)
        mutant = tiny.explicit.without_notification("take#0", 0)
        programs = [[("put", ()), ("put", ())], [("take", ()), ("take", ())]]
        report = explore_explicit(mutant, tiny.monitor, programs,
                                  strategy="dfs", budget=5000)
        assert not report.ok
        assert report.failures[0].kind == "lost-wakeup"

    def test_state_divergence_is_caught(self, buffer_spec, buffer_result):
        """Empty out take#0's compiled body: the interpreter still decrements,
        so a completed schedule must flag the field mismatch."""
        explicit = buffer_result.explicit
        methods = []
        for method in explicit.methods:
            ccrs = tuple(
                ExplicitCCR(ccr.guard, Skip(), ccr.label, ccr.notifications)
                if ccr.label == "take#0" else ccr
                for ccr in method.ccrs)
            methods.append(ExplicitMethod(method.name, method.params, ccrs))
        broken = dataclasses.replace(explicit, methods=tuple(methods))
        report = explore_explicit(broken, buffer_result.monitor,
                                  buffer_spec.workload(2, 1),
                                  strategy="random", budget=50, seed=0)
        assert not report.ok
        assert report.failures[0].kind == "state-divergence"
        assert "count" in report.failures[0].detail

    def test_clean_suite_members_pass_exhaustive_exploration(self):
        for name in ("BoundedBuffer", "Readers-Writers"):
            report = explore_benchmark(get_benchmark(name), "expresso",
                                       threads=2, ops=2, strategy="dfs",
                                       budget=5000)
            assert report.ok, report.failures
            assert report.exhausted
            assert report.completed == report.schedules_run


class TestEngine:
    def test_all_disciplines_explore_cleanly(self, buffer_spec):
        for discipline in ("expresso", "explicit", "autosynch", "implicit"):
            report = explore_benchmark(buffer_spec, discipline, threads=3,
                                       ops=2, strategy="random", budget=60,
                                       seed=2)
            assert report.ok, (discipline, report.failures)
            assert report.schedules_run == 60

    def test_result_serializes_to_json(self, buffer_spec):
        report = explore_benchmark(buffer_spec, "expresso", threads=2, ops=1,
                                   strategy="random", budget=5, seed=0)
        payload = json.dumps(report.to_dict())
        decoded = json.loads(payload)
        assert decoded["benchmark"] == "BoundedBuffer"
        assert decoded["ok"] is True

    def test_unknown_strategy_rejected(self, buffer_spec, buffer_coop):
        monitor, coop_class = buffer_coop
        with pytest.raises(ValueError):
            explore_class(monitor, coop_class, buffer_spec.workload(2, 1),
                          strategy="magic")

    def test_ticketed_multi_ccr_benchmark_explores(self):
        """Cross-CCR locals + local-variable guards through the whole stack."""
        spec = get_benchmark("Ticketed Readers-Writers")
        report = explore_benchmark(spec, "expresso", threads=3, ops=1,
                                   strategy="random", budget=80, seed=4)
        assert report.ok, report.failures


class TestTraceRendering:
    def test_trace_mentions_threads_and_outcome(self, buffer_spec, buffer_coop):
        monitor, coop_class = buffer_coop
        programs = buffer_spec.workload(2, 1)
        instance = coop_class()
        result = run_schedule(instance, programs, FirstStrategy())
        verdict = check_run(monitor, programs, instance, result)
        text = render_trace(result, programs, verdict)
        assert "T0" in text and "T1" in text
        assert "outcome: COMPLETED" in text
        assert "commits" in text


class TestGenmon:
    def test_generation_is_seed_deterministic(self):
        a = random_monitor(5, 2)
        b = random_monitor(5, 2)
        assert a.source == b.source and a.families == b.families
        assert random_monitor(6, 2).source != a.source

    def test_workloads_are_balanced(self):
        generated = random_monitor(1, 0)
        workload = generated.workload(4, 3)
        assert len(workload) == 4
        assert any(ops for ops in workload)


class TestExploreCli:
    def test_explore_single_benchmark_text(self, capsys):
        rc = cli_main(["explore", "--benchmark", "BoundedBuffer",
                       "--strategy", "dfs", "--threads", "2", "--ops", "2",
                       "--schedules", "500"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Schedule exploration summary" in out
        assert "exhausted" in out

    def test_explore_json_output(self, capsys):
        rc = cli_main(["explore", "--benchmark", "BoundedBuffer",
                       "--strategy", "random", "--schedules", "20",
                       "--seed", "3", "--json"])
        out = capsys.readouterr().out
        assert rc == 0
        decoded = json.loads(out)
        assert decoded["ok"] is True
        assert decoded["results"][0]["schedules_run"] == 20

    def test_bench_json_and_seed(self, capsys):
        rc = cli_main(["bench", "--benchmark", "PendingPostQueue",
                       "--threads", "2", "--ops", "4", "--seed", "5", "--json"])
        out = capsys.readouterr().out
        assert rc == 0
        decoded = json.loads(out)
        assert decoded["seed"] == 5
        assert decoded["series"][0]["benchmark"] == "PendingPostQueue"
