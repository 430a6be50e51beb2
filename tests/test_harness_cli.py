"""Tests for the evaluation harness (saturation, compile-time, reports) and CLI."""

import json

import pytest

from repro.benchmarks_lib import get_benchmark
from repro.cli import main as cli_main
from repro.harness import (
    DISCIPLINES,
    figure_report,
    measure_compile_times,
    render_figure_table,
    render_table1,
    run_saturation,
    speedup_summary,
)
from repro.harness.saturation import SaturationTimeout, build_monitor_class


class TestSaturationHarness:
    def test_measurement_fields(self):
        spec = get_benchmark("PendingPostQueue")
        measurement = run_saturation(spec, "explicit", threads=2, ops_per_thread=5)
        assert measurement.benchmark == "PendingPostQueue"
        assert measurement.operations == 10
        assert measurement.ms_per_op >= 0
        assert set(measurement.metrics) >= {"operations", "waits", "spurious_wakeups"}

    def test_all_disciplines_build(self):
        spec = get_benchmark("BoundedBuffer")
        for discipline in DISCIPLINES:
            cls = build_monitor_class(spec, discipline)
            assert hasattr(cls(), "put")

    def test_unknown_discipline_rejected(self):
        spec = get_benchmark("BoundedBuffer")
        with pytest.raises(ValueError):
            build_monitor_class(spec, "magic")

    def test_class_cache_keyed_on_pipeline_config(self):
        """Regression: a monitor compiled for the ablation config must not be
        served from the cache to default-config runs (and vice versa)."""
        from repro.placement.pipeline import ExpressoPipeline

        spec = get_benchmark("BoundedBuffer")
        default_cls = build_monitor_class(spec, "expresso")
        ablation = ExpressoPipeline(use_commutativity=False)
        ablation_cls = build_monitor_class(spec, "expresso", ablation)
        assert ablation_cls is not default_cls
        # Equal configurations still share one cache entry.
        assert build_monitor_class(spec, "expresso") is default_cls
        assert build_monitor_class(
            spec, "expresso", ExpressoPipeline(use_commutativity=False)
        ) is ablation_cls

    def test_timeout_detection(self):
        """A workload that can never finish must surface as SaturationTimeout."""
        from repro.benchmarks_lib.spec import BenchmarkSpec

        base = get_benchmark("PendingPostQueue")
        starved = BenchmarkSpec(
            name="StarvedQueue", figure="9", origin="test", source=base.source,
            hand_placements=base.hand_placements,
            # One consumer polls an empty queue that no producer ever fills.
            make_workload=lambda threads, ops: [[("poll", ())]] + [[] for _ in range(threads - 1)],
        )
        with pytest.raises(SaturationTimeout):
            run_saturation(starved, "explicit", threads=2, ops_per_thread=3,
                           timeout_seconds=1.5)


class TestReports:
    def test_figure_report_structure(self):
        spec = get_benchmark("ConcurrencyThrottle")
        series = figure_report(spec, disciplines=("explicit", "autosynch"),
                               thread_ladder=(2,), ops_per_thread=5)
        assert series.thread_counts == (2,)
        assert set(series.ms_per_op) == {"explicit", "autosynch"}
        table = render_figure_table(series)
        assert "ConcurrencyThrottle" in table and "threads" in table

    def test_speedup_summary(self):
        spec = get_benchmark("PendingPostQueue")
        series = figure_report(spec, disciplines=("expresso", "implicit"),
                               thread_ladder=(2,), ops_per_thread=5)
        summary = speedup_summary([series])
        assert "implicit" in summary and summary["implicit"] > 0

    def test_table1_rows(self):
        rows = measure_compile_times([get_benchmark("PendingPostQueue")])
        assert len(rows) == 1
        assert rows[0].benchmark == "PendingPostQueue"
        assert rows[0].seconds > 0
        assert rows[0].cache_hits + rows[0].cache_misses > 0
        rendered = render_table1(rows)
        assert "Table 1" in rendered
        assert "Cache" in rendered and "TOTAL" in rendered

    def test_table1_parallel_matches_sequential(self):
        """The multi-process mode must produce the same rows (modulo
        timing) in the same order as the sequential path."""
        specs = [get_benchmark("PendingPostQueue"),
                 get_benchmark("SimpleBlockingDeployment")]
        sequential = measure_compile_times(specs)
        parallel = measure_compile_times(specs, workers=2)
        assert [row.benchmark for row in parallel] == [row.benchmark for row in sequential]
        for seq_row, par_row in zip(sequential, parallel):
            assert par_row.validity_queries == seq_row.validity_queries
            assert par_row.notifications == seq_row.notifications
            assert par_row.broadcasts == seq_row.broadcasts
            assert par_row.invariant == seq_row.invariant


class TestCli:
    def test_list_command(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "BoundedBuffer" in out and "figure 9" in out

    def test_compile_command_emits_java(self, tmp_path, capsys):
        source = get_benchmark("PendingPostQueue").source
        path = tmp_path / "queue.mon"
        path.write_text(source)
        assert cli_main(["compile", str(path), "--emit", "java"]) == 0
        out = capsys.readouterr().out
        assert "ReentrantLock" in out and "signal" in out

    def test_explain_command(self, tmp_path, capsys):
        source = get_benchmark("ConcurrencyThrottle").source
        path = tmp_path / "throttle.mon"
        path.write_text(source)
        assert cli_main(["explain", str(path)]) == 0
        out = capsys.readouterr().out
        assert "monitor invariant" in out and "placement decisions" in out

    def test_bench_single_benchmark(self, capsys):
        assert cli_main(["bench", "--benchmark", "PendingPostQueue",
                         "--threads", "2", "--ops", "5"]) == 0
        out = capsys.readouterr().out
        assert "PendingPostQueue" in out and "expresso" in out


@pytest.mark.parametrize("command", ["explore", "mutate", "bench", "lint",
                                     "profile"])
def test_unknown_benchmark_exits_2(command, capsys):
    assert cli_main([command, "--benchmark", "NoSuchMonitor"]) == 2
    err = capsys.readouterr().err
    assert "error: unknown benchmark 'NoSuchMonitor'" in err


@pytest.mark.parametrize("entry, detail", [
    ({"benchmark": "NoSuchMonitor", "schedule": []},
     "unknown benchmark 'NoSuchMonitor'"),
    ({"benchmark": "BoundedBuffer", "discipline": "nosuch", "schedule": []},
     "unknown discipline 'nosuch'"),
], ids=["benchmark", "discipline"])
def test_unknown_replay_target_exits_2(entry, detail, tmp_path, capsys):
    path = tmp_path / "replay.json"
    path.write_text(json.dumps(entry))
    assert cli_main(["explore", "--replay", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot replay {path}: {detail}")
    assert captured.out == ""


@pytest.mark.parametrize("command", ["compile", "explain"])
class TestUnreadableSource:
    def test_missing_path_exits_2(self, command, tmp_path, capsys):
        path = tmp_path / "missing.mon"
        assert cli_main([command, str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read {path}: ")

    def test_unparsable_source_exits_2(self, command, tmp_path, capsys):
        path = tmp_path / "broken.mon"
        path.write_text("monitor Broken { int x = ; }")
        assert cli_main([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot compile broken: ")
        assert captured.out == ""


@pytest.mark.parametrize("flags", [["--threads", "0"], ["--threads", "2", "0"],
                                   ["--ops", "-1"]])
def test_bench_rejects_non_positive_sizes(flags, capsys):
    with pytest.raises(SystemExit) as stop:
        cli_main(["bench", "--benchmark", "PendingPostQueue", *flags])
    assert stop.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flags[0]}: must be >= 1, got {flags[-1]}" in err


@pytest.mark.parametrize("flag", ["--profile", "--trace"])
@pytest.mark.parametrize("content", [None, "{not json", "[1, 2]"],
                         ids=["missing", "malformed", "not-an-object"])
def test_report_rejects_bad_artifacts(flag, content, tmp_path, capsys):
    path = tmp_path / "artifact.json"
    if content is not None:
        path.write_text(content)
    out = tmp_path / "report"
    assert cli_main(["report", flag, str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read {path}: ")
    assert not out.exists()


class TestCliSolverCounters:
    """The CLI's JSON counters equal a direct compile's solver statistics."""

    @pytest.fixture(scope="class")
    def direct(self):
        from repro.placement.pipeline import ExpressoPipeline
        from repro.smt.cache import FormulaCache

        source = get_benchmark("BoundedBuffer").source
        return ExpressoPipeline(cache=FormulaCache()).compile(source).solver_statistics

    def test_profile_reports_the_sat_core_counters(self, capsys):
        import json
        from repro.placement.pipeline import ExpressoPipeline
        from repro.smt.cache import FormulaCache

        # BoundedBuffer's queries no longer conflict in the SAT core.
        source = get_benchmark("Readers-Writers").source
        direct = ExpressoPipeline(cache=FormulaCache()).compile(source).solver_statistics
        assert cli_main(["profile", "--benchmark", "Readers-Writers", "--json"]) == 0
        metrics = json.loads(capsys.readouterr().out)["metrics"]
        assert direct["sat_clauses"] > 0 and direct["sat_conflicts"] > 0
        assert metrics["smt.sat.clauses"] == direct["sat_clauses"]
        assert metrics["smt.sat.conflicts"] == direct["sat_conflicts"]

    def test_profile_reports_the_theory_counters(self, capsys, direct):
        import json

        assert cli_main(["profile", "--benchmark", "BoundedBuffer", "--json"]) == 0
        metrics = json.loads(capsys.readouterr().out)["metrics"]
        assert direct["theory_checks"] > 0
        assert metrics["smt.theory.checks"] == direct["theory_checks"]
        assert metrics["smt.theory.lemmas"] == direct["theory_lemmas"]
        assert cli_main(["profile", "--benchmark", "BoundedBuffer"]) == 0
        section = capsys.readouterr().out.split("SAT core\n")[1].splitlines()
        assert section[:4] == [
            f"  {label}".ljust(26) + str(direct[key]) for label, key in (
                ("clauses", "sat_clauses"), ("conflicts", "sat_conflicts"),
                ("theory checks", "theory_checks"),
                ("theory lemmas", "theory_lemmas"))]

    def test_lint_reports_the_static_skips(self, capsys, direct):
        import json

        assert cli_main(["lint", "--benchmark", "BoundedBuffer", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        (report,) = document["reports"]
        assert report["stats"]["commute_static_skips"] == direct["commute_static_skips"]
        assert document["commute_static_skips"] == direct["commute_static_skips"]
