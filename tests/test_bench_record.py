"""Tests for the perf record and its gate (``benchmarks/bench_record.py``).

They feed the script synthetic e2ebench results; no benchmark runs.
"""

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

import bench_record  # noqa: E402

SPEC = bench_record.load_spec()
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
BOUNDS = {metric["name"]: metric["bound"] for metric in SPEC["end_to_end"]}
TRACED = {"smt.calls": 1239, "smt.validity_queries": 880,
          "placement.notifications": 33, "explore.judged": 244,
          "fuzz.candidates": 48}


def _result(values, failed=0):
    """An e2ebench result line carrying *values*."""
    return {"correct": not failed, "attempted": 14, "failed": failed,
            "metrics": {name: {"value": value, "unit": ""}
                        for name, value in values.items()}}


def _entry(failed=0):
    untraced = [_result({"pass_s": 1.0 + run / 100, "setup_s": 0.2,
                         "peak_rss_mb": 40.0}) for run in range(bench_record.RUNS)]
    return bench_record.summarize(SPEC, untraced, _result(TRACED, failed))


@pytest.fixture
def last():
    return bench_record.make_row("last", "c" * 40,
                                 {name: _entry() for name in WORKLOADS})


def _run(monkeypatch, tmp_path, argv, workloads, rows=()):
    """``main(argv)`` against a record holding *rows*; measurements return
    *workloads*.  Returns the exit status and the record's lines."""
    record = tmp_path / "BENCH_e2e.jsonl"
    record.write_text("".join(json.dumps(row) + "\n" for row in rows))
    monkeypatch.setattr(bench_record, "RECORD", record)
    monkeypatch.setattr(bench_record, "measure", lambda spec: workloads)
    monkeypatch.setattr(bench_record, "git_sha", lambda: "0" * 40)
    monkeypatch.setattr(bench_record, "uncommitted", lambda: [])
    status = bench_record.main(argv)
    return status, record.read_text().splitlines()


class TestSummary:
    def test_quartiles_over_the_untraced_runs(self):
        entry = _entry()
        assert entry["pass_s"]["median"] == 1.02
        assert entry["pass_s"]["q1"] < 1.02 < entry["pass_s"]["q3"]
        assert entry["counts"] == TRACED
        assert entry["failed"] == 0


class TestCheck:
    @pytest.mark.parametrize("metric", sorted(BOUNDS))
    def test_median_past_its_bound_fails(self, monkeypatch, tmp_path, last,
                                         metric):
        fresh = copy.deepcopy(last["workloads"])
        fresh["compile-suite"][metric]["median"] *= 1 + BOUNDS[metric] + 0.01
        status, _ = _run(monkeypatch, tmp_path, ["--check"], fresh, [last])
        assert status == 1
        assert bench_record.problems(SPEC, last, fresh) == [
            f"compile-suite: {metric} median "
            f"{fresh['compile-suite'][metric]['median']:g} is worse than "
            f"{last['workloads']['compile-suite'][metric]['median']:g} (last) "
            f"by more than {BOUNDS[metric]:.0%}"]

    @pytest.mark.parametrize("metric", sorted(BOUNDS))
    def test_median_within_its_bound_passes(self, monkeypatch, tmp_path, last,
                                            metric):
        fresh = copy.deepcopy(last["workloads"])
        fresh["compile-suite"][metric]["median"] *= 1 + BOUNDS[metric] - 0.01
        status, _ = _run(monkeypatch, tmp_path, ["--check"], fresh, [last])
        assert status == 0

    def test_check_compares_with_the_last_row_only(self, monkeypatch, tmp_path,
                                                   last):
        older = copy.deepcopy(last)
        older["workloads"]["compile-suite"]["pass_s"]["median"] = 10.0
        fresh = copy.deepcopy(last["workloads"])
        fresh["compile-suite"]["pass_s"]["median"] = 2.0
        status, _ = _run(monkeypatch, tmp_path, ["--check"], fresh, [older, last])
        assert status == 1

    def test_count_above_the_row_fails(self, monkeypatch, tmp_path, last):
        fresh = copy.deepcopy(last["workloads"])
        fresh["compile-suite"]["counts"]["smt.calls"] += 1
        status, _ = _run(monkeypatch, tmp_path, ["--check"], fresh, [last])
        assert status == 1

    def test_counts_in_their_better_direction_pass(self, monkeypatch, tmp_path,
                                                   last):
        fresh = copy.deepcopy(last["workloads"])
        fresh["compile-suite"]["counts"]["smt.calls"] -= 1
        fresh["fuzz-campaign"]["counts"]["fuzz.candidates"] += 1
        status, _ = _run(monkeypatch, tmp_path, ["--check"], fresh, [last])
        assert status == 0
        fresh["fuzz-campaign"]["counts"]["fuzz.candidates"] -= 2
        assert bench_record.problems(SPEC, last, fresh) == [
            "fuzz-campaign: fuzz.candidates 47, was 48 (last); higher is better"]

    def test_failed_operation_fails(self, monkeypatch, tmp_path, last):
        fresh = copy.deepcopy(last["workloads"])
        fresh["saturate"] = _entry(failed=1)
        status, _ = _run(monkeypatch, tmp_path, ["--check"], fresh, [last])
        assert status == 1
        assert bench_record.problems(SPEC, last, fresh) == [
            "saturate: 1 failed operation(s)"]


class TestAppend:
    def test_append_writes_one_parseable_row(self, monkeypatch, tmp_path, last):
        workloads = {name: _entry() for name in WORKLOADS}
        status, lines = _run(monkeypatch, tmp_path, ["--append", "next"],
                             workloads, [last])
        assert status == 0 and len(lines) == 2
        row = json.loads(lines[-1])
        assert set(row) == {"label", "sha", "cpus", "python", "runs", "workloads"}
        assert (row["label"], row["sha"], row["runs"]) == ("next", "0" * 40,
                                                           bench_record.RUNS)
        assert row["cpus"] >= 1 and row["python"].count(".") == 2
        assert list(row["workloads"]) == WORKLOADS
        for entry in row["workloads"].values():
            for metric in BOUNDS:
                assert set(entry[metric]) == {"q1", "median", "q3"}
            assert list(entry["counts"]) == list(bench_record.COUNTS)
            assert entry["failed"] == 0

    def test_append_refuses_failed_operations(self, monkeypatch, tmp_path, last):
        workloads = {name: _entry(failed=name == "saturate") for name in WORKLOADS}
        status, lines = _run(monkeypatch, tmp_path, ["--append", "next"],
                             workloads, [last])
        assert status == 1 and len(lines) == 1

    def test_append_refuses_uncommitted_measured_code(self, monkeypatch, tmp_path,
                                                       last, capsys):
        # HEAD would be the parent of the measured code: refuse before measuring.
        def no_measurement(spec):
            raise AssertionError("measured a dirty tree")

        record = tmp_path / "BENCH_e2e.jsonl"
        record.write_text(json.dumps(last) + "\n")
        monkeypatch.setattr(bench_record, "RECORD", record)
        monkeypatch.setattr(bench_record, "measure", no_measurement)
        monkeypatch.setattr(bench_record, "uncommitted",
                            lambda: ["src/repro/smt/preprocess.py"])
        assert bench_record.main(["--append", "next"]) == 1
        assert record.read_text().splitlines() == [json.dumps(last)]
        assert "src/repro/smt/preprocess.py" in capsys.readouterr().err

    def test_uncommitted_sees_only_the_measured_paths(self, tmp_path):
        def git(*args):
            subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                           cwd=tmp_path, check=True, capture_output=True)

        for path in ("src/a.py", "e2ebench/b.py", "BENCHMARK.json", "notes.md"):
            (tmp_path / path).parent.mkdir(exist_ok=True)
            (tmp_path / path).write_text("0\n")
        git("init", "-q")
        git("add", "-A")
        git("commit", "-q", "-m", "base")
        assert bench_record.uncommitted(tmp_path) == []
        (tmp_path / "notes.md").write_text("1\n")
        assert bench_record.uncommitted(tmp_path) == []
        (tmp_path / "src/a.py").write_text("1\n")
        (tmp_path / "src/new.py").write_text("1\n")
        (tmp_path / "BENCHMARK.json").write_text("1\n")
        assert sorted(bench_record.uncommitted(tmp_path)) == [
            "BENCHMARK.json", "src/a.py", "src/new.py"]


class TestRecord:
    def test_committed_record_is_complete_and_clean(self):
        rows = bench_record.read_rows(bench_record.RECORD)
        assert rows, "BENCH_e2e.jsonl has no rows"
        for row in rows:
            assert list(row["workloads"]) == WORKLOADS, row["label"]
            assert all(entry["failed"] == 0 for entry in row["workloads"].values())
