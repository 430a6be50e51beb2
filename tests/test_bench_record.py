"""Tests for the perf record and its gate (``benchmarks/bench_record.py``).

They feed the script synthetic e2ebench results; no benchmark runs.
"""

import copy
import json
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


class TestRecord:
    def test_committed_record_is_complete_and_clean(self):
        rows = bench_record.read_rows(bench_record.RECORD)
        assert rows, "BENCH_e2e.jsonl has no rows"
        for row in rows:
            assert list(row["workloads"]) == WORKLOADS, row["label"]
            assert all(entry["failed"] == 0 for entry in row["workloads"].values())
