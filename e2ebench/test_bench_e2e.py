"""Toy-size checks of the end-to-end benchmark (BoundedBuffer only, one pass).

Each benchmark run happens in a child process: a run re-imports the program,
pins the saturate workload to one CPU and switches the garbage collector off
during passes, none of which may leak into the test session.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import bench_e2e  # noqa: E402

TOY = {"monitors": ["BoundedBuffer"], "fuzz_budget": 10}

_CHILD = """
import json, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import bench_e2e
args = json.load(sys.stdin)
sizes = bench_e2e.Sizes(monitors=tuple(args.pop("monitors")),
                        fuzz_budget=args.pop("fuzz_budget"))
result = bench_e2e.run_benchmark(
    sizes=sizes, build_dir=Path(args.pop("build_dir")), seconds=0,
    report=lambda line: print(line, file=sys.stderr), **args)
print(json.dumps(result))
"""


@pytest.fixture(scope="module")
def build_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("bench-build")


def run_toy(build_dir, **kwargs) -> dict:
    payload = {**TOY, "build_dir": str(build_dir), **kwargs}
    child = subprocess.run([sys.executable, "-c", _CHILD, str(HERE)],
                           input=json.dumps(payload), capture_output=True,
                           text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(bench_e2e.WORKLOADS))
def test_untraced_run_is_correct(build_dir, workload):
    result = run_toy(build_dir, workload=workload, trace=False)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {name for name, _u, _b in bench_e2e.END_TO_END}
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(bench_e2e.WORKLOADS))
def test_traced_run_covers_the_pass(build_dir, tmp_path, workload):
    trace_out = tmp_path / "trace.json"
    result = run_toy(build_dir, workload=workload, trace=True,
                     trace_out=str(trace_out))
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert set(metrics) == {name for name, _u, _b in bench_e2e.PER_LAYER}
    assert metrics["trace.span_coverage"]["value"] >= 95.0
    validate = subprocess.run(
        [sys.executable, "-m", "repro.obs.validate", str(trace_out)],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=60)
    assert validate.returncode == 0, validate.stdout


def test_tampered_placement_counts_as_a_failed_operation(build_dir):
    expected = bench_e2e.load_expected()
    expected["placements"]["BoundedBuffer"]["notifications"] += 1
    result = run_toy(build_dir, workload="compile-suite", trace=False,
                     expected=expected)
    assert not result["correct"]
    assert result["failed"] == 1 and result["attempted"] == 1


def test_benchmark_json_matches_the_script():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench_e2e.WORKLOADS)
    for key, declared in (("end_to_end", bench_e2e.END_TO_END),
                          ("per_layer", bench_e2e.PER_LAYER)):
        assert [(m["name"], m["unit"], m["better"]) for m in spec[key]] == list(declared)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    child = subprocess.run(
        [sys.executable, f"{HERE.name}/bench_e2e.py", "--workload",
         "compile-suite", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert child.returncode != 0
    assert "correct" not in child.stdout
