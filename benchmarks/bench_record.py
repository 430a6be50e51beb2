#!/usr/bin/env python3
"""The committed perf record: one ``BENCH_e2e.jsonl`` row per perf change.

Run from the repository root::

    python benchmarks/bench_record.py --append LABEL   # measure, add a row
    python benchmarks/bench_record.py --check          # measure, compare

Both modes run ``e2ebench/bench_e2e.py`` with the command and run length
``BENCHMARK.json`` declares: five untraced runs of every workload, taken
round-robin, then one ``--trace 1`` run of each.  Every e2ebench report is
echoed to standard output.

A row holds the git sha, the label, the CPU count and the Python version.
Per workload it holds the median and quartiles of each end-to-end metric
over the five untraced runs, the deterministic counts of the traced run
(:data:`COUNTS`), and the failed operations of all six runs.

``--check`` exits 1 when a fresh median is worse than the last row's by more
than the metric's ``BENCHMARK.json`` bound, when a count moved in its worse
direction (``BENCHMARK.json``'s ``better``), or when any operation failed.
``--append`` refuses a measurement with failed operations, and refuses to
start while ``src/``, ``e2ebench/`` or ``BENCHMARK.json`` has uncommitted
changes: the row's sha is ``HEAD``, so commit the change, append, then
commit the row.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
RECORD = ROOT / "BENCH_e2e.jsonl"
RUNS = 5
#: Per-layer metrics a traced run counts exactly; they repeat run to run.
COUNTS = ("smt.calls", "smt.validity_queries", "placement.notifications",
          "explore.judged", "fuzz.candidates")
#: What a run measures; ``--append`` refuses uncommitted changes here, so a
#: row's sha is the commit whose code it measured.
MEASURED = ("src", "e2ebench", "BENCHMARK.json")


def load_spec() -> dict:
    with (ROOT / "BENCHMARK.json").open(encoding="utf-8") as handle:
        return json.load(handle)


def run_e2e(spec: dict, workload: str, trace: bool, root: Path = ROOT) -> dict:
    """One e2ebench run in *root*; returns its result line.

    The declared command's interpreter is replaced by this one, so the row's
    Python version is the one measured.
    """
    command = [sys.executable, *spec["command"][1:], "--workload", workload,
               "--seconds", str(spec["run_seconds"]), "--trace", str(int(trace))]
    output = subprocess.run(command, cwd=root, stdout=subprocess.PIPE,
                            text=True, check=True).stdout
    print(output, end="", flush=True)
    return json.loads(output.splitlines()[-1])


def summarize(spec: dict, untraced: List[dict], traced: dict) -> dict:
    """One workload's entry of a row."""
    entry: dict = {}
    for metric in spec["end_to_end"]:
        values = [run["metrics"][metric["name"]]["value"] for run in untraced]
        q1, median, q3 = statistics.quantiles(values, n=4)
        entry[metric["name"]] = {"q1": round(q1, 4), "median": round(median, 4),
                                 "q3": round(q3, 4)}
    entry["counts"] = {name: traced["metrics"][name]["value"] for name in COUNTS}
    entry["failed"] = sum(run["failed"] for run in [*untraced, traced])
    return entry


def measure(spec: dict) -> Dict[str, dict]:
    """Every workload's row entry, measured in this tree."""
    names = [workload["name"] for workload in spec["workloads"]]
    untraced: Dict[str, List[dict]] = {name: [] for name in names}
    for _ in range(RUNS):
        for name in names:
            untraced[name].append(run_e2e(spec, name, False))
    return {name: summarize(spec, untraced[name], run_e2e(spec, name, True))
            for name in names}


def make_row(label: str, sha: str, workloads: Dict[str, dict]) -> dict:
    return {"label": label, "sha": sha, "cpus": os.cpu_count(),
            "python": platform.python_version(), "runs": RUNS,
            "workloads": workloads}


def read_rows(path: Path) -> List[dict]:
    with path.open(encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _worse(new: float, old: float, better: str) -> bool:
    return new > old if better == "lower" else new < old


def problems(spec: dict, last: dict, fresh: Dict[str, dict]) -> List[str]:
    """Why the *fresh* workload entries fail the gate against the *last* row."""
    better = {metric["name"]: metric["better"]
              for metric in spec["end_to_end"] + spec["per_layer"]}
    found = []
    for workload, now in fresh.items():
        then = last["workloads"][workload]
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            old, new = then[name]["median"], now[name]["median"]
            sign = 1 if metric["better"] == "lower" else -1
            if _worse(new, old * (1 + sign * bound), metric["better"]):
                found.append(f"{workload}: {name} median {new:g} is worse than "
                             f"{old:g} ({last['label']}) by more than {bound:.0%}")
        for name, new in now["counts"].items():
            old = then["counts"][name]
            if _worse(new, old, better[name]):
                found.append(f"{workload}: {name} {new:g}, was {old:g} "
                             f"({last['label']}); {better[name]} is better")
        if now["failed"]:
            found.append(f"{workload}: {now['failed']} failed operation(s)")
    return found


def _report(spec: dict, last: dict, fresh: Dict[str, dict]) -> None:
    """Print each workload's fresh medians and counts next to the last row's."""
    for workload, now in fresh.items():
        then = last["workloads"][workload]
        cells = [f"{metric['name']} {now[metric['name']]['median']:g} "
                 f"(was {then[metric['name']]['median']:g})"
                 for metric in spec["end_to_end"]]
        cells += [f"{name} {value:g} (was {then['counts'][name]:g})"
                  for name, value in now["counts"].items()
                  if value or then["counts"][name]]
        print(f"{workload:<14} " + ", ".join(cells))


def git_sha() -> str:
    return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                          stdout=subprocess.PIPE, text=True).stdout.strip()


def uncommitted(root: Path = ROOT) -> List[str]:
    """Changed or untracked paths under the measured code (:data:`MEASURED`)."""
    status = subprocess.run(["git", "status", "--porcelain", "--", *MEASURED],
                            cwd=root, check=True, stdout=subprocess.PIPE,
                            text=True).stdout
    return [line[3:] for line in status.splitlines()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--append", metavar="LABEL",
                      help=f"measure this tree and append a row to {RECORD.name}")
    mode.add_argument("--check", action="store_true",
                      help="measure this tree and compare with the last row")
    args = parser.parse_args(argv)
    if args.append:
        dirty = uncommitted()
        if dirty:
            print("not appended: commit the measured code first; uncommitted: "
                  + ", ".join(dirty), file=sys.stderr)
            return 1
    spec = load_spec()
    fresh = measure(spec)
    if args.append:
        failed = sum(entry["failed"] for entry in fresh.values())
        if failed:
            print(f"not appended: {failed} failed operation(s)", file=sys.stderr)
            return 1
        with RECORD.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(make_row(args.append, git_sha(), fresh)) + "\n")
        print(f"appended {args.append!r} to {RECORD.name}")
        return 0
    last = read_rows(RECORD)[-1]
    print(f"against {last['label']} ({last['sha'][:7]}):")
    _report(spec, last, fresh)
    found = problems(spec, last, fresh)
    for problem in found:
        print(f"FAIL {problem}")
    print("ok" if not found else f"{len(found)} problem(s)")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
