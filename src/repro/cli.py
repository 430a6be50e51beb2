"""Command-line interface for the Expresso reproduction.

Usage examples::

    # Compile an implicit-signal monitor and print the generated Java code.
    expresso compile path/to/monitor.mon --emit java

    # Show the inferred invariant and placement decisions.
    expresso explain path/to/monitor.mon

    # Reproduce a figure series or Table 1 on the built-in benchmarks.
    expresso bench --figure 8 --threads 2 4 8 --ops 20
    expresso bench --table 1
    expresso bench --table 1 --workers 8
    expresso bench --summary --threads 4 8 --seed 7 --json

    # Systematically explore schedules of the compiled monitors.
    expresso explore --benchmark BoundedBuffer --strategy dfs
    expresso explore --strategy random --schedules 500 --seed 42 --json
    expresso explore --strategy random --schedules 20000 --workers 4
    expresso explore --fuzz 25 --seed 1 --schedules 100
    expresso explore --replay failure.json

    # Coverage-guided fuzzing with a persistent corpus.
    expresso fuzz --budget 2000 --seed 1 --corpus-dir .fuzz-corpus --workers 4
    expresso fuzz --budget 500 --json

    # Drop every placed notification; each must yield a counterexample.
    expresso mutate --threads 3 --ops 2 --workers 4

    # Statically analyze monitors (placement cross-check + smells).
    expresso lint path/to/monitor.mon
    expresso lint --suite --json
    expresso lint --benchmark BoundedBuffer --benchmark "Readers-Writers"

    # List the built-in benchmarks.
    expresso list
    expresso list --json

    # Campaign console: inspect a shared store without joining it.
    expresso status --store campaign.sqlite3 --json
    expresso watch --store campaign.sqlite3 --interval 2
    expresso watch --store campaign.sqlite3 --ticks 5 --now 0  # deterministic
    expresso report --store campaign.sqlite3 --profile prof.json --out report/
    expresso stitch driver-trace.json helper-trace.json --out stitched.json
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path
from typing import List, Optional, Sequence

from repro.benchmarks_lib import ALL_BENCHMARKS, FIGURE8_BENCHMARKS, FIGURE9_BENCHMARKS
from repro.codegen import generate_java, generate_python_explicit
from repro.harness.compile_time import measure_compile_times
from repro.harness.report import (
    figure_report,
    render_explore_table,
    render_figure_table,
    render_table1,
    speedup_summary,
)
from repro.lang.pretty import pretty_monitor
from repro.logic.pretty import pretty
from repro.placement.pipeline import ExpressoPipeline


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return value


def _add_resilience_args(cmd: argparse.ArgumentParser) -> None:
    """Work-dispatch and fault-injection flags shared by the campaigns."""
    cmd.add_argument("--job-deadline", type=_positive_float, default=None,
                     metavar="SECONDS",
                     help="per-job wall-clock deadline: no lease is renewed "
                          "past it, so a hung job's worker is killed and "
                          "the job retried (default: no deadline)")
    cmd.add_argument("--job-retries", type=_positive_int, default=3,
                     metavar="N",
                     help="attempts per job before it is quarantined as a "
                          "per-job error (default: 3)")
    cmd.add_argument("--fault-plan", metavar="FILE", default=None,
                     help="JSON FaultPlan injecting deterministic crashes/"
                          "hangs/solver timeouts at named sites (testing; "
                          "see README 'Robustness & resume')")


def _add_distrib_args(cmd: argparse.ArgumentParser) -> None:
    """Shared-store (distributed campaign fabric) flags for explore/fuzz."""
    cmd.add_argument("--store", metavar="PATH", default=None,
                     help="shared on-disk campaign store (SQLite WAL): pool "
                          "workers and other expresso invocations pointed at "
                          "PATH cooperate through its lease-based "
                          "work-stealing queue")
    cmd.add_argument("--lease-ttl", type=_positive_float, default=30.0,
                     metavar="SECONDS",
                     help="work-unit lease TTL: a unit whose lease expires "
                          "(crashed or hung worker) becomes claimable by a "
                          "sibling, with bounded attempts (default: 30)")
    cmd.add_argument("--heartbeat-interval", type=_positive_float,
                     default=5.0, metavar="SECONDS",
                     help="lease renewal period; the TTL must exceed twice "
                          "the heartbeat (default: 5)")
    cmd.add_argument("--helper", action="store_true",
                     help="run as a cooperating worker against --store: "
                          "claim and evaluate work units until the driving "
                          "invocation finishes (no local artifacts)")
    cmd.add_argument("--helper-wait", type=_positive_float, default=30.0,
                     metavar="SECONDS",
                     help="how long --helper waits for the store (and the "
                          "driver's liveness window) to appear "
                          "(default: 30)")


def _distrib_from_args(args):
    """Build the DistribConfig from CLI flags; ``(config, exit_code)``."""
    from repro.distrib import DistribConfig

    store = getattr(args, "store", None)
    if getattr(args, "helper", False) and not store:
        print("error: --helper needs --store (the shared campaign store to "
              "work)", file=sys.stderr)
        return None, 2
    lease = ({"lease_ttl": args.lease_ttl,
              "heartbeat_interval": args.heartbeat_interval}
             if hasattr(args, "lease_ttl") else {})
    try:
        return DistribConfig(store_path=store, deadline=args.job_deadline,
                             max_attempts=args.job_retries, **lease), None
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None, 2


def _run_helper_mode(args, distrib) -> int:
    """`--helper`: work the shared store until the driver finishes.

    With ``--trace`` the helper records its own flight recording — one
    ``distrib.unit`` span per unit it evaluated — which ``expresso stitch``
    merges with the driver's trace into a single cross-process timeline.
    """
    from repro.distrib import run_helper

    trace_path = getattr(args, "trace", None)
    if trace_path:
        from repro import obs

        with obs.observe(trace=True) as session:
            completed = run_helper(args.store, distrib,
                                   wait_for_store=args.helper_wait,
                                   trace_units=True)
        obs.write_trace(trace_path, [session.tracer.events],
                        session.registry.snapshot())
        print(f"trace written to {trace_path}", file=sys.stderr)
    else:
        completed = run_helper(args.store, distrib,
                               wait_for_store=args.helper_wait)
    print(f"helper finished: {completed} unit(s) completed",
          file=sys.stderr)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="expresso",
        description="Symbolic signal placement for implicit-signal monitors "
                    "(reproduction of Ferles et al., PLDI 2018)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compile_cmd = sub.add_parser("compile", help="compile a monitor to explicit-signal code")
    compile_cmd.add_argument("path", help="path to the implicit-signal monitor source")
    compile_cmd.add_argument("--emit", choices=("java", "python", "dsl"), default="java",
                             help="output language (default: java)")
    compile_cmd.add_argument("--lazy-broadcast", action="store_true",
                             help="emit lazy broadcasts in Java output (paper §6)")
    compile_cmd.add_argument("--no-commutativity", action="store_true",
                             help="disable the §4.3 broadcast-elimination improvement")
    compile_cmd.add_argument("--no-invariant", action="store_true",
                             help="run placement with I = true (ablation)")
    compile_cmd.add_argument("--trace", metavar="FILE", default=None,
                             help="write a deterministic Chrome-trace-event "
                                  "JSON flight recording (Perfetto-loadable)")
    compile_cmd.add_argument("--smt-timeout", type=_positive_float, default=None,
                             metavar="SECONDS",
                             help="per-SMT-query budget; an exhausted query "
                                  "returns UNKNOWN and the analyses degrade "
                                  "soundly (default: no budget)")

    explain_cmd = sub.add_parser("explain", help="show invariant and placement decisions")
    explain_cmd.add_argument("path", help="path to the implicit-signal monitor source")

    bench_cmd = sub.add_parser("bench", help="reproduce the paper's figures and tables")
    bench_cmd.add_argument("--figure", choices=("8", "9"), help="reproduce one figure")
    bench_cmd.add_argument("--table", choices=("1",), help="reproduce Table 1")
    bench_cmd.add_argument("--summary", action="store_true",
                           help="print the aggregate speedup summary")
    bench_cmd.add_argument("--benchmark", help="restrict to a single benchmark by name")
    bench_cmd.add_argument("--threads", type=int, nargs="+",
                           help="thread ladder override (default: per-benchmark)")
    bench_cmd.add_argument("--ops", type=int, default=None,
                           help="operations per thread (default: per-benchmark)")
    bench_cmd.add_argument("--workers", type=_positive_int, default=1,
                           help="compile the Table 1 suite on N processes "
                                "(default: 1 = in-process)")
    bench_cmd.add_argument("--seed", type=int, default=None,
                           help="reproducibly permute which thread runs which "
                                "operation sequence")
    bench_cmd.add_argument("--json", action="store_true",
                           help="emit machine-readable JSON instead of text tables")

    explore_cmd = sub.add_parser(
        "explore", help="systematically explore schedules of compiled monitors")
    explore_cmd.add_argument("--benchmark", action="append", default=None,
                             help="benchmark to explore (repeatable; default: all)")
    explore_cmd.add_argument("--discipline", default="expresso",
                             choices=("expresso", "explicit", "autosynch", "implicit"),
                             help="which compiled discipline to schedule "
                                  "(default: expresso)")
    explore_cmd.add_argument("--strategy", default="random",
                             choices=("dfs", "random", "pct"),
                             help="exploration strategy (default: random)")
    explore_cmd.add_argument("--schedules", type=_positive_int, default=200,
                             help="schedule budget per benchmark (default: 200)")
    explore_cmd.add_argument("--threads", type=_positive_int, default=3,
                             help="virtual threads per schedule (default: 3)")
    explore_cmd.add_argument("--ops", type=_positive_int, default=2,
                             help="operations per virtual thread (default: 2)")
    explore_cmd.add_argument("--seed", type=int, default=0,
                             help="base seed for random/pct walks (default: 0)")
    explore_cmd.add_argument("--max-steps", type=_positive_int, default=20_000,
                             help="per-schedule step bound (default: 20000)")
    explore_cmd.add_argument("--fuzz", type=_positive_int, default=None, metavar="N",
                             help="instead of the registry, generate and explore "
                                  "N random monitors end to end")
    explore_cmd.add_argument("--keep-going", action="store_true",
                             help="keep exploring after the first divergence")
    explore_cmd.add_argument("--workers", type=_positive_int, default=1,
                             help="shard the campaign over a process pool "
                                  "(default: 1 = in-process)")
    explore_cmd.add_argument("--no-por", dest="por", action="store_false",
                             help="disable partial-order reduction for the "
                                  "dfs strategy (plain enumeration; also "
                                  "disables semantic POR and symmetry)")
    explore_cmd.add_argument("--no-semantic-por", dest="semantic",
                             action="store_false",
                             help="ignore the SMT-proven semantic independence "
                                  "matrix and value-sensitive checks (fall "
                                  "back to syntactic footprints only)")
    explore_cmd.add_argument("--no-symmetry", dest="symmetry",
                             action="store_false",
                             help="disable wake-order canonicalization and "
                                  "symmetric-state merging")
    explore_cmd.add_argument("--replay", metavar="FILE", default=None,
                             help="re-run schedules from a JSON file written "
                                  "by --json (or a minimal "
                                  "{benchmark, schedule} object)")
    explore_cmd.add_argument("--witness", action="store_true",
                             help="attach a Definition 3.4 implicit-vs-"
                                  "explicit trace witness to every finding")
    explore_cmd.add_argument("--trace", metavar="FILE", default=None,
                             help="write a deterministic Chrome-trace-event "
                                  "JSON flight recording (per-schedule spans "
                                  "with prune provenance; shard-merged)")
    explore_cmd.add_argument("--resume", action="store_true",
                             help="skip benchmarks already completed in "
                                  "--store's frontier under the same "
                                  "configuration (a changed one starts fresh)")
    explore_cmd.add_argument("--json", action="store_true",
                             help="emit machine-readable JSON instead of text")
    _add_resilience_args(explore_cmd)
    _add_distrib_args(explore_cmd)

    fuzz_cmd = sub.add_parser(
        "fuzz", help="coverage-guided fuzzing campaign over generated monitors")
    fuzz_cmd.add_argument("--budget", type=_positive_int, default=2000,
                          help="total judged-schedule budget (default: 2000)")
    fuzz_cmd.add_argument("--seed", type=int, default=0,
                          help="campaign seed (default: 0)")
    fuzz_cmd.add_argument("--corpus-dir", default=None,
                          help="persistent corpus directory (default: "
                               "in-memory, nothing persisted)")
    fuzz_cmd.add_argument("--workers", type=_positive_int, default=1,
                          help="shard candidate evaluation over a process "
                               "pool (default: 1 = in-process)")
    fuzz_cmd.add_argument("--threads", type=_positive_int, default=3,
                          help="bootstrap workload threads (default: 3)")
    fuzz_cmd.add_argument("--ops", type=_positive_int, default=2,
                          help="bootstrap operations per thread (default: 2)")
    fuzz_cmd.add_argument("--per-run-budget", type=_positive_int, default=120,
                          help="schedule budget per candidate (default: 120)")
    fuzz_cmd.add_argument("--batch-size", type=_positive_int, default=8,
                          help="candidates per mutation round (default: 8)")
    fuzz_cmd.add_argument("--bootstrap", type=_positive_int, default=8,
                          help="generated corpus roots (default: 8)")
    fuzz_cmd.add_argument("--max-findings", type=_positive_int, default=10,
                          help="stop after this many deduplicated findings "
                               "(default: 10)")
    fuzz_cmd.add_argument("--strategy", default="dfs",
                          choices=("dfs", "random", "pct"),
                          help="per-candidate exploration strategy "
                               "(default: dfs)")
    fuzz_cmd.add_argument("--max-steps", type=_positive_int, default=20_000,
                          help="per-schedule step bound (default: 20000)")
    fuzz_cmd.add_argument("--trace", metavar="FILE", default=None,
                          help="write a deterministic Chrome-trace-event "
                               "JSON flight recording of the whole campaign")
    fuzz_cmd.add_argument("--resume", action="store_true",
                          help="continue the last checkpointed campaign in "
                               "--corpus-dir, rolling a torn journal tail "
                               "back to the last good record first")
    fuzz_cmd.add_argument("--repair", action="store_true",
                          help="roll --corpus-dir back to its last valid "
                               "journal record (truncate torn tail, drop "
                               "stale tmp files, rewrite state), then resume")
    fuzz_cmd.add_argument("--json", action="store_true",
                          help="emit machine-readable JSON instead of text")
    _add_resilience_args(fuzz_cmd)
    _add_distrib_args(fuzz_cmd)

    mutate_cmd = sub.add_parser(
        "mutate", help="drop every placed notification; each must be caught")
    mutate_cmd.add_argument("--benchmark", action="append", default=None,
                            help="benchmark to mutate (repeatable; default: all)")
    mutate_cmd.add_argument("--threads", type=_positive_int, default=3,
                            help="virtual threads per schedule (default: 3)")
    mutate_cmd.add_argument("--ops", type=_positive_int, default=2,
                            help="operations per virtual thread (default: 2)")
    mutate_cmd.add_argument("--schedules", type=_positive_int, default=20_000,
                            help="DFS budget per mutant (default: 20000)")
    mutate_cmd.add_argument("--workers", type=_positive_int, default=None,
                            help="process-pool size (default: one per CPU)")
    mutate_cmd.add_argument("--json", action="store_true",
                            help="emit machine-readable JSON instead of text")
    _add_resilience_args(mutate_cmd)

    profile_cmd = sub.add_parser(
        "profile", help="profile SMT solver time by phase, caller site and "
                        "formula hash across compiles")
    profile_cmd.add_argument("paths", nargs="*",
                             help="implicit-signal monitor source files")
    profile_cmd.add_argument("--benchmark", action="append", default=None,
                             help="registry benchmark to profile (repeatable)")
    profile_cmd.add_argument("--suite", action="store_true",
                             help="profile every registry benchmark")
    profile_cmd.add_argument("--top", type=_positive_int, default=10,
                             help="hot-query table size (default: 10)")
    profile_cmd.add_argument("--trace", metavar="FILE", default=None,
                             help="also write the session's Chrome-trace-"
                                  "event JSON (with real timestamps)")
    profile_cmd.add_argument("--json", action="store_true",
                             help="emit machine-readable JSON instead of text")

    lint_cmd = sub.add_parser(
        "lint", help="statically analyze monitors: placement cross-check, "
                     "concurrency smells, coop-emission shapes")
    lint_cmd.add_argument("paths", nargs="*",
                          help="implicit-signal monitor source files")
    lint_cmd.add_argument("--benchmark", action="append", default=None,
                          help="registry benchmark to lint (repeatable)")
    lint_cmd.add_argument("--suite", action="store_true",
                          help="lint every registry benchmark")
    lint_cmd.add_argument("--smt-timeout", type=_positive_float, default=None,
                          metavar="SECONDS",
                          help="per-SMT-query budget; UNKNOWN verdicts "
                               "suppress the affected advisory rather than "
                               "report an unproven one (default: no budget)")
    lint_cmd.add_argument("--json", action="store_true",
                          help="emit machine-readable JSON instead of text")

    list_cmd = sub.add_parser("list", help="list the built-in benchmarks")
    list_cmd.add_argument("--json", action="store_true",
                          help="emit machine-readable JSON (external tooling "
                               "and the report generator consume this)")

    status_cmd = sub.add_parser(
        "status", help="one-shot read-only snapshot of a shared campaign "
                       "store (units, leases, worker health, progress)")
    status_cmd.add_argument("--store", metavar="PATH", required=True,
                            help="the campaign store to inspect (opened "
                                 "read-only; never binds or repairs)")
    status_cmd.add_argument("--now", type=float, default=None,
                            metavar="EPOCH",
                            help="fix the clock for age computations "
                                 "(deterministic snapshots; default: wall "
                                 "clock)")
    status_cmd.add_argument("--json", action="store_true",
                            help="emit the byte-deterministic JSON snapshot")

    watch_cmd = sub.add_parser(
        "watch", help="poll a campaign store's status; nonzero exit when "
                      "the anomaly watchdog fires (stalled lease, no "
                      "progress)")
    watch_cmd.add_argument("--store", metavar="PATH", required=True,
                           help="the campaign store to watch (read-only)")
    watch_cmd.add_argument("--interval", type=_positive_float, default=2.0,
                           metavar="SECONDS",
                           help="poll period (default: 2)")
    watch_cmd.add_argument("--ticks", type=_positive_int, default=None,
                           metavar="N",
                           help="stop after N polls (default: run until "
                                "interrupted)")
    watch_cmd.add_argument("--stall-ticks", type=_positive_int, default=3,
                           metavar="N",
                           help="consecutive stalled polls before an "
                                "anomaly fires (default: 3)")
    watch_cmd.add_argument("--now", type=float, default=None, metavar="EPOCH",
                           help="simulate the clock from EPOCH (advances "
                                "--interval per tick, no sleeping — the "
                                "deterministic test mode)")

    report_cmd = sub.add_parser(
        "report", help="write a self-contained HTML+markdown run report "
                       "plus an OpenMetrics textfile")
    report_cmd.add_argument("--store", metavar="PATH", default=None,
                            help="campaign store to snapshot into the "
                                 "report (read-only)")
    report_cmd.add_argument("--profile", metavar="FILE", default=None,
                            help="`expresso profile --json` output: phase "
                                 "timings and hot SMT queries")
    report_cmd.add_argument("--trace", metavar="FILE", action="append",
                            default=None,
                            help="Chrome-trace recording to fold in "
                                 "(repeatable)")
    report_cmd.add_argument("--out", metavar="DIR", default="report",
                            help="output directory for report.md / "
                                 "report.html / metrics.prom "
                                 "(default: report/)")
    report_cmd.add_argument("--title", default="expresso run report",
                            help="report title")
    report_cmd.add_argument("--now", type=float, default=None,
                            metavar="EPOCH",
                            help="fix the clock for the store snapshot "
                                 "(deterministic reports)")

    stitch_cmd = sub.add_parser(
        "stitch", help="merge driver + helper Chrome traces into one "
                       "pid/unit-keyed timeline with logical clocks")
    stitch_cmd.add_argument("traces", nargs="+", metavar="TRACE",
                            help="input trace files, driver first (one pid "
                                 "lane per file)")
    stitch_cmd.add_argument("--out", metavar="FILE", required=True,
                            help="stitched trace output path")
    stitch_cmd.add_argument("--label", action="append", default=None,
                            help="process label per input, in order "
                                 "(default: file stems)")
    return parser


def _pipeline_from_args(args) -> ExpressoPipeline:
    return ExpressoPipeline(
        use_commutativity=not getattr(args, "no_commutativity", False),
        infer_invariant=not getattr(args, "no_invariant", False),
        smt_timeout=getattr(args, "smt_timeout", None),
    )


def _install_fault_plan(args) -> Optional[int]:
    """Install --fault-plan process-wide; an exit code on failure."""
    path = getattr(args, "fault_plan", None)
    if not path:
        return None
    from repro.resilience import FaultPlan, install_plan

    try:
        plan = FaultPlan.from_file(path)
    except (OSError, ValueError) as exc:
        print(f"error: cannot load fault plan {path}: {exc}", file=sys.stderr)
        return 2
    # The dispatcher ships the installed plan to every pool worker.
    install_plan(plan)
    return None


def _cmd_compile(args) -> int:
    source = Path(args.path).read_text()
    if args.trace:
        from repro import obs

        with obs.observe(trace=True) as session:
            result = _pipeline_from_args(args).compile(source)
        obs.write_trace(args.trace, [session.tracer.events],
                        session.registry.snapshot())
        print(f"// trace written to {args.trace}", file=sys.stderr)
    else:
        result = _pipeline_from_args(args).compile(source)
    if args.emit == "java":
        print(generate_java(result.explicit, lazy_broadcast=args.lazy_broadcast))
    elif args.emit == "python":
        print(generate_python_explicit(result.explicit))
    else:
        print(pretty_monitor(result.monitor))
    print("//", result.summary().replace("\n", "\n// "), file=sys.stderr)
    return 0


def _cmd_explain(args) -> int:
    source = Path(args.path).read_text()
    result = ExpressoPipeline().compile(source)
    print(result.summary())
    print()
    print("placement decisions:")
    for decision in result.placement.decisions:
        action = "no signal"
        if decision.needs_notification:
            kind = "broadcast" if decision.broadcast else "signal"
            marker = "?" if decision.conditional else "✓"
            action = f"{kind}[{marker}]"
            if decision.used_commutativity:
                action += " (via §4.3 commutativity)"
        print(f"  {decision.ccr_label:24s} -> {pretty(decision.predicate):48s} {action}")
    return 0


def _cmd_bench(args) -> int:
    ladder = tuple(args.threads) if args.threads else None
    if args.table == "1":
        start = time.perf_counter()
        rows = measure_compile_times(workers=args.workers)
        wall = time.perf_counter() - start
        if args.json:
            print(json.dumps({"table": 1, "wall_seconds": wall,
                              "rows": [dataclasses.asdict(row) for row in rows]},
                             indent=2))
            return 0
        print(render_table1(rows))
        mode = f"parallel x{args.workers}" if args.workers > 1 else "sequential"
        print(f"\nsuite wall clock: {wall:.2f}s ({mode})")
        return 0
    if args.benchmark:
        specs = [ALL_BENCHMARKS[args.benchmark]] if args.benchmark in ALL_BENCHMARKS else []
        if not specs:
            from repro.benchmarks_lib.registry import get_benchmark

            specs = [get_benchmark(args.benchmark)]
    elif args.figure == "8":
        specs = FIGURE8_BENCHMARKS
    elif args.figure == "9":
        specs = FIGURE9_BENCHMARKS
    else:
        specs = list(ALL_BENCHMARKS.values())
    all_series = []
    for spec in specs:
        series = figure_report(spec, thread_ladder=ladder or spec.thread_ladder[:3],
                               ops_per_thread=args.ops, seed=args.seed)
        all_series.append(series)
        if not args.json:
            print(render_figure_table(series))
            print()
    want_summary = args.summary or not (args.figure or args.benchmark)
    summary = speedup_summary(all_series) if want_summary else {}
    if args.json:
        print(json.dumps({"seed": args.seed,
                          "series": [series.to_dict() for series in all_series],
                          "speedup_summary": summary}, indent=2))
        return 0
    if want_summary:
        print("Expresso geometric-mean speedup over:")
        for baseline, speedup in sorted(summary.items()):
            print(f"  {baseline:12s} {speedup:.2f}x")
    return 0


def _replay_jobs_from_file(path: str) -> List[dict]:
    """Normalize a replay file into per-schedule replay jobs.

    Accepts the full ``explore --json`` document (``{"results": [...]}``), a
    single result object, or a minimal ``{"benchmark", "schedule"}`` object.
    Each job carries benchmark/discipline/threads/ops context plus one
    schedule (the minimized one for recorded failures).
    """
    document = json.loads(Path(path).read_text())
    results = (document.get("results", [document])
               if isinstance(document, dict) else list(document))
    jobs: List[dict] = []
    for result in results:
        context = {
            "benchmark": result.get("benchmark"),
            "discipline": result.get("discipline", "expresso"),
            "threads": result.get("threads", 3),
            "ops": result.get("ops", 2),
        }
        if context["benchmark"] is None:
            raise ValueError(f"replay entry without a benchmark name: {result}")
        if "schedule" in result:
            jobs.append({**context, "schedule": result["schedule"],
                         "kind": result.get("kind")})
        for failure in result.get("failures", []):
            schedule = failure.get("minimized") or failure.get("schedule") or []
            jobs.append({**context, "schedule": schedule,
                         "kind": failure.get("kind")})
    if not jobs:
        raise ValueError(f"{path} contains no schedules to replay")
    return jobs


def _cmd_replay(args) -> int:
    from repro.benchmarks_lib.registry import get_benchmark
    from repro.explore import coop_monitor_and_class, replay_schedule
    from repro.explore.trace import render_trace

    try:
        jobs = _replay_jobs_from_file(args.replay)
    except (OSError, ValueError) as exc:  # ValueError covers JSONDecodeError
        print(f"error: cannot replay {args.replay}: {exc}", file=sys.stderr)
        return 2
    any_failure = False
    payload = []
    for job in jobs:
        spec = get_benchmark(job["benchmark"])
        monitor, coop_class = coop_monitor_and_class(spec, job["discipline"])
        programs = spec.workload(job["threads"], job["ops"])
        run, verdict = replay_schedule(monitor, coop_class, programs,
                                       job["schedule"],
                                       max_steps=args.max_steps)
        any_failure = any_failure or verdict.is_failure
        payload.append({
            "benchmark": job["benchmark"],
            "discipline": job["discipline"],
            "schedule": list(job["schedule"]),
            "expected_kind": job.get("kind"),
            "outcome": run.outcome,
            "ok": verdict.ok,
            "kind": verdict.kind,
            "detail": verdict.detail,
        })
        if not args.json:
            status = "ok" if verdict.ok else f"{verdict.kind} — {verdict.detail}"
            print(f"{job['benchmark']}/{job['discipline']} "
                  f"schedule={list(job['schedule'])}: {status}")
            if verdict.is_failure:
                print(render_trace(run, programs, verdict))
    if args.json:
        print(json.dumps({"replays": payload, "ok": not any_failure}, indent=2))
    return 1 if any_failure else 0


def _cmd_explore(args) -> int:
    from repro.explore import explore_benchmark
    from repro.fuzz.generate import fuzz_pipeline
    from repro.explore.parallel import parallel_explore_benchmark

    if args.replay is not None:
        if args.fuzz is not None or args.benchmark:
            print("error: --replay re-runs recorded schedules; it cannot be "
                  "combined with --fuzz or --benchmark", file=sys.stderr)
            return 2
        return _cmd_replay(args)

    if args.trace and args.fuzz is not None:
        print("error: --trace records registry-benchmark explorations; "
              "use `expresso fuzz --trace` for campaign recordings",
              file=sys.stderr)
        return 2

    if args.resume and not args.store:
        print("error: --resume needs --store (the campaign store whose "
              "frontier to continue from)", file=sys.stderr)
        return 2
    if args.store and (args.fuzz is not None or args.replay):
        print("error: --store drives registry-benchmark campaigns; it "
              "cannot be combined with --fuzz or --replay", file=sys.stderr)
        return 2
    failed = _install_fault_plan(args)
    if failed is not None:
        return failed
    distrib, failed = _distrib_from_args(args)
    if failed is not None:
        return failed
    if args.helper:
        return _run_helper_mode(args, distrib)

    if args.fuzz is not None:
        if args.benchmark or args.discipline != "expresso":
            print("error: --fuzz generates its own monitors and always explores "
                  "the expresso-compiled placement; it cannot be combined with "
                  "--benchmark or --discipline", file=sys.stderr)
            return 2
        report = fuzz_pipeline(count=args.fuzz, seed=args.seed,
                               threads=args.threads, ops=args.ops,
                               strategy=args.strategy, budget=args.schedules,
                               max_steps=args.max_steps,
                               stop_on_failure=not args.keep_going,
                               witness=args.witness)
        if args.json:
            print(json.dumps(report.to_dict(), indent=2))
        else:
            print(render_explore_table(report.results))
            for name, error in report.compile_errors:
                print(f"\nCOMPILE ERROR in {name}: {error}")
            for result in report.results:
                for failure in result.failures:
                    print(f"\n{result.benchmark}: {failure.kind} — {failure.detail}")
                    print(failure.trace)
        return 0 if report.ok else 1

    if args.benchmark:
        from repro.benchmarks_lib.registry import get_benchmark

        specs = [get_benchmark(name) for name in args.benchmark]
    else:
        specs = list(ALL_BENCHMARKS.values())

    # --store records one frontier entry per finished benchmark, keyed by
    # the config fingerprint, so a killed campaign continues from the last
    # completed benchmark under --resume (a changed configuration has its
    # own namespace and starts fresh) — and dispatches shards through the
    # store's work-stealing queue.
    completed: dict = {}
    fingerprint = {
        "benchmarks": [spec.name for spec in specs],
        "discipline": args.discipline, "strategy": args.strategy,
        "schedules": args.schedules, "threads": args.threads,
        "ops": args.ops, "seed": args.seed, "max_steps": args.max_steps,
        "keep_going": args.keep_going, "por": args.por,
        "semantic": args.semantic, "symmetry": args.symmetry,
        "witness": args.witness,
    }
    cstore = None
    frontier_prefix = None
    if args.store:
        from repro.distrib import CampaignStore, mark_active
        from repro.explore.engine import ExplorationResult
        from repro.resilience import checksum_payload

        cstore = CampaignStore(args.store)
        frontier_prefix = f"explore/{checksum_payload(fingerprint)[:12]}"
        if args.resume:
            for spec in specs:
                record = cstore.get_frontier(f"{frontier_prefix}/{spec.name}")
                if record is not None:
                    completed[spec.name] = record
        mark_active(cstore, distrib)

    results = []
    for spec in specs:
        if spec.name in completed:
            results.append(ExplorationResult.from_dict(completed[spec.name]))
            continue
        if cstore is not None or args.workers > 1 or args.trace:
            # Traced runs always go through the parallel driver: its
            # sequential fallback records into the same shard surface, so
            # the emitted artifact is byte-identical across worker counts.
            # Shared-store runs do too: shards dispatch through the store's
            # work-stealing queue whatever the local worker count.
            results.append(parallel_explore_benchmark(
                spec, args.discipline, threads=args.threads, ops=args.ops,
                strategy=args.strategy, budget=args.schedules, seed=args.seed,
                max_steps=args.max_steps, stop_on_failure=not args.keep_going,
                por=args.por, semantic=args.semantic, symmetry=args.symmetry,
                witness=args.witness, trace=bool(args.trace),
                workers=args.workers, store=cstore, distrib=distrib))
        else:
            results.append(explore_benchmark(
                spec, args.discipline, threads=args.threads, ops=args.ops,
                strategy=args.strategy, budget=args.schedules, seed=args.seed,
                max_steps=args.max_steps, stop_on_failure=not args.keep_going,
                por=args.por, semantic=args.semantic, symmetry=args.symmetry,
                witness=args.witness))
        if cstore is not None:
            from repro.distrib import mark_active

            cstore.set_frontier(f"{frontier_prefix}/{spec.name}",
                                results[-1].to_dict())
            mark_active(cstore, distrib)   # refresh the liveness window
    if args.trace:
        from repro import obs

        shards = [events for result in results
                  for events in (result.trace_shards or [])]
        registry = obs.MetricsRegistry()
        for result in results:
            if result.metrics_snapshot:
                registry.merge(result.metrics_snapshot)
        obs.write_trace(args.trace, shards, registry.snapshot())
        if not args.json:
            print(f"trace written to {args.trace}", file=sys.stderr)
    distrib_counters = None
    if cstore is not None:
        from repro.distrib import mark_finished

        from repro import obs

        distrib_counters = cstore.counters()
        # Mirror the store's transactional counters into the session
        # registry under the same dotted names: one metrics namespace
        # whether counters came from the store or the flight recorder.
        obs.mirror_store_counters(distrib_counters)
        mark_finished(cstore)
        cstore.close()
    ok = all(result.ok for result in results)
    if args.json:
        payload = {"results": [result.to_dict() for result in results],
                   "ok": ok}
        if distrib_counters is not None:
            payload["distrib"] = {name: int(value) for name, value in
                                  sorted(distrib_counters.items())}
        print(json.dumps(payload, indent=2))
        return 0 if ok else 1
    print(render_explore_table(results))
    if distrib_counters:
        leases = ", ".join(f"{name.split('.')[-1]}={value}" for name, value
                           in sorted(distrib_counters.items())
                           if name.startswith("distrib.lease."))
        if leases:
            print(f"(store leases: {leases})", file=sys.stderr)
    for result in results:
        for failure in result.failures:
            print(f"\n{result.benchmark}/{result.discipline}: "
                  f"{failure.kind} — {failure.detail}")
            if failure.seed is not None:
                print(f"replay: strategy={failure.strategy} seed={failure.seed} "
                      f"schedule={list(failure.minimized)}")
            else:
                print(f"replay: schedule={list(failure.minimized)}")
            print(failure.trace)
    return 0 if ok else 1


def _cmd_fuzz(args) -> int:
    from repro.fuzz import (
        CorpusStore,
        CorruptCorpusError,
        FuzzConfig,
        run_campaign,
    )
    from repro.harness.report import render_fuzz_table

    failed = _install_fault_plan(args)
    if failed is not None:
        return failed
    distrib, failed = _distrib_from_args(args)
    if failed is not None:
        return failed
    if args.helper:
        return _run_helper_mode(args, distrib)
    if (args.resume or args.repair) and not args.corpus_dir:
        print("error: --resume/--repair need --corpus-dir (the campaign "
              "state to continue from)", file=sys.stderr)
        return 2
    store = CorpusStore(args.corpus_dir)
    if args.repair:
        try:
            summary = store.repair()
        except CorruptCorpusError as exc:
            print(f"error: cannot repair corpus at {exc.root}: {exc.detail}",
                  file=sys.stderr)
            return 2
        truncated = "truncated torn tail" if summary["journal_truncated"] \
            else "journal intact"
        restored = summary.get("entries_restored") or []
        rolled = (f", {len(restored)} admitted entry file(s) rolled "
                  f"forward from the journal" if restored else "")
        print(f"repaired {args.corpus_dir}: {summary['journal_records']} "
              f"journal record(s) kept ({truncated}), "
              f"{len(summary['tmp_removed'])} stale tmp file(s) removed"
              f"{rolled}",
              file=sys.stderr)
        if args.store:
            # The shared store gets the same treatment: every row carries a
            # content checksum, so corruption is detected and dropped (a
            # corrupt unit result merely re-runs that unit).
            from repro.distrib import CampaignStore

            cstore = CampaignStore(args.store)
            problems = cstore.verify()
            if problems:
                fixed = cstore.repair()
                print(f"store {args.store}: dropped "
                      f"{fixed['rows_dropped']} corrupt row(s) "
                      f"({len(fixed['problems'])} problem(s) found)",
                      file=sys.stderr)
            else:
                print(f"store {args.store}: verified clean", file=sys.stderr)
            cstore.close()
    config = FuzzConfig(
        seed=args.seed, budget=args.budget,
        per_run_budget=args.per_run_budget, threads=args.threads,
        ops=args.ops, batch_size=args.batch_size, bootstrap=args.bootstrap,
        max_findings=args.max_findings, workers=args.workers,
        strategy=args.strategy, max_steps=args.max_steps,
        trace=bool(args.trace), resume=args.resume or args.repair,
        distrib=distrib)
    from repro.distrib import StoreMismatchError

    try:
        result = run_campaign(config, store)
    except (CorruptCorpusError, StoreMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.trace:
        from repro import obs

        obs.write_trace(args.trace, result.trace_shards or [],
                        result.metrics_snapshot)
        print(f"trace written to {args.trace}", file=sys.stderr)
    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
        return 0 if result.ok else 1
    print(render_fuzz_table(result))
    print(f"(wall clock: {result.elapsed_seconds:.1f}s)", file=sys.stderr)
    for record in result.findings:
        print(f"\n{record['monitor']}: {record['kind']} — {record['detail']}")
        print(f"replay: schedule={list(record.get('minimized', []))}")
        if record.get("witness"):
            witness = record["witness"]
            print(f"Definition 3.4 witness: implicit_feasible="
                  f"{witness.get('implicit_feasible')} "
                  f"explicit_feasible={witness.get('explicit_feasible')}")
        print(record.get("trace", ""))
    for error in result.compile_errors:
        print(f"\nCOMPILE ERROR in {error['entry_id']}: {error['error']}")
    return 0 if result.ok else 1


def _cmd_mutate(args) -> int:
    from repro.benchmarks_lib.registry import get_benchmark
    from repro.explore.parallel import mutation_campaign

    failed = _install_fault_plan(args)
    if failed is not None:
        return failed
    distrib, failed = _distrib_from_args(args)
    if failed is not None:
        return failed
    if args.benchmark:
        specs = [get_benchmark(name) for name in args.benchmark]
    else:
        specs = list(ALL_BENCHMARKS.values())
    report = mutation_campaign(specs, threads=args.threads, ops=args.ops,
                               budget=args.schedules, workers=args.workers,
                               distrib=distrib)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
        return 0 if report.ok else 1
    header = "Mutation campaign (every dropped signal must be caught)"
    print(header)
    print("-" * len(header))
    for mutant in report.mutants:
        label, index = mutant["site"]
        tag = mutant["status"]
        if tag == "caught":
            tag = f"caught: {mutant['kind']}"
        elif tag == "benign":
            tag = "benign (exhausted without divergence)"
        print(f"{mutant['benchmark']:30s} {label}[{index}]".ljust(52)
              + f" {tag} [{mutant['schedules_run']} schedules]")
    summary = report.to_dict()
    print("-" * len(header))
    print(f"TOTAL: {summary['total']} mutants — {summary['caught']} caught, "
          f"{summary['benign']} benign, {summary['survived']} survived "
          f"({report.elapsed_seconds:.1f}s, {report.workers} workers)")
    for mutant in report.survived:
        print(f"\nSURVIVED: {mutant['benchmark']} {mutant['site']} — the "
              f"budget ran out before a counterexample was found")
    return 0 if report.ok else 1


def _cmd_profile(args) -> int:
    from repro import obs
    from repro.benchmarks_lib.registry import get_benchmark
    from repro.harness.report import render_profile_table
    from repro.smt.cache import FormulaCache

    targets: List[tuple] = []  # (name, source)
    for path in args.paths:
        try:
            targets.append((Path(path).stem, Path(path).read_text()))
        except OSError as exc:
            print(f"error: cannot read {path}: {exc}", file=sys.stderr)
            return 2
    if args.suite or not (targets or args.benchmark):
        # With no explicit target the whole suite is the interesting unit.
        targets.extend((name, spec.source)
                       for name, spec in ALL_BENCHMARKS.items())
    if args.benchmark:
        try:
            targets.extend((spec.name, spec.source)
                           for spec in map(get_benchmark, args.benchmark))
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2

    pipeline = ExpressoPipeline(cache=FormulaCache())
    compiles = []
    with obs.observe(trace=True, profile=True) as session:
        start = time.perf_counter()
        for name, source in targets:
            try:
                result = pipeline.compile(source)
            except Exception as exc:
                print(f"error: cannot compile {name}: {exc}", file=sys.stderr)
                return 2
            compiles.append((name, result))
        wall = time.perf_counter() - start
    phases, span_seconds = obs.phase_attribution(session.tracer.events)
    coverage = span_seconds / wall if wall > 0 else 0.0
    profiler = session.profiler
    if args.trace:
        obs.write_trace(args.trace, [session.tracer.events],
                        session.registry.snapshot(), deterministic=False)
        print(f"trace written to {args.trace}", file=sys.stderr)
    if args.json:
        print(json.dumps({
            "monitors": [name for name, _result in compiles],
            "wall_seconds": wall,
            "span_seconds": span_seconds,
            "span_coverage": coverage,
            "queries": profiler.total_queries,
            "solver_seconds": profiler.total_seconds,
            "phases": {name: dict(agg) for name, agg in sorted(phases.items())},
            "top": profiler.top(args.top),
            "by_caller": {name: dict(agg) for name, agg in
                          sorted(profiler.by_caller().items())},
            "metrics": session.registry.snapshot(),
        }, indent=2))
        return 0
    print(render_profile_table(profiler, phases, wall_seconds=wall,
                               top=args.top,
                               metrics=session.registry.snapshot()))
    print(f"span coverage: {span_seconds:.3f}s of {wall:.3f}s wall "
          f"({coverage:.1%}) across {len(compiles)} compile(s)")
    return 0


def _cmd_lint(args) -> int:
    from repro.analysis.lint import LintReport, check_coop_waits, merge_reports
    from repro.benchmarks_lib.registry import get_benchmark
    from repro.harness.report import render_lint_table
    from repro.smt.cache import FormulaCache

    targets: List[tuple] = []  # (name, source)
    for path in args.paths:
        try:
            targets.append((Path(path).stem, Path(path).read_text()))
        except OSError as exc:
            print(f"error: cannot read {path}: {exc}", file=sys.stderr)
            return 2
    if args.suite:
        targets.extend((name, spec.source)
                       for name, spec in ALL_BENCHMARKS.items())
    elif args.benchmark:
        try:
            targets.extend((spec.name, spec.source)
                           for spec in map(get_benchmark, args.benchmark))
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
    if not targets:
        print("error: nothing to lint — give monitor paths, --benchmark, "
              "or --suite", file=sys.stderr)
        return 2

    # Placement re-derivation dominates lint time; share the formula cache so
    # suite runs amortize the near-duplicate VCs across monitors.
    pipeline = ExpressoPipeline(cache=FormulaCache(),
                                smt_timeout=args.smt_timeout)
    reports: List[LintReport] = []
    for name, source in targets:
        try:
            result = pipeline.compile(source)
        except Exception as exc:
            print(f"error: cannot compile {name}: {exc}", file=sys.stderr)
            return 2
        findings = list(result.lint_report.findings)
        # The pipeline lints the placed monitor; the coop emission shape
        # check needs generated source, so the CLI adds it here.
        coop_source = generate_python_explicit(result.explicit, coop=True)
        findings.extend(check_coop_waits(coop_source))
        reports.append(LintReport(
            monitor=name,
            findings=tuple(findings),
            stats={
                "commute_static_skips":
                    result.solver_statistics.get("commute_static_skips", 0),
                "lint_seconds":
                    round(result.phase_seconds.get("lint", 0.0), 6),
            }))

    any_error = any(report.errors for report in reports)
    if args.json:
        print(json.dumps(merge_reports(reports), indent=2))
        return 1 if any_error else 0
    print(render_lint_table(reports))
    dirty = [report for report in reports if not report.clean]
    for report in dirty:
        print()
        print(report.render())
    return 1 if any_error else 0


def _cmd_list(args) -> int:
    if getattr(args, "json", False):
        print(json.dumps([{"name": name, "figure": spec.figure,
                           "origin": spec.origin}
                          for name, spec in ALL_BENCHMARKS.items()],
                         indent=2))
        return 0
    for name, spec in ALL_BENCHMARKS.items():
        print(f"{name:32s} figure {spec.figure}   ({spec.origin})")
    return 0


def _cmd_status(args) -> int:
    from repro.obs import console

    try:
        snapshot = console.snapshot_at(args.store, now=args.now)
    except console.ConsoleError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    for warning in snapshot["warnings"]:
        print(f"warning: {warning}", file=sys.stderr)
    if args.json:
        print(console.snapshot_json(snapshot))
    else:
        print(console.render_snapshot(snapshot))
    return 0


def _cmd_watch(args) -> int:
    from repro.obs import console

    try:
        return console.watch(args.store, ticks=args.ticks,
                             interval=args.interval, start=args.now,
                             stall_ticks=args.stall_ticks)
    except console.ConsoleError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        return 0


def _cmd_report(args) -> int:
    from repro.obs import console, report

    snapshot = None
    if args.store:
        try:
            snapshot = console.snapshot_at(args.store, now=args.now)
        except console.ConsoleError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        for warning in snapshot["warnings"]:
            print(f"warning: {warning}", file=sys.stderr)
    profile = report.load_json(args.profile) if args.profile else None
    traces = [report.load_json(path) for path in (args.trace or [])]
    model = report.build_report(snapshot=snapshot, profile=profile,
                                traces=traces or None,
                                trace_labels=args.trace, title=args.title)
    gauges = report.snapshot_gauges(snapshot) if snapshot else None
    paths = report.write_report(args.out, model, gauges=gauges)
    for kind in sorted(paths):
        print(f"{kind}: {paths[kind]}", file=sys.stderr)
    return 0


def _cmd_stitch(args) -> int:
    from repro.obs import stitch
    from repro.obs.validate import validate_trace

    if args.label and len(args.label) != len(args.traces):
        print(f"error: {len(args.traces)} trace(s) but "
              f"{len(args.label)} label(s)", file=sys.stderr)
        return 2
    try:
        document = stitch.stitch_files(args.traces, labels=args.label)
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    errors = validate_trace(document)
    if errors:
        print("error: stitched trace fails schema validation:",
              file=sys.stderr)
        for error in errors:
            print(f"  - {error}", file=sys.stderr)
        return 1
    stitch.write_stitched(args.out, document)
    events = len(document["traceEvents"])
    print(f"stitched {len(args.traces)} trace(s) -> {args.out} "
          f"({events} events)", file=sys.stderr)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "compile": _cmd_compile,
        "explain": _cmd_explain,
        "bench": _cmd_bench,
        "explore": _cmd_explore,
        "fuzz": _cmd_fuzz,
        "mutate": _cmd_mutate,
        "profile": _cmd_profile,
        "lint": _cmd_lint,
        "list": _cmd_list,
        "status": _cmd_status,
        "watch": _cmd_watch,
        "report": _cmd_report,
        "stitch": _cmd_stitch,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
