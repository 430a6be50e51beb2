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

Each subparser carries its handler (``set_defaults(handler=...)``), and each
handler imports what it runs.  Parsing argv loads no other ``repro`` module,
so ``--help``, ``list``, ``status``, ``watch``, ``report`` and ``stitch``
start without loading the compiler.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, List, Optional, Sequence


class _UsageError(Exception):
    """A mistake in the command line or its inputs: :func:`main` prints
    ``error: MESSAGE`` and exits 2, the usage-error code every command
    shares."""


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


#: The compiled disciplines ``explore`` schedules.
_DISCIPLINES = ("expresso", "explicit", "autosynch", "implicit")

#: ``explore --reduction`` levels -> (por, semantic, symmetry).
_REDUCTIONS = {
    "none": (False, False, False),
    "syntactic": (True, False, False),
    "semantic": (True, True, False),
    "full": (True, True, True),
}


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


def _add_json_arg(cmd: argparse.ArgumentParser) -> None:
    """``--json`` of explore, fuzz, mutate, profile and lint."""
    cmd.add_argument("--json", action="store_true",
                     help="emit machine-readable JSON instead of text")


def _add_shape_args(cmd: argparse.ArgumentParser) -> None:
    """The virtual workload of one explored schedule (explore, mutate)."""
    cmd.add_argument("--threads", type=_positive_int, default=3,
                     help="virtual threads per schedule (default: 3)")
    cmd.add_argument("--ops", type=_positive_int, default=2,
                     help="operations per virtual thread (default: 2)")


def _add_max_steps_arg(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument("--max-steps", type=_positive_int, default=20_000,
                     help="per-schedule step bound (default: 20000)")


def _add_path_arg(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument("path", help="path to the implicit-signal monitor source")


def _add_monitor_targets(cmd: argparse.ArgumentParser, verb: str) -> None:
    """The monitors profile and lint work on; :func:`_monitor_targets`
    resolves them."""
    cmd.add_argument("paths", nargs="*",
                     help="implicit-signal monitor source files")
    cmd.add_argument("--benchmark", action="append", default=None,
                     help=f"registry benchmark to {verb} (repeatable)")
    cmd.add_argument("--suite", action="store_true",
                     help=f"{verb} every registry benchmark")


def _resolve_benchmarks(names: Optional[Sequence[str]]):
    """Registry specs for *names*, or the whole suite when there are none.

    An unknown name is a usage error: ``error: unknown benchmark ...``.
    """
    from repro.benchmarks_lib import ALL_BENCHMARKS, get_benchmark

    try:
        return [get_benchmark(name) for name in names or ALL_BENCHMARKS]
    except KeyError as exc:
        raise _UsageError(exc.args[0]) from None


def _read_sources(paths: Sequence[str]) -> List[tuple]:
    """``(stem, source)`` per monitor source file; an unreadable one is a
    usage error: ``error: cannot read PATH: ...``."""
    targets = []
    for path in paths:
        try:
            targets.append((Path(path).stem, Path(path).read_text()))
        except OSError as exc:
            raise _UsageError(f"cannot read {path}: {exc}") from None
    return targets


def _compile(pipeline, name: str, source: str):
    """*pipeline*'s result for *source*; a source that fails to compile is
    a usage error: ``error: cannot compile NAME: ...``."""
    try:
        return pipeline.compile(source)
    except Exception as exc:
        raise _UsageError(f"cannot compile {name}: {exc}") from None


def _monitor_targets(args, default_suite: bool = False) -> List[tuple]:
    """``(name, source)`` per monitor of the profile/lint target group:
    every path, then every registry benchmark (``--suite``, or nothing
    named at all when *default_suite*) or each ``--benchmark``."""
    targets = _read_sources(args.paths)
    if args.suite or args.benchmark or (default_suite and not targets):
        names = None if args.suite else args.benchmark
        targets.extend((spec.name, spec.source)
                       for spec in _resolve_benchmarks(names))
    return targets


def _campaign_preamble(args):
    """What explore, fuzz and mutate do first; ``(distrib, exit_code)``.

    Installs ``--fault-plan`` process-wide (the dispatcher ships it to every
    pool worker) and builds the DistribConfig from the flags.  With
    ``--helper`` the command works the shared store until the driver
    finishes, and *exit_code* is set: the command is done.  A traced helper
    records one ``distrib.unit`` span per unit it evaluated, which
    ``expresso stitch`` merges with the driver's trace.
    """
    from repro.distrib import DistribConfig, run_helper

    if args.fault_plan:
        from repro.resilience import FaultPlan, install_plan

        try:
            install_plan(FaultPlan.from_file(args.fault_plan))
        except (OSError, ValueError) as exc:
            raise _UsageError(f"cannot load fault plan {args.fault_plan}: "
                              f"{exc}") from None
    helper = getattr(args, "helper", False)
    if helper and not args.store:
        raise _UsageError("--helper needs --store (the shared campaign store "
                          "to work)")
    lease = ({"lease_ttl": args.lease_ttl,
              "heartbeat_interval": args.heartbeat_interval}
             if hasattr(args, "lease_ttl") else {})
    try:
        distrib = DistribConfig(store_path=getattr(args, "store", None),
                                deadline=args.job_deadline,
                                max_attempts=args.job_retries, **lease)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    if not helper:
        return distrib, None
    with _traced(args):
        completed = run_helper(args.store, distrib,
                               wait_for_store=args.helper_wait)
    print(f"helper finished: {completed} unit(s) completed",
          file=sys.stderr)
    return distrib, 0


@contextmanager
def _traced(args) -> Iterator[None]:
    """One observability session around a command's run; with ``--trace``
    it records, and the trace is written once the run returns."""
    from repro import obs

    with obs.observe(trace=bool(args.trace)) as session:
        yield
    if args.trace:
        session.write_trace(args.trace)
        print(f"trace written to {args.trace}", file=sys.stderr)


def _store_snapshot(args):
    """The read-only snapshot of ``--store`` at ``--now`` (status, report);
    its warnings go to stderr."""
    from repro.obs import console

    try:
        snapshot = console.snapshot_at(args.store, now=args.now)
    except console.ConsoleError as error:
        raise _UsageError(str(error)) from None
    for warning in snapshot["warnings"]:
        print(f"warning: {warning}", file=sys.stderr)
    return snapshot


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="expresso",
        description="Symbolic signal placement for implicit-signal monitors "
                    "(reproduction of Ferles et al., PLDI 2018)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compile_cmd = sub.add_parser("compile", help="compile a monitor to explicit-signal code")
    compile_cmd.set_defaults(handler=_cmd_compile)
    _add_path_arg(compile_cmd)
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
    explain_cmd.set_defaults(handler=_cmd_explain)
    _add_path_arg(explain_cmd)

    bench_cmd = sub.add_parser("bench", help="reproduce the paper's figures and tables")
    bench_cmd.set_defaults(handler=_cmd_bench)
    bench_cmd.add_argument("--figure", choices=("8", "9"), help="reproduce one figure")
    bench_cmd.add_argument("--table", choices=("1",), help="reproduce Table 1")
    bench_cmd.add_argument("--summary", action="store_true",
                           help="print the aggregate speedup summary")
    bench_cmd.add_argument("--benchmark", help="restrict to a single benchmark by name")
    bench_cmd.add_argument("--threads", type=_positive_int, nargs="+",
                           help="thread ladder override (default: per-benchmark)")
    bench_cmd.add_argument("--ops", type=_positive_int, default=None,
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
    explore_cmd.set_defaults(handler=_cmd_explore)
    explore_cmd.add_argument("--benchmark", action="append", default=None,
                             help="benchmark to explore (repeatable; default: all)")
    explore_cmd.add_argument("--discipline", default="expresso",
                             choices=_DISCIPLINES,
                             help="which compiled discipline to schedule "
                                  "(default: expresso)")
    explore_cmd.add_argument("--strategy", default="random",
                             choices=("dfs", "random", "pct"),
                             help="exploration strategy (default: random)")
    explore_cmd.add_argument("--schedules", type=_positive_int, default=200,
                             help="schedule budget per benchmark (default: 200)")
    _add_shape_args(explore_cmd)
    explore_cmd.add_argument("--seed", type=int, default=0,
                             help="base seed for random/pct walks (default: 0)")
    _add_max_steps_arg(explore_cmd)
    explore_cmd.add_argument("--keep-going", action="store_true",
                             help="keep exploring after the first divergence")
    explore_cmd.add_argument("--workers", type=_positive_int, default=1,
                             help="split random/pct budgets into seed blocks "
                                  "over a process pool; a dfs exploration "
                                  "stays one work unit per benchmark "
                                  "(default: 1 = in-process)")
    explore_cmd.add_argument("--reduction", choices=tuple(_REDUCTIONS),
                             default="full",
                             help="dfs state-space reduction: none (plain "
                                  "enumeration), syntactic (partial-order "
                                  "reduction over method footprints), "
                                  "semantic (plus the SMT-proven independence "
                                  "matrix and value-sensitive checks), full "
                                  "(plus symmetry: swaps of threads with "
                                  "identical programs and index permutations "
                                  "of array-indexed monitors) (default: full)")
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
    _add_json_arg(explore_cmd)
    _add_resilience_args(explore_cmd)
    _add_distrib_args(explore_cmd)

    fuzz_cmd = sub.add_parser(
        "fuzz", help="coverage-guided fuzzing campaign over generated monitors")
    fuzz_cmd.set_defaults(handler=_cmd_fuzz)
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
    _add_max_steps_arg(fuzz_cmd)
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
    _add_json_arg(fuzz_cmd)
    _add_resilience_args(fuzz_cmd)
    _add_distrib_args(fuzz_cmd)

    mutate_cmd = sub.add_parser(
        "mutate", help="drop every placed notification; each must be caught")
    mutate_cmd.set_defaults(handler=_cmd_mutate)
    mutate_cmd.add_argument("--benchmark", action="append", default=None,
                            help="benchmark to mutate (repeatable; default: all)")
    _add_shape_args(mutate_cmd)
    mutate_cmd.add_argument("--schedules", type=_positive_int, default=20_000,
                            help="DFS budget per mutant (default: 20000)")
    mutate_cmd.add_argument("--workers", type=_positive_int, default=None,
                            help="process-pool size (default: one per CPU)")
    _add_json_arg(mutate_cmd)
    _add_resilience_args(mutate_cmd)

    profile_cmd = sub.add_parser(
        "profile", help="profile SMT solver time by phase, caller site and "
                        "formula hash across compiles")
    profile_cmd.set_defaults(handler=_cmd_profile)
    _add_monitor_targets(profile_cmd, "profile")
    profile_cmd.add_argument("--top", type=_positive_int, default=10,
                             help="hot-query table size (default: 10)")
    profile_cmd.add_argument("--trace", metavar="FILE", default=None,
                             help="also write the session's Chrome-trace-"
                                  "event JSON (with real timestamps)")
    _add_json_arg(profile_cmd)

    lint_cmd = sub.add_parser(
        "lint", help="statically analyze monitors: placement cross-check, "
                     "concurrency smells, coop-emission shapes")
    lint_cmd.set_defaults(handler=_cmd_lint)
    _add_monitor_targets(lint_cmd, "lint")
    lint_cmd.add_argument("--smt-timeout", type=_positive_float, default=None,
                          metavar="SECONDS",
                          help="per-SMT-query budget; UNKNOWN verdicts "
                               "suppress the affected advisory rather than "
                               "report an unproven one (default: no budget)")
    _add_json_arg(lint_cmd)

    list_cmd = sub.add_parser("list", help="list the built-in benchmarks")
    list_cmd.set_defaults(handler=_cmd_list)
    list_cmd.add_argument("--json", action="store_true",
                          help="emit machine-readable JSON (external tooling "
                               "and the report generator consume this)")

    status_cmd = sub.add_parser(
        "status", help="one-shot read-only snapshot of a shared campaign "
                       "store (units, leases, worker health, progress)")
    status_cmd.set_defaults(handler=_cmd_status)
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
    watch_cmd.set_defaults(handler=_cmd_watch)
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
    report_cmd.set_defaults(handler=_cmd_report)
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
    stitch_cmd.set_defaults(handler=_cmd_stitch)
    stitch_cmd.add_argument("traces", nargs="+", metavar="TRACE",
                            help="input trace files, driver first (one pid "
                                 "lane per file)")
    stitch_cmd.add_argument("--out", metavar="FILE", required=True,
                            help="stitched trace output path")
    stitch_cmd.add_argument("--label", action="append", default=None,
                            help="process label per input, in order "
                                 "(default: file stems)")
    return parser


def _cmd_compile(args) -> int:
    from repro.codegen import generate_java, generate_python_explicit
    from repro.lang.pretty import pretty_monitor
    from repro.placement.pipeline import ExpressoPipeline

    ((name, source),) = _read_sources([args.path])
    with _traced(args):
        result = _compile(ExpressoPipeline(
            use_commutativity=not args.no_commutativity,
            infer_invariant=not args.no_invariant,
            smt_timeout=args.smt_timeout), name, source)
    if args.emit == "java":
        print(generate_java(result.explicit, lazy_broadcast=args.lazy_broadcast))
    elif args.emit == "python":
        print(generate_python_explicit(result.explicit))
    else:
        print(pretty_monitor(result.monitor))
    print("//", result.summary().replace("\n", "\n// "), file=sys.stderr)
    return 0


def _cmd_explain(args) -> int:
    from repro.logic.pretty import pretty
    from repro.placement.pipeline import ExpressoPipeline

    ((name, source),) = _read_sources([args.path])
    result = _compile(ExpressoPipeline(), name, source)
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
    from repro.benchmarks_lib import FIGURE8_BENCHMARKS, FIGURE9_BENCHMARKS
    from repro.harness import report

    ladder = tuple(args.threads) if args.threads else None
    if args.table == "1":
        import dataclasses

        from repro.harness.compile_time import measure_compile_times

        start = time.perf_counter()
        rows = measure_compile_times(workers=args.workers)
        wall = time.perf_counter() - start
        if args.json:
            print(json.dumps({"table": 1, "wall_seconds": wall,
                              "rows": [dataclasses.asdict(row) for row in rows]},
                             indent=2))
            return 0
        print(report.render_table1(rows))
        mode = f"parallel x{args.workers}" if args.workers > 1 else "sequential"
        print(f"\nsuite wall clock: {wall:.2f}s ({mode})")
        return 0
    if args.benchmark:
        specs = _resolve_benchmarks([args.benchmark])
    elif args.figure == "8":
        specs = FIGURE8_BENCHMARKS
    elif args.figure == "9":
        specs = FIGURE9_BENCHMARKS
    else:
        specs = _resolve_benchmarks(None)
    all_series = []
    for spec in specs:
        series = report.figure_report(
            spec, thread_ladder=ladder or spec.thread_ladder[:3],
            ops_per_thread=args.ops, seed=args.seed)
        all_series.append(series)
        if not args.json:
            print(report.render_figure_table(series))
            print()
    want_summary = args.summary or not (args.figure or args.benchmark)
    summary = report.speedup_summary(all_series) if want_summary else {}
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
    Each job carries benchmark/discipline/threads/ops context, the
    benchmark's registry spec and one schedule (the minimized one for
    recorded failures).  An unknown benchmark or discipline is a ValueError.
    """
    from repro.benchmarks_lib import get_benchmark

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
        if context["discipline"] not in _DISCIPLINES:
            raise ValueError(f"unknown discipline {context['discipline']!r}; "
                             f"known: {list(_DISCIPLINES)}")
        try:
            context["spec"] = get_benchmark(context["benchmark"])
        except KeyError as exc:
            raise ValueError(exc.args[0]) from None
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
    from repro.explore import coop_monitor_and_class, replay_schedule
    from repro.explore.trace import render_trace

    try:
        jobs = _replay_jobs_from_file(args.replay)
    except (OSError, ValueError) as exc:  # ValueError covers JSONDecodeError
        raise _UsageError(f"cannot replay {args.replay}: {exc}") from None
    any_failure = False
    payload = []
    for job in jobs:
        spec = job["spec"]
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
    if args.replay is not None:
        if args.benchmark:
            raise _UsageError("--replay re-runs recorded schedules; it cannot "
                              "be combined with --benchmark")
        return _cmd_replay(args)

    distrib, helped = _campaign_preamble(args)
    if helped is not None:
        return helped
    specs = _resolve_benchmarks(args.benchmark)

    from repro.distrib import CampaignStore, mark_active, mark_finished
    from repro.explore.parallel import parallel_explore_benchmark
    from repro.harness.report import render_explore_table

    # Without --store, one worker (or any dfs run) explores in-process.
    # With --store each shard — a seed block, or a benchmark's whole dfs
    # search — is a work unit keyed by the configuration, so a rerun
    # against the same store collects the finished shards' stored results
    # and steals a dead owner's shard once its lease expires; a changed
    # configuration starts fresh.
    cstore = None
    if args.store:
        cstore = CampaignStore(args.store)
        mark_active(cstore, distrib)

    por, semantic, symmetry = _REDUCTIONS[args.reduction]
    results = []
    with _traced(args):
        for spec in specs:
            results.append(parallel_explore_benchmark(
                spec, args.discipline, threads=args.threads, ops=args.ops,
                strategy=args.strategy, budget=args.schedules,
                seed=args.seed, max_steps=args.max_steps,
                stop_on_failure=not args.keep_going, por=por,
                semantic=semantic, symmetry=symmetry, witness=args.witness,
                workers=args.workers, store=cstore, distrib=distrib))
            if cstore is not None:
                mark_active(cstore, distrib)   # refresh the liveness window
    distrib_counters = None
    if cstore is not None:
        distrib_counters = cstore.counters()
        mark_finished(cstore)
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
    distrib, helped = _campaign_preamble(args)
    if helped is not None:
        return helped
    if (args.resume or args.repair) and not args.corpus_dir:
        raise _UsageError("--resume/--repair need --corpus-dir (the campaign "
                          "state to continue from)")

    from repro.distrib import CampaignStore, StoreMismatchError
    from repro.fuzz import (
        CorpusStore,
        CorruptCorpusError,
        FuzzConfig,
        run_campaign,
    )
    from repro.harness.report import render_fuzz_table

    store = CorpusStore(args.corpus_dir)
    if args.repair:
        try:
            summary = store.repair()
        except CorruptCorpusError as exc:
            raise _UsageError(f"cannot repair corpus at {exc.root}: "
                              f"{exc.detail}") from None
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
        resume=args.resume or args.repair, distrib=distrib)
    try:
        with _traced(args):
            result = run_campaign(config, store)
    except (CorruptCorpusError, StoreMismatchError) as exc:
        raise _UsageError(str(exc)) from None
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
    distrib, _helped = _campaign_preamble(args)
    specs = _resolve_benchmarks(args.benchmark)

    from repro.explore.parallel import mutation_campaign
    from repro.harness.report import render_mutation_table

    report = mutation_campaign(specs, threads=args.threads, ops=args.ops,
                               budget=args.schedules, workers=args.workers,
                               distrib=distrib)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
        return 0 if report.ok else 1
    print(render_mutation_table(report))
    return 0 if report.ok else 1


def _cmd_profile(args) -> int:
    from repro import obs
    from repro.harness.report import render_profile_table
    from repro.placement.pipeline import ExpressoPipeline
    from repro.smt.cache import FormulaCache

    # With no explicit target the whole suite is the interesting unit.
    targets = _monitor_targets(args, default_suite=True)
    pipeline = ExpressoPipeline(cache=FormulaCache())
    compiles = []
    with obs.observe(trace=True, profile=True) as session:
        start = time.perf_counter()
        for name, source in targets:
            compiles.append((name, _compile(pipeline, name, source)))
        wall = time.perf_counter() - start
    phases, span_seconds = obs.phase_attribution(session.tracer.events)
    coverage = span_seconds / wall if wall > 0 else 0.0
    profiler = session.profiler
    # The SAT core's clause adds, conflicts, theory checks and lemmas are
    # per-solver counters; each compile reports its own share.
    metrics = session.registry.snapshot()
    for key in ("sat_clauses", "sat_conflicts", "theory_checks", "theory_lemmas"):
        metrics[obs.SOLVER_METRIC_NAMES[key]] = sum(
            result.solver_statistics.get(key, 0) for _name, result in compiles)
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
            "metrics": metrics,
        }, indent=2))
        return 0
    print(render_profile_table(profiler, phases, wall_seconds=wall,
                               top=args.top, metrics=metrics))
    print(f"span coverage: {span_seconds:.3f}s of {wall:.3f}s wall "
          f"({coverage:.1%}) across {len(compiles)} compile(s)")
    return 0


def _cmd_lint(args) -> int:
    targets = _monitor_targets(args)
    if not targets:
        raise _UsageError("nothing to lint — give monitor paths, --benchmark, "
                          "or --suite")

    from repro.analysis.lint import LintReport, check_coop_waits, merge_reports
    from repro.codegen import generate_python_explicit
    from repro.harness.report import render_lint_table
    from repro.placement.pipeline import ExpressoPipeline
    from repro.smt.cache import FormulaCache

    # Placement re-derivation dominates lint time; share the formula cache so
    # suite runs amortize the near-duplicate VCs across monitors.
    pipeline = ExpressoPipeline(cache=FormulaCache(),
                                smt_timeout=args.smt_timeout)
    reports: List[LintReport] = []
    for name, source in targets:
        result = _compile(pipeline, name, source)
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
    from repro.benchmarks_lib import ALL_BENCHMARKS

    if args.json:
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

    snapshot = _store_snapshot(args)
    print(console.snapshot_json(snapshot) if args.json
          else console.render_snapshot(snapshot))
    return 0


def _cmd_watch(args) -> int:
    from repro.obs import console

    try:
        return console.watch(args.store, ticks=args.ticks,
                             interval=args.interval, start=args.now,
                             stall_ticks=args.stall_ticks)
    except console.ConsoleError as error:
        raise _UsageError(str(error)) from None
    except KeyboardInterrupt:
        return 0


def _read_json_object(path: str) -> dict:
    """A JSON object artifact; a missing, unreadable or malformed file is a
    usage error: ``error: cannot read PATH: ...``."""
    try:
        document = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # ValueError covers JSONDecodeError
        raise _UsageError(f"cannot read {path}: {exc}") from None
    if not isinstance(document, dict):
        raise _UsageError(f"cannot read {path}: not a JSON object")
    return document


def _cmd_report(args) -> int:
    from repro.obs import report

    snapshot = _store_snapshot(args) if args.store else None
    profile = _read_json_object(args.profile) if args.profile else None
    traces = [_read_json_object(path) for path in (args.trace or [])]
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
        raise _UsageError(f"{len(args.traces)} trace(s) but "
                          f"{len(args.label)} label(s)")
    try:
        document = stitch.stitch_files(args.traces, labels=args.label)
    except (OSError, ValueError) as error:
        raise _UsageError(str(error)) from None
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
    try:
        return args.handler(args)
    except _UsageError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
