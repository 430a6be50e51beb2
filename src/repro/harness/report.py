"""Figure/table assembly and text rendering.

The report functions turn raw measurements into exactly the series the paper
plots: for every benchmark a table of ms/op per thread count for the
Expresso / AutoSynch / Explicit series (plus the naive implicit baseline this
reproduction adds), the Table 1 compilation times, and the headline
"Expresso is X× faster than AutoSynch on average" summary.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.benchmarks_lib.spec import BenchmarkSpec
from repro.harness.compile_time import CompileTimeRow
from repro.harness.saturation import (
    DISCIPLINES,
    SaturationMeasurement,
    sweep_thread_ladder,
)


@dataclass
class FigureSeries:
    """One benchmark's plot: ms/op per (discipline, thread count)."""

    benchmark: str
    figure: str
    thread_counts: Tuple[int, ...]
    ms_per_op: Dict[str, Dict[int, float]]
    metrics: Dict[str, Dict[int, Dict[str, int]]] = field(default_factory=dict)

    def series(self, discipline: str) -> List[float]:
        return [self.ms_per_op[discipline][threads] for threads in self.thread_counts]

    def speedup_over(self, baseline: str, target: str = "expresso") -> float:
        """Geometric-mean speedup of *target* over *baseline* across the ladder."""
        ratios = []
        for threads in self.thread_counts:
            target_value = self.ms_per_op[target][threads]
            baseline_value = self.ms_per_op[baseline][threads]
            if target_value > 0:
                ratios.append(baseline_value / target_value)
        if not ratios:
            return 1.0
        return statistics.geometric_mean(ratios)

    def to_dict(self) -> dict:
        """A JSON-ready view (``expresso bench --json``)."""
        return {
            "benchmark": self.benchmark,
            "figure": self.figure,
            "thread_counts": list(self.thread_counts),
            "ms_per_op": {discipline: {str(threads): value
                                       for threads, value in series.items()}
                          for discipline, series in self.ms_per_op.items()},
            "metrics": {discipline: {str(threads): dict(counters)
                                     for threads, counters in series.items()}
                        for discipline, series in self.metrics.items()},
        }


def figure_report(spec: BenchmarkSpec, disciplines: Sequence[str] = DISCIPLINES,
                  thread_ladder: Optional[Sequence[int]] = None,
                  ops_per_thread: Optional[int] = None,
                  seed: Optional[int] = None) -> FigureSeries:
    """Measure one benchmark across its thread ladder and assemble its series."""
    measurements = sweep_thread_ladder(spec, disciplines, thread_ladder, ops_per_thread,
                                       seed=seed)
    ladder = tuple(thread_ladder) if thread_ladder is not None else spec.thread_ladder
    ms_per_op: Dict[str, Dict[int, float]] = {d: {} for d in disciplines}
    metrics: Dict[str, Dict[int, Dict[str, int]]] = {d: {} for d in disciplines}
    for measurement in measurements:
        ms_per_op[measurement.discipline][measurement.threads] = measurement.ms_per_op
        metrics[measurement.discipline][measurement.threads] = measurement.metrics
    return FigureSeries(spec.name, spec.figure, tuple(ladder), ms_per_op, metrics)


def render_figure_table(series: FigureSeries, unit_scale: float = 1000.0) -> str:
    """Render one benchmark's series as a text table (µs/op by default)."""
    unit = "us/op" if unit_scale == 1000.0 else "ms/op"
    disciplines = list(series.ms_per_op)
    header = f"{series.benchmark}  (Figure {series.figure}, {unit})"
    lines = [header, "-" * len(header)]
    column_header = "threads".ljust(10) + "".join(d.ljust(14) for d in disciplines)
    lines.append(column_header)
    for threads in series.thread_counts:
        row = str(threads).ljust(10)
        for discipline in disciplines:
            value = series.ms_per_op[discipline][threads] * unit_scale
            row += f"{value:.2f}".ljust(14)
        lines.append(row)
    return "\n".join(lines)


def render_table1(rows: Sequence[CompileTimeRow]) -> str:
    """Render Table 1 (compilation times) as text.

    Includes the solver-cache columns (hits / queries per compile) and a
    totals row so batch runs surface aggregate compile time and hit rate.
    """
    header = "Table 1: Expresso compilation time per benchmark"
    lines = [header, "-" * len(header)]
    lines.append("Benchmark".ljust(32) + "Time (sec.)".ljust(14) +
                 "VCs".ljust(8) + "Cache".ljust(14) + "Notifications")
    for row in rows:
        cache_column = f"{row.cache_hits}/{row.cache_hits + row.cache_misses}"
        lines.append(
            row.benchmark.ljust(32)
            + f"{row.seconds:.2f}".ljust(14)
            + str(row.validity_queries).ljust(8)
            + cache_column.ljust(14)
            + f"{row.notifications} ({row.broadcasts} broadcasts)"
        )
    total_seconds = sum(row.seconds for row in rows)
    total_hits = sum(row.cache_hits for row in rows)
    total_queries = total_hits + sum(row.cache_misses for row in rows)
    hit_rate = f" ({total_hits / total_queries:.0%} hit rate)" if total_queries else ""
    lines.append("-" * len(header))
    lines.append(
        "TOTAL".ljust(32)
        + f"{total_seconds:.2f}".ljust(14)
        + str(sum(row.validity_queries for row in rows)).ljust(8)
        + f"{total_hits}/{total_queries}".ljust(14)
        + hit_rate.strip()
    )
    return "\n".join(lines)


def render_explore_table(results: Sequence) -> str:
    """Render exploration campaign summaries as a text table.

    Accepts :class:`repro.explore.engine.ExplorationResult` rows (typed
    loosely to keep the harness importable without the explore subsystem).
    """
    header = "Schedule exploration summary"
    lines = [header, "-" * len(header)]
    lines.append("Benchmark".ljust(30) + "Discipline".ljust(12) + "Strategy".ljust(10)
                 + "Schedules".ljust(11) + "Sched/s".ljust(10)
                 + "Completed".ljust(11) + "Stalls".ljust(8)
                 + "Pruned".ljust(8) + "POR-skip".ljust(10)
                 + "Sym-skip".ljust(10) + "Verdict")
    failures = 0
    for result in results:
        verdict = "ok"
        if result.failures:
            failures += len(result.failures)
            verdict = ", ".join(sorted({f.kind for f in result.failures}))
        if result.exhausted:
            verdict += " (exhausted)"
        elif getattr(result, "budget_exhausted", False):
            verdict += " (budget)"
        lines.append(
            result.benchmark.ljust(30)
            + result.discipline.ljust(12)
            + result.strategy.ljust(10)
            + str(result.schedules_run).ljust(11)
            + f"{result.schedules_per_second:.0f}".ljust(10)
            + str(result.completed).ljust(11)
            + str(result.stalls).ljust(8)
            + str(result.pruned).ljust(8)
            + str(getattr(result, "por_skipped", 0)).ljust(10)
            + str(getattr(result, "symmetry_skipped", 0)).ljust(10)
            + verdict
        )
    lines.append("-" * len(header))
    total = sum(result.schedules_run for result in results)
    lines.append(f"TOTAL: {total} schedules, "
                 f"{failures} divergence{'s' if failures != 1 else ''}")
    return "\n".join(lines)


def render_fuzz_table(result) -> str:
    """Render one fuzzing-campaign result as a text report.

    Accepts :class:`repro.fuzz.campaign.FuzzCampaignResult` rows (typed
    loosely to keep the harness importable without the fuzz subsystem).
    """
    header = "Coverage-guided fuzzing campaign"
    lines = [header, "-" * len(header)]
    lines.append(f"seed {result.seed}  strategy {result.strategy}  "
                 f"workers {result.workers}")
    lines.append(f"rounds {result.rounds}  monitors {result.monitors}  "
                 f"judged schedules {result.schedules_run} "
                 f"(budget {result.budget})")
    lines.append(f"corpus {result.corpus_size} entries "
                 f"(+{result.corpus_added} this run)")
    counts = result.coverage_counts
    lines.append("coverage".ljust(12)
                 + "  ".join(f"{axis}={counts.get(axis, 0)}"
                             for axis in sorted(counts))
                 + f"  total={result.coverage_total} "
                 f"(+{result.new_features} new)")
    lines.append(f"coverage/schedule {result.coverage_per_schedule:.3f}")
    if result.operator_stats:
        lines.append("")
        lines.append("Operator".ljust(22) + "Applied".ljust(9)
                     + "Rejected".ljust(10) + "NewCov".ljust(8) + "Findings")
        for name in sorted(result.operator_stats):
            stats = result.operator_stats[name]
            lines.append(name.ljust(22)
                         + str(stats.get("applied", 0)).ljust(9)
                         + str(stats.get("rejected", 0)).ljust(10)
                         + str(stats.get("new_coverage", 0)).ljust(8)
                         + str(stats.get("findings", 0)))
    distrib = getattr(result, "distrib", None)
    if distrib:
        lines.append("")
        lines.append("shared store".ljust(14)
                     + "  ".join(f"{name[len('distrib.'):]}={int(value)}"
                                 for name, value in sorted(distrib.items())))
    lines.append("-" * len(header))
    lines.append(f"findings: {len(result.findings)} "
                 f"({result.duplicate_findings} duplicates suppressed), "
                 f"compile errors: {len(result.compile_errors)}")
    return "\n".join(lines)


def render_lint_table(reports: Sequence) -> str:
    """Render static-analyzer reports as a text table.

    Accepts :class:`repro.analysis.lint.report.LintReport` rows (typed
    loosely to keep the harness importable without the lint subsystem).
    """
    header = "Static monitor analysis (expresso lint)"
    lines = [header, "-" * len(header)]
    lines.append("Monitor".ljust(30) + "Errors".ljust(8)
                 + "Advisories".ljust(12) + "Checks")
    total_errors = 0
    total_advisories = 0
    for report in reports:
        total_errors += len(report.errors)
        total_advisories += len(report.advisories)
        counts = report.counts()
        detail = ("  ".join(f"{check}={n}" for check, n in counts.items())
                  if counts else "clean")
        lines.append(report.monitor.ljust(30)
                     + str(len(report.errors)).ljust(8)
                     + str(len(report.advisories)).ljust(12)
                     + detail)
    lines.append("-" * len(header))
    lines.append(f"TOTAL: {len(reports)} monitor{'s' if len(reports) != 1 else ''}, "
                 f"{total_errors} error{'s' if total_errors != 1 else ''}, "
                 f"{total_advisories} "
                 f"advisor{'ies' if total_advisories != 1 else 'y'}")
    return "\n".join(lines)


def render_profile_table(profiler, phases: Optional[Dict[str, dict]] = None,
                         wall_seconds: Optional[float] = None,
                         top: int = 10,
                         metrics: Optional[Dict[str, int]] = None) -> str:
    """Render an SMT-profiler session as a text report.

    Accepts a :class:`repro.obs.profile.SmtProfiler` (typed loosely to keep
    the harness importable without the obs subsystem).  *phases* is the
    per-span attribution from :func:`repro.obs.phase_attribution`; with
    *wall_seconds* the header additionally reports what fraction of the
    measured wall time the named spans account for.  *metrics* is a counter
    snapshot; its SAT-core counters (``smt.sat.clauses``: clauses loaded
    into the solvers' databases, ``smt.sat.conflicts``, and the theory
    checks and lemmas of ``smt.theory.*``) and its
    ``distrib.*`` counters (shared-store lease traffic) are surfaced as
    their own sections when present.
    """
    header = "SMT query profile (expresso profile)"
    lines = [header, "-" * len(header)]
    summary = (f"{profiler.total_queries} queries, "
               f"{profiler.total_seconds:.3f}s in the solver")
    if wall_seconds:
        summary += f" / {wall_seconds:.3f}s wall"
    lines.append(summary)
    if phases:
        lines.append("")
        lines.append("Phase".ljust(26) + "Count".ljust(8)
                     + "Seconds".ljust(10) + "Self")
        attributed = 0.0
        for name in sorted(phases, key=lambda n: -phases[n]["self_seconds"]):
            row = phases[name]
            attributed += row["self_seconds"]
            lines.append(name.ljust(26)
                         + str(row["count"]).ljust(8)
                         + f"{row['seconds']:.3f}".ljust(10)
                         + f"{row['self_seconds']:.3f}")
        if wall_seconds:
            lines.append(f"attributed: {attributed:.3f}s "
                         f"({attributed / wall_seconds:.0%} of wall)")
    rows = profiler.top(top)
    if rows:
        lines.append("")
        phase_width = max([22] + [len(str(row["phase"])) + 2 for row in rows])
        lines.append("Hash".ljust(14) + "Count".ljust(7) + "Cached".ljust(8)
                     + "Seconds".ljust(10) + "Status".ljust(9)
                     + "Phase".ljust(phase_width) + "Caller")
        for row in rows:
            lines.append(str(row["fingerprint"]).ljust(14)
                         + str(row["count"]).ljust(7)
                         + str(row["cached"]).ljust(8)
                         + f"{row['seconds']:.3f}".ljust(10)
                         + str(row["status"]).ljust(9)
                         + str(row["phase"]).ljust(phase_width)
                         + str(row["caller"]))
            lines.append("  " + str(row["sample"]))
    sat = [name for name in ("smt.sat.clauses", "smt.sat.conflicts",
                             "smt.theory.checks", "smt.theory.lemmas")
           if name in (metrics or {})]
    if sat:
        lines.append("")
        lines.append("SAT core")
        for name in sat:
            label = name[len("smt."):].removeprefix("sat.").replace(".", " ")
            lines.append(f"  {label}".ljust(26) + str(int(metrics[name])))
    distrib = {name: value for name, value in (metrics or {}).items()
               if name.startswith("distrib.")}
    if distrib:
        lines.append("")
        lines.append("Distributed store")
        for name in sorted(distrib):
            lines.append(f"  {name[len('distrib.'):]}".ljust(26)
                         + str(int(distrib[name])))
    lines.append("-" * len(header))
    callers = profiler.by_caller()
    hottest = sorted(callers.items(),
                     key=lambda item: -item[1]["seconds"])[:5]
    lines.append("hot callers: "
                 + ("  ".join(f"{name} ({agg['seconds']:.3f}s/{int(agg['count'])})"
                              for name, agg in hottest) or "(none)"))
    return "\n".join(lines)


def speedup_summary(all_series: Iterable[FigureSeries]) -> Dict[str, float]:
    """The headline aggregates: mean speedups of Expresso over each baseline."""
    per_baseline: Dict[str, List[float]] = {}
    for series in all_series:
        for baseline in series.ms_per_op:
            if baseline == "expresso":
                continue
            per_baseline.setdefault(baseline, []).append(series.speedup_over(baseline))
    return {
        baseline: statistics.geometric_mean(values) if values else 1.0
        for baseline, values in per_baseline.items()
    }
