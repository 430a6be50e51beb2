"""Figure/table assembly and text rendering.

The report functions turn raw measurements into exactly the series the paper
plots: for every benchmark a table of ms/op per thread count for the
Expresso / AutoSynch / Explicit series (plus the naive implicit baseline this
reproduction adds), the Table 1 compilation times, and the headline
"Expresso is X× faster than AutoSynch on average" summary.
"""

from __future__ import annotations

import statistics
from dataclasses import field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.benchmarks_lib.spec import BenchmarkSpec
from repro.harness.compile_time import CompileTimeRow
from repro.harness.saturation import (
    DISCIPLINES,
    SaturationMeasurement,
    sweep_thread_ladder,
)
from repro.record import record


@record
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


def _row(cells: Sequence, widths: Sequence[Optional[int]]) -> str:
    """Each cell left-justified to its width; ``None`` leaves it unpadded."""
    return "".join(str(cell) if width is None else str(cell).ljust(width)
                   for cell, width in zip(cells, widths))


def _framed(title: str, body: Iterable[str], footer: Optional[str] = None) -> str:
    """*title* over a rule, then *body*'s lines, then a rule and *footer*."""
    rule = "-" * len(title)
    tail = [rule, footer] if footer is not None else []
    return "\n".join([title, rule, *body, *tail])


def render_figure_table(series: FigureSeries, unit_scale: float = 1000.0) -> str:
    """Render one benchmark's series as a text table (µs/op by default)."""
    unit = "us/op" if unit_scale == 1000.0 else "ms/op"
    disciplines = list(series.ms_per_op)
    widths = [10] + [14] * len(disciplines)
    body = [_row(["threads", *disciplines], widths)]
    body += [_row([threads] + [f"{series.ms_per_op[d][threads] * unit_scale:.2f}"
                               for d in disciplines], widths)
             for threads in series.thread_counts]
    return _framed(f"{series.benchmark}  (Figure {series.figure}, {unit})",
                   body)


def render_table1(rows: Sequence[CompileTimeRow]) -> str:
    """Render Table 1 (compilation times) as text.

    Includes the solver-cache columns (hits / queries per compile) and a
    totals row so batch runs surface aggregate compile time and hit rate.
    """
    widths = (32, 14, 8, 14, None)
    body = [_row(("Benchmark", "Time (sec.)", "VCs", "Cache",
                  "Notifications"), widths)]
    body += [_row((row.benchmark, f"{row.seconds:.2f}", row.validity_queries,
                   f"{row.cache_hits}/{row.cache_hits + row.cache_misses}",
                   f"{row.notifications} ({row.broadcasts} broadcasts)"),
                  widths) for row in rows]
    total_hits = sum(row.cache_hits for row in rows)
    total_queries = total_hits + sum(row.cache_misses for row in rows)
    hit_rate = f"({total_hits / total_queries:.0%} hit rate)" if total_queries else ""
    return _framed("Table 1: Expresso compilation time per benchmark", body,
                   _row(("TOTAL", f"{sum(row.seconds for row in rows):.2f}",
                         sum(row.validity_queries for row in rows),
                         f"{total_hits}/{total_queries}", hit_rate), widths))


def render_explore_table(results: Sequence) -> str:
    """Render exploration campaign summaries as a text table.

    Accepts :class:`repro.explore.engine.ExplorationResult` rows (typed
    loosely to keep the harness importable without the explore subsystem).
    """
    widths = (30, 12, 10, 11, 10, 11, 8, 8, 10, 10, None)
    body = [_row(("Benchmark", "Discipline", "Strategy", "Schedules",
                  "Sched/s", "Completed", "Stalls", "Pruned", "POR-skip",
                  "Sym-skip", "Verdict"), widths)]
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
        body.append(_row((result.benchmark, result.discipline,
                          result.strategy, result.schedules_run,
                          f"{result.schedules_per_second:.0f}",
                          result.completed, result.stalls, result.pruned,
                          getattr(result, "por_skipped", 0),
                          getattr(result, "symmetry_skipped", 0), verdict),
                         widths))
    total = sum(result.schedules_run for result in results)
    return _framed("Schedule exploration summary", body,
                   f"TOTAL: {total} schedules, "
                   f"{failures} divergence{'s' if failures != 1 else ''}")


def render_fuzz_table(result) -> str:
    """Render one fuzzing-campaign result as a text report.

    Accepts :class:`repro.fuzz.campaign.FuzzCampaignResult` rows (typed
    loosely to keep the harness importable without the fuzz subsystem).
    """
    counts = result.coverage_counts
    body = [f"seed {result.seed}  strategy {result.strategy}  "
            f"workers {result.workers}",
            f"rounds {result.rounds}  monitors {result.monitors}  "
            f"judged schedules {result.schedules_run} "
            f"(budget {result.budget})",
            f"corpus {result.corpus_size} entries "
            f"(+{result.corpus_added} this run)",
            _row(("coverage", "  ".join(f"{axis}={counts.get(axis, 0)}"
                                        for axis in sorted(counts))
                  + f"  total={result.coverage_total} "
                  f"(+{result.new_features} new)"), (12, None)),
            f"coverage/schedule {result.coverage_per_schedule:.3f}"]
    if result.operator_stats:
        widths = (22, 9, 10, 8, None)
        body += ["", _row(("Operator", "Applied", "Rejected", "NewCov",
                           "Findings"), widths)]
        body += [_row((name, *(stats.get(key, 0) for key in
                               ("applied", "rejected", "new_coverage",
                                "findings"))), widths)
                 for name, stats in sorted(result.operator_stats.items())]
    distrib = getattr(result, "distrib", None)
    if distrib:
        body += ["", _row(("shared store", "  ".join(
            f"{name[len('distrib.'):]}={int(value)}"
            for name, value in sorted(distrib.items()))), (14, None))]
    return _framed("Coverage-guided fuzzing campaign", body,
                   f"findings: {len(result.findings)} "
                   f"({result.duplicate_findings} duplicates suppressed), "
                   f"compile errors: {len(result.compile_errors)}")


def render_lint_table(reports: Sequence) -> str:
    """Render static-analyzer reports as a text table.

    Accepts :class:`repro.analysis.lint.report.LintReport` rows (typed
    loosely to keep the harness importable without the lint subsystem).
    """
    widths = (30, 8, 12, None)
    body = [_row(("Monitor", "Errors", "Advisories", "Checks"), widths)]
    for report in reports:
        counts = report.counts()
        detail = ("  ".join(f"{check}={n}" for check, n in counts.items())
                  if counts else "clean")
        body.append(_row((report.monitor, len(report.errors),
                          len(report.advisories), detail), widths))
    total_errors = sum(len(report.errors) for report in reports)
    total_advisories = sum(len(report.advisories) for report in reports)
    return _framed("Static monitor analysis (expresso lint)", body,
                   f"TOTAL: {len(reports)} monitor{'s' if len(reports) != 1 else ''}, "
                   f"{total_errors} error{'s' if total_errors != 1 else ''}, "
                   f"{total_advisories} "
                   f"advisor{'ies' if total_advisories != 1 else 'y'}")


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
    checks and lemmas of ``smt.theory.*``) and its ``distrib.*`` counters
    (shared-store lease traffic) get their own sections when present.
    """
    summary = (f"{profiler.total_queries} queries, "
               f"{profiler.total_seconds:.3f}s in the solver")
    if wall_seconds:
        summary += f" / {wall_seconds:.3f}s wall"
    body = [summary]
    if phases:
        widths = (26, 8, 10, None)
        order = sorted(phases.items(), key=lambda item: -item[1]["self_seconds"])
        body += ["", _row(("Phase", "Count", "Seconds", "Self"), widths)]
        body += [_row((name, row["count"], f"{row['seconds']:.3f}",
                       f"{row['self_seconds']:.3f}"), widths)
                 for name, row in order]
        if wall_seconds:
            attributed = sum(row["self_seconds"] for _name, row in order)
            body.append(f"attributed: {attributed:.3f}s "
                        f"({attributed / wall_seconds:.0%} of wall)")
    rows = profiler.top(top)
    if rows:
        widths = (14, 7, 8, 10, 9,
                  max([22] + [len(str(row["phase"])) + 2 for row in rows]), None)
        body += ["", _row(("Hash", "Count", "Cached", "Seconds", "Status",
                           "Phase", "Caller"), widths)]
        for row in rows:
            body += [_row((row["fingerprint"], row["count"], row["cached"],
                           f"{row['seconds']:.3f}", row["status"],
                           row["phase"], row["caller"]), widths),
                     "  " + str(row["sample"])]
    metrics = metrics or {}
    sections = (
        ("SAT core",
         {name[len("smt."):].removeprefix("sat.").replace(".", " "):
          metrics[name]
          for name in ("smt.sat.clauses", "smt.sat.conflicts",
                       "smt.theory.checks", "smt.theory.lemmas")
          if name in metrics}),
        ("Distributed store",
         {name[len("distrib."):]: metrics[name] for name in sorted(metrics)
          if name.startswith("distrib.")}))
    for heading, counters in sections:
        if counters:
            body += ["", heading]
            body += [_row((f"  {label}", int(value)), (26, None))
                     for label, value in counters.items()]
    hottest = sorted(profiler.by_caller().items(),
                     key=lambda item: -item[1]["seconds"])[:5]
    return _framed("SMT query profile (expresso profile)", body,
                   "hot callers: "
                   + ("  ".join(f"{name} ({agg['seconds']:.3f}s/{int(agg['count'])})"
                                for name, agg in hottest) or "(none)"))


def render_mutation_table(report) -> str:
    """Render a :class:`repro.explore.parallel.MutationReport` as text: one
    row per mutant, the totals, then a paragraph per surviving mutant."""
    body = []
    for mutant in report.mutants:
        label, index = mutant["site"]
        tag = {"caught": f"caught: {mutant['kind']}",
               "benign": "benign (exhausted without divergence)",
               }.get(mutant["status"], mutant["status"])
        body.append(_row((f"{mutant['benchmark']:30s} {label}[{index}]",
                          f" {tag} [{mutant['schedules_run']} schedules]"),
                         (52, None)))
    summary = report.to_dict()
    return _framed(
        "Mutation campaign (every dropped signal must be caught)", body,
        f"TOTAL: {summary['total']} mutants — {summary['caught']} caught, "
        f"{summary['benign']} benign, {summary['survived']} survived "
        f"({report.elapsed_seconds:.1f}s, {report.workers} workers)"
    ) + "".join(f"\n\nSURVIVED: {mutant['benchmark']} {mutant['site']} — the "
                f"budget ran out before a counterexample was found"
                for mutant in report.survived)


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
