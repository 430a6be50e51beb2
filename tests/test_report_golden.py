"""Golden outputs of the text and markdown renderers.

Every text table (`repro.harness.report`), the `expresso mutate` text
output and `report.md` are pinned byte for byte on fixed synthetic inputs,
so a refactor of the renderers cannot change a character of what they
print.  `report.html` is held to the markdown's structure instead: the
same headings at the same levels, with the warnings in the same place.
"""

import re
from types import SimpleNamespace

from repro.cli import main as cli_main
from repro.explore.parallel import MutationReport
from repro.harness.compile_time import CompileTimeRow
from repro.harness.report import (
    FigureSeries,
    render_explore_table,
    render_figure_table,
    render_fuzz_table,
    render_lint_table,
    render_profile_table,
    render_table1,
)
from repro.obs import report

# ---------------------------------------------------------------------------
# fixed inputs
# ---------------------------------------------------------------------------

TABLE1_ROWS = [
    CompileTimeRow("BoundedBuffer", 0.123, 14, "0 <= count", 3, 1,
                   cache_hits=5, cache_misses=9),
    CompileTimeRow("DiningPhilosophers", 1.5, 40, "true", 6, 0,
                   cache_hits=0, cache_misses=40),
]

SERIES = FigureSeries(
    "BoundedBuffer", "8", (1, 4),
    {"expresso": {1: 0.0123, 4: 0.04567},
     "autosynch": {1: 0.02, 4: 0.125}})


def _failure(kind):
    return SimpleNamespace(kind=kind)


EXPLORE_RESULTS = [
    SimpleNamespace(benchmark="BoundedBuffer", discipline="expresso",
                    strategy="dfs", schedules_run=196,
                    schedules_per_second=1234.4, completed=190, stalls=6,
                    pruned=12, por_skipped=30, symmetry_skipped=0,
                    failures=[], exhausted=True, budget_exhausted=False),
    SimpleNamespace(benchmark="AsyncDispatch", discipline="explicit",
                    strategy="random", schedules_run=500,
                    schedules_per_second=88.6, completed=480, stalls=20,
                    pruned=0, por_skipped=0, symmetry_skipped=4,
                    failures=[_failure("lost-wakeup"), _failure("deadlock"),
                              _failure("lost-wakeup")],
                    exhausted=False, budget_exhausted=True),
]

FUZZ_RESULT = SimpleNamespace(
    seed=2026, strategy="pct", workers=2, rounds=3, monitors=48,
    schedules_run=960, budget=1000, corpus_size=17, corpus_added=5,
    coverage_counts={"monitor": 12, "decision": 30, "edge": 7},
    coverage_total=49, new_features=11, coverage_per_schedule=0.05104,
    operator_stats={
        "swap-guard": {"applied": 9, "rejected": 1, "new_coverage": 4,
                       "findings": 0},
        "drop-notify": {"applied": 12, "rejected": 0, "new_coverage": 6},
    },
    distrib={"distrib.lease.granted": 7, "distrib.units.done": 6.0},
    findings=[object()], duplicate_findings=2,
    compile_errors=[object(), object()])

LINT_REPORTS = [
    SimpleNamespace(monitor="BoundedBuffer", errors=(), advisories=(),
                    counts=lambda: {}),
    SimpleNamespace(monitor="AsyncDispatch", errors=("e",),
                    advisories=("a", "b"),
                    counts=lambda: {"missing-signal": 1, "broad-wait": 2}),
]


class _Profiler:
    total_queries = 42
    total_seconds = 0.3456

    def top(self, limit):
        return [
            {"fingerprint": "deadbeef0123", "count": 9, "cached": 3,
             "seconds": 0.12, "status": "unsat",
             "phase": "analysis.invariants.abduce", "caller": "abduce",
             "sample": "(and (<= x 1) (> x 2))"},
            {"fingerprint": "cafe00001111", "count": 2, "cached": 0,
             "seconds": 0.0341, "status": "sat", "phase": "placement",
             "caller": "needs_signal", "sample": "(= y 0)"},
        ][:limit]

    def by_caller(self):
        return {"abduce": {"seconds": 0.12, "count": 9.0},
                "needs_signal": {"seconds": 0.0341, "count": 2.0}}


PROFILE_PHASES = {
    "placement": {"count": 14, "seconds": 0.25, "self_seconds": 0.05},
    "analysis.invariants": {"count": 14, "seconds": 0.5,
                            "self_seconds": 0.3},
}

PROFILE_METRICS = {"smt.sat.conflicts": 458, "smt.sat.clauses": 9001,
                   "smt.theory.checks": 315, "smt.theory.lemmas": 6,
                   "distrib.lease.granted": 3, "distrib.units.done": 2,
                   "smt.calls": 1023}

MUTANTS = [
    {"benchmark": "BoundedBuffer", "site": ["put#0", 0], "status": "caught",
     "kind": "lost-wakeup", "schedules_run": 12},
    {"benchmark": "BoundedBuffer", "site": ["take#0", 1], "status": "benign",
     "kind": None, "schedules_run": 196},
    {"benchmark": "AsyncDispatch", "site": ["dispatch#0", 0],
     "status": "survived", "kind": None, "schedules_run": 20000},
    {"benchmark": "AsyncDispatch", "site": ["submit#1", 2], "status": "error",
     "kind": None, "schedules_run": 0},
]

SNAPSHOT = {
    "store": "/campaign/store.db",
    "units": {"pending": 1, "leased": 2, "done": 1, "quarantined": 0,
              "total": 4},
    "workers": {
        "driver-7": {"role": "driver", "health": "live",
                     "heartbeat_age": 1.5, "claims": 2, "completed": 1},
        "helper-2": {"role": "helper", "health": "dead",
                     "heartbeat_age": 900.0},
    },
    "coverage": {"features": 5, "axes": {"monitor": 2, "decision": 3}},
    "corpus_entries": 3,
    "checkpoint": {"round_index": 2, "schedules_run": 64, "findings": 1},
    "warnings": ["driver not active", "integrity: 1 row(s) fail their "
                 "checksum (run `expresso fuzz --repair --store x`)"],
    "counters": {"distrib.lease.granted": 3, "distrib.lease.stolen": 1},
}

PROFILE_DOC = {
    "phases": {"placement": {"count": 3, "seconds": 0.25,
                             "self_seconds": 0.125},
               "parse": {"count": 3, "seconds": 0.5, "self_seconds": 0.5}},
    "top": [{"fingerprint": "deadbeefcafe0123", "count": 5, "seconds": 0.01,
             "phase": "placement"}],
    "queries": 7, "solver_seconds": 0.04, "wall_seconds": 1.7,
    "metrics": {"smt.queries": 7, "fault.injected": 2, "smt.degraded": 0},
}

TRACE = {"traceEvents": [{"ph": "B", "name": "compile"},
                         {"ph": "E", "name": "compile"}],
         "otherData": {"metrics": {"smt.queries": 9}}}


def _report_model():
    return report.build_report(snapshot=SNAPSHOT, profile=PROFILE_DOC,
                               traces=[TRACE], trace_labels=["driver.json"],
                               title="golden report")


# ---------------------------------------------------------------------------
# text tables
# ---------------------------------------------------------------------------


def test_table1_golden():
    assert render_table1(TABLE1_ROWS) == (
        "Table 1: Expresso compilation time per benchmark\n"
        "------------------------------------------------\n"
        "Benchmark                       Time (sec.)   VCs     Cache         Notifications\n"
        "BoundedBuffer                   0.12          14      5/14          3 (1 broadcasts)\n"
        "DiningPhilosophers              1.50          40      0/40          6 (0 broadcasts)\n"
        "------------------------------------------------\n"
        "TOTAL                           1.62          54      5/54          (9% hit rate)")


def test_table1_without_rows_golden():
    assert render_table1([]) == (
        "Table 1: Expresso compilation time per benchmark\n"
        "------------------------------------------------\n"
        "Benchmark                       Time (sec.)   VCs     Cache         Notifications\n"
        "------------------------------------------------\n"
        "TOTAL                           0.00          0       0/0           ")


def test_figure_table_golden():
    assert render_figure_table(SERIES) == (
        "BoundedBuffer  (Figure 8, us/op)\n"
        "--------------------------------\n"
        "threads   expresso      autosynch     \n"
        "1         12.30         20.00         \n"
        "4         45.67         125.00        ")
    assert render_figure_table(SERIES, unit_scale=1.0).splitlines()[0] == (
        "BoundedBuffer  (Figure 8, ms/op)")


def test_explore_table_golden():
    assert render_explore_table(EXPLORE_RESULTS) == (
        "Schedule exploration summary\n"
        "----------------------------\n"
        "Benchmark                     Discipline  Strategy  Schedules  Sched/s   Completed  Stalls  Pruned  POR-skip  Sym-skip  Verdict\n"
        "BoundedBuffer                 expresso    dfs       196        1234      190        6       12      30        0         ok (exhausted)\n"
        "AsyncDispatch                 explicit    random    500        89        480        20      0       0         4         deadlock, lost-wakeup (budget)\n"
        "----------------------------\n"
        "TOTAL: 696 schedules, 3 divergences")


def test_fuzz_table_golden():
    assert render_fuzz_table(FUZZ_RESULT) == (
        "Coverage-guided fuzzing campaign\n"
        "--------------------------------\n"
        "seed 2026  strategy pct  workers 2\n"
        "rounds 3  monitors 48  judged schedules 960 (budget 1000)\n"
        "corpus 17 entries (+5 this run)\n"
        "coverage    decision=30  edge=7  monitor=12  total=49 (+11 new)\n"
        "coverage/schedule 0.051\n"
        "\n"
        "Operator              Applied  Rejected  NewCov  Findings\n"
        "drop-notify           12       0         6       0\n"
        "swap-guard            9        1         4       0\n"
        "\n"
        "shared store  lease.granted=7  units.done=6\n"
        "--------------------------------\n"
        "findings: 1 (2 duplicates suppressed), compile errors: 2")


def test_lint_table_golden():
    assert render_lint_table(LINT_REPORTS) == (
        "Static monitor analysis (expresso lint)\n"
        "---------------------------------------\n"
        "Monitor                       Errors  Advisories  Checks\n"
        "BoundedBuffer                 0       0           clean\n"
        "AsyncDispatch                 1       2           missing-signal=1  broad-wait=2\n"
        "---------------------------------------\n"
        "TOTAL: 2 monitors, 1 error, 2 advisories")


def test_profile_table_golden():
    assert render_profile_table(_Profiler(), phases=PROFILE_PHASES,
                                wall_seconds=0.5,
                                metrics=PROFILE_METRICS) == (
        "SMT query profile (expresso profile)\n"
        "------------------------------------\n"
        "42 queries, 0.346s in the solver / 0.500s wall\n"
        "\n"
        "Phase                     Count   Seconds   Self\n"
        "analysis.invariants       14      0.500     0.300\n"
        "placement                 14      0.250     0.050\n"
        "attributed: 0.350s (70% of wall)\n"
        "\n"
        "Hash          Count  Cached  Seconds   Status   Phase                       Caller\n"
        "deadbeef0123  9      3       0.120     unsat    analysis.invariants.abduce  abduce\n"
        "  (and (<= x 1) (> x 2))\n"
        "cafe00001111  2      0       0.034     sat      placement                   needs_signal\n"
        "  (= y 0)\n"
        "\n"
        "SAT core\n"
        "  clauses                 9001\n"
        "  conflicts               458\n"
        "  theory checks           315\n"
        "  theory lemmas           6\n"
        "\n"
        "Distributed store\n"
        "  lease.granted           3\n"
        "  units.done              2\n"
        "------------------------------------\n"
        "hot callers: abduce (0.120s/9)  needs_signal (0.034s/2)")


def test_profile_table_bare_golden():
    assert render_profile_table(_Profiler(), top=0) == (
        "SMT query profile (expresso profile)\n"
        "------------------------------------\n"
        "42 queries, 0.346s in the solver\n"
        "------------------------------------\n"
        "hot callers: abduce (0.120s/9)  needs_signal (0.034s/2)")


def test_mutate_text_output_golden(monkeypatch, capsys):
    import repro.explore.parallel as parallel

    def campaign(specs, **kwargs):
        return MutationReport(threads=kwargs["threads"], ops=kwargs["ops"],
                              budget=kwargs["budget"], workers=2,
                              elapsed_seconds=3.25,
                              mutants=[dict(mutant) for mutant in MUTANTS])

    monkeypatch.setattr(parallel, "mutation_campaign", campaign)
    rc = cli_main(["mutate", "--benchmark", "BoundedBuffer",
                   "--threads", "2", "--ops", "2"])
    assert rc == 1
    assert capsys.readouterr().out == (
        "Mutation campaign (every dropped signal must be caught)\n"
        "-------------------------------------------------------\n"
        "BoundedBuffer                  put#0[0]              caught: lost-wakeup [12 schedules]\n"
        "BoundedBuffer                  take#0[1]             benign (exhausted without divergence) [196 schedules]\n"
        "AsyncDispatch                  dispatch#0[0]         survived [20000 schedules]\n"
        "AsyncDispatch                  submit#1[2]           error [0 schedules]\n"
        "-------------------------------------------------------\n"
        "TOTAL: 4 mutants — 1 caught, 1 benign, 1 survived (3.2s, 2 workers)\n"
        "\n"
        "SURVIVED: AsyncDispatch ['dispatch#0', 0] — the budget ran out "
        "before a counterexample was found\n")


# ---------------------------------------------------------------------------
# run report
# ---------------------------------------------------------------------------


def test_report_markdown_golden():
    assert report.render_markdown(_report_model()) == (
        "# golden report\n"
        "\n"
        "## Campaign store — `/campaign/store.db`\n"
        "\n"
        "Units: **1/4 done** — 1 pending, 2 leased, 0 quarantined.  Corpus "
        "3 entries; coverage 5 features over 2 axes.\n"
        "\n"
        "Checkpoint: round 2, 64 schedules, 1 finding(s).\n"
        "\n"
        "| worker | role | health | heartbeat age | claims | completed |\n"
        "| --- | --- | --- | --- | --- | --- |\n"
        "| driver-7 | driver | live | 1.5 | 2 | 1 |\n"
        "| helper-2 | helper | dead | 900.0 | 0 | 0 |\n"
        "\n"
        "> **Warning:** driver not active\n"
        "> **Warning:** integrity: 1 row(s) fail their checksum (run "
        "`expresso fuzz --repair --store x`)\n"
        "\n"
        "### Coverage axes\n"
        "\n"
        "| axis | features |\n"
        "| --- | --- |\n"
        "| decision | 3 |\n"
        "| monitor | 2 |\n"
        "\n"
        "## Phase timings\n"
        "\n"
        "| phase | count | seconds | self seconds |\n"
        "| --- | --- | --- | --- |\n"
        "| parse | 3 | 0.500 | 0.500 |\n"
        "| placement | 3 | 0.250 | 0.125 |\n"
        "\n"
        "## Hot SMT queries\n"
        "\n"
        "| formula | queries | seconds | phase |\n"
        "| --- | --- | --- | --- |\n"
        "| deadbeefcafe | 5 | 0.0100 | placement |\n"
        "\n"
        "## Traces\n"
        "\n"
        "2 events from 1 recording(s): `driver.json`\n"
        "\n"
        "## Faults & degradation\n"
        "\n"
        "| counter | value |\n"
        "| --- | --- |\n"
        "| distrib.lease.stolen | 1 |\n"
        "| fault.injected | 2 |\n"
        "\n"
        "## Counters\n"
        "\n"
        "| counter | value |\n"
        "| --- | --- |\n"
        "| distrib.lease.granted | 3 |\n"
        "| distrib.lease.stolen | 1 |\n"
        "| fault.injected | 2 |\n"
        "| smt.degraded | 0 |\n"
        "| smt.queries | 9 |\n")


def _markdown_outline(text):
    """(kind, detail) per block of a markdown report, in reading order."""
    outline = []
    for line in text.splitlines():
        heading = re.match(r"(#+) (.*)", line)
        if heading:
            outline.append(("heading", len(heading.group(1)),
                            heading.group(2).replace("`", "")))
        elif line.startswith("> **Warning:**"):
            outline.append(("warning",))
        elif line.startswith("| ---"):
            outline.append(("table",))
    return outline


def _html_outline(text):
    """(kind, detail) per block of an HTML report, in reading order."""
    outline = []
    for match in re.finditer(r'<h(\d)>(.*?)</h\d>|<div class="warn">|'
                             r"<table>", text):
        if match.group(1):
            title = re.sub(r"<[^>]+>", "", match.group(2))
            outline.append(("heading", int(match.group(1)),
                            title.replace("&amp;", "&")))
        elif match.group(0).startswith("<div"):
            outline.append(("warning",))
        else:
            outline.append(("table",))
    return outline


def test_report_html_follows_the_markdown_structure():
    model = _report_model()
    markdown = _markdown_outline(report.render_markdown(model))
    assert markdown[:6] == [
        ("heading", 1, "golden report"),
        ("heading", 2, "Campaign store — /campaign/store.db"),
        ("table",), ("warning",), ("warning",),
        ("heading", 3, "Coverage axes")]
    assert _html_outline(report.render_html(model)) == markdown
