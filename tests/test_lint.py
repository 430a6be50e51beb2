"""Tests for the static monitor analyzer (`src/repro/analysis/lint/`)."""

import json

import pytest

from repro.logic import build
from repro.logic.build import eq, ge, gt, i, land, lt, v
from repro.lang.ast import (
    ArrayAssign,
    Assign,
    FieldDecl,
    LocalDecl,
    Seq,
    Skip,
    While,
)
from repro.analysis.alias import Alloc, Copy, PointsToAnalysis, field_scalar
from repro.analysis.lint import (
    CHECKS,
    EffectSummary,
    LintFinding,
    LintReport,
    check_coop_waits,
    check_dead_guards,
    check_naked_notifies,
    check_unreachable_methods,
    check_unused_fields,
    heap_store_effects,
    lint_explicit,
    merge_reports,
    obligation_map,
    segment_effects,
    stmt_effects,
)
from repro.benchmarks_lib import ALL_BENCHMARKS, get_benchmark
from repro.cli import main as cli_main
from repro.codegen import generate_python_explicit
from repro.harness.report import render_lint_table
from repro.harness.saturation import expresso_result
from repro.placement.target import (
    ExplicitCCR,
    ExplicitMethod,
    ExplicitMonitor,
    Notification,
)
from repro.smt.cache import FormulaCache
from repro.smt.solver import Solver


class TestDataflow:
    def test_assign_reads_and_writes(self):
        effects = stmt_effects(Assign("x", build.add(v("y"), i(1))))
        assert effects.writes == {"x"}
        assert effects.reads == {"y"}
        assert effects.summarizable

    def test_if_reads_condition_and_both_branches(self):
        from repro.lang.ast import If

        stmt = If(gt(v("c"), i(0)), Assign("a", v("b")), Assign("d", i(0)))
        effects = stmt_effects(stmt)
        assert effects.reads == {"c", "b"}
        assert effects.writes == {"a", "d"}
        assert effects.summarizable

    def test_local_decl_writes_its_name(self):
        effects = stmt_effects(Seq((LocalDecl("tmp", build.INT, v("x")),
                                    Assign("x", v("tmp")))))
        assert "tmp" in effects.writes
        assert "x" in effects.reads and "x" in effects.writes

    def test_while_is_not_summarizable(self):
        stmt = While(gt(v("n"), i(0)), Assign("n", build.sub(v("n"), i(1))))
        effects = stmt_effects(stmt)
        assert not effects.summarizable
        assert "n" in effects.reads and "n" in effects.writes

    def test_while_invariant_is_read(self):
        stmt = While(gt(v("n"), i(0)), Assign("n", build.sub(v("n"), i(1))),
                     invariant=ge(v("floor"), i(0)))
        effects = stmt_effects(stmt)
        assert effects.reads == {"n", "floor"}
        assert effects.writes == {"n"}
        assert not effects.summarizable

    def test_array_assign_without_sizes_writes_the_array_name(self):
        effects = stmt_effects(ArrayAssign("slots", v("head"), v("item")))
        assert effects.writes == {"slots"}
        assert effects.reads == {"head", "item"}
        assert not effects.summarizable

    def test_array_assign_writes_all_declared_cells(self):
        from repro.lang.arrays import cell_name

        stmt = ArrayAssign("slots", v("head"), v("item"))
        effects = stmt_effects(stmt, array_sizes={"slots": 2})
        assert not effects.summarizable
        assert effects.writes == {"slots", cell_name("slots", 0), cell_name("slots", 1)}
        assert effects.reads == {"head", "item"}

    def test_disjointness_requires_no_write_read_overlap(self):
        a = EffectSummary(frozenset({"x"}), frozenset({"y"}))
        b = EffectSummary(frozenset({"z"}), frozenset({"w"}))
        assert a.disjoint_from(b)
        c = EffectSummary(frozenset({"y"}), frozenset())  # reads a's write
        assert not a.disjoint_from(c)

    def test_heap_store_effects_cover_may_aliases(self):
        analysis = PointsToAnalysis([Alloc("p", "o1"), Copy("q", "p"),
                                     Alloc("r", "o2")])
        effects = heap_store_effects("p", "f", i(1), analysis, ["p", "q", "r"])
        # q may alias p, so q.f is in the write set; r cannot.
        assert field_scalar("p", "f") in effects.writes
        assert field_scalar("q", "f") in effects.writes
        assert field_scalar("r", "f") not in effects.writes

    def test_obligation_map_on_bounded_buffer(self):
        compiled = expresso_result(get_benchmark("BoundedBuffer"))
        obligations = obligation_map(compiled.explicit)
        # Both segments write `count`, which both guards read, so each owes
        # an obligation on every guard (including its own — the cross-check
        # discharges the self-obligation via the can-enable triple).
        assert all(obligations[label] for label in obligations)


def _plain_monitor(methods, fields):
    return ExplicitMonitor(name="T", fields=tuple(fields),
                           methods=tuple(methods), condition_vars=(),
                           invariant=build.TRUE)


class TestSmellChecks:
    def test_dead_guard_is_an_error(self):
        guard = land(lt(v("x"), i(0)), gt(v("x"), i(0)))
        ccr = ExplicitCCR(guard, Skip(), "m#0")
        monitor = _plain_monitor([ExplicitMethod("m", (), (ccr,))],
                                 [FieldDecl("x", build.INT, i(0))])
        findings = check_dead_guards(monitor, Solver())
        assert [f.check for f in findings] == ["dead-guard"]
        assert findings[0].is_error
        assert findings[0].ccr_label == "m#0"

    def test_naked_notify_flags_pure_signalling(self):
        note = Notification(ge(v("x"), i(1)), conditional=False, broadcast=False)
        ccr = ExplicitCCR(build.TRUE, Skip(), "m#0", (note,))
        monitor = _plain_monitor([ExplicitMethod("m", (), (ccr,))],
                                 [FieldDecl("x", build.INT, i(0))])
        findings = check_naked_notifies(monitor, segment_effects(monitor))
        assert [f.check for f in findings] == ["naked-notify"]
        assert not findings[0].is_error

    def test_unused_field_is_reported(self):
        ccr = ExplicitCCR(build.TRUE, Assign("x", i(1)), "m#0")
        monitor = _plain_monitor([ExplicitMethod("m", (), (ccr,))],
                                 [FieldDecl("x", build.INT, i(0)),
                                  FieldDecl("ghost", build.INT, i(0))])
        findings = check_unused_fields(monitor, segment_effects(monitor))
        assert [f.check for f in findings] == ["unused-field"]
        assert "ghost" in findings[0].message

    def test_unreachable_method_entry(self):
        dead = land(lt(v("x"), i(0)), gt(v("x"), i(0)))
        monitor = _plain_monitor(
            [ExplicitMethod("m", (), (ExplicitCCR(dead, Skip(), "m#0"),))],
            [FieldDecl("x", build.INT, i(0))])
        findings = check_unreachable_methods(monitor, Solver())
        assert [f.check for f in findings] == ["unreachable-method"]
        assert findings[0].method == "m"

    def test_wait_in_non_loop_shape(self):
        bad = "def run(self):\n    if not self.ok:\n        yield (\"wait\", 0)\n"
        findings = check_coop_waits(bad)
        assert [f.check for f in findings] == ["wait-in-non-loop"]

    def test_generated_coop_code_is_wait_clean(self):
        compiled = expresso_result(get_benchmark("BoundedBuffer"))
        source = generate_python_explicit(compiled.explicit, coop=True)
        assert check_coop_waits(source) == []

    def test_report_shapes(self):
        finding = LintFinding(check="dead-guard", severity="error",
                              message="boom", ccr_label="m#0")
        report = LintReport(monitor="T", findings=(finding,))
        assert not report.ok and not report.clean
        assert report.counts() == {"dead-guard": 1}
        payload = report.to_dict()
        assert payload["errors"] == 1 and payload["findings"][0]["ccr"] == "m#0"
        merged = merge_reports([report, LintReport(monitor="U")])
        assert merged["monitors"] == 2 and not merged["ok"]
        assert set(CHECKS) == {"missing-signal", "dead-guard", "dead-signal",
                               "naked-notify", "unused-field",
                               "unreachable-method", "wait-in-non-loop"}


class TestGoldenSweep:
    """The acceptance criteria: clean suite, every deletion mutant caught."""

    @pytest.mark.parametrize("name", sorted(ALL_BENCHMARKS))
    def test_registry_benchmark_lints_clean(self, name):
        compiled = expresso_result(get_benchmark(name))
        assert compiled.lint_report is not None
        assert compiled.lint_report.clean, compiled.lint_report.render()

    def test_every_notification_deletion_is_flagged(self):
        solver = Solver(cache=FormulaCache())
        mutants = 0
        for name in sorted(ALL_BENCHMARKS):
            compiled = expresso_result(get_benchmark(name))
            for site_label, index in compiled.explicit.notification_sites():
                mutant = compiled.explicit.without_notification(site_label, index)
                report = lint_explicit(mutant, solver=solver)
                flagged = [f for f in report.findings
                           if f.check == "missing-signal"
                           and f.ccr_label == site_label]
                assert flagged, (f"{name}: deleting {site_label}[{index}] "
                                 f"was not flagged")
                mutants += 1
        assert mutants == 33  # the registry's placed-notification count


class TestPipelineIntegration:
    def test_pipeline_attaches_a_report_by_default(self):
        compiled = expresso_result(get_benchmark("BoundedBuffer"))
        assert compiled.lint_report is not None
        assert "lint" in compiled.summary()

    def test_lint_can_be_disabled(self):
        from repro.placement.pipeline import ExpressoPipeline

        pipeline = ExpressoPipeline(lint=False)
        result = pipeline.compile(get_benchmark("BoundedBuffer").monitor())
        assert result.lint_report is None
        assert pipeline.config_key() != ExpressoPipeline().config_key()


class TestCli:
    def test_lint_suite_json_is_clean(self, capsys):
        code = cli_main(["lint", "--suite", "--json"])
        document = json.loads(capsys.readouterr().out)
        assert code == 0
        assert document["ok"] and document["clean"]
        assert document["monitors"] == len(ALL_BENCHMARKS)

    def test_lint_benchmark_text_table(self, capsys):
        code = cli_main(["lint", "--benchmark", "BoundedBuffer"])
        out = capsys.readouterr().out
        assert code == 0
        assert "BoundedBuffer" in out and "clean" in out

    def test_lint_without_targets_is_a_usage_error(self, capsys):
        assert cli_main(["lint"]) == 2

    def test_lint_path(self, tmp_path, capsys):
        source = get_benchmark("BoundedBuffer").source
        target = tmp_path / "bb.mon"
        target.write_text(source)
        assert cli_main(["lint", str(target)]) == 0
        assert "bb" in capsys.readouterr().out

    def test_render_lint_table_totals(self):
        dirty = LintReport(monitor="D", findings=(
            LintFinding(check="dead-guard", severity="error", message="x"),))
        table = render_lint_table([LintReport(monitor="C"), dirty])
        assert "TOTAL: 2 monitors, 1 error, 0 advisories" in table
