"""The flight recorder: metrics registry, span tracer, SMT profiler.

Covers the observability contracts the rest of the harness leans on:

* registry snapshot/diff/merge arithmetic and the solver counters read
  through ``Solver.snapshot_statistics``;
* the cross-run statistics-bleed regression (``matrix_with_statistics``
  isolates each matrix build's solver-stats delta even on a shared solver);
* deterministic trace export — byte-identical artifacts across worker
  counts and across repeated runs at the same seed;
* Chrome-trace-event schema validity and the exactly-one-prune-provenance
  invariant for skipped schedules;
* ``expresso profile`` span coverage of compile wall time.
"""

import json
import os
import subprocess
import sys
import time

from repro import obs
from repro.benchmarks_lib.registry import get_benchmark
from repro.explore import coop_monitor_and_class, explore_class
from repro.explore.parallel import parallel_explore_class
from repro.obs.metrics import MetricsRegistry, SOLVER_METRIC_NAMES
from repro.obs.validate import PROVENANCE_TAGS, validate_trace
from repro.placement.pipeline import ExpressoPipeline
from repro.smt.cache import FormulaCache
from repro.smt.solver import Solver


# ---------------------------------------------------------------------------
# Metrics registry
# ---------------------------------------------------------------------------


class TestMetricsRegistry:
    def test_inc_value_snapshot(self):
        registry = MetricsRegistry()
        registry.inc("a.b")
        registry.inc("a.b", 4)
        registry.inc("a.c", 2)
        assert registry.value("a.b") == 5
        assert registry.value("missing") == 0
        assert registry.snapshot() == {"a.b": 5, "a.c": 2}
        assert list(registry.snapshot()) == ["a.b", "a.c"]  # sorted

    def test_diff_and_delta_since(self):
        registry = MetricsRegistry()
        registry.inc("x", 3)
        before = registry.snapshot()
        registry.inc("x", 2)
        registry.inc("y", 7)
        assert registry.delta_since(before) == {"x": 2, "y": 7}
        assert MetricsRegistry.diff({"x": 1}, {"x": 1}) == {"x": 0}

    def test_merge_adds_counts(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        left.inc("n", 2)
        right.inc("n", 3)
        right.inc("m", 1)
        left.merge(right.snapshot())
        assert left.snapshot() == {"m": 1, "n": 5}


class TestSolverCounters:
    def test_snapshot_reads_the_registry(self):
        solver = Solver()
        solver.metrics.inc("smt.sat.queries", 3)
        assert solver.snapshot_statistics()["sat_queries"] == 3
        solver.metrics.inc("smt.commute.static_skips")
        assert solver.snapshot_statistics()["commute_static_skips"] == 1

    def test_snapshot_has_the_fifteen_keys_in_order(self):
        stats = Solver().snapshot_statistics()
        assert list(stats) == list(SOLVER_METRIC_NAMES)
        assert len(stats) == 15 and not any(stats.values())

    def test_snapshot_since_is_a_delta(self):
        solver = Solver()
        solver.metrics.inc("smt.validity.queries", 2)
        before = solver.snapshot_statistics()
        solver.metrics.inc("smt.validity.queries")
        delta = solver.snapshot_statistics(since=before)
        assert list(delta) == list(SOLVER_METRIC_NAMES)
        assert delta["validity_queries"] == 1
        assert sum(delta.values()) == 1

    def test_check_valid_counts_in_solver_metrics(self):
        from repro.logic.parser import parse_formula

        solver = Solver(cache=FormulaCache())
        solver.check_valid(parse_formula("x + 0 == x"))
        assert solver.metrics.value("smt.validity.queries") == 1
        assert solver.snapshot_statistics()["validity_queries"] == 1


class TestBenchmarkContract:
    def test_layer_trace_reads_the_solver_cache_hits(self):
        """The end-to-end benchmark's ``smt.cache_hit_ratio`` reads
        ``Solver.metrics`` under ``smt.cache.hits``; a renamed counter would
        silently read 0 there."""
        import importlib.util
        from collections import Counter
        from pathlib import Path

        from repro.logic.parser import parse_formula

        path = Path(__file__).resolve().parents[1] / "e2ebench" / "layer_trace.py"
        spec = importlib.util.spec_from_file_location("e2e_layer_trace", path)
        layer_trace = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(layer_trace)

        solver = Solver(cache=FormulaCache())
        formula = parse_formula("x > 0 && x < 3")
        counts: Counter = Counter()
        for _ in range(2):
            args = (solver, formula)
            before = layer_trace._smt_before(args)
            result = solver.check_sat(formula)
            layer_trace._smt_after(counts, before, args, result)
        assert counts["smt.cache_hits"] == 1


# ---------------------------------------------------------------------------
# Satellite 1 regression: no cross-run stats bleed on the shared solver
# ---------------------------------------------------------------------------


class TestMatrixStatisticsIsolation:
    def test_deltas_partition_cumulative_stats(self):
        """Each build reports its own share; shares sum to the cumulative."""
        from repro.analysis.commutativity import matrix_with_statistics
        from repro.harness.saturation import expresso_result

        solver = Solver(cache=FormulaCache())
        baseline = solver.snapshot_statistics()
        explicit_a = expresso_result(get_benchmark("BoundedBuffer")).explicit
        explicit_b = expresso_result(get_benchmark("Readers-Writers")).explicit
        _, delta_a = matrix_with_statistics(explicit_a, solver=solver)
        _, delta_b = matrix_with_statistics(explicit_b, solver=solver)
        assert any(delta_a.values()) and any(delta_b.values())
        cumulative = solver.snapshot_statistics(since=baseline)
        for key, total in cumulative.items():
            assert delta_a.get(key, 0) + delta_b.get(key, 0) == total, key

    def test_repeat_build_reports_only_cache_hits(self):
        """A rebuild on the same solver must not re-report the first build."""
        from repro.analysis.commutativity import matrix_with_statistics
        from repro.harness.saturation import expresso_result

        solver = Solver(cache=FormulaCache())
        explicit = expresso_result(get_benchmark("BoundedBuffer")).explicit
        matrix_first, delta_first = matrix_with_statistics(explicit, solver=solver)
        matrix_again, delta_again = matrix_with_statistics(explicit, solver=solver)
        assert matrix_again == matrix_first
        assert delta_again.get("commute_cache_misses", 0) == 0
        # Critically, the rebuild's delta is its own work, not both builds'.
        assert delta_again.get("validity_queries", 0) <= delta_first.get(
            "validity_queries", 0)


# ---------------------------------------------------------------------------
# Tracer and deterministic export
# ---------------------------------------------------------------------------


class TestTracer:
    def test_null_tracer_outside_sessions(self):
        assert obs.tracer() is obs.NULL_TRACER
        assert not obs.tracer().enabled
        with obs.tracer().span("anything") as span:
            span.set(tag=1)  # no-op, no error

    def test_observe_installs_and_restores(self):
        assert not obs.tracer().enabled
        with obs.observe(trace=True) as session:
            assert obs.tracer() is session.tracer
            assert obs.registry() is session.registry
            with obs.tracer().span("outer", cat="test"):
                assert obs.tracer().phase() == "outer"
                with obs.tracer().span("inner", cat="test"):
                    assert obs.tracer().phase_path() == "outer/inner"
        assert not obs.tracer().enabled

    def test_sessions_nest(self):
        with obs.observe(trace=True) as outer:
            with obs.observe(trace=True) as inner:
                assert obs.tracer() is inner.tracer
            assert obs.tracer() is outer.tracer

    def test_span_args_land_on_end_event(self):
        with obs.observe(trace=True) as session:
            with session.tracer.span("s", cat="test", begin_tag=1) as span:
                span.set(end_tag=2)
        begin, end = session.tracer.events
        assert begin["args"] == {"begin_tag": 1}
        assert end["args"] == {"begin_tag": 1, "end_tag": 2}

    def test_deterministic_export_strips_wall_clock(self):
        with obs.observe(trace=True) as session:
            with session.tracer.span("s", cat="test"):
                pass
        events = obs.chrome_events([session.tracer.events])
        assert [event["ts"] for event in events] == [0, 1]
        assert all(event["pid"] == 0 and event["tid"] == 0 for event in events)

    def test_trace_document_validates(self):
        with obs.observe(trace=True) as session:
            with session.tracer.span("s", cat="test"):
                session.tracer.instant("prune", cat="explore",
                                       provenance="merge")
        document = obs.trace_document([session.tracer.events],
                                      metrics={"n": 1})
        assert validate_trace(document) == []
        assert document["otherData"]["metrics"] == {"n": 1}

    def test_validator_rejects_bad_provenance_and_unbalanced_spans(self):
        bad = {"traceEvents": [
            {"name": "prune", "cat": "explore", "ph": "i", "ts": 0,
             "pid": 0, "tid": 0, "args": {"provenance": "vibes"}},
            {"name": "s", "cat": "test", "ph": "B", "ts": 1,
             "pid": 0, "tid": 0, "args": {}},
        ]}
        errors = validate_trace(bad)
        assert any("provenance" in error for error in errors)
        assert any("unclosed" in error.lower() or "unbalanced" in error.lower()
                   for error in errors)


def _traced_exploration(workers, strategy="random", budget=30, seed=7):
    """(result, trace document) of one exploration in a traced session."""
    spec = get_benchmark("BoundedBuffer")
    monitor, coop_class = coop_monitor_and_class(spec, "expresso")
    programs = spec.workload(3, 2)
    with obs.observe(trace=True) as session:
        result = parallel_explore_class(
            monitor, coop_class, programs, strategy=strategy, budget=budget,
            seed=seed, minimize=False, benchmark=spec.name, workers=workers)
    document = obs.trace_document([session.tracer.events, *session.shards],
                                  metrics=session.registry.snapshot())
    return result, document


def _artifact_bytes(document):
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


class TestTraceDeterminism:
    def test_byte_identical_across_worker_counts(self):
        sequential, sequential_doc = _traced_exploration(workers=1)
        sharded, sharded_doc = _traced_exploration(workers=3)
        assert sequential.schedules_run == sharded.schedules_run == 30
        assert _artifact_bytes(sequential_doc) == _artifact_bytes(sharded_doc)

    def test_byte_identical_across_repeated_runs(self):
        _first, first = _traced_exploration(workers=3)
        _second, second = _traced_exploration(workers=3)
        assert _artifact_bytes(first) == _artifact_bytes(second)

    def test_artifact_passes_schema_validation(self):
        _result, document = _traced_exploration(workers=3)
        assert document["traceEvents"]
        assert validate_trace(document) == []

    def test_dfs_trace_is_byte_identical_across_hash_seeds(self, tmp_path):
        """The ``commute.pair`` fingerprints hash memo keys that hold
        frozensets of field names; a trace must not depend on their
        hash-seeded iteration order."""
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        traces = []
        for seed in ("0", "1"):
            path = tmp_path / f"trace-{seed}.json"
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            subprocess.run(
                [sys.executable, "-m", "repro.cli", "explore",
                 "--benchmark", "BoundedBuffer",
                 "--benchmark", "Readers-Writers", "--strategy", "dfs",
                 "--threads", "2", "--ops", "2", "--schedules", "200",
                 "--trace", str(path)],
                env=env, check=True, capture_output=True, timeout=300)
            traces.append(path.read_bytes())
        assert b'"commute.pair"' in traces[0]
        assert traces[0] == traces[1]

    def test_untraced_run_carries_no_artifacts(self):
        spec = get_benchmark("BoundedBuffer")
        monitor, coop_class = coop_monitor_and_class(spec, "expresso")
        with obs.observe() as session:
            parallel_explore_class(
                monitor, coop_class, spec.workload(3, 2), strategy="random",
                budget=5, minimize=False, workers=2)
        assert session.tracer.events == ()
        assert session.shards == []
        assert session.registry.snapshot() == {}


# ---------------------------------------------------------------------------
# Prune provenance
# ---------------------------------------------------------------------------


class TestPruneProvenance:
    def test_every_skip_has_exactly_one_known_tag(self):
        spec = get_benchmark("BoundedBuffer")
        monitor, coop_class = coop_monitor_and_class(spec, "expresso")
        programs = spec.workload(3, 2)
        with obs.observe(trace=True) as session:
            result = explore_class(monitor, coop_class, programs,
                                   strategy="dfs", budget=5000,
                                   minimize=False, por=True)
        prunes = [event for event in session.tracer.events
                  if event["name"] == "prune"]
        assert prunes, "DPOR on BoundedBuffer must skip something"
        for event in prunes:
            tags = [key for key in event["args"] if key == "provenance"]
            assert tags == ["provenance"]
            assert event["args"]["provenance"] in PROVENANCE_TAGS
        skipped = (result.pruned + result.por_skipped
                   + result.symmetry_skipped)
        assert len(prunes) == skipped

    def test_counters_fold_into_registry_once(self):
        spec = get_benchmark("BoundedBuffer")
        monitor, coop_class = coop_monitor_and_class(spec, "expresso")
        programs = spec.workload(3, 2)
        with obs.observe(trace=True) as session:
            result = explore_class(monitor, coop_class, programs,
                                   strategy="dfs", budget=5000,
                                   minimize=False, por=True)
        snapshot = session.registry.snapshot()
        assert snapshot["explore.schedules.judged"] == result.schedules_run
        assert snapshot["explore.skipped.merge"] == result.pruned
        assert snapshot["explore.skipped.symmetry"] == result.symmetry_skipped
        assert snapshot["explore.skipped.por"] == result.por_skipped
        # Refinement counters partition the coarse POR counter.
        refined = (snapshot.get("explore.skipped.sleep_set", 0)
                   + snapshot.get("explore.skipped.backtrack", 0))
        assert refined <= result.por_skipped or result.por_skipped == 0


# ---------------------------------------------------------------------------
# Profiler
# ---------------------------------------------------------------------------


class TestProfiler:
    def test_profile_attributes_compile_wall_time(self):
        spec = get_benchmark("BoundedBuffer")
        pipeline = ExpressoPipeline(cache=FormulaCache())
        with obs.observe(trace=True, profile=True) as session:
            start = time.perf_counter()
            pipeline.compile(spec.monitor())
            wall = time.perf_counter() - start
        phases, span_seconds = obs.phase_attribution(session.tracer.events)
        assert "compile" in phases
        assert span_seconds / wall >= 0.95
        profiler = session.profiler
        assert profiler.total_queries > 0
        rows = profiler.top(5)
        assert rows and {"fingerprint", "count", "seconds", "phase",
                         "caller"} <= set(rows[0])
        assert any("invariants" in row["phase"] for row in rows)
        assert profiler.by_caller()

    def test_profiler_off_by_default(self):
        assert obs.active_profiler() is None
        with obs.observe(trace=True):
            assert obs.active_profiler() is None
        with obs.observe(profile=True):
            assert obs.active_profiler() is not None

    def test_formula_fingerprint_is_stable(self):
        from repro.logic.parser import parse_formula

        first = obs.formula_fingerprint(parse_formula("x + 1 > 0"))
        second = obs.formula_fingerprint(parse_formula("x + 1 > 0"))
        other = obs.formula_fingerprint(parse_formula("x + 2 > 0"))
        assert first == second != other
