"""Table 1: Expresso compilation (analysis + synthesis) time per benchmark.

Two execution modes:

* **sequential** (default) — one pipeline per benchmark in this process, each
  with a compile-local solver cache;
* **parallel** (``workers > 1``) — the suite is fanned out over worker
  processes through the work dispatcher (:func:`repro.distrib.queue_map`).
  Compilation is CPU-bound pure Python, so processes (not threads) are the
  only way to use more than one core; each worker builds its own solver and
  cache, which is sound because cached results are pure facts about
  formulas.

Both modes report the solver-cache hit/miss counters next to the timings so
cache effectiveness lands in the Table 1 output.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

# Every Table 1 row compiles: load now the compiler parts the pipeline
# imports on first use, so the first measured compile imports nothing.
from repro.analysis import abduction, commutativity  # noqa: F401
from repro.analysis.lint import checks  # noqa: F401
from repro.benchmarks_lib.registry import ALL_BENCHMARKS
from repro.benchmarks_lib.spec import BenchmarkSpec
from repro.placement.pipeline import ExpressoPipeline


@dataclass(frozen=True)
class CompileTimeRow:
    """One row of Table 1."""

    benchmark: str
    seconds: float
    validity_queries: int
    invariant: str
    notifications: int
    broadcasts: int
    cache_hits: int = 0
    cache_misses: int = 0
    commute_cache_hits: int = 0
    commute_cache_misses: int = 0
    commute_static_skips: int = 0
    #: Per-phase wall breakdown (parse/invariants/placement/instrument/lint).
    phase_seconds: Dict[str, float] = field(default_factory=dict)


def _compile_row(spec: BenchmarkSpec, use_commutativity: bool) -> CompileTimeRow:
    """Compile one benchmark and package the Table 1 row."""
    from repro.logic.pretty import pretty

    pipeline = ExpressoPipeline(use_commutativity=use_commutativity)
    start = time.perf_counter()
    result = pipeline.compile(spec.monitor())
    elapsed = time.perf_counter() - start
    return CompileTimeRow(
        benchmark=spec.name,
        seconds=elapsed,
        validity_queries=result.solver_statistics.get("validity_queries", 0),
        invariant=pretty(result.invariant),
        notifications=result.placement.total_notifications(),
        broadcasts=result.placement.broadcast_count(),
        cache_hits=result.solver_statistics.get("cache_hits", 0),
        cache_misses=result.solver_statistics.get("cache_misses", 0),
        commute_cache_hits=result.solver_statistics.get("commute_cache_hits", 0),
        commute_cache_misses=result.solver_statistics.get("commute_cache_misses", 0),
        commute_static_skips=result.solver_statistics.get("commute_static_skips", 0),
        phase_seconds={phase: round(seconds, 4)
                       for phase, seconds in result.phase_seconds.items()},
    )


def _compile_row_task(task: Tuple[Union[str, BenchmarkSpec], bool]) -> CompileTimeRow:
    """Worker entry point: accepts a registry name or a pickled spec."""
    target, use_commutativity = task
    spec = ALL_BENCHMARKS[target] if isinstance(target, str) else target
    return _compile_row(spec, use_commutativity)


def measure_compile_times(benchmarks: Optional[Sequence[BenchmarkSpec]] = None,
                          use_commutativity: bool = True,
                          workers: int = 1) -> List[CompileTimeRow]:
    """Run the full pipeline on every benchmark and record wall-clock time.

    With ``workers > 1`` the benchmarks compile concurrently on that many
    processes; row order still follows the benchmark order.  Per-row
    ``seconds`` is each benchmark's own compile time regardless of mode —
    total wall clock is what parallelism improves.
    """
    from repro.distrib import JobFailure, queue_map

    specs = list(benchmarks) if benchmarks is not None else list(ALL_BENCHMARKS.values())
    if workers <= 1 or len(specs) <= 1:
        return [_compile_row(spec, use_commutativity) for spec in specs]

    # Registry benchmarks travel by name (cheap and always picklable);
    # ad-hoc specs are pickled whole.
    tasks: List[Tuple[Union[str, BenchmarkSpec], bool]] = []
    for spec in specs:
        registered = ALL_BENCHMARKS.get(spec.name)
        target = spec.name if registered is spec else spec
        tasks.append((target, use_commutativity))
    rows = queue_map(_compile_row_task, tasks, workers=workers)
    for spec, row in zip(specs, rows):
        if isinstance(row, JobFailure):
            raise RuntimeError(f"compiling {spec.name} failed: {row.error}")
    return rows
