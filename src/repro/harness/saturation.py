"""Saturation-test driver (paper §7, "Performance evaluation methodology").

A saturation test runs N threads that do nothing but call monitor operations,
which stress-tests the synchronization code itself.  For each benchmark and
thread count the harness measures the four disciplines on identical
workloads:

* ``expresso``   — the monitor generated by this reproduction's pipeline;
* ``explicit``   — the hand-written explicit-signal placement;
* ``autosynch``  — the AutoSynch-style predicate-tagging runtime;
* ``implicit``   — the naive broadcast-everything automatic monitor.

Besides wall-clock ms/op the harness records the runtime metrics (wake-ups,
spurious wake-ups, run-time predicate evaluations), which give a
machine-independent view of why the disciplines differ.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.benchmarks_lib.spec import BenchmarkSpec, Workload
from repro.codegen.python_gen import (
    generate_python_autosynch,
    generate_python_explicit,
    generate_python_implicit,
    materialize_class,
)
from repro.record import record
from repro.placement.pipeline import ExpressoPipeline, expresso_result

#: The disciplines compared in Figures 8 and 9 (plus the naive baseline).
DISCIPLINES: Tuple[str, ...] = ("expresso", "explicit", "autosynch", "implicit")


class SaturationTimeout(RuntimeError):
    """Raised when a workload fails to finish (a lost wake-up would hang it)."""


@record(frozen=True)
class SaturationMeasurement:
    """One (benchmark, discipline, thread count) measurement."""

    benchmark: str
    discipline: str
    threads: int
    operations: int
    elapsed_seconds: float
    metrics: Dict[str, int]

    @property
    def ms_per_op(self) -> float:
        if self.operations == 0:
            return 0.0
        return (self.elapsed_seconds * 1000.0) / self.operations


# Keyed by benchmark, discipline and configuration, like :func:`expresso_result`.
_CLASS_CACHE: Dict[Tuple[str, str, Tuple], type] = {}


def build_monitor_class(spec: BenchmarkSpec, discipline: str,
                        pipeline: Optional[ExpressoPipeline] = None) -> type:
    """Materialize the Python monitor class for one benchmark/discipline pair."""
    pipeline = pipeline if pipeline is not None else ExpressoPipeline()
    key = (spec.name, discipline, pipeline.config_key())
    if key in _CLASS_CACHE:
        return _CLASS_CACHE[key]
    monitor = spec.monitor()
    if discipline == "expresso":
        source = generate_python_explicit(expresso_result(spec, pipeline).explicit,
                                          class_name="GeneratedMonitor")
    elif discipline == "explicit":
        source = generate_python_explicit(spec.handwritten_explicit(),
                                          class_name="GeneratedMonitor")
    elif discipline == "autosynch":
        source = generate_python_autosynch(monitor, class_name="GeneratedMonitor")
    elif discipline == "implicit":
        source = generate_python_implicit(monitor, class_name="GeneratedMonitor")
    else:
        raise ValueError(f"unknown discipline {discipline!r}")
    cls = materialize_class(source, "GeneratedMonitor")
    _CLASS_CACHE[key] = cls
    return cls


def run_saturation(spec: BenchmarkSpec, discipline: str, threads: int,
                   ops_per_thread: Optional[int] = None,
                   timeout_seconds: float = 60.0,
                   pipeline: Optional[ExpressoPipeline] = None,
                   seed: Optional[int] = None) -> SaturationMeasurement:
    """Run one saturation test and return its measurement.

    A non-None *seed* reproducibly permutes which thread runs which op
    sequence (sequences keep their internal order), so repeated runs probe
    different contention patterns without losing comparability.
    """
    monitor_class = build_monitor_class(spec, discipline, pipeline)
    workload = spec.workload(threads, ops_per_thread)
    if seed is not None:
        from repro.benchmarks_lib.spec import shuffle_workload

        workload = shuffle_workload(workload, seed)
    instance = monitor_class()
    total_ops = sum(len(ops) for ops in workload)

    errors: List[BaseException] = []

    def worker(ops: Sequence[Tuple[str, tuple]]) -> None:
        try:
            for method_name, args in ops:
                getattr(instance, method_name)(*args)
        except BaseException as exc:  # pragma: no cover - surfaced via `errors`
            errors.append(exc)

    workers = [threading.Thread(target=worker, args=(ops,), daemon=True)
               for ops in workload if ops]
    start = time.perf_counter()
    for thread in workers:
        thread.start()
    deadline = start + timeout_seconds
    for thread in workers:
        remaining = max(deadline - time.perf_counter(), 0.0)
        thread.join(timeout=remaining)
    elapsed = time.perf_counter() - start
    if any(thread.is_alive() for thread in workers):
        raise SaturationTimeout(
            f"{spec.name}/{discipline} with {threads} threads did not finish "
            f"within {timeout_seconds}s — suspected lost wake-up"
        )
    if errors:
        raise errors[0]
    return SaturationMeasurement(
        benchmark=spec.name,
        discipline=discipline,
        threads=threads,
        operations=total_ops,
        elapsed_seconds=elapsed,
        metrics=instance.metrics.snapshot(),
    )


def sweep_thread_ladder(spec: BenchmarkSpec, disciplines: Sequence[str] = DISCIPLINES,
                        thread_ladder: Optional[Sequence[int]] = None,
                        ops_per_thread: Optional[int] = None,
                        timeout_seconds: float = 60.0,
                        seed: Optional[int] = None) -> List[SaturationMeasurement]:
    """Measure every discipline across the benchmark's thread ladder."""
    ladder = tuple(thread_ladder) if thread_ladder is not None else spec.thread_ladder
    measurements: List[SaturationMeasurement] = []
    for threads in ladder:
        for discipline in disciplines:
            measurements.append(
                run_saturation(spec, discipline, threads, ops_per_thread,
                               timeout_seconds, seed=seed)
            )
    return measurements
