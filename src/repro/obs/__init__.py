"""Observability: the flight recorder for the whole pipeline.

One import point for the three instruments:

* :class:`~repro.obs.metrics.MetricsRegistry` — the unified counter
  registry (``smt.validity.queries``, ``explore.skipped.sleep_set``, ...);
* :class:`~repro.obs.trace.Tracer` — structured spans/instants exported as
  Chrome-trace-event JSON (Perfetto-loadable), deterministic by default;
* :class:`~repro.obs.profile.SmtProfiler` — per-query solver time by
  phase, caller site, and structural formula hash.

Instrumented code never constructs these directly; it asks this module for
the *active* session::

    from repro import obs

    tracer = obs.tracer()           # NULL_TRACER unless a session is open
    with tracer.span("compile.parse"):
        ...

and drivers open one session around a run::

    with obs.observe(trace=True) as session:
        pipeline.compile(monitor)
        queue_map(function, jobs)   # every unit recorded and absorbed
    session.write_trace(path)

Work units need nothing more: :func:`repro.distrib.queue_map` records each
unit of a traced session in whichever process claims it and hands the
events and counters back through :func:`absorb`.

With no session open every hook is a no-op costing one attribute check —
the exploration hot loop stays within the benchmarked budget.  Code that
never profiles loads no :mod:`repro.obs.profile` (:func:`repro.lazy_exports`).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import field
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Union

from repro import lazy_exports
from repro.obs.metrics import MetricsRegistry, SOLVER_METRIC_NAMES
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    chrome_events,
    phase_attribution,
    trace_document,
    write_trace,
)
from repro.record import record

if TYPE_CHECKING:
    from repro.obs.profile import SmtProfiler

__getattr__ = lazy_exports(__name__, {
    "profile": "SmtProfiler formula_fingerprint"})

__all__ = [
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "ObsSession",
    "SOLVER_METRIC_NAMES",
    "SmtProfiler",
    "Tracer",
    "absorb",
    "active_profiler",
    "chrome_events",
    "formula_fingerprint",
    "observe",
    "phase_attribution",
    "registry",
    "trace_document",
    "tracer",
    "write_trace",
]


@record
class ObsSession:
    """The instruments active inside one :func:`observe` block."""

    tracer: Union[Tracer, NullTracer]
    registry: MetricsRegistry
    profiler: Optional[SmtProfiler]
    #: Event lists of work units recorded in sessions of their own
    #: (:func:`absorb`), in collection order.
    shards: List[list] = field(default_factory=list)

    def write_trace(self, path: str) -> None:
        """Write this session's events, then every absorbed shard, with the
        registry's counters as one deterministic trace file."""
        write_trace(path, [self.tracer.events, *self.shards],
                    self.registry.snapshot())


_SESSION = ObsSession(tracer=NULL_TRACER, registry=MetricsRegistry(),
                      profiler=None)


def tracer() -> Union[Tracer, NullTracer]:
    """The active tracer (the shared no-op tracer outside a session)."""
    return _SESSION.tracer


def registry() -> MetricsRegistry:
    """The active session's registry (a process-wide one outside sessions)."""
    return _SESSION.registry


def active_profiler() -> Optional[SmtProfiler]:
    """The active SMT profiler, or None (the common, zero-cost case)."""
    return _SESSION.profiler


def absorb(events: list, metrics: Dict[str, int]) -> None:
    """Fold a unit recorded in a session of its own into the active one:
    its events become the next shard, its counters add up."""
    _SESSION.shards.append(events)
    _SESSION.registry.merge(metrics)


@contextmanager
def observe(trace: bool = False, profile: bool = False) -> Iterator[ObsSession]:
    """Open an observability session: install a tracer/profiler/registry.

    Sessions nest by save/restore, so a traced exploration inside a traced
    campaign keeps the inner instruments for the inner run only.
    """
    global _SESSION
    profiler: Optional[SmtProfiler] = None
    if profile:
        from repro.obs.profile import SmtProfiler

        profiler = SmtProfiler()
    session = ObsSession(tracer=Tracer() if trace else NULL_TRACER,
                         registry=MetricsRegistry(), profiler=profiler)
    saved, _SESSION = _SESSION, session
    try:
        yield session
    finally:
        _SESSION = saved


# ---------------------------------------------------------------------------
# Cross-surface folds
# ---------------------------------------------------------------------------

#: ExplorationResult fields → registry counter names.  Deliberately excludes
#: timing (``elapsed_seconds``) and worker-count-dependent counters (oracle
#: cache hits/misses), so the folded snapshot is byte-stable across
#: ``--workers`` settings for deterministic strategies.
EXPLORATION_METRIC_NAMES: Dict[str, str] = {
    "schedules_run": "explore.schedules.judged",
    "completed": "explore.schedules.completed",
    "stalls": "explore.schedules.stalls",
    "pruned": "explore.skipped.merge",
    "por_skipped": "explore.skipped.por",
    "symmetry_skipped": "explore.skipped.symmetry",
    "distinct_states": "explore.states.distinct",
}


def record_exploration(result: object,
                       into: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Fold an ExplorationResult's counters into a registry."""
    target = into if into is not None else registry()
    for field_name, metric in EXPLORATION_METRIC_NAMES.items():
        target.inc(metric, int(getattr(result, field_name, 0) or 0))
    target.inc("explore.failures", len(getattr(result, "failures", ()) or ()))
    return target
