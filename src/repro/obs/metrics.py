"""The unified metrics registry (flight-recorder counters).

Every quantitative claim the harness makes — validity-query counts, cache
effectiveness, DPOR/symmetry/shared-store skip counts, fuzz power-schedule
picks — accumulates in a :class:`MetricsRegistry` under hierarchical dotted
names (``smt.validity.queries``, ``explore.skipped.sleep_set``,
``fuzz.power.picks``), with a snapshot/diff API so any caller can report a
*delta* for its own run instead of a process-cumulative total.

Each :class:`~repro.smt.solver.Solver` owns one registry (``Solver.metrics``)
and counts its queries there under the names of :data:`SOLVER_METRIC_NAMES`;
the flat keys of that table (``validity_queries``, ``cache_hits``, ...)
appear only in :meth:`~repro.smt.solver.Solver.snapshot_statistics`, the
per-compile reports built from it, and Table 1.
"""

from __future__ import annotations

from typing import Dict


class MetricsRegistry:
    """Integer counters under hierarchical dotted names."""

    __slots__ = ("_counters",)

    def __init__(self) -> None:
        self._counters: Dict[str, int] = {}

    def inc(self, name: str, value: int = 1) -> None:
        """Add *value* to counter *name* (creating it at zero)."""
        self._counters[name] = self._counters.get(name, 0) + value

    def value(self, name: str, default: int = 0) -> int:
        """Current value of counter *name*."""
        return self._counters.get(name, default)

    # -- snapshot / diff ----------------------------------------------------

    def snapshot(self) -> Dict[str, int]:
        """A sorted point-in-time copy of the counters (``trace_document``
        embeds it byte-stably)."""
        return {name: self._counters[name] for name in sorted(self._counters)}

    @staticmethod
    def diff(before: Dict[str, int], after: Dict[str, int]) -> Dict[str, int]:
        """Per-counter ``after - before`` (keys sorted; zero deltas kept
        only for keys present in *after*)."""
        return {name: after[name] - before.get(name, 0)
                for name in sorted(after)}

    def delta_since(self, before: Dict[str, int]) -> Dict[str, int]:
        """Counter deltas relative to an earlier :meth:`snapshot`."""
        return self.diff(before, self.snapshot())

    def merge(self, snapshot: Dict[str, int]) -> None:
        """Fold another registry's counter snapshot into this one (shard
        merging: counts add)."""
        for name, value in snapshot.items():
            self.inc(name, value)


#: Solver counters: the flat keys of ``Solver.snapshot_statistics`` (in
#: report order) and the registry names ``Solver.metrics`` counts them under.
SOLVER_METRIC_NAMES: Dict[str, str] = {
    "sat_queries": "smt.sat.queries",
    "theory_checks": "smt.theory.checks",
    "validity_queries": "smt.validity.queries",
    "cache_hits": "smt.cache.hits",
    "cache_misses": "smt.cache.misses",
    "theory_lemmas": "smt.theory.lemmas",
    "sat_clauses": "smt.sat.clauses",
    "sat_conflicts": "smt.sat.conflicts",
    "commute_cache_hits": "smt.commute.cache_hits",
    "commute_cache_misses": "smt.commute.cache_misses",
    "commute_static_skips": "smt.commute.static_skips",
    "abduce_cache_hits": "smt.abduce.cache_hits",
    "abduce_cache_misses": "smt.abduce.cache_misses",
    "unknowns": "smt.unknown",
    "timeouts": "smt.timeouts",
}
