"""The unified metrics registry (flight-recorder counters).

Every quantitative claim the harness makes — validity-query counts, cache
effectiveness, DPOR/symmetry/shared-store skip counts, fuzz power-schedule
picks — used to live in ad-hoc dicts scattered across ``Solver.statistics``,
``FormulaCache`` attributes, ``ExplorationResult`` fields, and campaign JSON.
:class:`MetricsRegistry` is the one place those numbers accumulate, under
hierarchical dotted names (``smt.validity.queries``,
``explore.skipped.sleep_set``, ``fuzz.power.picks``), with a
snapshot/diff/reset API so any caller can report a *delta* for its own run
instead of a process-cumulative total.

The legacy surfaces stay: :class:`LegacyStatsView` re-exposes a registry as
the flat ``Solver.statistics`` dict the pipeline, Table 1, and the tests have
always consumed — reads and writes pass straight through to the registry, so
the two views can never disagree.
"""

from __future__ import annotations

from collections.abc import MutableMapping
from typing import Dict, Iterator, List, Optional, Tuple

Number = float

#: Histogram bucket upper bounds (seconds-shaped; the last bucket is +inf).
_HIST_BOUNDS: Tuple[float, ...] = (
    0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0,
)


class MetricsRegistry:
    """Counters, gauges, and histograms under hierarchical dotted names."""

    __slots__ = ("_counters", "_gauges", "_histograms")

    def __init__(self) -> None:
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, Number] = {}
        self._histograms: Dict[str, List[Number]] = {}

    # -- counters ------------------------------------------------------------

    def inc(self, name: str, value: int = 1) -> None:
        """Add *value* to counter *name* (creating it at zero)."""
        self._counters[name] = self._counters.get(name, 0) + value

    def value(self, name: str, default: int = 0) -> int:
        """Current value of counter *name*."""
        return self._counters.get(name, default)

    def set_counter(self, name: str, value: int) -> None:
        """Force counter *name* to *value* (used by the legacy dict facade)."""
        self._counters[name] = value

    # -- gauges --------------------------------------------------------------

    def set_gauge(self, name: str, value: Number) -> None:
        self._gauges[name] = value

    def gauge(self, name: str, default: Number = 0) -> Number:
        return self._gauges.get(name, default)

    # -- histograms ----------------------------------------------------------

    def observe(self, name: str, value: Number) -> None:
        """Record one observation into histogram *name*."""
        self._histograms.setdefault(name, []).append(value)

    def histogram_summary(self, name: str) -> Dict[str, Number]:
        values = self._histograms.get(name, [])
        if not values:
            return {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0}
        buckets = [0] * (len(_HIST_BOUNDS) + 1)
        for value in values:
            for index, bound in enumerate(_HIST_BOUNDS):
                if value <= bound:
                    buckets[index] += 1
                    break
            else:
                buckets[-1] += 1
        return {
            "count": len(values),
            "sum": sum(values),
            "min": min(values),
            "max": max(values),
            "buckets": buckets,
        }

    # -- snapshot / diff / reset --------------------------------------------

    def snapshot(self) -> Dict[str, int]:
        """A sorted point-in-time copy of the counters.

        Counters only: gauges and histograms carry timing-shaped values, so
        they are deliberately excluded from the deterministic artifact
        surface (``trace_document`` embeds this snapshot byte-stably).
        """
        return {name: self._counters[name] for name in sorted(self._counters)}

    def full_snapshot(self) -> Dict[str, object]:
        """Counters plus gauges plus histogram summaries (human surfaces)."""
        return {
            "counters": self.snapshot(),
            "gauges": {name: self._gauges[name] for name in sorted(self._gauges)},
            "histograms": {name: self.histogram_summary(name)
                           for name in sorted(self._histograms)},
        }

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

    def reset(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()


# ---------------------------------------------------------------------------
# Legacy flat-dict facade
# ---------------------------------------------------------------------------

#: Legacy ``Solver.statistics`` keys and their registry names.
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


class LegacyStatsView(MutableMapping):
    """``Solver.statistics`` compatibility: a flat dict over a registry.

    Reads and writes forward to hierarchical registry counters, so code that
    does ``solver.statistics["sat_queries"] += 1`` and code that reads
    ``registry.value("smt.sat.queries")`` always agree.  Unknown keys map to
    ``<prefix><key>`` so ad-hoc counters (the commutativity module's
    ``_count`` helper) keep working.
    """

    __slots__ = ("registry", "_prefix", "_names")

    def __init__(self, registry: MetricsRegistry,
                 names: Optional[Dict[str, str]] = None,
                 prefix: str = "smt.") -> None:
        self.registry = registry
        self._prefix = prefix
        # Own the key order and membership; values live in the registry.
        self._names: Dict[str, str] = dict(names or {})
        for metric in self._names.values():
            if metric not in registry._counters:
                registry.set_counter(metric, 0)

    def metric_name(self, key: str) -> str:
        name = self._names.get(key)
        return name if name is not None else self._prefix + key

    def __getitem__(self, key: str) -> int:
        if key not in self._names:
            raise KeyError(key)
        return self.registry.value(self._names[key])

    def __setitem__(self, key: str, value: int) -> None:
        if key not in self._names:
            self._names[key] = self.metric_name(key)
        self.registry.set_counter(self._names[key], value)

    def __delitem__(self, key: str) -> None:
        del self._names[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self._names)

    def __len__(self) -> int:
        return len(self._names)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (dict, MutableMapping)):
            return dict(self) == dict(other)
        return NotImplemented

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    def __repr__(self) -> str:
        return f"LegacyStatsView({dict(self)!r})"
