"""Layer spans for the benchmark's traced run.

The traced run installs timing wrappers around public functions at the
program's layer boundaries (``TARGETS``) and restores the originals
afterwards; the program itself carries no benchmark code.  Spans (name,
start, end, parent) are kept in memory.  A layer's self time is its span's
duration minus the durations of its direct child spans; the spans export as
Chrome-trace JSON that ``python -m repro.obs.validate`` accepts.

Only the thread that installed the wrappers records spans.  The fuzz
campaign's lease-heartbeat thread may enter a wrapped store transaction
concurrently, and a single span stack cannot nest events from two threads.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import threading
import time
from collections import Counter
from typing import Callable, Dict, Iterator, List, Optional

#: The ExplorationResult counters folded into ``explore.*`` layer counts.
EXPLORE_FIELDS = ("schedules_run", "pruned", "por_skipped", "symmetry_skipped",
                  "distinct_states", "oracle_hits", "oracle_misses")


def _smt_before(args: tuple) -> int:
    return args[0].metrics.value("smt.cache.hits")


def _smt_after(counts: Counter, before: int, args: tuple, _result) -> None:
    counts["smt.cache_hits"] += args[0].metrics.value("smt.cache.hits") - before


def _placement_after(counts: Counter, _before, _args: tuple, result) -> None:
    counts["placement.notifications"] += result.total_notifications()


def _explore_after(counts: Counter, _before, _args: tuple, result) -> None:
    for name in EXPLORE_FIELDS:
        counts[f"explore.{name}"] += int(getattr(result, name))


#: (module, attribute, layer, kind, before hook, after hook).  A dotted
#: attribute names a method; kind "context" wraps a context-manager factory
#: (the span covers the ``with`` block) and "count" only counts calls.
TARGETS = (
    ("repro.smt.solver", "Solver.check_sat", "smt", "call",
     _smt_before, _smt_after),
    ("repro.smt.solver", "Solver.check_valid", "smt.validity_queries",
     "count", None, None),
    ("repro.placement.pipeline", "load_monitor", "lang", "call", None, None),
    ("repro.placement.pipeline", "infer_monitor_invariant",
     "analysis.invariants", "call", None, None),
    ("repro.placement.pipeline", "place_signals", "placement", "call",
     None, _placement_after),
    ("repro.placement.pipeline", "instrument", "placement", "call", None, None),
    ("repro.placement.pipeline", "lint_explicit", "analysis.lint", "call",
     None, None),
    ("repro.analysis.commutativity", "matrix_with_statistics",
     "analysis.commutativity", "call", None, None),
    ("repro.explore.engine", "run_schedule", "explore.scheduler", "call",
     None, None),
    ("repro.explore.engine", "explore_class", "explore.engine", "call",
     None, _explore_after),
    ("repro.explore.engine", "coop_class_for_explicit", "codegen", "call",
     None, None),
    ("repro.explore.oracle", "OracleCache.judge", "explore.oracle", "call",
     None, None),
    ("repro.explore.oracle", "OracleCache.judge_partial", "explore.oracle",
     "call", None, None),
    ("repro.fuzz.campaign", "apply_operator", "fuzz.mutate", "call", None, None),
    ("repro.fuzz.campaign", "run_features", "fuzz.coverage", "call", None, None),
    ("repro.fuzz.corpus", "CorpusStore.save_entry", "fuzz.corpus", "call",
     None, None),
    ("repro.resilience.journal", "Journal.append", "resilience.journal", "call",
     None, None),
    ("repro.distrib.store", "CampaignStore.transaction", "distrib.store",
     "context", None, None),
)


def _resolve(module_name: str, attribute: str):
    """(owner, name) for a target; a missing module or name fails loudly."""
    owner = importlib.import_module(module_name)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            break
    if owner is None or name not in vars(owner):
        raise LookupError(f"trace target {module_name}.{attribute} not found; "
                          f"update e2ebench/layer_trace.py TARGETS")
    return owner, name


class _TracedContext:
    """A context manager whose ``with`` block is one span."""

    def __init__(self, trace: "LayerTrace", layer: str, inner) -> None:
        self._trace = trace
        self._layer = layer
        self._inner = inner
        self._index = -1

    def __enter__(self):
        self._index = self._trace.open(self._layer)
        try:
            return self._inner.__enter__()
        except BaseException:
            self._trace.close(self._index)
            raise

    def __exit__(self, *exc_info):
        try:
            return self._inner.__exit__(*exc_info)
        finally:
            self._trace.close(self._index)


class LayerTrace:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        #: [name, start, end, parent index] per span, in start order.
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._saved: list = []
        self._thread = threading.get_ident()

    # -- recording -------------------------------------------------------------

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        if self._stack.pop() != index:
            raise RuntimeError(f"span {self.spans[index][0]!r} closed out of order")

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span recorded by the benchmark itself (roots, runtime calls)."""
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    # -- wrappers --------------------------------------------------------------

    def install(self) -> None:
        """Wrap every target; call after the program's modules are imported."""
        for module_name, attribute, layer, kind, before, after in TARGETS:
            owner, name = _resolve(module_name, attribute)
            original = vars(owner)[name]
            self._saved.append((owner, name, original))
            setattr(owner, name, self._wrapper(original, layer, kind, before, after))

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def _wrapper(self, original: Callable, layer: str, kind: str,
                 before: Optional[Callable], after: Optional[Callable]) -> Callable:
        trace = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if threading.get_ident() != trace._thread:
                return original(*args, **kwargs)
            if kind == "count":
                trace.counts[layer] += 1
                return original(*args, **kwargs)
            if kind == "context":
                return _TracedContext(trace, layer, original(*args, **kwargs))
            token = before(args) if before is not None else None
            index = trace.open(layer)
            try:
                result = original(*args, **kwargs)
            finally:
                trace.close(index)
            if after is not None:
                after(trace.counts, token, args, result)
            return result

        return traced

    # -- analysis --------------------------------------------------------------

    def _child_seconds(self) -> List[float]:
        children = [0.0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                children[parent] += end - start
        return children

    def self_seconds(self) -> Dict[str, float]:
        """Self time per span name, summed over all spans of that name."""
        totals: Dict[str, float] = {}
        for (name, start, end, _parent), children in zip(self.spans,
                                                          self._child_seconds()):
            totals[name] = totals.get(name, 0.0) + (end - start) - children
        return totals

    def calls(self, name: str) -> int:
        return sum(1 for span in self.spans if span[0] == name)

    def coverage(self, root: str) -> float:
        """Share of the named root spans' wall time covered by their children."""
        children = self._child_seconds()
        covered = total = 0.0
        for (name, start, end, parent), inner in zip(self.spans, children):
            if name == root and parent < 0:
                covered += inner
                total += end - start
        return covered / total if total > 0 else 0.0

    def chrome_document(self) -> dict:
        """The spans as a Chrome-trace object-format document (B/E pairs)."""
        kids: List[List[int]] = [[] for _ in self.spans]
        roots: List[int] = []
        for index, span in enumerate(self.spans):
            (kids[span[3]] if span[3] >= 0 else roots).append(index)
        origin = self.spans[0][1] if self.spans else 0.0
        events: List[dict] = []

        def emit(index: int) -> None:
            name, start, end, parent = self.spans[index]
            parent_name = self.spans[parent][0] if parent >= 0 else ""
            events.append({"name": name, "cat": "layer", "ph": "B",
                           "ts": (start - origin) * 1e6, "pid": 0, "tid": 0,
                           "args": {"parent": parent_name}})
            for child in kids[index]:
                emit(child)
            events.append({"name": name, "cat": "layer", "ph": "E",
                           "ts": (end - origin) * 1e6, "pid": 0, "tid": 0,
                           "args": {}})

        for index in roots:
            emit(index)
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": {"counts": dict(sorted(self.counts.items()))}}
