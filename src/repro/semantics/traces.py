"""Monitor traces and syntactic well-formedness (paper §3.2 and Appendix A).

An event ``(t, w, b)`` records that thread *t* attempted the CCR *w* and
either got blocked (``b = False``) or executed it in full (``b = True``).
A trace is *syntactically well-formed* when

1. each thread's projection is a sequence of complete method CCR-sequences
   followed by at most one prefix of a method, and
2. a thread that is not at a method boundary is immediately followed in the
   trace by its own next CCR (threads leave the monitor only by blocking or
   by finishing a method).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.lang.ast import MethodDecl, Monitor
from repro.record import record


@record(frozen=True)
class Event:
    """A monitor event ``(thread, ccr_label, entered)``."""

    thread: int
    ccr_label: str
    entered: bool

    @property
    def key(self) -> Tuple[int, str]:
        """The paper's ē — the (thread, CCR) pair without the boolean."""
        return (self.thread, self.ccr_label)

    def __str__(self) -> str:  # pragma: no cover - debugging helper
        flag = "T" if self.entered else "F"
        return f"({self.thread},{self.ccr_label},{flag})"


def method_ccr_labels(monitor: Monitor) -> Dict[str, Tuple[str, ...]]:
    """Per-method tuple of CCR labels in program order."""
    return {method.name: tuple(ccr.label for ccr in method.ccrs)
            for method in monitor.methods}


def method_of_label(label: str) -> str:
    """The method name encoded in a CCR label (``"enterReader#0"`` → ``"enterReader"``)."""
    return label.split("#")[0]


def thread_projection(trace: Sequence[Event], thread: int) -> List[str]:
    """τ↓t of Definition 10.1: the labels of the CCRs *thread* fully executed."""
    return [event.ccr_label for event in trace
            if event.thread == thread and event.entered]


def _projection_well_formed(labels: List[str], monitor: Monitor) -> bool:
    """Check Definition 10.2 for one thread's projection."""
    per_method = method_ccr_labels(monitor)
    index = 0
    while index < len(labels):
        method_name = method_of_label(labels[index])
        expected = per_method.get(method_name)
        if expected is None:
            return False
        span = labels[index:index + len(expected)]
        if tuple(span) == expected:
            index += len(expected)
            continue
        # Otherwise this must be a prefix of the method and the trace must end here.
        if tuple(span) == expected[:len(span)] and index + len(span) == len(labels):
            return True
        return False
    return True


def trace_is_well_formed(trace: Sequence[Event], monitor: Monitor) -> bool:
    """Syntactic well-formedness (Definition 10.3)."""
    per_method = method_ccr_labels(monitor)
    threads = {event.thread for event in trace}
    for thread in threads:
        if not _projection_well_formed(thread_projection(trace, thread), monitor):
            return False
    # Condition 2: after a completed CCR that is not the last of its method,
    # the same thread must immediately attempt the successor CCR.
    for position, event in enumerate(trace[:-1]):
        if not event.entered:
            continue
        method_name = method_of_label(event.ccr_label)
        labels = per_method[method_name]
        label_index = labels.index(event.ccr_label)
        if label_index == len(labels) - 1:
            continue
        successor = labels[label_index + 1]
        next_event = trace[position + 1]
        if next_event.thread != event.thread or next_event.ccr_label != successor:
            return False
    # The trace must not end with a thread stuck mid-method (condition (c)):
    # a completed non-final CCR as the last event means the thread "left"
    # the monitor without blocking or finishing.
    if trace:
        last = trace[-1]
        if last.entered:
            labels = per_method[method_of_label(last.ccr_label)]
            if labels.index(last.ccr_label) != len(labels) - 1:
                return False
    return True
