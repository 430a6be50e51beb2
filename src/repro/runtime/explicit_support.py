"""Support classes for generated explicit-signal monitors.

:class:`Condvar` is the condition variable of every threaded discipline:
the generated explicit-signal monitors (Expresso's and the hand-written
placements) and both automatic runtimes wait and notify through it.

:class:`GuardWaiters` is the run-time data structure of paper §6
("Instrumentation for predicates with local variables"): it tracks, for one
waited-on guard, the thread-local variable snapshots of every blocked thread,
so that a signalling thread can decide whether a *conditional* notification
should fire even though the predicate mentions variables it cannot see.

:class:`MonitorMetrics` counts the events the evaluation cares about
(wake-ups, spurious wake-ups, run-time predicate evaluations, signals and
broadcasts); the saturation harness reads it after each run.
"""

from __future__ import annotations

from _thread import allocate_lock
from collections import deque
from dataclasses import MISSING, dataclass, fields
from typing import Callable, Deque, Dict, List, Optional


@dataclass
class MonitorMetrics:
    """Counters shared by all runtimes; thread-safe under the monitor lock."""

    operations: int = 0
    waits: int = 0
    wakeups: int = 0
    spurious_wakeups: int = 0
    signals: int = 0
    broadcasts: int = 0
    predicate_evaluations: int = 0

    # snapshot/reset are derived from the dataclass fields so that adding a
    # counter can never desynchronize them.

    def snapshot(self) -> Dict[str, int]:
        return {spec.name: getattr(self, spec.name) for spec in fields(self)}

    def reset(self) -> None:
        for spec in fields(self):
            if spec.default is not MISSING:
                value = spec.default
            elif spec.default_factory is not MISSING:
                value = spec.default_factory()
            else:
                value = 0
            setattr(self, spec.name, value)


class Condvar:
    """A Mesa condition variable over a monitor lock the caller holds.

    Waiters park in FIFO order, each on a private lock that a notifier
    releases.  Unlike :class:`threading.Condition` it never probes whether
    the caller owns the monitor lock (every call site runs inside it), and
    a notify with no waiter is one empty-deque test: the cost of Java's
    ``Condition.signal()`` on an empty wait set, which the paper's
    measurements assume.  ``notify`` pops the oldest waiter in O(1) where
    ``threading.Condition`` copies or scans its waiter deque.  Callers
    re-check their predicate after every wake-up, as Mesa semantics
    require.
    """

    __slots__ = ("_lock", "_waiters")

    def __init__(self, lock) -> None:
        self._lock = lock
        self._waiters: Deque = deque()

    def wait(self) -> None:
        """Release the monitor lock, park until notified, then re-acquire it."""
        waiter = allocate_lock()
        waiter.acquire()
        self._waiters.append(waiter)
        try:
            self._lock.release()
        except RuntimeError:
            # Not holding the monitor lock: nothing parked, so drop the entry.
            self._discard(waiter)
            raise
        try:
            waiter.acquire()
        except BaseException:
            # Interrupted while parked (a signal handler raised).
            self._lock.acquire()
            self._discard(waiter)
            raise
        self._lock.acquire()

    def _discard(self, waiter) -> None:
        """Remove a waiter that is leaving by exception; keep its wake-up alive."""
        try:
            self._waiters.remove(waiter)
        except ValueError:
            # A notifier already popped it: pass that wake-up on.
            self.notify()

    def notify(self) -> None:
        """Wake the oldest waiter, if any."""
        if self._waiters:
            self._waiters.popleft().release()

    def notify_all(self) -> None:
        """Wake every waiter."""
        waiters = self._waiters
        while waiters:
            waiters.popleft().release()

    def __len__(self) -> int:
        return len(self._waiters)


class GuardWaiters:
    """Waiter-snapshot registry for one guard with thread-local variables.

    Blocked threads register their local-variable snapshot before waiting and
    deregister after being admitted; a signalling thread asks
    :meth:`any_satisfied` whether at least one registered snapshot satisfies
    the guard in the current shared state.  All calls must hold the monitor
    lock (the generated code guarantees this).
    """

    def __init__(self) -> None:
        self._snapshots: List[Dict[str, object]] = []

    def register(self, snapshot: Dict[str, object]) -> Dict[str, object]:
        self._snapshots.append(snapshot)
        return snapshot

    def deregister(self, snapshot: Dict[str, object]) -> None:
        try:
            self._snapshots.remove(snapshot)
        except ValueError:  # already removed (defensive; should not happen)
            pass

    def any_satisfied(self, predicate: Callable[[Dict[str, object]], bool],
                      metrics: Optional[MonitorMetrics] = None) -> bool:
        """True when some registered waiter's snapshot satisfies *predicate*."""
        for snapshot in self._snapshots:
            if metrics is not None:
                metrics.predicate_evaluations += 1
            if predicate(snapshot):
                return True
        return False

    def __len__(self) -> int:
        return len(self._snapshots)
