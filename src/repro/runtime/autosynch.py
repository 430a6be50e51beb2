"""An AutoSynch-style automatic-signal runtime (Hung & Garg, PLDI'13).

AutoSynch removes spurious wake-ups from implicit-signal monitors by tagging
each waiting thread with its predicate (with thread-local values snapshotted
as run-time constants) and, on every monitor exit, evaluating the waiting
predicates to decide exactly which threads to wake.  The cost model is the
relevant part for the paper's comparison: no spurious wake-ups, but every
monitor exit pays run-time predicate evaluations proportional to the number
of waiters, plus the bookkeeping of the waiter structures.

This class reproduces that behaviour with per-waiter condition variables
(:class:`~repro.runtime.explicit_support.Condvar`, the one every threaded
discipline uses):
``execute`` blocks the caller until its predicate holds and, after running
the body, wakes precisely the waiters whose predicates now hold.
"""

from __future__ import annotations

import threading
from typing import Callable, List, Optional

from repro.record import record
from repro.runtime.explicit_support import Condvar, MonitorMetrics


@record
class _Waiter:
    """A thread waiting in the runtime until its predicate holds."""

    predicate: Callable[[], bool]
    condition: Condvar
    admitted: bool = False


class AutoSynchRuntime:
    """Predicate-tagged automatic signalling."""

    def __init__(self, metrics: Optional[MonitorMetrics] = None):
        self.lock = threading.Lock()
        self.metrics = metrics or MonitorMetrics()
        self._waiters: List[_Waiter] = []

    def execute(self, guard: Callable[[], bool], body: Callable[[], None]) -> None:
        """Run ``waituntil (guard) { body }`` with AutoSynch-style signalling."""
        with self.lock:
            self.metrics.operations += 1
            self.metrics.predicate_evaluations += 1
            if not guard():
                waiter = _Waiter(guard, Condvar(self.lock))
                self._waiters.append(waiter)
                self.metrics.waits += 1
                while True:
                    while not waiter.admitted:
                        waiter.condition.wait()
                        self.metrics.wakeups += 1
                    # The predicate held when we were admitted, but another
                    # thread may have entered the monitor in between; re-check
                    # and go back to sleep in the (rare) invalidation case.
                    self.metrics.predicate_evaluations += 1
                    if guard():
                        break
                    waiter.admitted = False
                    self.metrics.spurious_wakeups += 1
                    # Keep the relay alive: pass the wake-up on before sleeping.
                    self._notify_satisfied_waiters()
                self._waiters.remove(waiter)
            body()
            self._notify_satisfied_waiters()

    def _notify_satisfied_waiters(self) -> None:
        """Evaluate waiting predicates and relay a wake-up to the first satisfied one.

        AutoSynch's relay design wakes a single satisfied waiter per monitor
        exit; when that waiter finishes its own critical region, this method
        runs again and relays to the next satisfied waiter, so every thread
        whose predicate stays true is eventually admitted without spurious
        wake-ups.
        """
        for waiter in self._waiters:
            if waiter.admitted:
                continue
            self.metrics.predicate_evaluations += 1
            if waiter.predicate():
                waiter.admitted = True
                self.metrics.signals += 1
                waiter.condition.notify()
                return
