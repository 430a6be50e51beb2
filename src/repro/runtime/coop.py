"""Cooperative (virtual-thread) versions of the automatic-signal runtimes.

The threaded runtimes in :mod:`repro.runtime.implicit` and
:mod:`repro.runtime.autosynch` block on real condition variables, so their
interleavings belong to the OS scheduler.  The classes here expose the same
``execute`` protocol as *generators* that yield **scheduler operations** at
every synchronization point:

* ``("acquire",)``          — block until the virtual monitor lock is free;
* ``("wait", key)``         — release the lock and sleep on condition *key*;
* ``("signal", key)``       — wake one virtual thread sleeping on *key*;
* ``("broadcast", key)``    — wake every virtual thread sleeping on *key*;
* ``("commit", label)``     — (bookkeeping) the CCR *label* is about to run
  its body; the differential oracle replays commits against the reference
  semantics;
* ``("release",)``          — release the lock at the end of the operation.

:class:`repro.explore.scheduler.CoopScheduler` drives these generators and
decides every scheduling choice, which makes whole executions deterministic,
replayable and enumerable.  The metrics accounting mirrors the threaded
runtimes so the two can be compared under identical schedules.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, Optional, Tuple

from repro.record import record
from repro.runtime.explicit_support import MonitorMetrics

#: A scheduler operation yielded by a cooperative monitor method.
SchedOp = Tuple[str, ...]


class CoopImplicitRuntime:
    """Cooperative broadcast-everything automatic signalling.

    The cooperative twin of :class:`repro.runtime.implicit.ImplicitRuntime`:
    every waiter sleeps on the single condition ``"all"`` and every completed
    operation broadcasts to it.
    """

    _COND = "all"

    def __init__(self, metrics: Optional[MonitorMetrics] = None):
        self.metrics = metrics or MonitorMetrics()

    def execute(self, guard: Callable[[], bool], body: Callable[[], None],
                label: Optional[str] = None) -> Iterator[SchedOp]:
        """Run ``waituntil (guard) { body }`` cooperatively."""
        yield ("acquire",)
        self.metrics.operations += 1
        self.metrics.predicate_evaluations += 1
        satisfied = guard()
        while not satisfied:
            self.metrics.waits += 1
            yield ("wait", self._COND)
            self.metrics.wakeups += 1
            self.metrics.predicate_evaluations += 1
            satisfied = guard()
            if not satisfied:
                self.metrics.spurious_wakeups += 1
        yield ("commit", label or "?")
        body()
        self.metrics.broadcasts += 1
        yield ("broadcast", self._COND)
        yield ("release",)


@record
class _CoopWaiter:
    """A cooperative thread waiting until its predicate holds."""

    predicate: Callable[[], bool]
    admitted: bool = False


class CoopAutoSynchRuntime:
    """Cooperative AutoSynch-style predicate-tagged signalling.

    The cooperative twin of :class:`repro.runtime.autosynch.AutoSynchRuntime`:
    each waiter sleeps on a private condition key; on every monitor exit the
    leaving thread evaluates the waiting predicates and relays a wake-up to
    the first satisfied waiter.
    """

    def __init__(self, metrics: Optional[MonitorMetrics] = None):
        self.metrics = metrics or MonitorMetrics()
        self._waiters: Dict[str, _CoopWaiter] = {}
        self._counter = 0

    def execute(self, guard: Callable[[], bool], body: Callable[[], None],
                label: Optional[str] = None) -> Iterator[SchedOp]:
        """Run ``waituntil (guard) { body }`` cooperatively."""
        yield ("acquire",)
        self.metrics.operations += 1
        self.metrics.predicate_evaluations += 1
        if not guard():
            key = f"waiter{self._counter}"
            self._counter += 1
            waiter = _CoopWaiter(guard)
            self._waiters[key] = waiter
            self.metrics.waits += 1
            while True:
                while not waiter.admitted:
                    yield ("wait", key)
                    self.metrics.wakeups += 1
                self.metrics.predicate_evaluations += 1
                if guard():
                    break
                # Admitted but invalidated in between: relay and re-sleep.
                waiter.admitted = False
                self.metrics.spurious_wakeups += 1
                yield from self._notify_satisfied()
            del self._waiters[key]
        yield ("commit", label or "?")
        body()
        yield from self._notify_satisfied()
        yield ("release",)

    def _notify_satisfied(self) -> Iterator[SchedOp]:
        """Relay one wake-up to the first waiter whose predicate holds."""
        for key, waiter in self._waiters.items():
            if waiter.admitted:
                continue
            self.metrics.predicate_evaluations += 1
            if waiter.predicate():
                waiter.admitted = True
                self.metrics.signals += 1
                yield ("signal", key)
                return
