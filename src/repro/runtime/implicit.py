"""The naive implicit-signal (automatic monitor) runtime.

Every monitor operation acquires the single monitor lock, waits on one global
condition variable until its guard holds, runs its body, and then broadcasts
to *everyone* — the textbook automatic-monitor implementation whose overhead
(spurious wake-ups and context switches) motivates the paper.  It serves as
the worst-case baseline in the ablation benchmarks.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional

from repro.runtime.explicit_support import Condvar, MonitorMetrics


class ImplicitRuntime:
    """Broadcast-everything automatic signalling."""

    def __init__(self, metrics: Optional[MonitorMetrics] = None):
        self.lock = threading.Lock()
        self._condition = Condvar(self.lock)
        self.metrics = metrics or MonitorMetrics()

    def execute(self, guard: Callable[[], bool], body: Callable[[], None]) -> None:
        """Run ``waituntil (guard) { body }`` with implicit signalling."""
        with self.lock:
            self.metrics.operations += 1
            self.metrics.predicate_evaluations += 1
            satisfied = guard()
            while not satisfied:
                self.metrics.waits += 1
                self._condition.wait()
                self.metrics.wakeups += 1
                self.metrics.predicate_evaluations += 1
                satisfied = guard()
                if not satisfied:
                    self.metrics.spurious_wakeups += 1
            body()
            self.metrics.broadcasts += 1
            self._condition.notify_all()
