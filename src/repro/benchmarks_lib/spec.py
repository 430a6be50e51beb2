"""Benchmark specification objects.

A :class:`BenchmarkSpec` packages everything the evaluation harness needs for
one benchmark:

* the implicit-signal DSL source (the input to Expresso);
* a *hand-written* explicit-signal placement, expressed as notifications per
  CCR (this is the "Explicit" series of Figures 8/9 — the near-optimal code a
  programmer would write);
* a saturation-workload generator producing balanced per-thread operation
  sequences (so every run terminates);
* the thread ladder over which the figure sweeps.

A spec parses its monitor, and so loads the language front end, only when
asked for it: listing the benchmarks loads neither ``repro.lang`` nor
``repro.logic``.
"""

from __future__ import annotations

from dataclasses import field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.record import record

if TYPE_CHECKING:
    from repro.lang.ast import Monitor
    from repro.placement.target import ExplicitMonitor

#: One thread's operation sequence: a list of (method name, positional args).
ThreadOps = List[Tuple[str, tuple]]
#: A workload: one operation sequence per thread.
Workload = List[ThreadOps]


@record(frozen=True)
class HandPlacement:
    """A hand-written notification: emitted by *ccr_label*, waking the threads
    blocked on the guard of *wait_method*'s first waituntil."""

    ccr_label: str
    wait_method: str
    conditional: bool
    broadcast: bool


@record
class BenchmarkSpec:
    """One paper benchmark (source, hand-written placement, workload)."""

    name: str
    figure: str                       # "8" or "9"
    origin: str                       # where the paper took it from
    source: str
    hand_placements: Tuple[HandPlacement, ...]
    make_workload: Callable[[int, int], Workload]
    thread_ladder: Tuple[int, ...] = (2, 4, 8, 16, 32, 64, 128)
    default_ops_per_thread: int = 40

    _monitor_cache: Optional[Monitor] = field(default=None, repr=False, compare=False)

    # -- derived artifacts ----------------------------------------------------

    def monitor(self) -> Monitor:
        """The parsed and checked implicit-signal monitor."""
        if self._monitor_cache is None:
            from repro.lang import load_monitor

            self._monitor_cache = load_monitor(self.source)
        return self._monitor_cache

    def guard_of_method(self, method_name: str):
        """The guard of *method_name*'s first non-trivial CCR."""
        method = self.monitor().method(method_name)
        for ccr in method.ccrs:
            if not ccr.is_trivial():
                return ccr.guard
        raise ValueError(f"{method_name!r} has no waituntil in benchmark {self.name!r}")

    def handwritten_explicit(self) -> ExplicitMonitor:
        """The hand-written explicit-signal monitor as an ExplicitMonitor."""
        from repro.logic import TRUE
        from repro.placement.algorithm import PlacementResult
        from repro.placement.instrument import instrument
        from repro.placement.target import Notification

        monitor = self.monitor()
        notifications: Dict[str, List[Notification]] = {
            ccr.label: [] for _m, ccr in monitor.ccrs()
        }
        for placement in self.hand_placements:
            guard = self.guard_of_method(placement.wait_method)
            notifications[placement.ccr_label].append(
                Notification(guard, placement.conditional, placement.broadcast)
            )
        result = PlacementResult(
            monitor=monitor,
            invariant=TRUE,
            notifications={label: tuple(notes) for label, notes in notifications.items()},
            decisions=(),
        )
        return instrument(monitor, result)

    def workload(self, threads: int, ops_per_thread: Optional[int] = None) -> Workload:
        """A balanced workload for *threads* threads."""
        return self.make_workload(threads, ops_per_thread or self.default_ops_per_thread)


def shuffle_workload(workload: Workload, seed: int) -> Workload:
    """Reproducibly permute which thread runs which op sequence (``bench --seed``).

    Only the *assignment* of operation sequences to threads is shuffled;
    every sequence keeps its internal order.  That matters: workload roles
    carry ordering dependencies (enterWriter must precede its exitWriter, a
    gate must open before the entries), so permuting *within* a thread could
    self-deadlock the workload.  Permuting across threads preserves balance
    and termination while making thread start-up/contention order
    seed-dependent.
    """
    import random

    rng = random.Random(str(seed))
    shuffled = [list(ops) for ops in workload]
    rng.shuffle(shuffled)
    return shuffled
