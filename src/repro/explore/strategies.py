"""Scheduling strategies for the exploration engine.

A strategy answers one question: *given the sorted candidate list of a
scheduling decision, which index do we take?*  The scheduler records every
answered decision, so any strategy's run can be replayed exactly by wrapping
its recorded choice list in :class:`ScheduleStrategy`.

* :class:`FirstStrategy` — always take candidate 0 (the deterministic
  "round-robin-ish" baseline and the default extension under DFS);
* :class:`RandomStrategy` — a seeded uniform random walk;
* :class:`PCTStrategy` — probabilistic concurrency testing (Burckhardt et
  al., ASPLOS'10 style): random per-thread priorities, always run the
  highest-priority candidate, and demote the running thread at a few
  randomly pre-drawn change points.  Finds deep ordering bugs with far fewer
  schedules than uniform random walks;
* :class:`ScheduleStrategy` — replay a recorded (or delta-debugged) choice
  list, falling back to a base strategy once the list is exhausted;
* :class:`DporStrategy` — the partial-order-reduction extension strategy:
  past the prefix the scheduler replays, extend with the first
  candidate *not in the sleep set*, maintaining the sleep set as segments
  execute (a sleeping thread's deferred action is removed once a dependent
  segment runs).

When two scheduling choices commute is decided by
:class:`repro.explore.dependence.Dependence`, the one DPOR dependence
relation; :class:`DporStrategy` asks it for the sleep-set wake-up.
"""

from __future__ import annotations

import random
from typing import Dict, FrozenSet, List, Optional, Protocol, Sequence, Set, Tuple

from repro import obs
# Generated coop sources import MethodFootprint from this module.
from repro.explore.dependence import Dependence, MethodFootprint


def _session_registry():
    """The active registry, or None outside an observability session.

    Strategies sit on the scheduler's hot path; resolving the registry once
    at construction (and only when a session is open) keeps the common
    untraced case at zero instrumentation cost.
    """
    return obs.registry() if obs.tracer().enabled else None


class AbortRun(Exception):
    """Raised by a strategy to cut a run short (sleep-set redundancy).

    The scheduler catches it and finishes the run with ``outcome`` — the run
    is bookkept by the engine (``por_skipped``) but never judged.
    """

    def __init__(self, outcome: str):
        super().__init__(outcome)
        self.outcome = outcome


class Strategy(Protocol):
    """The decision procedure the scheduler consults."""

    def choose(self, kind: str, candidates: Tuple[int, ...]) -> int:
        """Return an index into *candidates* (sorted thread ids)."""
        ...


class FirstStrategy:
    """Always pick the first (lowest thread id) candidate."""

    def choose(self, kind: str, candidates: Tuple[int, ...]) -> int:
        return 0


class RandomStrategy:
    """Seeded uniform random choices — the workhorse for large state spaces."""

    def __init__(self, seed: int):
        self.seed = seed
        self._rng = random.Random(seed)

    def choose(self, kind: str, candidates: Tuple[int, ...]) -> int:
        return self._rng.randrange(len(candidates))


class PCTStrategy:
    """PCT-style priority scheduling with *depth - 1* priority change points.

    *expected_decisions* should approximate the decision count of one run —
    change points are drawn uniformly from ``[1, expected_decisions]``, so a
    wildly high estimate makes them land past the end of the run and the
    walk degenerates to a static priority order.  The engine passes an
    estimate derived from the workload size.
    """

    def __init__(self, seed: int, depth: int = 3, expected_decisions: int = 32):
        self.seed = seed
        self._rng = random.Random(seed)
        self._priorities: Dict[int, float] = {}
        self._decisions = 0
        self._metrics = _session_registry()
        # _decisions is incremented before the membership test, so the first
        # testable value is 1; draw from [1, expected] to keep every change
        # point reachable.
        self._change_points = frozenset(
            self._rng.randint(1, max(expected_decisions, 1))
            for _ in range(max(depth - 1, 0))
        )

    def choose(self, kind: str, candidates: Tuple[int, ...]) -> int:
        self._decisions += 1
        for tid in candidates:
            if tid not in self._priorities:
                self._priorities[tid] = self._rng.random()
        best = max(candidates, key=lambda tid: self._priorities[tid])
        if self._decisions in self._change_points:
            # Demote the thread that was about to run below everyone else.
            self._priorities[best] = self._rng.random() - 2.0
            best = max(candidates, key=lambda tid: self._priorities[tid])
            if self._metrics is not None:
                self._metrics.inc("explore.strategy.pct_demotions")
        return candidates.index(best)


class ScheduleStrategy:
    """Replay a recorded choice list; out-of-range entries are clamped.

    Clamping (rather than erroring) is what makes delta-debugging possible:
    a shortened schedule is still a valid schedule, it simply steers fewer
    decisions before handing over to the fallback strategy.
    """

    def __init__(self, schedule: Sequence[int], fallback: Optional[Strategy] = None):
        self.schedule = tuple(schedule)
        self.fallback = fallback or FirstStrategy()
        self._position = 0

    def choose(self, kind: str, candidates: Tuple[int, ...]) -> int:
        if self._position < len(self.schedule):
            choice = self.schedule[self._position]
            self._position += 1
            return min(max(choice, 0), len(candidates) - 1)
        return self.fallback.choose(kind, candidates)


# ---------------------------------------------------------------------------
# Partial-order reduction: sleep sets
# ---------------------------------------------------------------------------


#: A sleep-set entry: a deferred thread id and the
#: :data:`~repro.explore.dependence.Transition` it would run — (tid, pending
#: method, call args, wait key).  ``args`` lets the value check keep a
#: deferred transition asleep past segments its *instantiated* call commutes
#: with even though the methods conflict symbolically; ``wait_key`` is
#: non-None when the deferred transition was proven (from the decision
#: state) to be a pure wait entry on that condition.
SleepEntry = Tuple[int, str, Optional[tuple], Optional[str]]


class DporStrategy:
    """Sleep-set-aware extension for the DPOR DFS.

    The scheduler replays the run's prefix quietly, so this strategy sees
    only the fresh suffix: the segment of the last prefix choice, then every
    fresh decision.  It extends every fresh grant decision with the first
    candidate whose thread is not in the sleep set.  While the suffix
    executes, the sleep set shrinks: a deferred transition is woken (removed)
    as soon as a *dependent* segment runs, exactly the classic sleep-set
    update.  If every enabled candidate is asleep — or the scheduler grants a
    sleeping thread as sole contender — the whole subtree is provably
    redundant and the run aborts with outcome ``sleep-set``.

    The engine reads ``fresh_sleeps`` afterwards: the sleep set in force at
    each recorded fresh decision, which it needs to seed the sleep sets of
    the sibling prefixes it pushes.
    """

    def __init__(self, sleep: FrozenSet[SleepEntry], dependence: Dependence):
        self.sleep: Set[SleepEntry] = set(sleep)
        self.dependence = dependence
        #: The just-granted segment awaiting its extent: (method, args).
        #: Sleep-set wake-ups are applied *after* the segment runs, when its
        #: actual extent (pure wait entry or full method) is known — the
        #: context-sensitive sleep-set update.
        self._pending_segment: Optional[Tuple[str, tuple]] = None
        #: Sleep set snapshot per recorded (fresh) decision.
        self.fresh_sleeps: List[FrozenSet[SleepEntry]] = []
        self._metrics = _session_registry()

    def choose(self, kind: str, candidates: Tuple[int, ...]) -> int:
        self._flush_segment()
        self.fresh_sleeps.append(frozenset(self.sleep))
        if kind != "grant":
            return 0
        asleep = {entry[0] for entry in self.sleep}
        for index, tid in enumerate(candidates):
            if tid not in asleep:
                return index
        raise AbortRun("sleep-set")

    def observe_grant(self, tid: int, method: str, args: tuple = ()) -> None:
        """A segment by *tid*/*method* is about to run."""
        self._flush_segment()
        if any(entry[0] == tid for entry in self.sleep):
            # The sole contender is asleep: this continuation re-explores a
            # subtree some sibling already covered.
            raise AbortRun("sleep-set")
        self._pending_segment = (method, tuple(args))

    def observe_extent(self, wait_key: Optional[str]) -> None:
        """The granted segment finished; *wait_key* is non-None when it was a
        pure wait entry (guard evaluation + sleep, nothing else).  Apply the
        delayed sleep-set wake-up with the segment's actual extent."""
        self._flush_segment(wait_key)

    def _flush_segment(self, wait_key: Optional[str] = None) -> None:
        pending = self._pending_segment
        self._pending_segment = None
        if pending is None:
            return
        segment = pending + (wait_key,)
        independent = self.dependence.independent
        kept = {entry for entry in self.sleep if independent(entry[1:], segment)}
        if self._metrics is not None and len(kept) != len(self.sleep):
            self._metrics.inc("explore.strategy.sleep_wakeups",
                              len(self.sleep) - len(kept))
        self.sleep = kept


def make_strategy(name: str, seed: int, depth: int = 3,
                  expected_decisions: int = 32) -> Strategy:
    """Build a fresh strategy instance by CLI name."""
    if name == "first":
        return FirstStrategy()
    if name == "random":
        return RandomStrategy(seed)
    if name == "pct":
        return PCTStrategy(seed, depth=depth, expected_decisions=expected_decisions)
    raise ValueError(f"unknown strategy {name!r} (expected first/random/pct)")
