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
  past the prefix the scheduler fast-forwards, extend with the first
  candidate *not in the sleep set*, maintaining the sleep set as segments
  execute (a sleeping thread's deferred action is removed once a dependent
  segment runs).

The POR machinery at the bottom of the module defines *when two scheduling
choices commute*: each monitor method gets a static :class:`MethodFootprint`
(shared fields read/written, condition variables waited-on/signalled) and two
enabled grant choices are independent exactly when neither footprint writes
the other's read/write set and their condition-variable signal sets don't
touch (sleepers are kept tid-sorted by the scheduler, so two threads merely
*waiting* on the same condition do not conflict).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Protocol, Sequence, Set, Tuple

from repro import obs


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
# Partial-order reduction: footprints, independence, sleep sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MethodFootprint:
    """The shared-state/condition-variable footprint of one monitor method.

    ``reads``/``writes`` are shared field names (thread-local variables
    cannot conflict across threads); ``waits``/``signals`` are condition-
    variable tokens of the compiled class.  Footprints over-approximate the
    whole method so they stay valid for a thread resuming mid-method after a
    wakeup.
    """

    reads: FrozenSet[str]
    writes: FrozenSet[str]
    waits: FrozenSet[str]
    signals: FrozenSet[str]


def condition_vars_compatible(a: MethodFootprint, b: MethodFootprint,
                              allow_shared_signals: bool = False) -> bool:
    """Neither side signals a condition the other *waits* on.

    A signal aimed at a condition the other segment may sleep on is
    order-observable regardless of how the method bodies relate: running the
    signaller first loses the wake-up.  Two segments that merely *wait* on
    the same condition stay compatible (the scheduler keeps sleeper queues
    tid-sorted, so arrival order is unobservable).

    Two segments *signalling* the same condition are conservatively
    incompatible by default — whether a conditional notification fires
    depends on the state it is evaluated in, which depends on order.  The
    semantic layer may pass ``allow_shared_signals=True`` once the solver
    has proved every conditional notification predicate of each side is
    preserved by the other side's body: then both orders fire the same
    multiset of notifications against the same sleeper queues, and the
    per-signal wake decisions are branched by the explorer either way.
    """
    if a.signals & b.waits:
        return False
    if b.signals & a.waits:
        return False
    if not allow_shared_signals and (a.signals & b.signals):
        return False
    return True


def footprints_independent(a: MethodFootprint, b: MethodFootprint) -> bool:
    """Do two pending segments commute regardless of order (syntactically)?

    Writes may not touch the other side's reads or writes (the shared state
    would differ between orders), and the condition-variable sets must be
    compatible (see :func:`condition_vars_compatible`).
    """
    if a.writes & (b.reads | b.writes):
        return False
    if b.writes & (a.reads | a.writes):
        return False
    return condition_vars_compatible(a, b)


class IndependenceRelation:
    """Pairwise method independence: syntactic footprints plus, when the
    compile side provides one, the SMT-proven semantic matrix.

    Built from a ``{method name: MethodFootprint}`` mapping and an optional
    ``{(name, name): bool}`` *semantic* matrix (both attached to generated
    coop classes).  A pair is independent when its footprints are disjoint
    — or when the solver proved the bodies commute and preserve each
    other's guards, provided the condition-variable sets are still
    compatible (signal interactions are re-checked syntactically because
    notification mutants change them without changing bodies).  Methods
    without a footprint are conservatively dependent on everything.
    """

    def __init__(self, footprints: Optional[Dict[str, MethodFootprint]],
                 semantic: Optional[Dict[Tuple[str, str], bool]] = None):
        self.footprints = footprints or {}
        self.semantic = semantic or {}
        self._table: Dict[Tuple[str, str], bool] = {}
        self.semantic_pairs = 0
        names = sorted(self.footprints)
        for a in names:
            for b in names:
                fp_a, fp_b = self.footprints[a], self.footprints[b]
                independent = footprints_independent(fp_a, fp_b)
                if (not independent and self.semantic.get((a, b))
                        and condition_vars_compatible(
                            fp_a, fp_b, allow_shared_signals=True)):
                    independent = True
                    self.semantic_pairs += 1
                self._table[(a, b)] = independent

    def independent(self, method_a: str, method_b: str) -> bool:
        return self._table.get((method_a, method_b), False)

    def segment_independent(self, method_a: str,
                            refined_a: Optional[MethodFootprint],
                            method_b: str,
                            refined_b: Optional[MethodFootprint]) -> bool:
        """Independence of two *segments*, with optional context refinement.

        ``refined_x`` replaces method ``x``'s whole-method footprint with the
        footprint of the segment it is actually about to run (the engine
        passes the wait-entry footprint when the thread's guard provably
        fails in the decision state).  Refinement only ever adds
        independence: the method-level verdict is consulted first.
        """
        if self.independent(method_a, method_b):
            return True
        if refined_a is None and refined_b is None:
            return False
        fp_a = refined_a if refined_a is not None else self.footprints.get(method_a)
        fp_b = refined_b if refined_b is not None else self.footprints.get(method_b)
        if fp_a is None or fp_b is None:
            return False
        return footprints_independent(fp_a, fp_b)

    @property
    def trivial(self) -> bool:
        """True when no pair commutes (POR degenerates to plain pruning)."""
        return not any(self._table.values())


#: A sleep-set entry: a deferred (thread id, pending method, call args,
#: wait key) transition.  ``args`` lets the value-sensitive independence
#: layer keep a deferred transition asleep past segments its *instantiated*
#: call commutes with even though the methods conflict symbolically;
#: ``wait_key`` is non-None when the deferred transition was proven (from
#: the decision state) to be a pure wait entry on that condition, shrinking
#: its footprint to the guard reads plus the wait.
SleepEntry = Tuple[int, str, tuple, Optional[str]]


class DporStrategy:
    """Sleep-set-aware extension for the DPOR DFS.

    The scheduler fast-forwards the run's prefix, so this strategy sees only
    the fresh suffix: the segment of the last prefix choice, then every fresh
    decision.  It extends every fresh grant decision with the first candidate
    whose thread is not in the sleep set.  While the suffix executes, the
    sleep set shrinks: a deferred transition is woken (removed) as soon as a
    *dependent* segment runs, exactly the classic sleep-set update.  If every
    enabled candidate is asleep — or the scheduler grants a sleeping thread
    as sole contender — the whole subtree is provably redundant and the run
    aborts with outcome ``sleep-set``.

    The engine reads ``fresh_sleeps`` afterwards: the sleep set in force at
    each recorded fresh decision, which it needs to seed the sleep sets of
    the sibling prefixes it pushes.
    """

    def __init__(self, sleep: FrozenSet[SleepEntry],
                 independence: IndependenceRelation, checker=None):
        self.sleep: Set[SleepEntry] = set(sleep)
        self.independence = independence
        #: Optional context-sensitive dependence test built by the engine:
        #: ``checker(entry, method, args, extent_key) -> bool`` returns True
        #: when the executed segment (a pure wait entry on *extent_key* when
        #: that is non-None) is independent of the sleeping entry.  Falls
        #: back to the method-level relation when absent.
        self.checker = checker
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
        method, args = pending
        independent = self.independence.independent
        checker = self.checker
        kept = {
            entry for entry in self.sleep
            if independent(entry[1], method)
            or (checker is not None and checker(entry, method, args, wait_key))
        }
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
