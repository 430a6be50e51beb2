"""The cooperative virtual-thread scheduler.

Monitor operations compiled in *coop* mode (see
:func:`repro.codegen.python_gen.generate_python_explicit` with ``coop=True``)
are generator functions that yield scheduler operations at every
synchronization point: ``acquire``, ``wait``, ``signal``, ``broadcast``,
``commit`` and ``release``.  :class:`CoopScheduler` drives one virtual thread
per workload entry and resolves the only two sources of scheduling
nondeterminism a monitor program has:

1. **grant** — when the monitor lock is free, which contending thread enters
   next (fresh arrivals and signalled waiters compete alike);
2. **signal** — when a ``signal`` finds several threads sleeping on the same
   condition, which one is woken.

Every such choice is delegated to a :mod:`strategy <repro.explore.strategies>`
and recorded, so an execution is fully described by its choice list — the
*schedule* — and can be replayed bit-for-bit from it.  Deadlocks are
*detected* (lock free, nobody runnable, someone asleep) rather than
experienced, which is what lets the engine probe lost-wakeup bugs without
ever hanging the test process.

For exhaustive exploration the scheduler can fingerprint the global state
(shared monitor fields plus, per thread, the generator frame's instruction
pointer and local variables) at every grant decision; the DFS driver uses the
fingerprints to prune schedules that re-enter an already-explored state.

Four hot-path refinements keep systematic exploration cheap:

* **incremental fingerprints** — per-thread frame snapshots are cached and
  only recomputed for threads that actually advanced since the previous
  fingerprint (between two grant decisions exactly one thread runs), so a
  fingerprint costs one frame walk instead of N;
* **quiet replay** (``prefix``) — when the DFS re-enters a backtrack
  point, the parent run already analysed every state of the recorded
  prefix.  The scheduler applies the prefix choices through its ordinary
  loop with recording off: segments still step generators, move lock, wait
  and wake state, count steps and append commits, but make no events,
  fingerprints, merge probes, checkpoints, symmetry classes, decisions or
  strategy calls.  Recording resumes as the last choice is applied, so the
  strategy observes that segment as if it had chosen it, and the result
  records only the divergent suffix (``RunResult.prefix`` holds the
  replayed choices, ``decisions``/``events`` start at the hand-off);
* **restore** (``checkpoint``) — a fingerprinting run also saves a
  :class:`Checkpoint` at each fresh grant decision whose state is
  restorable (scalar fields; no thread has committed, signalled or
  broadcast in its current operation).  A sibling run restores its branch
  point's checkpoint on a fresh instance and replays only the prefix
  choices made after it (states without a checkpoint fall back to an
  earlier one, or to the root);
* **merge probing** (``merge_probe``) — the DFS can hand the scheduler a
  membership probe over already-visited states; a run whose divergent suffix
  immediately re-enters a visited state is cut off with outcome ``merged``
  instead of executing (and judging) its entire redundant tail.

A :class:`ProgramSymmetry` table adds two symmetry kinds.  Threads with
identical programs are interchangeable, so fingerprints list them in a
canonical order and decisions carry symmetry classes.  Index automorphisms
permute an array's index domain together with the array cells, the index
arguments and the threads whose programs they map onto each other (Dining
Philosophers' rotations); :meth:`ProgramSymmetry.canonical` maps a
fingerprint to the least of its images, the key visited states are merged
on.  Decisions keep the un-renamed fingerprint.
"""

from __future__ import annotations

from dataclasses import field
from itertools import count
from operator import attrgetter
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple
from weakref import WeakKeyDictionary

from repro.explore.strategies import AbortRun, Strategy, _session_registry
from repro.record import record
from repro.runtime.explicit_support import GuardWaiters, MonitorMetrics

#: One thread's program: a list of ``(method name, positional args)`` pairs.
ThreadProgram = Sequence[Tuple[str, tuple]]


class SchedulerError(RuntimeError):
    """A generated coop monitor violated the scheduler protocol."""


class TraceEvent(NamedTuple):
    """One rendered step of a virtual execution."""

    kind: str                      # grant | commit | wait | signal | broadcast | release
    thread: int
    label: Optional[str] = None    # CCR label (commit) or method name (grant)
    #: The condition key of a wait/signal/broadcast; on a grant, the key the
    #: segment slept on when it was a pure wait entry (else None).
    key: Optional[str] = None
    woken: Tuple[int, ...] = ()    # threads woken by a signal/broadcast
    #: The granted operation's call arguments (grant events only) — the
    #: value-sensitive POR layer keys instantiated independence checks on
    #: (method, args) pairs.
    args: Tuple = ()


class Decision(NamedTuple):
    """One recorded scheduling choice (only choices with >1 candidate)."""

    kind: str                      # 'grant' | 'signal'
    candidates: Tuple[int, ...]    # thread ids, sorted
    chosen: int                    # index into candidates
    fingerprint: Optional[tuple] = None   # pre-decision state (grant only)
    #: The method each candidate thread is currently executing, aligned with
    #: ``candidates`` (grant decisions only; the POR layer derives candidate
    #: footprints from these).
    methods: Tuple[str, ...] = ()
    #: Index into ``RunResult.events`` where this decision's effect lands —
    #: the grant event it produced (grant) or the signal event (signal).
    event_index: int = -1
    #: Symmetry-class ids aligned with ``candidates`` (only populated when
    #: the scheduler runs with a ``symmetry`` table).  Two candidates share a
    #: class when they are provably interchangeable: same suspended frame
    #: (method, arguments, locals, resume point) and same remaining program,
    #: so swapping them is a state automorphism and the DPOR expansion only
    #: needs one representative per class.
    sym_classes: Tuple[int, ...] = ()
    #: Each candidate's program position (grant decisions only) — the
    #: context-sensitive POR refinement uses it to look up the pending
    #: operation's arguments.
    op_indices: Tuple[int, ...] = ()
    #: Per candidate, the condition key the thread was last woken from (None
    #: for a thread starting a fresh operation); grant decisions only.
    resumes: Tuple[Optional[str], ...] = ()


class Checkpoint(NamedTuple):
    """The state at a grant decision, as :meth:`CoopScheduler._restore` needs it.

    ``threads`` holds, per thread, ``(op_index, status, wait_key,
    resume_key, segments)``.  ``segments`` lists the scalar field values at
    the start of each segment of the thread's current operation, all of them
    guard checks (empty for a thread that has not started one); ``order``
    lists the threads with segments in the order they started their
    operations.
    """

    depth: int                     # prefix choices applied before the decision
    fields: tuple                  # the scalar field values, in layout order
    metrics: dict                  # the ``metrics`` record's attributes
    threads: Tuple[tuple, ...]
    order: Tuple[int, ...]
    commits: Tuple[Tuple[int, str], ...]
    steps: int


@record
class RunResult:
    """Everything one scheduled execution produced.

    A run given a prefix records only its suffix: ``prefix`` holds the
    applied prefix choices, restored from a checkpoint or replayed, and
    ``events``/``decisions`` start where the last of them was applied
    (``Decision.event_index`` counts from there).  ``commits`` and
    ``steps`` always cover the whole run.

    ``checkpoints`` maps the offset of each fresh grant decision whose state
    was restorable (fingerprinting runs only) to its :class:`Checkpoint`.
    """

    outcome: str                               # completed | deadlock | merged |
                                               #   sleep-set | step-limit | error
    commits: List[Tuple[int, str]] = field(default_factory=list)
    events: List[TraceEvent] = field(default_factory=list)
    decisions: List[Decision] = field(default_factory=list)
    waiting: Dict[int, str] = field(default_factory=dict)  # tid -> condition key
    steps: int = 0
    error: Optional[str] = None
    prefix: List[int] = field(default_factory=list)
    checkpoints: Dict[int, Checkpoint] = field(default_factory=dict)

    def __init__(self, outcome: str, commits: Optional[List[Tuple[int, str]]] = None,
                 events: Optional[List[TraceEvent]] = None,
                 decisions: Optional[List[Decision]] = None,
                 waiting: Optional[Dict[int, str]] = None, steps: int = 0,
                 error: Optional[str] = None, prefix: Optional[List[int]] = None,
                 checkpoints: Optional[Dict[int, Checkpoint]] = None) -> None:
        # Spelled out: an explore pass builds ~2,300 (see ``repro.record``).
        self.outcome = outcome
        self.commits = [] if commits is None else commits
        self.events = [] if events is None else events
        self.decisions = [] if decisions is None else decisions
        self.waiting = {} if waiting is None else waiting
        self.steps = steps
        self.error = error
        self.prefix = [] if prefix is None else prefix
        self.checkpoints = {} if checkpoints is None else checkpoints

    @property
    def choices(self) -> Tuple[int, ...]:
        """The schedule: the full choice list that replays this run."""
        return tuple(self.prefix) + tuple(decision.chosen
                                          for decision in self.decisions)


class _VirtualThread:
    __slots__ = ("tid", "program", "op_index", "frame", "status", "wait_key",
                 "resume_key", "segments", "started")

    def __init__(self, tid: int, program: ThreadProgram):
        self.tid = tid
        self.program = list(program)
        self.op_index = 0
        self.frame = None
        self.status = "done"       # acquiring | waiting | done
        self.wait_key: Optional[str] = None
        #: The condition this thread was last woken from, None once the
        #: operation completes — i.e. whether a grant would *resume* the
        #: thread mid-method rather than start the operation fresh.
        self.resume_key: Optional[str] = None
        #: The field values at the start of each segment of the current
        #: operation while all of them are guard checks, else None (always
        #: None when the scheduler takes no checkpoints).
        self.segments: Optional[tuple] = None
        #: When the current operation's first segment began (a counter).
        self.started = 0


# -- checkpoint layouts ------------------------------------------------------

#: Instance attribute types a checkpoint saves by value.
_SCALARS = (int, bool, str, float, type(None))

#: Per coop class, the names of its scalar attributes, or None unless the
#: class has a ``metrics`` record and every other attribute is a scalar or a
#: :class:`GuardWaiters` registry (the automatic runtimes' ``_rt`` is not).
_LAYOUTS: "WeakKeyDictionary[type, Optional[Tuple[str, ...]]]" = WeakKeyDictionary()


def _restorable_layout(instance) -> Optional[Tuple[str, ...]]:
    """The checkpoint layout of *instance*'s class, decided once per class."""
    cls = type(instance)
    layout = _LAYOUTS.get(cls, False)
    if layout is False:
        layout = None
        state = vars(instance)
        if isinstance(state.get("metrics"), MonitorMetrics) and all(
                name == "metrics" or type(value) in _SCALARS
                or isinstance(value, GuardWaiters)
                for name, value in state.items()):
            layout = tuple(name for name, value in state.items()
                           if type(value) in _SCALARS)
        _LAYOUTS[cls] = layout
    return layout


# -- state fingerprinting ----------------------------------------------------


def _freeze(value):
    """A hashable snapshot of a frame-local / field value (opaque -> None)."""
    if isinstance(value, (int, bool, str, type(None))):
        return value
    if isinstance(value, dict):
        return tuple(sorted((str(k), _freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(item) for item in value)
    return None


def _frame_fingerprint(generator) -> tuple:
    """Fingerprint a (possibly ``yield from``-nested) suspended generator.

    The instruction pointer (``f_lasti``) pins *where* the coroutine is
    suspended; the frozen locals pin the values of method parameters and
    CCR-local variables.  Opaque locals (closures, the monitor itself) are
    dropped — their observable content is either shared state (fingerprinted
    separately) or derived from the frozen locals.
    """
    parts = []
    while generator is not None:
        frame = getattr(generator, "gi_frame", None)
        if frame is None:
            parts.append(("exhausted",))
            break
        locals_fp = tuple(sorted(
            (name, _freeze(value))
            for name, value in frame.f_locals.items()
            if name != "self" and isinstance(value, (int, bool, str, type(None),
                                                     dict, list, tuple))
        ))
        parts.append((frame.f_lasti, locals_fp))
        generator = getattr(generator, "gi_yieldfrom", None)
    return tuple(parts)


class IndexAutomorphism(NamedTuple):
    """A permutation σ of an array index domain, lifted to whole states.

    ``sigma[i]`` is the image of index *i*.  ``groups[g]`` is the
    identical-program group whose program is group *g*'s program with σ
    applied to its index arguments (the thread permutation π, up to swaps
    inside a group).  ``sources`` maps each array-cell attribute ``a__σ(i)``
    to ``a__i``, the cell whose value it takes in the image state.
    """

    sigma: Tuple[int, ...]
    groups: Tuple[int, ...]
    sources: Dict[str, str]


class ProgramSymmetry:
    """A workload's symmetry table: thread groups, programs, automorphisms.

    ``groups`` partitions thread ids by identical program: swapping two
    threads of one group is a scheduler automorphism.  ``suffixes[tid][i]``
    is thread *tid*'s remaining program from operation *i* on, the part of a
    symmetry-class key that frame fingerprints do not pin.

    ``automorphisms`` lists the index automorphisms of the domain
    {0..*size*-1}, the identity first.  *index_params* maps a method to its
    index parameters (argument position to name).  :meth:`workload_image`
    checks a permutation against the programs, and the engine adds the ones
    it also proved on the monitor (:func:`repro.explore.engine
    .index_symmetry`).  Programs are fixed for a whole exploration, so the
    engine builds this once and hands it to every scheduler.
    """

    __slots__ = ("groups", "suffixes", "automorphisms", "index_params",
                 "_group_of", "_op_params")

    def __init__(self, programs: Sequence[ThreadProgram],
                 index_params: Optional[Dict[str, Dict[int, str]]] = None,
                 size: int = 0):
        by_program: Dict[tuple, List[int]] = {}
        self.suffixes: List[List[tuple]] = []
        for tid, program in enumerate(programs):
            calls = tuple((name, tuple(args)) for name, args in program)
            by_program.setdefault(calls, []).append(tid)
            self.suffixes.append([calls[index:] for index in range(len(calls) + 1)])
        self.groups: List[List[int]] = list(by_program.values())
        self.index_params = index_params or {}
        self._group_of = {calls: index for index, calls in enumerate(by_program)}
        # Per group and operation index, the names of the running method's
        # index parameters (frame locals and ``_snapshot`` keys alike).
        self._op_params = [
            [frozenset(self.index_params.get(name, {}).values())
             for name, _args in calls] + [frozenset()]
            for calls in by_program]
        self.automorphisms: List[IndexAutomorphism] = [IndexAutomorphism(
            tuple(range(size)), tuple(range(len(self.groups))), {})]

    def workload_image(self, sigma: Tuple[int, ...]) -> Optional[Tuple[int, ...]]:
        """Condition (W): the group permutation σ induces, or None.

        Every group's program, with σ applied to its index arguments, must
        be the program of a group of the same size.
        """
        image: List[int] = []
        for calls, group in zip(self._group_of, self.groups):
            target = self._group_of.get(tuple(
                (name, self.image_args(name, args, sigma)) for name, args in calls))
            if target is None or len(self.groups[target]) != len(group):
                return None
            image.append(target)
        return tuple(image)

    def image_args(self, method: str, args: tuple, sigma: Tuple[int, ...]) -> tuple:
        """A call's arguments with σ applied to its index parameters."""
        positions = self.index_params.get(method, ())
        return tuple(sigma[arg] if position in positions else arg
                     for position, arg in enumerate(args))

    def add(self, sigma: Tuple[int, ...], groups: Tuple[int, ...],
            cells: Dict[str, str]) -> None:
        """Record a proven automorphism.

        *cells* maps each cell's instance attribute ``a__i`` to ``a__σ(i)``.
        """
        self.automorphisms.append(IndexAutomorphism(
            sigma, groups, {target: source for source, target in cells.items()}))

    def canonical(self, fingerprint: tuple) -> tuple:
        """The state key: the least image of *fingerprint* under the group.

        *fingerprint* is a scheduler fingerprint taken with this table, so
        its threads are already sorted within each identical-program group.
        Images rename the array cells and, in every frame, the locals and
        ``_snapshot`` entries named as the method's index parameters; all
        other locals stay, because the engine proved them equivariant.
        Images compare by ``repr``, which no hash seed changes.  With the
        identity alone the key is the fingerprint itself.
        """
        if len(self.automorphisms) == 1:
            return fingerprint
        shared, groups = fingerprint
        values = dict(shared)
        best, best_text = fingerprint, repr(fingerprint)
        for automorphism in self.automorphisms[1:]:
            sigma, sources = automorphism.sigma, automorphism.sources
            image_groups: List[tuple] = [()] * len(groups)
            for index, entries in enumerate(groups):
                params = self._op_params[index]
                images = [_rename_entry(entry, sigma, params[entry[2]])
                          for entry in entries]
                image_groups[automorphism.groups[index]] = (
                    tuple(sorted(images, key=repr)) if len(images) > 1
                    else tuple(images))
            image = (tuple((name, values[sources.get(name, name)])
                           for name, _value in shared), tuple(image_groups))
            text = repr(image)
            if text < best_text:
                best, best_text = image, text
        return best


def _rename_entry(entry: tuple, sigma: Tuple[int, ...], params: frozenset) -> tuple:
    """A thread entry ``(status, wait key, op index, frame)`` with σ applied."""
    status, wait_key, op_index, frame = entry
    if frame is None or not params:
        return entry
    parts = []
    for part in frame:
        if len(part) != 2:
            parts.append(part)
            continue
        lasti, locals_fp = part
        parts.append((lasti, tuple(
            (name, _rename_local(value, sigma) if name in params
             else _rename_snapshot(value, sigma, params) if name == "_snapshot"
             else value)
            for name, value in locals_fp)))
    return (status, wait_key, op_index, tuple(parts))


def _rename_local(value, sigma: Tuple[int, ...]):
    if type(value) is int and 0 <= value < len(sigma):
        return sigma[value]
    return value


def _rename_snapshot(value, sigma: Tuple[int, ...], params: frozenset):
    """A frozen ``_snapshot`` dict with its index-parameter entries renamed."""
    if not isinstance(value, tuple):
        return value
    return tuple((key, _rename_local(item, sigma) if key in params else item)
                 for key, item in value)


class CoopScheduler:
    """Run one coop monitor instance over per-thread programs under a strategy.

    *prefix* is a choice list to replay before the strategy takes over (the
    DFS passes the path to a backtrack point).  The replay runs through the
    ordinary loop with recording off until the last prefix choice is
    applied; a run that ends earlier records nothing.  *checkpoint*, a
    :class:`Checkpoint` some run took after applying
    ``prefix[:checkpoint.depth]`` (shorter than *prefix*), moves the
    replay's start there (:meth:`_restore`).

    *merge_probe* is consulted with every fresh fingerprint; returning True
    means the state was already explored elsewhere and the run is cut off
    with outcome ``merged`` (no decision is recorded for the merged state).

    *symmetry* (a :class:`ProgramSymmetry` of the programs) turns on
    symmetry classes and fingerprints canonical modulo permutation of
    identical-program threads.  The index automorphisms are applied by the
    merge probe's owner (:meth:`ProgramSymmetry.canonical`), so decisions
    and probes see the same un-renamed fingerprint.
    """

    def __init__(self, instance, programs: Sequence[ThreadProgram],
                 strategy: Strategy, max_steps: int = 20_000,
                 fingerprints: bool = False, prefix: Sequence[int] = (),
                 merge_probe: Optional[Callable[[tuple], bool]] = None,
                 symmetry: Optional[ProgramSymmetry] = None,
                 checkpoint: Optional[Checkpoint] = None):
        self.instance = instance
        self.strategy = strategy
        self.max_steps = max_steps
        self.fingerprints = fingerprints
        self.prefix = tuple(prefix)
        self.merge_probe = merge_probe
        self.symmetry = symmetry
        self.threads = [_VirtualThread(tid, program)
                        for tid, program in enumerate(programs)]
        self.owner: Optional[_VirtualThread] = None
        self.result = RunResult(outcome="error")
        self._frame_cache: Dict[int, tuple] = {}
        self._observe = getattr(strategy, "observe_grant", None)
        self._observe_extent = getattr(strategy, "observe_extent", None)
        #: Bound only inside an observability session: state-fingerprint and
        #: frame-cache counters land under ``explore.scheduler.*``.  They
        #: count the scheduler's own work (a replayed prefix makes no
        #: fingerprints), exist only while tracing, and so stay out of the
        #: exploration-result surface, which neither may change.
        self._metrics = _session_registry()
        self.checkpoint = checkpoint
        #: The scalar attributes a checkpoint saves; None turns segment
        #: tracking and checkpoints off.  Only fingerprinting runs (the DFS)
        #: take checkpoints.
        self._layout = (_restorable_layout(instance)
                        if fingerprints or checkpoint is not None else None)
        self._state = vars(instance) if self._layout is not None else None
        self._starts = count()
        #: True while prefix choices remain to apply: the run is replaying
        #: states the run that recorded the prefix analysed already, and
        #: records, fingerprints and observes nothing.
        self._replaying = False

    # -- public entry point ---------------------------------------------------

    def run(self) -> RunResult:
        result = self.result
        try:
            if self.checkpoint is not None:
                self._restore(self.checkpoint)
            else:
                for thread in self.threads:
                    self._advance_to_acquire(thread)
            self._replaying = len(result.prefix) < len(self.prefix)
            self._loop()
        except SchedulerError:
            raise
        except AbortRun as abort:  # the strategy pruned this run (sleep sets)
            result.outcome = abort.outcome
        except Exception as exc:  # a generated-code bug is a finding, not a crash
            result.outcome = "error"
            result.error = f"{type(exc).__name__}: {exc}"
        result.waiting = {thread.tid: thread.wait_key
                          for thread in self.threads if thread.status == "waiting"}
        return result

    # -- main loop ------------------------------------------------------------

    def _loop(self) -> None:
        result = self.result
        while True:
            if result.steps >= self.max_steps:
                result.outcome = "step-limit"
                return
            contenders = [t for t in self.threads if t.status == "acquiring"]
            if not contenders:
                if all(t.status == "done" for t in self.threads):
                    result.outcome = "completed"
                else:
                    result.outcome = "deadlock"
                return
            if len(contenders) == 1:
                # A sole contender records no decision and needs no
                # pre-decision state.
                self._grant(contenders[0])
                continue
            if self._replaying:
                self._grant(contenders[self._replay_choice(len(contenders))])
                continue
            fingerprint = None
            if self.fingerprints:
                fingerprint = self._fingerprint()
                if self.merge_probe is not None and self.merge_probe(fingerprint):
                    result.outcome = "merged"
                    return
                if self._layout is not None and all(
                        t.segments is not None for t in self.threads):
                    result.checkpoints[len(result.decisions)] = self._checkpoint()
            self._grant(contenders[self._choose(
                "grant", tuple(t.tid for t in contenders), fingerprint,
                tuple(t.program[t.op_index][0] for t in contenders),
                sym_classes=self._symmetry_classes(contenders),
                op_indices=tuple(t.op_index for t in contenders),
                resumes=tuple(t.resume_key for t in contenders))])

    def _grant(self, thread: _VirtualThread) -> None:
        """Hand the free lock to *thread* and run its segment."""
        self.owner = thread
        if thread.segments is not None:
            self._begin_segment(thread)
        if not self._replaying:
            method_name, method_args = thread.program[thread.op_index]
            args = tuple(method_args)
            if self._observe is not None:
                self._observe(thread.tid, method_name, args)
            self.result.events.append(TraceEvent("grant", thread.tid,
                                                 label=method_name, args=args))
        self._run_holder(thread)

    def _run_holder(self, thread: _VirtualThread) -> None:
        """Advance *thread* (which holds the lock) until it waits or finishes.

        A segment is a *pure wait entry* when the thread only evaluated a
        guard and went to sleep: its wait is the first event since the
        grant.  This is the one place that test is made: the grant event
        records the wait key, which the DPOR backtrack scan reads, and the
        strategy's ``observe_extent`` hook (if any) receives it when the
        segment ends, for the sleep-set update.

        While replaying, the segment records no events and calls no hooks.
        A replay that ends at a signal decision in this segment records the
        rest of it; its signal event comes first, so the segment is not a
        pure wait entry.
        """
        result = self.result
        self._frame_cache.pop(thread.tid, None)
        segment_start = len(result.events)
        while True:
            result.steps += 1
            try:
                op = next(thread.frame)
            except StopIteration:
                if self.owner is thread:
                    raise SchedulerError(
                        f"thread {thread.tid} finished an operation while still "
                        f"holding the monitor lock (missing release yield)")
                thread.op_index += 1
                self._advance_to_acquire(thread)
                if self._observe_extent is not None and not self._replaying:
                    self._observe_extent(None)
                return
            kind = op[0]
            if kind == "wait":
                key = op[1]
                self.owner = None
                thread.status = "waiting"
                thread.wait_key = key
                if self._replaying:
                    return
                events = result.events
                pure = len(events) == segment_start
                if pure:
                    # The grant just before the wait: only the guard ran.
                    events[-1] = events[-1]._replace(key=key)
                events.append(TraceEvent("wait", thread.tid, key=key))
                if self._observe_extent is not None:
                    self._observe_extent(key if pure else None)
                return
            if kind == "commit":
                thread.segments = None
                result.commits.append((thread.tid, op[1]))
                if not self._replaying:
                    result.events.append(TraceEvent("commit", thread.tid,
                                                    label=op[1]))
            elif kind == "signal":
                thread.segments = None
                self._wake(thread, op[1], broadcast=False)
            elif kind == "broadcast":
                thread.segments = None
                self._wake(thread, op[1], broadcast=True)
            elif kind == "release":
                if self.owner is not thread:
                    raise SchedulerError(
                        f"thread {thread.tid} released a lock it does not hold")
                self.owner = None
                if not self._replaying:
                    result.events.append(TraceEvent("release", thread.tid))
            elif kind == "acquire":
                # A mid-method re-acquire: contend again (not emitted by the
                # current generators, but the protocol allows it).  The
                # thread is no longer resuming from a wake: stale resume
                # metadata would make the refinement evaluate the wrong
                # guard.
                if self.owner is thread:
                    continue
                thread.status = "acquiring"
                thread.resume_key = None
                thread.segments = None
                if self._observe_extent is not None and not self._replaying:
                    self._observe_extent(None)
                return
            else:
                raise SchedulerError(f"unknown scheduler op {op!r}")

    # -- helpers --------------------------------------------------------------

    def _choose(self, kind: str, candidates: Tuple[int, ...],
                fingerprint: Optional[tuple],
                methods: Tuple[str, ...] = (),
                sym_classes: Tuple[int, ...] = (),
                op_indices: Tuple[int, ...] = (),
                resumes: Tuple[Optional[str], ...] = ()) -> int:
        """Delegate a branching choice to the strategy and record it."""
        index = self.strategy.choose(kind, candidates)
        if not 0 <= index < len(candidates):
            raise SchedulerError(
                f"strategy chose index {index} among {len(candidates)} candidates")
        self.result.decisions.append(
            Decision(kind, candidates, index, fingerprint, methods,
                     event_index=len(self.result.events),
                     sym_classes=sym_classes, op_indices=op_indices,
                     resumes=resumes))
        return index

    def _symmetry_classes(self, threads) -> Tuple[int, ...]:
        """Partition decision candidates into interchangeability classes.

        Two candidates are symmetric when their suspended frames fingerprint
        identically (same method, arguments, locals and resume point) and
        their remaining programs agree — then swapping the two thread ids is
        an automorphism of the scheduler state and the subtrees rooted at
        either choice produce the same verdict kinds.  Returns () when
        symmetry reduction is off.
        """
        if self.symmetry is None:
            return ()
        suffixes = self.symmetry.suffixes
        classes: List[int] = []
        keys: Dict[tuple, int] = {}
        for thread in threads:
            # The remaining program starts at the *current* op: frame
            # fingerprints pin locals and resume point but not the method's
            # identity, so the (name, args) of the in-flight op must be part
            # of the key too.
            key = (self._cached_frame_fingerprint(thread),
                   thread.wait_key,
                   suffixes[thread.tid][thread.op_index])
            classes.append(keys.setdefault(key, len(keys)))
        return tuple(classes)

    def _cached_frame_fingerprint(self, thread: _VirtualThread) -> Optional[tuple]:
        if thread.frame is None:
            return None
        fingerprint = self._frame_cache.get(thread.tid)
        if fingerprint is None:
            fingerprint = _frame_fingerprint(thread.frame)
            self._frame_cache[thread.tid] = fingerprint
            if self._metrics is not None:
                self._metrics.inc("explore.scheduler.frame_walks")
        elif self._metrics is not None:
            self._metrics.inc("explore.scheduler.frame_cache_hits")
        return fingerprint

    def _wake(self, waker: _VirtualThread, key: str, broadcast: bool) -> None:
        # ``self.threads`` is in tid order, so the sleepers are tid-sorted.
        sleepers = [t for t in self.threads
                    if t.status == "waiting" and t.wait_key == key]
        if broadcast or len(sleepers) < 2:
            woken = sleepers
        elif self._replaying:
            woken = [sleepers[self._replay_choice(len(sleepers))]]
        else:
            woken = [sleepers[self._choose(
                "signal", tuple(t.tid for t in sleepers), None,
                sym_classes=self._symmetry_classes(sleepers))]]
        for sleeper in woken:
            sleeper.status = "acquiring"
            sleeper.wait_key = None
            sleeper.resume_key = key
        if not self._replaying:
            self.result.events.append(
                TraceEvent("broadcast" if broadcast else "signal", waker.tid,
                           key=key, woken=tuple(t.tid for t in woken)))

    def _replay_choice(self, n: int) -> int:
        """Apply the next prefix choice among *n* candidates, clamped.

        Replaying ends as the last prefix choice is applied, before its
        grant or signal is delivered, so that segment is recorded and
        observed as if the strategy had made the choice.
        """
        applied = self.result.prefix
        index = min(max(self.prefix[len(applied)], 0), n - 1)
        applied.append(index)
        self._replaying = len(applied) < len(self.prefix)
        return index

    def _advance_to_acquire(self, thread: _VirtualThread) -> None:
        """Start *thread*'s next operation, pausing at its first acquire."""
        self._frame_cache.pop(thread.tid, None)
        thread.resume_key = None
        thread.segments = () if self._layout is not None else None
        while thread.op_index < len(thread.program):
            method_name, args = thread.program[thread.op_index]
            generator = getattr(self.instance, method_name)(*args)
            try:
                op = next(generator)
            except StopIteration:
                thread.op_index += 1
                continue
            if op != ("acquire",):
                raise SchedulerError(
                    f"{method_name} yielded {op!r} before acquiring the lock")
            thread.frame = generator
            thread.status = "acquiring"
            return
        thread.frame = None
        thread.status = "done"

    # -- checkpoints ------------------------------------------------------------

    def _begin_segment(self, thread: _VirtualThread) -> None:
        """Record the field values a segment of *thread* starts from."""
        segments = thread.segments
        if not segments:
            thread.started = next(self._starts)
        state = self._state
        thread.segments = segments + (tuple([state[name] for name in self._layout]),)

    def _checkpoint(self) -> Checkpoint:
        """Save the current grant-decision state (every thread restorable)."""
        result = self.result
        threads = self.threads
        state = self._state
        return Checkpoint(
            len(result.prefix) + len(result.decisions),
            tuple([state[name] for name in self._layout]),
            dict(vars(state["metrics"])),
            tuple((t.op_index, t.status, t.wait_key, t.resume_key, t.segments)
                  for t in threads),
            tuple(t.tid for t in sorted((t for t in threads if t.segments),
                                        key=attrgetter("started"))),
            tuple(result.commits), result.steps)

    def _restore(self, checkpoint: Checkpoint) -> None:
        """Rebuild *checkpoint*'s state on this scheduler's fresh instance.

        Threads without segments start their operation as usual.  Each other
        thread gets a new generator for its current operation and is driven
        through its recorded segments, the fields set to each segment's start
        values first; rebuilding them in operation-start order recreates the
        frames and the :class:`GuardWaiters` registrations in their original
        order.  A segment runs alone under the lock, so its path depends only
        on the fields at its start, the call's arguments and its own locals;
        guard checks never read the registries.  Then the fields, metrics,
        commits, steps and applied prefix are set from the checkpoint.
        """
        threads = self.threads
        for thread, saved in zip(threads, checkpoint.threads):
            thread.op_index = saved[0]
            if not saved[4]:
                self._advance_to_acquire(thread)
        state = self._state
        layout = self._layout
        for tid in checkpoint.order:
            thread = threads[tid]
            _op_index, status, wait_key, resume_key, segments = checkpoint.threads[tid]
            self._advance_to_acquire(thread)
            for values in segments:
                state.update(zip(layout, values))
                for op in thread.frame:
                    if op[0] == "wait":
                        break
                else:
                    raise SchedulerError(
                        f"thread {thread.tid} finished a restored guard check")
            thread.status = status
            thread.wait_key = wait_key
            thread.resume_key = resume_key
            thread.segments = segments
            thread.started = next(self._starts)
        state.update(zip(layout, checkpoint.fields))
        vars(state["metrics"]).update(checkpoint.metrics)
        result = self.result
        result.commits = list(checkpoint.commits)
        result.steps = checkpoint.steps
        result.prefix = list(self.prefix[:checkpoint.depth])

    def _fingerprint(self) -> tuple:
        """A hashable snapshot of the global state at a grant point.

        Frame snapshots are the expensive part (``f_locals`` materialization
        per suspended generator); they are cached per thread and invalidated
        only when the thread's frame actually advances, so between two grant
        decisions just one thread's frame is re-walked.
        """
        if self._metrics is not None:
            self._metrics.inc("explore.scheduler.fingerprints")
        shared = tuple(sorted(
            (name, _freeze(value))
            for name, value in vars(self.instance).items()
            if not name.startswith("_") and name != "metrics"
        ))
        threads = []
        for t in self.threads:
            frame_fp = self._cached_frame_fingerprint(t)
            threads.append((t.status, t.wait_key, t.op_index, frame_fp))
        if self.symmetry is not None:
            # Canonical order within each identical-program group: entries
            # are heterogeneous tuples (None vs str members), so sort by a
            # deterministic textual key rather than structurally.
            return (shared, tuple(
                tuple(sorted((threads[tid] for tid in group), key=repr))
                if len(group) > 1 else (threads[group[0]],)
                for group in self.symmetry.groups))
        return (shared, tuple(threads))


def run_schedule(instance, programs: Sequence[ThreadProgram], strategy: Strategy,
                 max_steps: int = 20_000, fingerprints: bool = False,
                 prefix: Sequence[int] = (),
                 merge_probe: Optional[Callable[[tuple], bool]] = None,
                 symmetry: Optional[ProgramSymmetry] = None,
                 checkpoint: Optional[Checkpoint] = None) -> RunResult:
    """Convenience wrapper: build a scheduler and run it to completion."""
    return CoopScheduler(instance, programs, strategy, max_steps,
                         fingerprints=fingerprints, prefix=prefix,
                         merge_probe=merge_probe, symmetry=symmetry,
                         checkpoint=checkpoint).run()
