"""Bounded differential checking of Definition 3.4.

The placement algorithm is proven correct in the paper (Theorem 4.1); this
module provides an *executable* cross-check used by the test suite: for a
small thread setup it enumerates every syntactically well-formed trace up to
a bounded number of events and verifies both directions of Definition 3.4:

1. every trace feasible under the explicit semantics is feasible under the
   implicit semantics and reaches the same shared state;
2. every *normalized* trace feasible under the implicit semantics is feasible
   under the explicit semantics and reaches the same shared state.

A violation of (2) would mean the generated monitor can deadlock threads the
implicit monitor would have woken — the bug class signal placement must avoid.
"""

from __future__ import annotations

import itertools
from dataclasses import field, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.lang.ast import Monitor
from repro.placement.target import ExplicitMonitor
from repro.record import record
from repro.semantics.explicit import ExplicitSemantics
from repro.semantics.implicit import Configuration, ImplicitSemantics, TraceOutcome
from repro.semantics.state import MonitorState, Value
from repro.semantics.traces import Event


@record(frozen=True)
class ThreadPlan:
    """What one thread intends to do: run *methods* in order with given locals."""

    thread: int
    methods: Tuple[str, ...]
    locals: Tuple[Tuple[str, Value], ...] = ()

    def local_map(self) -> Dict[str, Value]:
        return dict(self.locals)


@record
class EquivalenceReport:
    """Outcome of a bounded equivalence check."""

    explored_traces: int = 0
    implicit_only: List[Tuple[Event, ...]] = field(default_factory=list)
    explicit_only: List[Tuple[Event, ...]] = field(default_factory=list)
    state_mismatches: List[Tuple[Event, ...]] = field(default_factory=list)

    @property
    def equivalent(self) -> bool:
        return not self.implicit_only and not self.explicit_only and not self.state_mismatches


def _initial_state(monitor: Monitor, plans: Sequence[ThreadPlan]) -> MonitorState:
    state = MonitorState.initial(monitor)
    for plan in plans:
        if plan.locals:
            state.set_locals(plan.thread, plan.local_map())
    return state


def _candidate_events(monitor: Monitor, plans: Sequence[ThreadPlan],
                      progress: Mapping[int, int]) -> List[Event]:
    """The next event each thread could attempt, in both blocked/entered flavours."""
    labels_per_method = {method.name: [ccr.label for ccr in method.ccrs]
                         for method in monitor.methods}
    flattened: Dict[int, List[str]] = {}
    for plan in plans:
        labels: List[str] = []
        for method_name in plan.methods:
            labels.extend(labels_per_method[method_name])
        flattened[plan.thread] = labels
    events: List[Event] = []
    for plan in plans:
        index = progress[plan.thread]
        labels = flattened[plan.thread]
        if index >= len(labels):
            continue
        label = labels[index]
        events.append(Event(plan.thread, label, True))
        events.append(Event(plan.thread, label, False))
    return events


def enumerate_feasible_traces(monitor: Monitor, semantics, plans: Sequence[ThreadPlan],
                              max_events: int) -> Dict[Tuple[Event, ...], Tuple[Configuration, bool]]:
    """All feasible traces (up to *max_events*) with their final configuration.

    The returned mapping's value is ``(final configuration, used_rule_1b)``.
    Traces are generated respecting per-thread program order, which makes them
    syntactically well-formed by construction; feasibility is decided by the
    supplied semantics (implicit or explicit).
    """
    state = _initial_state(monitor, plans)
    initial = semantics.initial_configuration(state)
    results: Dict[Tuple[Event, ...], Tuple[Configuration, bool]] = {(): (initial, False)}
    frontier: List[Tuple[Tuple[Event, ...], Configuration, Dict[int, int], bool]] = [
        ((), initial, {plan.thread: 0 for plan in plans}, False)
    ]
    while frontier:
        trace, config, progress, used_1b = frontier.pop()
        if len(trace) >= max_events:
            continue
        for event in _candidate_events(monitor, plans, progress):
            for new_config, spurious in semantics.successors(config, event):
                new_progress = dict(progress)
                if event.entered:
                    new_progress[event.thread] += 1
                new_trace = trace + (event,)
                new_used = used_1b or spurious
                existing = results.get(new_trace)
                # Prefer recording a normalized (no rule-1b) derivation when one exists.
                if existing is None or (existing[1] and not new_used):
                    results[new_trace] = (new_config, new_used)
                frontier.append((new_trace, new_config, new_progress, new_used))
    return results


def check_bounded_equivalence(monitor: Monitor, explicit: ExplicitMonitor,
                              plans: Sequence[ThreadPlan],
                              max_events: int = 6) -> EquivalenceReport:
    """Check both directions of Definition 3.4 over all bounded traces."""
    implicit_sem = ImplicitSemantics(monitor)
    explicit_sem = ExplicitSemantics(explicit)
    implicit_traces = enumerate_feasible_traces(monitor, implicit_sem, plans, max_events)
    explicit_traces = enumerate_feasible_traces(monitor, explicit_sem, plans, max_events)

    report = EquivalenceReport(explored_traces=len(implicit_traces) + len(explicit_traces))

    # Direction 1: explicit-feasible ==> implicit-feasible with the same state.
    for trace, (explicit_config, _spurious) in explicit_traces.items():
        implicit_entry = implicit_traces.get(trace)
        if implicit_entry is None:
            report.explicit_only.append(trace)
            continue
        if implicit_entry[0].state.shared != explicit_config.state.shared:
            report.state_mismatches.append(trace)

    # Direction 2: normalized implicit-feasible ==> explicit-feasible, same state.
    for trace, (implicit_config, used_1b) in implicit_traces.items():
        if used_1b:
            continue
        explicit_entry = explicit_traces.get(trace)
        if explicit_entry is None:
            report.implicit_only.append(trace)
            continue
        if explicit_entry[0].state.shared != implicit_config.state.shared:
            report.state_mismatches.append(trace)
    return report


# ---------------------------------------------------------------------------
# Definition 3.4 witnesses for exploration counterexamples
# ---------------------------------------------------------------------------


def _trace_from_run(monitor: Monitor, programs, run) -> List[Event]:
    """Rebuild the §3.2 event trace of a scheduled coop run.

    Commits map to *entered* events.  A ``wait`` scheduler event maps to the
    waiting thread's pending CCR as a *blocked* event — positions are tracked
    exactly as the reference replay does, so multi-CCR methods resolve to the
    CCR the thread actually blocked in.
    """
    positions: Dict[int, Tuple[int, int]] = {tid: (0, 0)
                                             for tid in range(len(programs))}

    def pending_label(tid: int) -> Optional[str]:
        op_index, ccr_index = positions[tid]
        program = programs[tid]
        if op_index >= len(program):
            return None
        method = monitor.method(program[op_index][0])
        return method.ccrs[ccr_index].label

    trace: List[Event] = []
    for event in run.events:
        if event.kind == "commit":
            trace.append(Event(event.thread, event.label, True))
            op_index, ccr_index = positions[event.thread]
            method = monitor.method(programs[event.thread][op_index][0])
            if ccr_index + 1 < len(method.ccrs):
                positions[event.thread] = (op_index, ccr_index + 1)
            else:
                positions[event.thread] = (op_index + 1, 0)
        elif event.kind == "wait":
            label = pending_label(event.thread)
            if label is not None:
                trace.append(Event(event.thread, label, False))
    return trace


def _bind_args(monitor: Monitor,
               programs) -> Optional[Dict[Tuple[int, int], Dict[str, Value]]]:
    """Per-(thread, op) argument environments for a coop workload.

    Maps each call's positional arguments onto the method's parameter names
    so the trace semantics can evaluate parameter-reading guards and bodies.
    Returns ``None`` on an arity mismatch (no trace-level reading exists).
    """
    envs: Dict[Tuple[int, int], Dict[str, Value]] = {}
    for tid, program in enumerate(programs):
        for op_index, (method_name, args) in enumerate(program):
            params = monitor.method(method_name).param_names()
            if len(args) != len(params):
                return None
            if params:
                envs[(tid, op_index)] = dict(zip(params, args))
    return envs


def _run_trace_with_args(semantics, monitor: Monitor, programs,
                         arg_envs: Mapping[Tuple[int, int], Dict[str, Value]],
                         state: MonitorState,
                         trace: Sequence[Event]) -> TraceOutcome:
    """Replay *trace*, binding each call's arguments on method entry.

    Position tracking mirrors :func:`_trace_from_run`: a thread sits at
    ``(op_index, ccr_index)`` and advances on its entered events, so the
    binding for op *k* is installed exactly while the thread is at its first
    CCR.  Binding *replaces* the thread's locals — each call is a fresh
    activation frame, as in the coop runtime — and is idempotent across the
    repeated blocked events a waiting thread emits.

    A frontier of configurations makes this one replay loop serve both the
    deterministic implicit relation and the nondeterministic explicit one
    (feasible iff some resolution of signal targets consumes the trace);
    a rule-1b-free survivor is preferred so ``normalized`` stays meaningful.
    """
    positions: Dict[int, Tuple[int, int]] = {tid: (0, 0)
                                             for tid in range(len(programs))}

    def bind(config: Configuration, event: Event) -> Configuration:
        op_index, ccr_index = positions[event.thread]
        if ccr_index != 0 or op_index >= len(programs[event.thread]):
            return config
        env = arg_envs.get((event.thread, op_index))
        if env is None:
            return config
        new_state = config.state.copy()
        new_state.locals[event.thread] = dict(env)
        return replace(config, state=new_state)

    frontier: List[Tuple[Configuration, bool]] = [
        (semantics.initial_configuration(state), False)
    ]
    for event in trace:
        next_frontier: List[Tuple[Configuration, bool]] = []
        for config, used_1b in frontier:
            for successor, spurious in semantics.successors(bind(config, event), event):
                entry = (successor, used_1b or spurious)
                if entry not in next_frontier:
                    next_frontier.append(entry)
        if not next_frontier:
            return TraceOutcome(False)
        frontier = next_frontier
        if event.entered:
            op_index, ccr_index = positions[event.thread]
            if op_index < len(programs[event.thread]):
                method = monitor.method(programs[event.thread][op_index][0])
                if ccr_index + 1 < len(method.ccrs):
                    positions[event.thread] = (op_index, ccr_index + 1)
                else:
                    positions[event.thread] = (op_index + 1, 0)
    for config, used_1b in frontier:
        if not used_1b:
            return TraceOutcome(True, config, False)
    config, used_1b = frontier[0]
    return TraceOutcome(True, config, used_1b)


def _serialize_trace(trace: Sequence[Event]) -> list:
    return [[event.thread, event.ccr_label, event.entered] for event in trace]


def counterexample_witness(monitor: Monitor, explicit: ExplicitMonitor,
                           programs, run, verdict) -> Optional[dict]:
    """A Definition 3.4 witness (implicit-vs-explicit trace pair) for a finding.

    Exploration findings are scheduler-level (a commit order plus a verdict);
    the definition the placement theorem is stated against talks about
    *traces*.  This bridges the two: the counterexample's own run is replayed
    through both the implicit transition relation (Figure 4) and the placed
    monitor's explicit relation, producing a concrete trace that is feasible
    under exactly one side — the executable content of the ROADMAP's
    "signal-target nondeterminism" item.

    * ``lost-wakeup`` — the witness trace blocks the starved thread where the
      schedule did and appends its entered event: rules 2a/2b make it
      implicit-feasible (the commits turned its guard true, so it was
      notified), while the explicit relation — whose wakeups are exactly the
      placed signals — cannot fire it.
    * ``guard-violation`` — the commits themselves, as entered events, are
      implicit-*infeasible* at the violating commit.
    * ``state-divergence`` — the commit trace is feasible on both sides with
      the same AST-level state; the divergence is against the *compiled*
      instance, so the record carries the implicit final state and the
      oracle's field diff instead of an infeasibility flag.

    Returns ``None`` when no trace-pair form exists for the verdict kind
    (stalls, step limits) or when a call's arity does not match its method
    (nothing for the trace semantics to bind).  Parameterized workloads are
    handled by installing each call's argument environment at method entry
    during replay (:func:`_run_trace_with_args`).
    """
    arg_envs = _bind_args(monitor, programs)
    if arg_envs is None:
        return None
    programs = [list(program) for program in programs]
    implicit_sem = ImplicitSemantics(monitor)
    explicit_sem = ExplicitSemantics(explicit)
    state = MonitorState.initial(monitor)
    base = _trace_from_run(monitor, programs, run)
    kind = verdict.kind

    def outcome_pair(trace):
        try:
            implicit = _run_trace_with_args(
                implicit_sem, monitor, programs, arg_envs, state.copy(), list(trace))
            explicit_out = _run_trace_with_args(
                explicit_sem, monitor, programs, arg_envs, state.copy(), list(trace))
        except Exception:
            return None, None
        return implicit, explicit_out

    def filtered_base(tid: int) -> Optional[Tuple[Event, ...]]:
        """Entered events plus only *tid*'s current blocking event.

        Re-sleep cycles (woken, guard still false, back to sleep) show up as
        extra blocked events the implicit relation only admits as rule-1b
        steps; dropping them leaves a normalized candidate whose single
        blocked event establishes the starved pair before its entered event.
        """
        last_commit = -1
        for index, event in enumerate(base):
            if event.thread == tid and event.entered:
                last_commit = index
        first_wait = None
        for index in range(last_commit + 1, len(base)):
            event = base[index]
            if event.thread == tid and not event.entered:
                first_wait = index
                break
        if first_wait is None:
            return None
        return tuple(event for index, event in enumerate(base)
                     if event.entered or index == first_wait)

    if kind == "lost-wakeup":
        # Candidate completions: each sleeping thread's pending entered event.
        positions: Dict[int, Tuple[int, int]] = {tid: (0, 0)
                                                 for tid in range(len(programs))}
        for event in base:
            if event.entered:
                op_index, ccr_index = positions[event.thread]
                method = monitor.method(programs[event.thread][op_index][0])
                if ccr_index + 1 < len(method.ccrs):
                    positions[event.thread] = (op_index, ccr_index + 1)
                else:
                    positions[event.thread] = (op_index + 1, 0)
        for tid in sorted(run.waiting):
            op_index, ccr_index = positions[tid]
            if op_index >= len(programs[tid]):
                continue
            method = monitor.method(programs[tid][op_index][0])
            label = method.ccrs[ccr_index].label
            candidates = []
            filtered = filtered_base(tid)
            if filtered is not None:
                candidates.append(filtered + (Event(tid, label, True),))
            candidates.append(tuple(base) + (Event(tid, label, True),))
            for trace in candidates:
                implicit, explicit_out = outcome_pair(trace)
                if (implicit is not None and implicit.feasible
                        and not explicit_out.feasible):
                    return {
                        "kind": kind,
                        "trace": _serialize_trace(trace),
                        "implicit_feasible": True,
                        "implicit_normalized": implicit.normalized,
                        "explicit_feasible": False,
                        "starved_thread": tid,
                        "starved_ccr": label,
                    }
        return None

    if kind == "guard-violation" or kind == "commit-mismatch":
        trace = tuple(event for event in base if event.entered)
        implicit, explicit_out = outcome_pair(trace)
        if implicit is None or implicit.feasible:
            return None  # the violation is not visible at trace level
        return {
            "kind": kind,
            "trace": _serialize_trace(trace),
            "implicit_feasible": False,
            "explicit_feasible": explicit_out.feasible,
        }

    if kind == "state-divergence":
        trace = tuple(event for event in base if event.entered)
        implicit, explicit_out = outcome_pair(trace)
        if implicit is None or not implicit.feasible:
            return None
        return {
            "kind": kind,
            "trace": _serialize_trace(trace),
            "implicit_feasible": True,
            "implicit_normalized": implicit.normalized,
            "explicit_feasible": explicit_out.feasible,
            "implicit_state": {name: value for name, value
                               in sorted(implicit.final.state.shared.items())},
            "compiled_divergence": verdict.detail,
        }

    return None
