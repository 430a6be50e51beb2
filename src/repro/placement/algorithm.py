"""The signal placement algorithm (paper §4, Algorithm 1).

For every conditional critical region *w* and every waited-on guard *p* in
the monitor, the algorithm decides:

1. whether executing *w* can make *p* true at all (if not, no notification);
2. whether the notification can be unconditional (``✓``) or must re-check the
   predicate at run time (``?``);
3. whether a single ``signal`` suffices or a ``broadcast`` is required —
   using the basic check of Algorithm 1 line 13 and, optionally, the §4.3
   commutativity-based strengthening (Equation 2).

Thread-local variables occurring in the blocked thread's guard are renamed to
fresh copies before validity checking (§4.2), which prevents the unsoundness
of Example 4.2.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.logic import build
from repro.logic.free_vars import ordered_free_vars
from repro.logic.terms import Expr
from repro.lang.ast import CCR, MethodDecl, Monitor, seq
from repro.analysis.hoare import HoareTriple, check_triple
from repro.analysis.renaming import rename_stmt_locals, rename_thread_locals
from repro.placement.target import Notification
from repro.record import record

if TYPE_CHECKING:
    from repro.smt.solver import Solver


@record(frozen=True)
class PlacementDecision:
    """The decision for one (CCR, guard) pair, with the triples that justify it."""

    ccr_label: str
    predicate: Expr
    needs_notification: bool
    conditional: bool = True
    broadcast: bool = True
    used_commutativity: bool = False
    checked_triples: Tuple[HoareTriple, ...] = ()

    def to_notification(self) -> Optional[Notification]:
        if not self.needs_notification:
            return None
        return Notification(self.predicate, self.conditional, self.broadcast)


@record
class PlacementResult:
    """Output of :func:`place_signals`: notifications per CCR plus provenance."""

    monitor: Monitor
    invariant: Expr
    notifications: Dict[str, Tuple[Notification, ...]]
    decisions: Tuple[PlacementDecision, ...]

    def notifications_for(self, ccr_label: str) -> Tuple[Notification, ...]:
        return self.notifications.get(ccr_label, ())

    def total_notifications(self) -> int:
        return sum(len(notes) for notes in self.notifications.values())

    def broadcast_count(self) -> int:
        return sum(1 for notes in self.notifications.values()
                   for note in notes if note.broadcast)


def guard_thread_locals(monitor: Monitor, guard: Expr) -> frozenset:
    """Thread-local variable names appearing free in *guard*."""
    shared = set(monitor.field_names())
    return frozenset(var.name for var in ordered_free_vars(guard) if var.name not in shared)


def waiters_of(monitor: Monitor, guard: Expr) -> Tuple[Tuple[MethodDecl, CCR], ...]:
    """All CCRs whose guard is exactly *guard* (the threads that may block on it)."""
    return tuple((method, ccr) for method, ccr in monitor.ccrs() if ccr.guard == guard)


def generate_placement_triples(monitor: Monitor, invariant: Expr) -> List[HoareTriple]:
    """The triples Algorithm 1 would check under *invariant*.

    With ``invariant = true`` this is exactly the Θ input of the invariant
    inference (Algorithm 2).
    """
    triples: List[HoareTriple] = []
    guards = monitor.guards()
    # Each guard's renaming (and its negation) is the same for every CCR.
    renamed_guards = []
    for predicate in guards:
        renamed_p = rename_thread_locals(
            predicate, guard_thread_locals(monitor, predicate), "theta")
        renamed_guards.append((renamed_p, build.lnot(renamed_p)))
    for _method, ccr in monitor.ccrs():
        no_signal = f"no-signal {ccr.label}"
        unconditional = f"unconditional {ccr.label}"
        for renamed_p, not_renamed_p in renamed_guards:
            pre = build.land(invariant, ccr.guard, not_renamed_p)
            triples.append(HoareTriple(pre, ccr.body, not_renamed_p, purpose=no_signal))
            triples.append(HoareTriple(pre, ccr.body, renamed_p, purpose=unconditional))
    for predicate in guards:
        for _method, waiter in waiters_of(monitor, predicate):
            triples.append(HoareTriple(build.land(invariant, predicate), waiter.body,
                                       build.lnot(predicate),
                                       purpose=f"single-signal {waiter.label}"))
    return triples


def place_signals(monitor: Monitor, invariant: Expr,
                  solver: Optional[Solver] = None,
                  use_commutativity: bool = True) -> PlacementResult:
    """Run Algorithm 1 (with the §4.2 renaming and optional §4.3 improvement)."""
    from repro import obs
    from repro.analysis.commutativity import ccr_commutes_with_all
    from repro.smt.solver import Solver

    solver = solver or Solver()
    notifications: Dict[str, List[Notification]] = {
        ccr.label: [] for _method, ccr in monitor.ccrs()
    }
    decisions: List[PlacementDecision] = []

    commutativity_cache: Dict[str, bool] = {}

    def commutes(ccr: CCR) -> bool:
        if ccr.label not in commutativity_cache:
            commutativity_cache[ccr.label] = ccr_commutes_with_all(ccr, monitor, solver)
        return commutativity_cache[ccr.label]

    tracer = obs.tracer()
    guards = monitor.guards()
    fingerprints = ([obs.formula_fingerprint(predicate) for predicate in guards]
                    if tracer.enabled else [None] * len(guards))
    for method, ccr in monitor.ccrs():
        for predicate, fingerprint in zip(guards, fingerprints):
            with tracer.span("placement.decide", cat="placement",
                             ccr=ccr.label, predicate=fingerprint) as span:
                decision = _decide(monitor, method, ccr, predicate, invariant,
                                   solver, use_commutativity, commutes)
                span.set(needs_notification=decision.needs_notification,
                         conditional=decision.conditional,
                         broadcast=decision.broadcast,
                         used_commutativity=decision.used_commutativity)
            decisions.append(decision)
            notification = decision.to_notification()
            if notification is not None:
                notifications[ccr.label].append(notification)

    return PlacementResult(
        monitor=monitor,
        invariant=invariant,
        notifications={label: tuple(notes) for label, notes in notifications.items()},
        decisions=tuple(decisions),
    )


def _proved(triple: HoareTriple, solver: Solver) -> bool:
    """``check_triple`` with degradation accounting.

    An UNKNOWN verdict already falls on the sound side everywhere in
    Algorithm 1 — an unproven triple keeps the notification, makes it
    conditional, or forces a broadcast, so a degraded solver can only
    over-signal, never lose a wakeup.  This wrapper surfaces each such
    degradation as ``degraded.placement`` plus a trace instant.
    """
    ok = check_triple(triple, solver)
    if not ok and solver.consume_unknown() is not None:
        from repro import obs

        obs.registry().inc("degraded.placement")
        obs.tracer().instant("degraded.placement", cat="smt",
                             triple=triple.purpose)
    return ok


def _decide(monitor: Monitor, method: MethodDecl, ccr: CCR, predicate: Expr,
            invariant: Expr, solver: Solver, use_commutativity: bool,
            commutes) -> PlacementDecision:
    """Decide whether/how *ccr* must notify threads blocked on *predicate*."""
    checked: List[HoareTriple] = []
    locals_in_p = guard_thread_locals(monitor, predicate)
    # §4.2: the blocked thread's locals are renamed apart from the running thread's.
    other_p = rename_thread_locals(predicate, locals_in_p, "blk")

    # Line 7: is a notification needed at all?
    pre = build.land(invariant, ccr.guard, build.lnot(other_p))
    no_signal = HoareTriple(pre, ccr.body, build.lnot(other_p),
                            purpose=f"{ccr.label} cannot wake {_short(predicate)}")
    checked.append(no_signal)
    if _proved(no_signal, solver):
        return PlacementDecision(ccr.label, predicate, needs_notification=False,
                                 checked_triples=tuple(checked))

    # Lines 9-12: conditional vs unconditional notification.
    unconditional = HoareTriple(pre, ccr.body, other_p,
                                purpose=f"{ccr.label} guarantees {_short(predicate)}")
    checked.append(unconditional)
    conditional = not _proved(unconditional, solver)

    # Lines 13-16 (+ §4.3): signal one thread or broadcast to all?
    # The woken thread executes the waiter's body; the postcondition talks about
    # a *different* thread that stays blocked on the same predicate, so its
    # thread-locals are renamed apart (§4.2, Example 4.2).
    broadcast = False
    used_comm = False
    for _waiter_method, waiter in waiters_of(monitor, predicate):
        single = HoareTriple(build.land(invariant, predicate), waiter.body,
                             build.lnot(other_p),
                             purpose=f"{waiter.label} consumes {_short(predicate)}")
        checked.append(single)
        if _proved(single, solver):
            continue
        if use_commutativity and commutes(waiter):
            # Equation 2: prove that running the signalling body followed by the
            # woken thread's body falsifies the predicate for any other waiter.
            # Three thread namespaces are involved: the running thread
            # (unrenamed), the woken waiter (suffix "wkn"), and the thread that
            # remains blocked (suffix "blk", shared with `other_p`).
            waiter_locals = monitor.thread_local_names(_method_of(monitor, waiter))
            renamed_body = rename_stmt_locals(waiter.body, waiter_locals, "wkn")
            composed = HoareTriple(
                build.land(invariant, ccr.guard, build.lnot(other_p)),
                seq(ccr.body, renamed_body),
                build.lnot(other_p),
                purpose=f"{ccr.label};{waiter.label} consumes {_short(predicate)} (Eq. 2)",
            )
            checked.append(composed)
            if _proved(composed, solver):
                used_comm = True
                continue
        broadcast = True
        break

    return PlacementDecision(ccr.label, predicate, needs_notification=True,
                             conditional=conditional, broadcast=broadcast,
                             used_commutativity=used_comm,
                             checked_triples=tuple(checked))


def _method_of(monitor: Monitor, target: CCR) -> MethodDecl:
    for method, ccr in monitor.ccrs():
        if ccr is target:
            return method
    raise KeyError(target.label)


def _short(predicate: Expr) -> str:
    from repro.logic.pretty import pretty

    text = pretty(predicate)
    return text if len(text) <= 40 else text[:37] + "..."
