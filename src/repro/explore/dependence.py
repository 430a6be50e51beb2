"""The DPOR dependence relation: do two pending transitions commute?

Dynamic partial-order reduction (Flanagan & Godefroid, POPL 2005) asks one
question of the monitor under exploration, and :class:`Dependence` is the
one place that answers it.  A *transition* is the segment a thread runs once
the scheduler grants it the monitor lock, written ``(method, args,
wait_key)``: the method the thread is in, the call's concrete arguments
(None when unknown) and the condition the segment provably does nothing but
sleep on (None when the whole method may run).  Both DPOR consumers ask
through :meth:`Dependence.independent`:

* the backtrack filter (``_commutes_past`` in :mod:`repro.explore.engine`):
  does a pending candidate commute with every segment the run executed
  before the candidate's thread ran again?
* the sleep-set wake-up (``DporStrategy._flush_segment`` in
  :mod:`repro.explore.strategies`): does a deferred transition stay asleep
  past the segment that just ran?

The relation is built once per exploration from the coop class
(``_coop_footprints``, ``_coop_explicit`` and the ``_coop_semantic`` memo,
the last two only for semantic reduction) and the workload programs.  Its
rules are tried in order; the first that holds proves the pair independent,
and a pair no rule covers is dependent.

1. **Method table.**  Two methods are independent when their
   :class:`MethodFootprint` s are disjoint (:func:`footprints_independent`),
   or when the SMT matrix entry (the paper's §4.3 ``Comm`` check) proves
   their bodies commute and preserve each other's guards and notification
   predicates, and :func:`condition_vars_compatible` still holds with
   shared signals allowed.  An entry is proven when DPOR first consults it
   and memoized in the class's ``_coop_semantic``, which a caller needing
   the whole matrix (the fuzz campaign's coverage) may fill beforehand.
2. **Wait entries.**  A side with a wait key is a guard evaluation that
   fails and sleeps: it reads the guard's fields, waits on one condition,
   writes nothing and signals nothing.  Its footprint replaces the whole
   method's, and the footprint rule is asked again.
3. **Values.**  At concrete arguments on both sides, the SMT check of the
   instantiated bodies (``calls_semantically_independent``) decides pairs
   the symbolic matrix must reject, e.g. two adjacent Dining Philosophers'
   ``putDown`` calls that reset a shared fork to the same value.
   Condition-variable compatibility is still checked on the whole-method
   footprints, with shared signals allowed.

Soundness.  The explorer may skip a transition order only when the order it
keeps reaches the same verdicts.  Every rule proves the same thing of two
transitions *t* and *u* enabled in a state *s*: *t* then *u* and *u* then
*t* both run, reach the same scheduler state (shared fields; per thread its
status, wait key and program position) and append the same commits per
thread.  Deadlock verdicts (``lost-wakeup`` and ``stall``) are properties
of the deadlocked state alone: no contender, and the sleepers with their
wait keys, judged against the reference state.  So both orders deadlock
alike.  Final-state verdicts (``state-divergence`` and
``guard-violation``) replay the commit order through the reference
monitor.  The two commit orders differ by swapping the commits of *t* and
*u*.  A placement adds notifications, not body code, so the same proof
shows those commits commute in the reference bodies too, and both replays
reach the same state and pass the same guards.  Per rule:

1. Disjoint footprints: neither segment writes a field the other reads or
   writes, so each reads the same values in both orders and the shared
   state ends the same.  Neither signals a condition the other waits on,
   and they signal no common condition, so each order wakes the same
   threads.  Two waits on the same condition commute because the scheduler
   keeps sleepers tid-sorted.  Footprints over-approximate the whole method
   (guards, bodies, loop invariants, notification predicates), so they
   hold for a thread resuming mid-method.  The matrix rule replaces field
   disjointness with the solver's proof that the bodies commute and keep
   each other's guards, hence enabledness.  Its notification-predicate
   proof makes both orders fire the same notifications, so shared signals
   are allowed; signals aimed at the other side's waits are still rejected
   syntactically, because mutants change notifications but not bodies.
   Methods without a footprint (the automatic-signal runtimes) are
   dependent on everything.
2. A wait entry changes no field and wakes no one.  Against a segment that
   writes none of its guard's fields and signals none of its condition, the
   guard is false in both orders and the sleeper set ends the same.  A
   pending wait key comes from the decision state (the recorded fingerprint,
   the candidate's resume condition or its first guard at the call's
   arguments).  The backtrack scan may use it at later segments because
   every segment it passes was found independent of the wait entry, so
   none of them wrote the guard's fields.  An executed wait key is the
   scheduler's own record that the granted segment emitted nothing but its
   wait (``TraceEvent.key`` of the grant).
3. The value check is rule 1's matrix proof with the parameters bound to
   the arguments the workload actually passes; a transition's arguments
   are fixed by its thread's program position, so the proof covers exactly
   the two calls that run.  Bodies that reassign a parameter are dependent.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, FrozenSet, Optional, Sequence, Set, Tuple

from repro.lang.effects import EMPTY_EFFECTS, expr_reads, guarded_effects
from repro.logic import TRUE
from repro.logic.evaluate import EvaluationError, Value, evaluate
from repro.logic.terms import Expr
from repro.placement.target import ExplicitMethod, ExplicitMonitor
from repro.record import record

if TYPE_CHECKING:
    from repro.explore.scheduler import Decision

#: ``(method, call args or None, wait key or None)`` — one segment.
Transition = Tuple[str, Optional[tuple], Optional[str]]


@record(frozen=True)
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


def footprints_for_explicit(explicit: ExplicitMonitor) -> Dict[str, MethodFootprint]:
    """Per-method shared-field/condition-variable footprints of a placement.

    The footprint over-approximates everything the *compiled* method can
    touch: guard evaluations, body reads (loop invariants included) and
    conditional-notification predicates count as reads, placed notifications
    as signals on their condition variable, and non-trivial guards as waits.
    Mutants produced by
    :meth:`ExplicitMonitor.without_notification` get footprints from their
    own (reduced) notification sets, so independence reflects the mutant's
    actual behaviour.
    """
    fields = frozenset(decl.name for decl in explicit.fields)
    cond_of = {guard: name for guard, name in explicit.condition_vars}
    footprints: Dict[str, MethodFootprint] = {}
    for method in explicit.methods:
        effects = EMPTY_EFFECTS
        waits: Set[str] = set()
        signals: Set[str] = set()
        for ccr in method.ccrs:
            # The code generator drops notifications without a condition
            # variable, so they neither signal nor read.
            placed = [n for n in ccr.notifications if n.predicate in cond_of]
            effects = effects.union(guarded_effects(
                ccr.guard, ccr.body, [n.predicate for n in placed if n.conditional]))
            if ccr.guard != TRUE and ccr.guard in cond_of:
                waits.add(cond_of[ccr.guard])
            signals.update(cond_of[n.predicate] for n in placed)
        footprints[method.name] = MethodFootprint(
            effects.reads & fields, effects.writes & fields,
            frozenset(waits), frozenset(signals))
    return footprints


class Dependence:
    """The dependence relation of one exploration (see the module docstring).

    ``semantic=False`` keeps the footprint rule alone: no matrix, no wait
    entries, no value checks — the syntactic reduction level.
    """

    def __init__(self, coop_class: type, programs: Sequence[Sequence[Tuple[str, tuple]]],
                 semantic: bool = True) -> None:
        self._footprints: Dict[str, MethodFootprint] = dict(
            getattr(coop_class, "_coop_footprints", None) or {})
        # Wait entries, matrix proofs and value checks read the placement.
        explicit: Optional[ExplicitMonitor] = (
            getattr(coop_class, "_coop_explicit", None) if semantic else None)
        matrix: Optional[Dict[Tuple[str, str], bool]] = (
            getattr(coop_class, "_coop_semantic", None) if semantic else None)
        if matrix is None and explicit is not None:
            matrix = {}
            setattr(coop_class, "_coop_semantic", matrix)
        self._matrix: Dict[Tuple[str, str], bool] = matrix if matrix is not None else {}
        #: Per ordered method pair: True, False, or None until its matrix
        #: entry is consulted (conflicting footprints, compatible waits).
        self._table: Dict[Tuple[str, str], Optional[bool]] = {
            (a, b): True if footprints_independent(fp_a, fp_b) else (
                None if matrix is not None and condition_vars_compatible(
                    fp_a, fp_b, allow_shared_signals=True) else False)
            for a, fp_a in self._footprints.items()
            for b, fp_b in self._footprints.items()}
        self._programs = programs
        self._fields: FrozenSet[str] = frozenset()
        self._guards: Dict[str, Expr] = {}
        self._methods: Dict[str, ExplicitMethod] = {}
        #: Per method, the condition its first CCR waits on and the
        #: parameter names its guard may read (methods whose first guard
        #: is trivial or has no condition variable are absent).
        self._entries: Dict[str, Tuple[str, Tuple[str, ...]]] = {}
        if explicit is not None:
            self._fields = frozenset(decl.name for decl in explicit.fields)
            self._guards = {name: guard for guard, name in explicit.condition_vars}
            self._methods = {method.name: method for method in explicit.methods}
            cond_of = {guard: name for guard, name in explicit.condition_vars}
            for method in explicit.methods:
                first = method.ccrs[0] if method.ccrs else None
                if first is not None and first.guard != TRUE and first.guard in cond_of:
                    self._entries[method.name] = (
                        cond_of[first.guard], tuple(p.name for p in method.params))
        self._wait_footprints: Dict[str, MethodFootprint] = {}
        self._values: Dict[tuple, bool] = {}

    def independent(self, a: Transition, b: Transition) -> bool:
        """Do transitions *a* and *b* commute?  Symmetric in its arguments."""
        method_a, args_a, key_a = a
        method_b, args_b, key_b = b
        verdict = self._table.get((method_a, method_b), False)
        if verdict is None:
            verdict = self._table[(method_a, method_b)] = self._matrix_entry(
                (method_a, method_b))
        if verdict:
            return True
        if not self._methods:
            return False
        if key_a is not None or key_b is not None:
            fp_a = self._segment_footprint(method_a, key_a)
            fp_b = self._segment_footprint(method_b, key_b)
            if (fp_a is not None and fp_b is not None
                    and footprints_independent(fp_a, fp_b)):
                return True
        if args_a is None or args_b is None:
            return False
        return self._values_independent(method_a, args_a, method_b, args_b)

    def transition(self, decision: Decision, index: int) -> Transition:
        """The transition a grant decision's candidate *index* would run."""
        tid = decision.candidates[index]
        args: Optional[tuple] = None
        if decision.op_indices:
            op_index = decision.op_indices[index]
            if tid < len(self._programs) and op_index < len(self._programs[tid]):
                args = tuple(self._programs[tid][op_index][1])
        return (decision.methods[index], args,
                self._pending_wait_key(decision, index, args))

    def _matrix_entry(self, pair: Tuple[str, str]) -> bool:
        """Rule 1's entry: :func:`methods_semantically_independent` in the
        placement's method order on the shared solver, proven once per class
        (a class without a placement answers from the entries it carries)."""
        if pair not in self._matrix and self._methods:
            from repro.analysis.commutativity import methods_semantically_independent

            first, second = sorted(pair, key=list(self._methods).index)
            self._matrix[pair] = self._matrix[(pair[1], pair[0])] = (
                methods_semantically_independent(
                    self._methods[first], self._methods[second], self._fields))
        return self._matrix.get(pair, False)

    def _segment_footprint(self, method: str,
                           key: Optional[str]) -> Optional[MethodFootprint]:
        """The wait entry's footprint when *key* has a guard, else the method's."""
        if key is not None and key in self._guards:
            footprint = self._wait_footprints.get(key)
            if footprint is None:
                footprint = MethodFootprint(
                    expr_reads(self._guards[key]) & self._fields, frozenset(),
                    frozenset({key}), frozenset())
                self._wait_footprints[key] = footprint
            return footprint
        return self._footprints.get(method)

    def _pending_wait_key(self, decision: Decision, index: int,
                          args: Optional[tuple]) -> Optional[str]:
        """The condition a candidate would provably sleep on, or None.

        A resuming thread re-checks its resume condition's guard; a fresh
        call checks its first CCR's guard at the call's arguments.  Guards
        are evaluated concretely against the decision's fingerprint, and
        anything unevaluable keeps the whole method.
        """
        fingerprint = decision.fingerprint
        if not self._methods or fingerprint is None or not decision.op_indices:
            return None
        env: Dict[str, Value] = {}
        key = decision.resumes[index] if decision.resumes else None
        if key is None:
            entry = self._entries.get(decision.methods[index])
            if entry is None or args is None:
                return None
            key, params = entry
            env.update(zip(params, args))
        guard = self._guards.get(key)
        if guard is None:
            return None
        # Fingerprint entries are keyed by *attribute* name (dots mangled to
        # underscores); opaque values froze to None and must not silently
        # satisfy comparisons, so they stay unbound and trip EvaluationError.
        shared = dict(fingerprint[0])
        for field in self._fields:
            value = shared.get(field.replace(".", "_"))
            if value is not None:
                env.setdefault(field, value)
        try:
            holds = evaluate(guard, env)
        except (EvaluationError, TypeError):
            return None
        return None if holds else key

    def _values_independent(self, method_a: str, args_a: tuple,
                            method_b: str, args_b: tuple) -> bool:
        """Rule 3, memoized per exploration (the solver caches below that)."""
        from repro.analysis.commutativity import calls_semantically_independent

        fp_a = self._footprints.get(method_a)
        fp_b = self._footprints.get(method_b)
        if fp_a is None or fp_b is None:
            return False
        if not condition_vars_compatible(fp_a, fp_b, allow_shared_signals=True):
            return False
        key = (method_a, args_a, method_b, args_b)
        if key[:2] > key[2:]:
            key = key[2:] + key[:2]
        verdict = self._values.get(key)
        if verdict is None:
            decl_a = self._methods.get(method_a)
            decl_b = self._methods.get(method_b)
            verdict = (decl_a is not None and decl_b is not None
                       and calls_semantically_independent(
                           decl_a, args_a, decl_b, args_b, self._fields))
            self._values[key] = verdict
        return verdict
