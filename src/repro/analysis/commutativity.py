"""Commutativity checking for CCR bodies (paper §4.3) and its exploration-side
extension: SMT-proven *semantic independence* of monitor methods.

``Comm(w, M)`` holds when the body of *w* commutes with the body of every
other CCR in the monitor, i.e. executing the two bodies in either order from
the same initial state produces the same final monitor state.  The check is
performed symbolically: both compositions are summarized by forward symbolic
execution and the final values of every assigned shared variable are compared
with the SMT solver.  Loops (which symbolic execution cannot summarize) make
the answer conservatively ``False``.

The exploration engine asks a stronger question (context-sensitive DPOR
style): may two *pending segments* of different virtual threads be reordered
without the schedule explorer noticing?  That needs, per CCR pair,

1. **state commutation** over *all* assigned variables — shared fields *and*
   each thread's locals (a local such as a ticket number is observable later
   in the same thread, so ``t = count`` does not commute with ``count++``
   even though the final shared state agrees);
2. **enabledness preservation** — each body must leave the truth value of
   the other CCR's guard unchanged (checked via ``wp``): a body that flips a
   guard changes which thread wakes or blocks, which is observable even when
   the final states agree.

Thread-local variables of the second segment are freshly renamed before
either check (two threads running the same method must not conflate their
parameters, cf. Example 4.2).  Verdicts are memoized in the solver's
:class:`~repro.smt.cache.FormulaCache` keyed by the structural hash of the
statement pair plus the shared-name set, so suite-wide class builds and
mutation campaigns re-prove nothing; a verdict reached while some query
returned UNKNOWN is not memoized.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, Optional, Set, Tuple

from repro import obs
from repro.logic import build
from repro.logic.free_vars import ordered_free_vars
from repro.logic.terms import Expr, Var
from repro.lang.ast import CCR, Monitor, Stmt, seq, stmt_assigned_vars
from repro.analysis.lint.dataflow import method_effects, stmt_effects
from repro.analysis.renaming import rename_stmt_locals, rename_thread_locals
from repro.analysis.symexec import SymbolicExecutionError, symbolic_execute
from repro.analysis.wp import weakest_precondition
from repro.smt.cache import FormulaCache
from repro.smt.solver import Solver

#: Deterministic rename suffix for "the other thread" in pairwise checks.
#: Fixed (not a counter) so memo keys and generated matrices are stable.
_OTHER = "sem§2"

#: The static independence tier: answer disjoint-footprint pairs from the
#: lint dataflow's read/write sets without any solver work.  Sound because a
#: pair neither side of which writes anything the other mentions commutes
#: outright; gated to summarizable bodies so every answered verdict is
#: exactly what the symbolic path would have proven.  Toggleable for the
#: on-vs-off equivalence tests.
_STATIC_PREFILTER = True

_DEFAULT_SOLVER: Optional[Solver] = None


def set_static_prefilter(enabled: bool) -> bool:
    """Enable/disable the static pre-filter; returns the previous setting."""
    global _STATIC_PREFILTER
    previous = _STATIC_PREFILTER
    _STATIC_PREFILTER = enabled
    return previous


def _default_solver() -> Solver:
    """One shared, cached solver for callers that do not bring their own.

    Commutativity checks used to build a fresh :class:`Solver` per pair; the
    module-level instance keeps the formula cache and the commute-verdict
    memo warm across every check in the process, and its SAT database
    across the checks of one matrix build.
    """
    global _DEFAULT_SOLVER
    if _DEFAULT_SOLVER is None:
        _DEFAULT_SOLVER = Solver(cache=FormulaCache())
    return _DEFAULT_SOLVER


def _check_valid_degrading(solver: Solver, formula: Expr,
                           hyps: Tuple[Expr, ...] = ()) -> bool:
    """``check_valid`` with degradation accounting.

    An UNKNOWN verdict (timeout, iteration budget, injected fault) already
    answers False — "not proven to commute", the sound direction: the pair
    is treated as dependent and DPOR merely prunes less.  This wrapper makes
    the degradation *observable*: ``degraded.commutativity`` in the active
    metrics registry plus a trace instant.
    """
    ok = solver.check_valid(formula, hyps=hyps)
    if not ok and solver.consume_unknown() is not None:
        obs.registry().inc("degraded.commutativity")
        obs.tracer().instant("degraded.commutativity", cat="smt")
    return ok


def _memo(solver: Solver, key, compute) -> bool:
    """Look a verdict up in the solver's commute memo, computing on miss.

    A verdict degraded by an UNKNOWN query is not memoized
    (:meth:`Solver.memoized`).  With a tracer active, each memo consultation
    becomes a ``commute.pair`` span tagged with the pair's structural hash
    and its cache outcome, so a trace shows exactly which independence
    checks hit the solver.
    """
    tracer = obs.tracer()
    if solver.cache is None or not tracer.enabled:
        return solver.memoized("commute", key, compute)[0]
    # A frozenset's repr order follows the hash seed; render each one sorted
    # so the fingerprint, and with it the trace, is the same in every process.
    stable = tuple(tuple(sorted(part)) if isinstance(part, frozenset) else part
                   for part in key)
    with tracer.span("commute.pair", cat="commute", kind=str(key[0]),
                     formula=obs.formula_fingerprint(stable)) as span:
        verdict, hit = solver.memoized("commute", key, compute)
        span.set(cache="hit" if hit else "miss", verdict=bool(verdict))
        return verdict


def bodies_commute(first: Stmt, second: Stmt, solver: Optional[Solver] = None,
                   shared_names: Optional[frozenset] = None) -> bool:
    """Return True when ``first; second`` and ``second; first`` are equivalent.

    When *shared_names* is given, only those variables' final values are
    compared (thread-local variables of distinct threads cannot interfere);
    with ``shared_names=None`` every assigned variable is compared, which is
    the right notion when the two statements' locals are already disjoint.
    """
    solver = solver or _default_solver()
    if _STATIC_PREFILTER:
        effects_a = stmt_effects(first)
        effects_b = stmt_effects(second)
        # Disjoint summarizable bodies produce structurally identical final
        # values in either order: the symbolic path would prove exactly True,
        # so skipping it changes query counts only, never verdicts.
        if (effects_a.summarizable and effects_b.summarizable
                and effects_a.disjoint_from(effects_b)):
            solver.metrics.inc("smt.commute.static_skips")
            tracer = obs.tracer()
            if tracer.enabled:
                tracer.instant(
                    "commute.pair", cat="commute", kind="bodies",
                    cache="static_skip",
                    formula=obs.formula_fingerprint((first, second)))
            return True
    return _memo(solver, ("bodies", first, second, shared_names),
                 lambda: _bodies_commute(first, second, solver, shared_names))


def _bodies_commute(first: Stmt, second: Stmt, solver: Solver,
                    shared_names: Optional[frozenset]) -> bool:
    try:
        order_a = symbolic_execute(seq(first, second))
        order_b = symbolic_execute(seq(second, first))
    except SymbolicExecutionError:
        return False
    touched = set(order_a.values) | set(order_b.values)
    if shared_names is not None:
        touched &= set(shared_names)
    for name in sorted(touched):
        value_a = order_a.values.get(name)
        value_b = order_b.values.get(name)
        if value_a is None or value_b is None:
            # Assigned in one order but not the other: compare against the
            # initial value of the variable.
            present = value_a if value_a is not None else value_b
            missing = Var(name, _sort_of_value(present))
            value_a = value_a if value_a is not None else missing
            value_b = value_b if value_b is not None else missing
        if not _check_valid_degrading(solver, build.eq(value_a, value_b)):
            return False
    return True


def ccr_commutes_with_all(ccr: CCR, monitor: Monitor,
                          solver: Optional[Solver] = None) -> bool:
    """The paper's ``Comm(w, M)``: w's body commutes with every *other* CCR body."""
    solver = solver or _default_solver()
    shared = frozenset(monitor.field_names())
    for _method, other in monitor.ccrs():
        if other is ccr:
            continue
        if not bodies_commute(ccr.body, other.body, solver, shared):
            return False
    return True


# ---------------------------------------------------------------------------
# Semantic independence for the exploration engine (context-sensitive DPOR)
# ---------------------------------------------------------------------------


def _expr_names(expr: Expr) -> Set[str]:
    return {var.name for var in ordered_free_vars(expr)}


def _stmt_names(stmt: Stmt) -> Set[str]:
    """Every variable name a statement mentions (reads and writes)."""
    names: Set[str] = set(stmt_assigned_vars(stmt))
    for expr in _stmt_exprs(stmt):
        names |= _expr_names(expr)
    return names


def _stmt_exprs(stmt: Stmt):
    from repro.lang.ast import ArrayAssign, Assign, If, LocalDecl, While

    if isinstance(stmt, Assign):
        yield stmt.value
    elif isinstance(stmt, LocalDecl):
        yield stmt.init
    elif isinstance(stmt, ArrayAssign):
        yield stmt.index
        yield stmt.value
    elif isinstance(stmt, If):
        yield stmt.cond
    elif isinstance(stmt, While):
        yield stmt.cond
        if stmt.invariant is not None:
            yield stmt.invariant
    for child in stmt.children():
        yield from _stmt_exprs(child)


def _guard_preserved(body: Stmt, guard: Expr, solver: Solver) -> bool:
    """Does executing *body* provably leave *guard*'s truth value unchanged?

    The enabledness-preservation side condition of context-sensitive DPOR:
    ``valid(guard <=> wp(body, guard))``.  Bodies whose ``wp`` cannot be
    computed (array assignments before scalarization) and loop havoc that
    defeats the equivalence both answer conservatively False.
    """
    if not stmt_assigned_vars(body) & _expr_names(guard):
        return True  # the body touches nothing the guard reads
    try:
        transformed = weakest_precondition(body, guard)
    except (ValueError, TypeError):
        return False
    return _check_valid_degrading(solver, build.iff(guard, transformed))


if TYPE_CHECKING:  # for type checkers only (see repro.logic.build)
    #: One placed notification, structurally: (predicate, conditional, broadcast).
    NotificationSpec = Tuple[Expr, bool, bool]


def segments_semantically_independent(guard_a: Expr, body_a: Stmt,
                                      guard_b: Expr, body_b: Stmt,
                                      shared_names: frozenset,
                                      solver: Optional[Solver] = None,
                                      notifications_a: Tuple[NotificationSpec, ...] = (),
                                      notifications_b: Tuple[NotificationSpec, ...] = ()) -> bool:
    """May two CCR segments of *different threads* be reordered unobservably?

    Renames the second segment's thread-locals apart, then requires state
    commutation over every assigned variable (shared fields and both sides'
    locals), enabledness preservation of both guards, and order-equivalent
    notification behaviour (see :func:`_notifications_equivalent`).
    """
    solver = solver or _default_solver()
    key = ("segments", guard_a, body_a, notifications_a,
           guard_b, body_b, notifications_b, shared_names)
    return _memo(solver, key,
                 lambda: _segments_independent(guard_a, body_a, notifications_a,
                                               guard_b, body_b, notifications_b,
                                               shared_names, solver))


def _segments_independent(guard_a: Expr, body_a: Stmt,
                          notifications_a: Tuple[NotificationSpec, ...],
                          guard_b: Expr, body_b: Stmt,
                          notifications_b: Tuple[NotificationSpec, ...],
                          shared_names: frozenset, solver: Solver) -> bool:
    # Notification predicates are *waiter-side* formulas (§6): their
    # thread-local variables belong to whichever thread sleeps on the
    # condition, never to the notifying segment, so they are left unrenamed
    # on both sides (they stay universally quantified) and both sides'
    # occurrences of one predicate remain structurally comparable.
    locals_b = (_stmt_names(body_b) | _expr_names(guard_b)) - shared_names
    body_b = rename_stmt_locals(body_b, locals_b, _OTHER)
    guard_b = rename_thread_locals(guard_b, locals_b, _OTHER)
    # Cheap syntactic disjointness: once the locals are apart, segments
    # whose writes touch nothing the other side mentions commute without
    # any solver work.
    names_a = _stmt_names(body_a) | _expr_names(guard_a)
    for predicate, _conditional, _broadcast in notifications_a:
        names_a |= _expr_names(predicate)
    names_b = _stmt_names(body_b) | _expr_names(guard_b)
    for predicate, _conditional, _broadcast in notifications_b:
        names_b |= _expr_names(predicate)
    writes_a = set(stmt_assigned_vars(body_a))
    writes_b = set(stmt_assigned_vars(body_b))
    if not (writes_a & names_b) and not (writes_b & names_a):
        return True
    # Locals are disjoint after renaming, so comparing *every* assigned
    # variable across the two orders captures both the shared state and each
    # thread's view of it (shared_names=None).
    if not bodies_commute(body_a, body_b, solver, shared_names=None):
        return False
    # Guards are re-evaluated at arbitrary points (wake-ups included), so
    # their truth value must be preserved outright.
    if not _guard_preserved(body_a, guard_b, solver):
        return False
    if not _guard_preserved(body_b, guard_a, solver):
        return False
    return (_notifications_equivalent(body_a, notifications_a, body_b,
                                      notifications_b, shared_names, solver)
            and _notifications_equivalent(body_b, notifications_b, body_a,
                                          notifications_a, shared_names, solver))


def _notifications_equivalent(own_body: Stmt,
                              own_notifications: Tuple[NotificationSpec, ...],
                              other_body: Stmt,
                              other_notifications: Tuple[NotificationSpec, ...],
                              shared_names: frozenset, solver: Solver) -> bool:
    """Do *own_body*'s notifications behave identically in both orders?

    Per notification (evaluated exactly once, right after its own CCR's
    body), one of:

    * **unconditional broadcast** — fires in both orders and wakes every
      sleeper of its condition: order-invariant outright;
    * **unconditional signal** — fires in both orders; its wake-one
      candidate set only depends on order if the *other* segment also
      notifies the same predicate, so that is excluded;
    * **pointwise preservation** — the precise obligation is preservation
      of ``wp(own body, predicate)`` by the other body: with commutation
      already proven, instantiating the universally quantified pre-state at
      the other body's output shows the predicate fires identically in both
      orders.  (A predicate its own body *forces*, like "my forks are free"
      after putting them down, is then trivially preserved.)
    * **monotone broadcast** — the fire may shift between the two adjacent
      segments: when the *other* segment also places at least one
      notification on this predicate, every notification either side places
      on it is a broadcast, and neither body ever *falsifies* the predicate
      (``valid(p => wp(body, p))``), then the last check in either order
      runs in the common final state, so "some broadcast fired across the
      pair" — and hence the woken set, all sleepers of the condition — is
      the same in both orders.  Without a compensating other-side broadcast
      the rule does not apply: the other body may *enable* the predicate,
      making the lone broadcast fire in one order only.
    """
    for predicate, conditional, broadcast in own_notifications:
        others_on_pred = [n for n in other_notifications if n[0] == predicate]
        if not conditional:
            if broadcast:
                continue
            if others_on_pred:
                return False
            continue
        # A CCR that assigns a local sharing its name with a waiter-side
        # predicate variable would conflate the two identities below.
        if stmt_assigned_vars(own_body) & (_expr_names(predicate) - shared_names):
            return False
        try:
            composed = weakest_precondition(own_body, predicate)
        except (ValueError, TypeError):
            return False
        if _guard_preserved(other_body, composed, solver):
            continue
        if (not broadcast or not others_on_pred
                or any(not n[2] for n in others_on_pred)):
            return False
        if not (_never_falsifies(own_body, predicate, solver)
                and _never_falsifies(other_body, predicate, solver)):
            return False
    return True


def _never_falsifies(body: Stmt, predicate: Expr, solver: Solver) -> bool:
    """``valid(predicate => wp(body, predicate))`` — the body may enable the
    predicate but never disable it."""
    if not stmt_assigned_vars(body) & _expr_names(predicate):
        return True
    try:
        transformed = weakest_precondition(body, predicate)
    except (ValueError, TypeError):
        return False
    return _check_valid_degrading(solver, transformed, hyps=(predicate,))


def _ccr_notifications(ccr) -> Tuple[NotificationSpec, ...]:
    """The placed notifications of an explicit CCR, structurally."""
    return tuple((n.predicate, n.conditional, n.broadcast)
                 for n in getattr(ccr, "notifications", ()))


def methods_semantically_independent(method_a, method_b, shared_names: frozenset,
                                     solver: Optional[Solver] = None) -> bool:
    """Pairwise segment independence lifted to whole methods.

    A pending segment of a method may execute any of its CCR bodies (guards
    that hold do not wait), so the method pair is independent only when every
    cross-product CCR pair is.  *method_a*/*method_b* are
    :class:`~repro.placement.target.ExplicitMethod` instances.
    """
    solver = solver or _default_solver()
    if _STATIC_PREFILTER:
        effects_a = method_effects(method_a)
        effects_b = method_effects(method_b)
        # Raw-name disjointness (guards, bodies, notification predicates) is
        # strictly stronger than the per-segment syntactic early return after
        # the §4.2 renaming — renamed locals carry a '$' suffix no source
        # identifier contains — so every pair answered here would have been
        # answered True segment by segment anyway, just more slowly.
        if effects_a.disjoint_from(effects_b):
            solver.metrics.inc("smt.commute.static_skips")
            tracer = obs.tracer()
            if tracer.enabled:
                tracer.instant(
                    "commute.pair", cat="commute", kind="methods",
                    cache="static_skip",
                    pair=f"{method_a.name}/{method_b.name}")
            return True
    for ccr_a in method_a.ccrs:
        for ccr_b in method_b.ccrs:
            if not segments_semantically_independent(
                    ccr_a.guard, ccr_a.body, ccr_b.guard, ccr_b.body,
                    shared_names, solver,
                    notifications_a=_ccr_notifications(ccr_a),
                    notifications_b=_ccr_notifications(ccr_b)):
                return False
    return True


def _instantiate_expr(expr: Expr, binding: Dict[str, Expr]) -> Expr:
    from repro.logic.substitute import substitute

    mapping = {var: binding[var.name]
               for var in ordered_free_vars(expr) if var.name in binding}
    return substitute(expr, mapping)


def _instantiate_stmt(stmt: Stmt, binding: Dict[str, Expr]) -> Stmt:
    from repro.lang.ast import ArrayAssign, Assign, If, LocalDecl, Seq, Skip, While

    if isinstance(stmt, Skip):
        return stmt
    if isinstance(stmt, Assign):
        return Assign(stmt.target, _instantiate_expr(stmt.value, binding))
    if isinstance(stmt, LocalDecl):
        return LocalDecl(stmt.name, stmt.sort, _instantiate_expr(stmt.init, binding))
    if isinstance(stmt, ArrayAssign):
        return ArrayAssign(stmt.array, _instantiate_expr(stmt.index, binding),
                           _instantiate_expr(stmt.value, binding))
    if isinstance(stmt, Seq):
        return Seq(tuple(_instantiate_stmt(s, binding) for s in stmt.stmts))
    if isinstance(stmt, If):
        return If(_instantiate_expr(stmt.cond, binding),
                  _instantiate_stmt(stmt.then, binding),
                  _instantiate_stmt(stmt.orelse, binding))
    if isinstance(stmt, While):
        invariant = (_instantiate_expr(stmt.invariant, binding)
                     if stmt.invariant is not None else None)
        return While(_instantiate_expr(stmt.cond, binding),
                     _instantiate_stmt(stmt.body, binding), invariant)
    raise TypeError(f"cannot instantiate statement {type(stmt).__name__}")


def _param_binding(method, args) -> Optional[Dict[str, Expr]]:
    """Constant bindings for a concrete call, or None when not instantiable."""
    from repro.logic.terms import BOOL, INT, BoolConst, IntConst

    if len(args) != len(method.params):
        return None
    binding: Dict[str, Expr] = {}
    for param, value in zip(method.params, args):
        if param.sort is BOOL and isinstance(value, bool):
            binding[param.name] = BoolConst(value)
        elif param.sort is INT and isinstance(value, (int, bool)):
            binding[param.name] = IntConst(int(value))
        else:
            return None
    return binding


def calls_semantically_independent(method_a, args_a, method_b, args_b,
                                   shared_names: frozenset,
                                   solver: Optional[Solver] = None) -> bool:
    """Value-sensitive independence of two *concrete* monitor calls.

    Like :func:`methods_semantically_independent` but with each side's
    parameters bound to the call's actual arguments first, which decides
    pairs the fully symbolic check must reject — e.g. two ``putDown`` calls
    whose ``ite``-scalarized array writes only collide for out-of-range
    indices no real workload passes.  Parameters that are reassigned inside
    a body (none in the paper's language, but genmon output is arbitrary)
    make the call conservatively dependent.
    """
    solver = solver or _default_solver()
    binding_a = _param_binding(method_a, args_a)
    binding_b = _param_binding(method_b, args_b)
    if binding_a is None or binding_b is None:
        return False
    for ccr in method_a.ccrs:
        if stmt_assigned_vars(ccr.body) & set(binding_a):
            return False
    for ccr in method_b.ccrs:
        if stmt_assigned_vars(ccr.body) & set(binding_b):
            return False
    # Notification predicates are *waiter-side* formulas (§6): their
    # thread-local variables belong to whichever thread sleeps on the
    # condition, never to the notifying call, so they must stay free —
    # binding a like-named parameter would wrongly specialize them.
    for ccr_a in method_a.ccrs:
        for ccr_b in method_b.ccrs:
            if not segments_semantically_independent(
                    _instantiate_expr(ccr_a.guard, binding_a),
                    _instantiate_stmt(ccr_a.body, binding_a),
                    _instantiate_expr(ccr_b.guard, binding_b),
                    _instantiate_stmt(ccr_b.body, binding_b),
                    shared_names, solver,
                    notifications_a=_ccr_notifications(ccr_a),
                    notifications_b=_ccr_notifications(ccr_b)):
                return False
    return True


def semantic_independence_for_explicit(
        explicit, solver: Optional[Solver] = None) -> Dict[Tuple[str, str], bool]:
    """The semantic-independence matrix of a placed monitor's methods.

    Entries prove bodies commute, guards are preserved *and* the pair's
    placed notifications fire order-equivalently — the proof that licenses
    the exploration layer's relaxed shared-signal gating
    (``condition_vars_compatible(..., allow_shared_signals=True)``).  The
    matrix is therefore notification-sensitive: campaigns that mutate
    notifications (e.g. the deletion sweep) must recompute it per mutant
    rather than reuse the parent's.  The matrix is symmetric and includes
    self pairs — two threads in the same method commute iff the method's
    body commutes with a renamed copy of itself.
    """
    solver = solver or _default_solver()
    shared = frozenset(decl.name for decl in explicit.fields)
    matrix: Dict[Tuple[str, str], bool] = {}
    with obs.tracer().span("commute.matrix", cat="commute",
                           monitor=getattr(explicit, "name", "?")):
        for method_a in explicit.methods:
            for method_b in explicit.methods:
                pair = (method_a.name, method_b.name)
                if (pair[1], pair[0]) in matrix:
                    matrix[pair] = matrix[(pair[1], pair[0])]
                    continue
                matrix[pair] = methods_semantically_independent(
                    method_a, method_b, shared, solver)
    return matrix


def matrix_with_statistics(
        explicit, solver: Optional[Solver] = None,
) -> Tuple[Dict[Tuple[str, str], bool], Dict[str, int]]:
    """The independence matrix plus *this build's own* solver-stats delta.

    The module's shared default solver accumulates counters across every
    matrix built in the process, so reading them after a build
    over-reports all builds after the first.  This wrapper
    snapshot/diffs around the build (the registry pattern), giving each
    monitor its isolated share; the delta also lands in the active metrics
    registry under ``explore.matrix.*``.

    The shared default solver keeps only its cache across builds: its
    rewrite memo and SAT database are dropped after each one, so a
    process-wide solver holds one monitor's formulas at a time.
    """
    default = solver is None
    solver = solver if solver is not None else _default_solver()
    before = solver.snapshot_statistics()
    matrix = semantic_independence_for_explicit(explicit, solver)
    if default:
        solver.clear_state()
    delta = solver.snapshot_statistics(since=before)
    registry = obs.registry()
    for key, value in delta.items():
        if value:
            registry.inc(f"explore.matrix.{key}", value)
    return matrix, delta


def _sort_of_value(expr: Expr):
    from repro.logic.terms import sort_of

    return sort_of(expr)
