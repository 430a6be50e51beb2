"""Monitor-invariant inference (paper §5, Algorithm 2).

The inference is property-directed: the candidate predicate universe is
produced by abduction from the very Hoare triples the placement algorithm
needs to discharge (with the invariant initially set to ``true``), augmented
with non-negativity hints for ``unsigned`` fields.  A greatest-fixed-point
computation then keeps exactly the candidates that

* hold after the monitor constructor (*initiation*), and
* are preserved by every CCR under the conjunction of all surviving
  candidates (*consecution*),

yielding the strongest conjunctive monitor invariant over the abduced
predicate universe — monomial predicate abstraction in the sense of Lahiri &
Qadeer, seeded by abduction exactly as the paper describes.

Abduction is told the invariant's vocabulary, the monitor's field names
(:func:`repro.analysis.abduction.abduce`): it returns only candidates over
shared state and skips the queries whose answers could only add candidates
the pool would drop, so the pool is the one unrestricted abduction would
give (up to abduction's candidate cap, which binds on no suite obligation).

The fixed point is a model-guided Houdini loop.  Initiation does not depend
on the other candidates, so each candidate is checked once, and each
``wp(body, psi)`` is computed once per (CCR, candidate) for every round:
the solver's rewrite memo keeps it (for the placement triples too).
Consecution asks one validity query per (round, CCR) for the conjunction of
the live candidates' weakest preconditions, under the hypothesis
``I && guard``; the counterexample, checked by
evaluation, drops every candidate whose ``wp`` it falsifies, and the query
repeats until it is valid.  Where a model decides nothing (or the answer is
UNKNOWN) the remaining candidates are queried one by one.  Every round therefore drops
exactly the candidates a per-candidate loop drops, so the kept set, its order
and ``iterations`` are those of the textbook loop
(``tests/test_invariants_reference.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.logic import build
from repro.logic.evaluate import truth_value
from repro.logic.free_vars import ordered_free_vars
from repro.logic.simplify import simplify
from repro.logic.terms import BoolConst, Expr, INT, Var
from repro.lang.ast import Monitor
from repro.analysis.hoare import HoareTriple
from repro.analysis.wp import weakest_precondition

if TYPE_CHECKING:
    from repro.smt.solver import Model, Solver


@dataclass(frozen=True)
class InvariantInferenceResult:
    """The inferred invariant together with provenance information."""

    invariant: Expr
    kept_predicates: Tuple[Expr, ...]
    candidate_pool: Tuple[Expr, ...]
    iterations: int

    def describe(self) -> str:
        from repro.logic.pretty import pretty

        return pretty(self.invariant)


def infer_monitor_invariant(monitor: Monitor,
                            triples: Optional[Sequence[HoareTriple]] = None,
                            solver: Optional[Solver] = None,
                            extra_candidates: Sequence[Expr] = ()) -> InvariantInferenceResult:
    """Run Algorithm 2 on *monitor* for the given property triples.

    *triples* are the placement triples instantiated with ``I = true``
    (built here when None);
    *extra_candidates* lets callers seed further predicates (used by tests
    and by the ``unsigned`` field hints, which are added automatically here).
    """
    if triples is None:
        from repro.placement.algorithm import generate_placement_triples

        triples = generate_placement_triples(monitor, build.TRUE)
    from repro.analysis.abduction import abduce
    from repro.smt.solver import Solver

    solver = solver or Solver()
    memo = solver.rewrite_memo()
    shared_names = frozenset(monitor.field_names())

    pool: List[Expr] = []

    def add_candidate(candidate: Expr) -> None:
        candidate = simplify(candidate, memo)
        if isinstance(candidate, BoolConst):
            return
        if any(var.name not in shared_names for var in ordered_free_vars(candidate)):
            # Invariants range over shared monitor state only (§3.1).
            return
        if candidate not in pool:
            pool.append(candidate)

    # Phase 1: abduction over the property triples (lines 5-7 of Algorithm 2),
    # told the invariant's vocabulary so it validates only usable candidates.
    for triple in triples:
        goal = weakest_precondition(triple.stmt, triple.post, memo)
        for candidate in abduce(triple.pre, goal, solver, vocabulary=shared_names):
            add_candidate(candidate)

    # Unsigned-field hints (the DSL's `unsigned int` surface syntax).
    for decl in monitor.fields:
        if decl.unsigned and decl.sort is INT:
            add_candidate(build.ge(Var(decl.name, INT), build.i(0)))

    for candidate in extra_candidates:
        add_candidate(candidate)

    def holds(goal: Expr, hyps: Tuple[Expr, ...] = ()) -> bool:
        # UNKNOWN drops the candidate — a weaker (but still sound) invariant.
        ok = solver.check_valid(goal, hyps=hyps)
        if not ok and solver.consume_unknown() is not None:
            from repro import obs

            obs.registry().inc("degraded.invariants")
            obs.tracer().instant("degraded.invariants", cat="smt")
        return ok

    # Phase 2: greatest fixed point (lines 8-17).
    constructor = monitor.constructor()
    ccrs = [ccr for _method, ccr in monitor.ccrs()]
    initiated: Dict[Expr, bool] = {}
    kept = list(pool)
    iterations = 0
    changed = True
    while changed:
        iterations += 1
        # Initiation: {true} Ctr(M) {psi}.  It does not involve the other
        # candidates, so one verdict per candidate serves every round.
        for psi in kept:
            if psi not in initiated:
                initiated[psi] = holds(weakest_precondition(constructor, psi, memo))
        surviving = [psi for psi in kept if initiated[psi]]
        changed = len(surviving) != len(kept)
        kept = surviving
        # Consecution: {I && Guard(w)} Body(w) {psi} for every CCR under
        # this round's I.  A candidate is dropped at the first CCR that does
        # not preserve it, so later CCRs only see the live ones.
        invariant = build.land(*kept) if kept else build.TRUE
        dropped: Set[Expr] = set()
        for ccr in ccrs:
            # The memo computes wp(body, psi) once for all rounds.
            goals = {psi: weakest_precondition(ccr.body, psi, memo)
                     for psi in kept if psi not in dropped}
            dropped |= _not_preserved(build.land(invariant, ccr.guard), goals,
                                      solver, holds)
        if dropped:
            changed = True
            kept = [psi for psi in kept if psi not in dropped]

    invariant = simplify(build.land(*kept), memo) if kept else build.TRUE
    return InvariantInferenceResult(invariant, tuple(kept), tuple(pool), iterations)


def _not_preserved(pre: Expr, goals: Dict[Expr, Expr], solver: Solver,
                   holds: Callable[..., bool]) -> Set[Expr]:
    """The candidates ``psi`` of *goals* (``psi -> wp(body, psi)``) for which
    ``pre ==> wp(body, psi)`` is not valid.

    Model-guided Houdini: one query asks for the whole conjunction
    ``pre ==> /\\ wp(body, psi)``.  Valid means every candidate is preserved.
    A counterexample is checked by evaluation to satisfy *pre*, and every
    candidate whose ``wp`` it falsifies is not preserved — the verdict that
    candidate's own query would return — so those are dropped and the rest
    are asked again.  When the model falsifies none of them (it cannot
    evaluate a formula) or the answer is UNKNOWN, each remaining candidate
    gets its own query, exactly as without the conjunction.
    """
    failed: Set[Expr] = set()
    live = list(goals)
    while len(live) > 1:
        found: List[Model] = []
        if solver.check_valid(build.land(*[goals[psi] for psi in live]), found,
                              hyps=(pre,)):
            return failed
        models = [model for model in found if truth_value(pre, model)]
        falsified = {psi for psi in live
                     if any(truth_value(goals[psi], model) is False for model in models)}
        if not falsified:
            break
        failed |= falsified
        live = [psi for psi in live if psi not in falsified]
    failed.update(psi for psi in live if not holds(goals[psi], hyps=(pre,)))
    return failed
