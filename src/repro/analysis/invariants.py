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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro import obs
from repro.logic import build
from repro.logic.free_vars import free_vars
from repro.logic.simplify import simplify
from repro.logic.terms import BoolConst, Expr, INT, Var
from repro.lang.ast import Monitor
from repro.analysis.abduction import abduce
from repro.analysis.hoare import HoareTriple
from repro.analysis.wp import weakest_precondition
from repro.smt.solver import Solver


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


def infer_monitor_invariant(monitor: Monitor, triples: Sequence[HoareTriple],
                            solver: Optional[Solver] = None,
                            extra_candidates: Sequence[Expr] = ()) -> InvariantInferenceResult:
    """Run Algorithm 2 on *monitor* for the given property triples.

    *triples* are the placement triples instantiated with ``I = true``;
    *extra_candidates* lets callers seed further predicates (used by tests
    and by the ``unsigned`` field hints, which are added automatically here).
    """
    solver = solver or Solver()
    memo = solver.rewrite_memo()
    shared_names = frozenset(monitor.field_names())

    pool: List[Expr] = []

    def add_candidate(candidate: Expr) -> None:
        candidate = simplify(candidate, memo)
        if isinstance(candidate, BoolConst):
            return
        if any(var.name not in shared_names for var in free_vars(candidate)):
            # Invariants range over shared monitor state only (§3.1).
            return
        if candidate not in pool:
            pool.append(candidate)

    # Phase 1: abduction over the property triples (lines 5-7 of Algorithm 2).
    for triple in triples:
        goal = weakest_precondition(triple.stmt, triple.post)
        for candidate in abduce(triple.pre, goal, solver):
            add_candidate(candidate)

    # Unsigned-field hints (the DSL's `unsigned int` surface syntax).
    for decl in monitor.fields:
        if decl.unsigned and decl.sort is INT:
            add_candidate(build.ge(Var(decl.name, INT), build.i(0)))

    for candidate in extra_candidates:
        add_candidate(candidate)

    def holds(vc: Expr) -> bool:
        # UNKNOWN drops the candidate — a weaker (but still sound) invariant.
        ok = solver.check_valid(vc)
        if not ok and solver.consume_unknown() is not None:
            obs.registry().inc("degraded.invariants")
            obs.tracer().instant("degraded.invariants", cat="smt")
        return ok

    # Phase 2: greatest fixed point (lines 8-17).
    kept = list(pool)
    constructor = monitor.constructor()
    iterations = 0
    changed = True
    while changed:
        iterations += 1
        changed = False
        # Initiation: {true} Ctr(M) {psi}.
        surviving: List[Expr] = []
        for psi in kept:
            vc = build.implies(build.TRUE, weakest_precondition(constructor, psi))
            if holds(vc):
                surviving.append(psi)
            else:
                changed = True
        kept = surviving
        # Consecution: {I && Guard(w)} Body(w) {psi} for every CCR.
        invariant = build.land(*kept) if kept else build.TRUE
        surviving = []
        for psi in kept:
            preserved = True
            for _method, ccr in monitor.ccrs():
                pre = build.land(invariant, ccr.guard)
                vc = build.implies(pre, weakest_precondition(ccr.body, psi))
                if not holds(vc):
                    preserved = False
                    break
            if preserved:
                surviving.append(psi)
            else:
                changed = True
        kept = surviving

    invariant = simplify(build.land(*kept), memo) if kept else build.TRUE
    return InvariantInferenceResult(invariant, tuple(kept), tuple(pool), iterations)
