"""Weakest preconditions for the monitor statement language.

``wp(s, Q)`` is the standard predicate-transformer semantics:

* ``wp(skip, Q) = Q``
* ``wp(x = e, Q) = Q[x := e]``
* ``wp(s1; s2, Q) = wp(s1, wp(s2, Q))``
* ``wp(if (c) s1 else s2, Q) = (c ==> wp(s1, Q)) && (!c ==> wp(s2, Q))``

Loops are handled soundly but conservatively.  Without a user-supplied
invariant, the loop's assigned variables are havocked (replaced by fresh
variables) and only the negated guard is assumed afterwards; with an
invariant ``I`` the transformer additionally yields the initiation and
preservation obligations.  Because the fresh variables occur only in
positive (universally interpretable) positions of the final validity check
``P ==> wp(s, Q)``, treating them as ordinary free variables is sound.
Failing to prove a triple because of this conservatism only ever costs a
signal, never correctness (paper §9).

Each loop's ``wp`` draws a new havoc suffix.  Under a memo
(:class:`~repro.logic.memo.RewriteMemo`; invariant inference and
:func:`~repro.analysis.hoare.check_triple` pass the solver's) a repeated
``(stmt, post)`` returns the first result, havoc names included.  That is
sound: the same ``(stmt, post)`` gets the same formula, and a validity
query treats its havoc variables as free whichever names they have.  The
commutativity checks, which compose ``wp``'s of two bodies, pass no memo
and keep fresh names.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, Optional

from repro.logic import build
from repro.logic.free_vars import ordered_free_vars
from repro.logic.memo import RewriteMemo
from repro.logic.simplify import simplify
from repro.logic.substitute import substitute
from repro.logic.terms import Expr, Var
from repro.lang.ast import (
    ArrayAssign,
    Assign,
    If,
    LocalDecl,
    Seq,
    Skip,
    Stmt,
    While,
)
from repro.lang.effects import stmt_effects, stmt_exprs

_HAVOC_COUNTER = itertools.count()


def weakest_precondition(stmt: Stmt, post: Expr,
                         memo: Optional[RewriteMemo] = None) -> Expr:
    """Compute ``wp(stmt, post)`` as a quantifier-free formula.

    With a *memo*, the result is kept in its ``wp`` table, keyed by the
    statement's identity and *post*, and simplified through the memo.
    """
    if memo is None:
        return simplify(_wp(stmt, post))
    key = (id(stmt), post)
    entry = memo.wp.get(key)
    if entry is None:
        entry = memo.wp[key] = (stmt, simplify(_wp(stmt, post), memo))
    return entry[1]


def _wp(stmt: Stmt, post: Expr) -> Expr:
    if isinstance(stmt, Skip):
        return post
    if isinstance(stmt, (Assign, LocalDecl)):
        target = stmt.target if isinstance(stmt, Assign) else stmt.name
        value = stmt.value if isinstance(stmt, Assign) else stmt.init
        substitution = _substitution_for(post, target, value)
        return substitute(post, substitution)
    if isinstance(stmt, ArrayAssign):
        raise ValueError("array assignments must be scalarized before wp computation")
    if isinstance(stmt, Seq):
        result = post
        for child in reversed(stmt.stmts):
            result = _wp(child, result)
        return result
    if isinstance(stmt, If):
        then_wp = _wp(stmt.then, post)
        else_wp = _wp(stmt.orelse, post)
        return build.land(build.implies(stmt.cond, then_wp),
                          build.implies(build.lnot(stmt.cond), else_wp))
    if isinstance(stmt, While):
        return _wp_while(stmt, post)
    raise TypeError(f"cannot compute wp of {type(stmt).__name__}")


def _wp_while(stmt: While, post: Expr) -> Expr:
    assigned = stmt_effects(stmt.body).writes
    havoc_map = _havoc_map(stmt, post, assigned)

    def havoc(expr: Expr) -> Expr:
        return substitute(expr, havoc_map)

    invariant = stmt.invariant if stmt.invariant is not None else build.TRUE
    # 1. The invariant holds on entry (trivially true when no invariant given).
    initiation = invariant
    # 2. The invariant is preserved by an arbitrary iteration (havocked state).
    preservation = build.implies(
        build.land(havoc(invariant), havoc(stmt.cond)),
        havoc(_wp(stmt.body, invariant)),
    )
    # 3. On exit (guard false, invariant holds) the postcondition follows.
    exit_condition = build.implies(
        build.land(havoc(invariant), build.lnot(havoc(stmt.cond))),
        havoc(post),
    )
    return build.land(initiation, preservation, exit_condition)


def _havoc_map(stmt: While, post: Expr, assigned: FrozenSet[str]) -> Dict[Var, Expr]:
    """Fresh variables for every assigned name, preserving each variable's sort."""
    suffix = next(_HAVOC_COUNTER)
    return {var: Var(f"{var.name}!havoc{suffix}", var.var_sort)
            for expr in (post, *stmt_exprs(stmt))
            for var in ordered_free_vars(expr) if var.name in assigned}


def _substitution_for(post: Expr, target: str, value: Expr) -> Dict[Var, Expr]:
    """Map every free occurrence of *target* (at any sort) to *value*."""
    return {var: value for var in ordered_free_vars(post) if var.name == target}
