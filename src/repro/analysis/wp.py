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
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet

from repro.logic import build
from repro.logic.free_vars import ordered_free_vars
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
    stmt_assigned_vars,
)

_HAVOC_COUNTER = itertools.count()


def weakest_precondition(stmt: Stmt, post: Expr) -> Expr:
    """Compute ``wp(stmt, post)`` as a quantifier-free formula."""
    return simplify(_wp(stmt, post))


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
    assigned = stmt_assigned_vars(stmt.body)
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
    relevant = [post, stmt.cond, *_expressions_of(stmt.body)]
    if stmt.invariant is not None:
        relevant.append(stmt.invariant)
    suffix = next(_HAVOC_COUNTER)
    return {var: Var(f"{var.name}!havoc{suffix}", var.var_sort)
            for expr in relevant for var in ordered_free_vars(expr) if var.name in assigned}


def _expressions_of(stmt: Stmt):
    if isinstance(stmt, (Assign,)):
        yield stmt.value
    elif isinstance(stmt, LocalDecl):
        yield stmt.init
    elif isinstance(stmt, If):
        yield stmt.cond
    elif isinstance(stmt, While):
        yield stmt.cond
        if stmt.invariant is not None:
            yield stmt.invariant
    for child in stmt.children():
        yield from _expressions_of(child)


def _substitution_for(post: Expr, target: str, value: Expr) -> Dict[Var, Expr]:
    """Map every free occurrence of *target* (at any sort) to *value*."""
    return {var: value for var in ordered_free_vars(post) if var.name == target}
