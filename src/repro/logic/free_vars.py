"""Free-variable computation for logic expressions."""

from __future__ import annotations

from typing import FrozenSet, Tuple, cast

from repro.logic.terms import Expr, Var


def free_vars(expr: Expr) -> FrozenSet[Var]:
    """Return the set of free variables of *expr*.

    Quantifier binders are respected: variables bound by an enclosing
    ``Forall``/``Exists`` are not reported.
    """
    return frozenset(ordered_free_vars(expr))


def ordered_free_vars(expr: Expr) -> Tuple[Var, ...]:
    """The free variables of *expr* in order of first occurrence, kept per
    node since it was built (see :mod:`repro.logic.terms`)."""
    free = expr._free
    if free is None:  # a Var: its own tuple would reference it
        return (cast(Var, expr),)
    return free
