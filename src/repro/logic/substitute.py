"""Capture-avoiding substitution and variable renaming."""

from __future__ import annotations

import itertools
from typing import Dict, Mapping

from repro.logic.free_vars import free_vars, ordered_free_vars
from repro.logic.terms import Exists, Expr, Forall, Var, contains_quantifier, rebuild


def substitute(expr: Expr, mapping: Mapping[Var, Expr]) -> Expr:
    """Simultaneously replace free occurrences of variables in *expr*.

    The substitution is capture-avoiding: if a replacement expression
    mentions a variable that a quantifier in *expr* binds, the bound variable
    is renamed to a fresh name first.
    """
    if not mapping:
        return expr
    return _subst(expr, dict(mapping))


def rename_vars(expr: Expr, renaming: Mapping[str, str]) -> Expr:
    """Rename free variables by name, preserving sorts."""
    mapping: Dict[Var, Expr] = {}
    for var in free_vars(expr):
        if var.name in renaming:
            mapping[var] = Var(renaming[var.name], var.var_sort)
    return substitute(expr, mapping)


_FRESH_COUNTER = itertools.count()


def fresh_var(base: Var, avoid: set[str]) -> Var:
    """Return a variable with a new name derived from *base* avoiding *avoid*."""
    while True:
        candidate = f"{base.name}#{next(_FRESH_COUNTER)}"
        if candidate not in avoid:
            return Var(candidate, base.var_sort)


def _subst(expr: Expr, mapping: Dict[Var, Expr]) -> Expr:
    if isinstance(expr, Var):
        return mapping.get(expr, expr)
    # Untouched subtrees stay as they are; a quantifier may still rename
    # its binders, so only quantifier-free ones are skipped.
    if not contains_quantifier(expr) and mapping.keys().isdisjoint(ordered_free_vars(expr)):
        return expr
    if isinstance(expr, (Forall, Exists)):
        return _subst_quantifier(expr, mapping)
    return rebuild(expr, tuple(_subst(child, mapping) for child in expr.children()))


def _subst_quantifier(expr, mapping: Dict[Var, Expr]) -> Expr:
    live = {var: rep for var, rep in mapping.items() if var not in expr.bound}
    if not live:
        return expr
    replacement_vars = {v.name for rep in live.values() for v in free_vars(rep)}
    bound = list(expr.bound)
    body = expr.body
    rename: Dict[Var, Expr] = {}
    for idx, bvar in enumerate(bound):
        if bvar.name in replacement_vars:
            avoid = replacement_vars | {v.name for v in free_vars(body)}
            fresh = fresh_var(bvar, avoid)
            rename[bvar] = fresh
            bound[idx] = fresh
    if rename:
        body = _subst(body, rename)
    body = _subst(body, live)
    cls = type(expr)
    return cls(tuple(bound), body)
