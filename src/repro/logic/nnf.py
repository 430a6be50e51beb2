"""Negation normal form, DNF clause extraction, and atom collection.

These transformations feed both the SMT solver (which searches over the
boolean skeleton of a formula's atoms) and the abduction engine (which mines
candidate predicates from clauses of the weakest precondition).

The DNF conversion has a cube budget.  It counts the cubes of the NNF in one
pass over its nodes before it builds any, so a formula over the budget
raises without a cube list ever being allocated.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.logic import build
from repro.logic.memo import RewriteMemo
from repro.logic.terms import (
    And,
    BoolConst,
    Exists,
    Expr,
    Forall,
    Iff,
    Implies,
    IntConst,
    Ite,
    Not,
    Or,
    Var,
    is_atom,
    rebuild,
)


def eliminate_bool_ite(expr: Expr, memo: Optional[RewriteMemo] = None) -> Expr:
    """Rewrite boolean-sorted ``Ite`` nodes into pure boolean structure.

    Integer-sorted ``Ite`` nodes are left alone; they are handled by the
    solver's linearizer through case splitting.
    """
    return _eliminate_bool_ite(expr, memo.bool_ite if memo is not None else {})


def _eliminate_bool_ite(expr: Expr, table: Dict[Expr, Expr]) -> Expr:
    if isinstance(expr, (Var, IntConst, BoolConst)):
        return expr
    result = table.get(expr)
    if result is None:
        children = tuple(_eliminate_bool_ite(child, table) for child in expr.children())
        if isinstance(expr, Ite) and expr.then.sort.name == "BOOL":
            cond, then, orelse = children
            result = build.lor(build.land(cond, then), build.land(build.lnot(cond), orelse))
        else:
            result = rebuild(expr, children)
        table[expr] = result
    return result


def to_nnf(expr: Expr, memo: Optional[RewriteMemo] = None) -> Expr:
    """Convert *expr* to negation normal form.

    Implications and bi-implications are expanded, and negations are pushed
    down to atoms (comparisons get flipped; boolean variables keep a ``Not``
    wrapper).  Quantifiers are preserved with dualization under negation.
    Both steps are memoized per node in *memo*; without one, in tables that
    live for this call.
    """
    if memo is None:
        memo = RewriteMemo()
    return _nnf(eliminate_bool_ite(expr, memo), True, memo.nnf)


def _nnf(expr: Expr, positive: bool, table: Dict[Tuple[Expr, bool], Expr]) -> Expr:
    if isinstance(expr, BoolConst):
        return BoolConst(expr.value if positive else not expr.value)
    if is_atom(expr):
        return expr if positive else build.lnot(expr)
    key = (expr, positive)
    result = table.get(key)
    if result is None:
        result = table[key] = _nnf_node(expr, positive, table)
    return result


def _nnf_node(expr: Expr, positive: bool, table: Dict[Tuple[Expr, bool], Expr]) -> Expr:
    if isinstance(expr, Not):
        return _nnf(expr.operand, not positive, table)
    if isinstance(expr, And):
        parts = [_nnf(arg, positive, table) for arg in expr.args]
        return build.land(*parts) if positive else build.lor(*parts)
    if isinstance(expr, Or):
        parts = [_nnf(arg, positive, table) for arg in expr.args]
        return build.lor(*parts) if positive else build.land(*parts)
    if isinstance(expr, Implies):
        return _nnf(build.lor(build.lnot(expr.antecedent), expr.consequent), positive, table)
    if isinstance(expr, Iff):
        expanded = build.lor(
            build.land(expr.left, expr.right),
            build.land(build.lnot(expr.left), build.lnot(expr.right)),
        )
        return _nnf(expanded, positive, table)
    if isinstance(expr, Forall):
        body = _nnf(expr.body, positive, table)
        return build.forall(expr.bound, body) if positive else build.exists(expr.bound, body)
    if isinstance(expr, Exists):
        body = _nnf(expr.body, positive, table)
        return build.exists(expr.bound, body) if positive else build.forall(expr.bound, body)
    raise TypeError(f"cannot convert node {type(expr).__name__} to NNF")


def to_dnf_clauses(expr: Expr, max_clauses: int = 4096,
                   memo: Optional[RewriteMemo] = None) -> List[Tuple[Expr, ...]]:
    """Return the DNF of *expr* as a list of literal tuples (cubes).

    The input must be quantifier free.  A :class:`ValueError` is raised when
    the expansion would exceed *max_clauses* cubes, protecting the abduction
    engine from exponential blow-up on pathological inputs.  The budget is
    checked before any cube is built: :func:`_dnf_size` counts the cubes
    and raises exactly where the expansion would.  The NNF conversion uses
    *memo* (see :func:`to_nnf`).
    """
    nnf = to_nnf(expr, memo)
    _dnf_size(nnf, max_clauses, {})
    cubes = _dnf(nnf, max_clauses)
    return [tuple(cube) for cube in cubes]


def _dnf_size(expr: Expr, max_clauses: int, sizes: Dict[Expr, int]) -> int:
    """``len(_dnf(expr, max_clauses))``, without building a cube.

    The expansion never drops a duplicate cube, so an ``Or`` has the sum of
    its arguments' sizes and an ``And`` their product.  Both are checked
    after every argument, in the expansion's order, so this raises the
    same exception at the same point as :func:`_dnf` — including an ``And``
    whose running product passes the budget before a later ``false``
    factor.  Sizes are memoized per node in *sizes*.
    """
    if isinstance(expr, BoolConst):
        return 1 if expr.value else 0
    if is_atom(expr) or isinstance(expr, Not):
        return 1
    size = sizes.get(expr)
    if size is not None:
        return size
    if isinstance(expr, Or):
        size = 0
        for arg in expr.args:
            size += _dnf_size(arg, max_clauses, sizes)
            if size > max_clauses:
                raise ValueError("DNF expansion exceeded clause budget")
    elif isinstance(expr, And):
        size = 1
        for arg in expr.args:
            size *= _dnf_size(arg, max_clauses, sizes)
            if size > max_clauses:
                raise ValueError("DNF expansion exceeded clause budget")
    elif isinstance(expr, (Forall, Exists)):
        raise ValueError("DNF conversion requires a quantifier-free formula")
    else:
        raise TypeError(f"unexpected node in NNF formula: {type(expr).__name__}")
    sizes[expr] = size
    return size


def _dnf(expr: Expr, max_clauses: int) -> List[List[Expr]]:
    if isinstance(expr, BoolConst):
        return [[]] if expr.value else []
    if is_atom(expr) or isinstance(expr, Not):
        return [[expr]]
    if isinstance(expr, Or):
        cubes: List[List[Expr]] = []
        for arg in expr.args:
            cubes.extend(_dnf(arg, max_clauses))
            if len(cubes) > max_clauses:
                raise ValueError("DNF expansion exceeded clause budget")
        return cubes
    if isinstance(expr, And):
        cubes = [[]]
        for arg in expr.args:
            arg_cubes = _dnf(arg, max_clauses)
            cubes = [left + right for left in cubes for right in arg_cubes]
            if len(cubes) > max_clauses:
                raise ValueError("DNF expansion exceeded clause budget")
        return cubes
    if isinstance(expr, (Forall, Exists)):
        raise ValueError("DNF conversion requires a quantifier-free formula")
    raise TypeError(f"unexpected node in NNF formula: {type(expr).__name__}")


def atoms_of(expr: Expr) -> FrozenSet[Expr]:
    """Collect the theory atoms / boolean variables occurring in *expr*."""
    return frozenset(ordered_atoms(expr))


def ordered_atoms(expr: Expr) -> List[Expr]:
    """The atoms of :func:`atoms_of`, in order of first occurrence.

    Unlike iterating the frozenset, this order does not depend on the
    process's string hash seed.
    """
    atoms: Dict[Expr, None] = {}
    _atoms(expr, atoms)
    return list(atoms)


def _atoms(expr: Expr, out: Dict[Expr, None]) -> None:
    if isinstance(expr, BoolConst):
        return
    if is_atom(expr):
        out[expr] = None
        return
    for child in expr.children():
        _atoms(child, out)


def literal_atom(literal: Expr) -> Expr:
    """Return the atom underlying a literal (stripping an outer negation)."""
    if isinstance(literal, Not):
        return literal.operand
    return literal


def literal_polarity(literal: Expr) -> bool:
    """True for a positive literal, False for a negated one."""
    return not isinstance(literal, Not)

