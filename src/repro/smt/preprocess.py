"""Formula preprocessing for the SMT solver.

The solver core only understands two kinds of atoms:

* boolean variables, and
* canonical arithmetic atoms of the form ``t <= 0`` where ``t`` is a linear
  integer term.

This module rewrites arbitrary input formulas into that shape:

* boolean-sorted equalities / disequalities become ``Iff`` / ``!Iff``;
* integer-sorted ``ite`` terms are lifted into boolean case splits;
* every comparison is normalized into non-strict ``<= 0`` constraints, which
  is exact for integers (``a < b`` becomes ``a - b + 1 <= 0``, ``a != b``
  becomes a disjunction of two strict sides).

**Memoization.**  Every pass — :func:`~repro.logic.simplify.simplify`,
:func:`rewrite_bool_equalities`, :func:`lift_int_ite`, the boolean-``ite``
elimination and NNF of :func:`~repro.logic.nnf.to_nnf`, and
:func:`normalize_atoms` — is a pure, bottom-up function of its input node,
and records its result per node in a :class:`~repro.logic.memo.RewriteMemo`
(one table per pass; NNF keyed by ``(node, polarity)``).  Keys compare by
structural equality, so a memo hit is exactly the result the pass would
compute: the output is identical with or without a memo, warm or cold.  The
pipeline's queries overlap almost entirely (abduction asks ``pre && psi``
and ``pre && psi ==> goal`` with one ``pre`` for every candidate), so a
memo that outlives one query rewrites each shared subformula once.

The memo's owner is the :class:`~repro.smt.solver.Solver`, which keeps one
for its lifetime and clears it at a cap (see that module); abduction hands
the same memo to its quantifier eliminator.  Called without a memo, the
passes use a fresh one for that call.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.logic import build
from repro.logic.memo import RewriteMemo
from repro.logic.nnf import to_nnf
from repro.logic.simplify import simplify
from repro.logic.terms import (
    BOOL,
    BoolConst,
    Eq,
    Expr,
    Ge,
    Gt,
    INT,
    IntConst,
    Ite,
    Le,
    Lt,
    Ne,
    Var,
    rebuild,
    sort_of,
)
from repro.smt.linear import Constraint, LinExpr, linearize

_COMPARISONS = (Eq, Ne, Lt, Le, Gt, Ge)


def rewrite_bool_equalities(expr: Expr, memo: Optional[RewriteMemo] = None) -> Expr:
    """Rewrite ``Eq``/``Ne`` whose operands are boolean into ``Iff`` structure."""
    return _rewrite_bool_equalities(expr, memo.bool_equalities if memo is not None else {})


def _rewrite_bool_equalities(expr: Expr, table: Dict[Expr, Expr]) -> Expr:
    if isinstance(expr, (Var, IntConst, BoolConst)):
        return expr
    result = table.get(expr)
    if result is None:
        children = tuple(_rewrite_bool_equalities(child, table) for child in expr.children())
        if isinstance(expr, (Eq, Ne)) and sort_of(children[0]) is BOOL:
            equiv = build.iff(children[0], children[1])
            result = equiv if isinstance(expr, Eq) else build.lnot(equiv)
        else:
            result = rebuild(expr, children)
        table[expr] = result
    return result


def lift_int_ite(expr: Expr, memo: Optional[RewriteMemo] = None) -> Expr:
    """Lift integer-sorted ``ite`` terms occurring inside atoms to case splits."""
    return _lift_int_ite(expr, memo.int_ite if memo is not None else {})


def _lift_int_ite(expr: Expr, table: Dict[Expr, Expr]) -> Expr:
    if isinstance(expr, (Var, IntConst, BoolConst)):
        return expr
    result = table.get(expr)
    if result is None:
        result = table[expr] = _lift_node(expr, table)
    return result


def _lift_node(expr: Expr, table: Dict[Expr, Expr]) -> Expr:
    if isinstance(expr, _COMPARISONS):
        found = _find_int_ite(expr)
        if found is None:
            return expr
        cond = _lift_int_ite(found.cond, table)
        then_atom = _replace_node(expr, found, found.then)
        else_atom = _replace_node(expr, found, found.orelse)
        return _lift_int_ite(
            build.lor(
                build.land(cond, then_atom),
                build.land(build.lnot(cond), else_atom),
            ),
            table,
        )
    return rebuild(expr, tuple(_lift_int_ite(child, table) for child in expr.children()))


def _find_int_ite(expr: Expr) -> Optional[Ite]:
    if isinstance(expr, Ite) and sort_of(expr.then) is INT:
        return expr
    for child in expr.children():
        found = _find_int_ite(child)
        if found is not None:
            return found
    return None


def _replace_node(expr: Expr, target: Expr, replacement: Expr) -> Expr:
    if expr == target:
        return replacement
    if isinstance(expr, (Var, IntConst, BoolConst)):
        return expr
    return rebuild(expr, tuple(_replace_node(child, target, replacement)
                               for child in expr.children()))


def normalize_atoms(expr: Expr, memo: Optional[RewriteMemo] = None) -> Expr:
    """Rewrite every arithmetic comparison into canonical ``t <= 0`` atoms.

    The output only contains boolean structure, boolean variables, and
    ``Le(linear-term, 0)`` atoms.  Comparisons whose difference folds to a
    constant become boolean constants.
    """
    return _normalize_atoms(expr, memo.atoms if memo is not None else {})


def _normalize_atoms(expr: Expr, table: Dict[Expr, Expr]) -> Expr:
    if isinstance(expr, (Var, BoolConst)):
        return expr
    result = table.get(expr)
    if result is None:
        if isinstance(expr, _COMPARISONS) and sort_of(expr.left) is INT:
            result = _normalize_comparison(expr)
        else:
            result = rebuild(expr, tuple(_normalize_atoms(child, table)
                                         for child in expr.children()))
        table[expr] = result
    return result


def _le_zero(lin: LinExpr) -> Expr:
    if lin.is_constant():
        return build.TRUE if lin.constant <= 0 else build.FALSE
    return Le(lin.to_expr(), IntConst(0))


def _normalize_comparison(expr: Expr) -> Expr:
    left = linearize(expr.left)
    right = linearize(expr.right)
    diff = left.sub(right)
    if isinstance(expr, Le):
        return _le_zero(diff)
    if isinstance(expr, Lt):
        return _le_zero(diff.shift(1))
    if isinstance(expr, Ge):
        return _le_zero(diff.scale(-1))
    if isinstance(expr, Gt):
        return _le_zero(diff.scale(-1).shift(1))
    if isinstance(expr, Eq):
        return build.land(_le_zero(diff), _le_zero(diff.scale(-1)))
    if isinstance(expr, Ne):
        return build.lor(_le_zero(diff.shift(1)), _le_zero(diff.scale(-1).shift(1)))
    raise TypeError(f"unexpected comparison {type(expr).__name__}")


def atom_constraint(atom: Expr) -> Optional[Constraint]:
    """Return the :class:`Constraint` for a canonical arithmetic atom, else None."""
    if isinstance(atom, Le) and isinstance(atom.right, IntConst) and atom.right.value == 0:
        return Constraint(linearize(atom.left))
    return None


def preprocess(expr: Expr, memo: Optional[RewriteMemo] = None) -> Expr:
    """Full preprocessing pipeline used by the solver (quantifier-free input).

    Every pass is memoized per node in *memo*; without one, in a fresh memo
    that lives for this call.
    """
    if memo is None:
        memo = RewriteMemo()
    expr = simplify(expr, memo)
    expr = rewrite_bool_equalities(expr, memo)
    expr = lift_int_ite(expr, memo)
    expr = to_nnf(expr, memo)
    expr = normalize_atoms(expr, memo)
    return simplify(expr, memo)

