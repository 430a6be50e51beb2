"""Bottom-up formula simplification.

The simplifier re-applies the smart constructors of :mod:`repro.logic.build`
over the whole tree (constant folding, neutral/absorbing element removal,
flattening and deduplication, double-negation and comparison-negation
elimination).  On top of them, a conjunction holding a literal and its
negation (``p && !p``) becomes ``false`` and such a disjunction ``true``
(:func:`junction`).

Comparisons stay as the builders leave them: one folds only when both sides
are constants or, for ``==`` and ``!=``, the same term.  ``x + 1 <= 3`` and
``x < x`` are unchanged; the SMT preprocessing
(:mod:`repro.smt.preprocess`) is what rewrites comparisons into ``t <= 0``.

The simplifier is *not* a decision procedure; it preserves logical
equivalence and is safe to call anywhere.
"""

from __future__ import annotations

from typing import Collection, Dict, Iterable, List, Optional, Set

from repro.logic import build
from repro.logic.memo import RewriteMemo
from repro.logic.terms import (
    Add,
    And,
    BoolConst,
    Eq,
    Exists,
    Expr,
    Forall,
    Ge,
    Gt,
    Iff,
    Implies,
    IntConst,
    Ite,
    Le,
    Lt,
    Mul,
    Ne,
    Neg,
    Not,
    Or,
    Sub,
    Var,
)


#: The smart constructor that re-applies to each node kind's simplified
#: children (conjunctions, disjunctions and quantifiers are handled apart).
_BUILDERS = {
    Add: build.add, Sub: build.sub, Neg: build.neg, Mul: build.mul, Ite: build.ite,
    Eq: build.eq, Ne: build.ne, Lt: build.lt, Le: build.le, Gt: build.gt, Ge: build.ge,
    Not: build.lnot, Implies: build.implies, Iff: build.iff,
}


def simplify(expr: Expr, memo: Optional[RewriteMemo] = None) -> Expr:
    """Return an equivalent, usually smaller, expression.

    Results are memoized per node in *memo* (see :mod:`repro.logic.memo`);
    without one, in a table that lives for this call.
    """
    return _simplify(expr, memo.simplify if memo is not None else {})


def _simplify(expr: Expr, table: Dict[Expr, Expr]) -> Expr:
    if isinstance(expr, (Var, IntConst, BoolConst)):
        return expr
    result = table.get(expr)
    if result is None:
        result = table[expr] = _simplify_node(expr, table)
    return result


def _simplify_node(expr: Expr, table: Dict[Expr, Expr]) -> Expr:
    children = [_simplify(child, table) for child in expr.children()]
    builder = _BUILDERS.get(type(expr))
    if builder is not None:
        return builder(*children)
    if isinstance(expr, (And, Or)):
        return junction(children, isinstance(expr, And))
    if isinstance(expr, Forall):
        return build.forall(expr.bound, children[0])
    if isinstance(expr, Exists):
        return build.exists(expr.bound, children[0])
    raise TypeError(f"cannot simplify node {type(expr).__name__}")


def junction(parts: Iterable[Expr], conjunctive: bool) -> Expr:
    """``build.land(*parts)`` (``build.lor`` unless *conjunctive*), or its
    absorbing constant when the result holds a literal and its negation."""
    args = junction_args(parts, conjunctive)
    if args is None:
        return build.FALSE if conjunctive else build.TRUE
    if not args:
        return build.TRUE if conjunctive else build.FALSE
    if len(args) == 1:
        return args[0]
    return And(tuple(args)) if conjunctive else Or(tuple(args))


def junction_args(parts: Iterable[Expr], conjunctive: bool,
                  held: Collection[Expr] = ()) -> Optional[List[Expr]]:
    """The arguments of ``junction(parts, conjunctive)`` (``[]`` for its
    neutral constant), or None for its absorbing constant; builds no node.

    *held* are the arguments of an earlier call, over parts that come
    first: the result is then the arguments that *parts* add to them, or
    None when the whole junction is the absorbing constant.  A pair with
    one side in *held* is found from its new side, which takes ``lnot`` to
    be an involution on the parts.  That holds for the simplified and
    canonical nodes :mod:`repro.smt.preprocess` passes: neither kind has a
    double negation or a negated integer comparison.
    """
    kind = And if conjunctive else Or
    args: List[Expr] = []
    seen: Set[Expr] = set()
    for node in parts:
        for part in node.args if isinstance(node, kind) else (node,):
            if isinstance(part, BoolConst):
                if part.value != conjunctive:
                    return None
            elif part not in seen and part not in held:
                seen.add(part)
                args.append(part)
    if len(args) + len(held) > 1 and any(
            (negation := build.lnot(part)) in seen or negation in held for part in args):
        return None
    return args
