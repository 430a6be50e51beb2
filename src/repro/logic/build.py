"""Smart constructors for the logic AST.

The constructors perform light-weight normalization that keeps formulas small
without being a full simplifier:

* ``land`` / ``lor`` flatten nested conjunctions/disjunctions, drop neutral
  elements and short-circuit on absorbing elements;
* ``add`` flattens nested additions and folds adjacent integer constants;
* ``lnot`` cancels double negation and flips comparison operators, once
  per node;
* comparison builders fold constant operands.

Heavier rewriting lives in :mod:`repro.logic.simplify`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence, Union

from repro.logic.terms import (
    BOOL,
    INT,
    Add,
    And,
    BoolConst,
    Eq,
    Expr,
    Forall,
    Exists,
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
    Sort,
    Sub,
    Var,
    _NEGATIONS,
)

TRUE = BoolConst(True)
FALSE = BoolConst(False)

# Type aliases that name this package's classes exist for type checkers
# only: built at run time, typing's caches would keep the classes, and
# with them a re-imported module's old copy, alive.
if TYPE_CHECKING:
    ExprLike = Union[Expr, int, bool]


def _coerce(value: ExprLike) -> Expr:
    """Turn a raw Python int/bool into the corresponding constant node."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, bool):
        return BoolConst(value)
    if isinstance(value, int):
        return IntConst(value)
    raise TypeError(f"cannot coerce {value!r} into an expression")


def v(name: str, sort: Sort = INT) -> Var:
    """Create a variable of the given sort (integer by default)."""
    return Var(name, sort)


def bvar(name: str) -> Var:
    """Create a boolean variable."""
    return Var(name, BOOL)


def i(value: int) -> IntConst:
    """Create an integer constant."""
    return IntConst(value)


def b(value: bool) -> BoolConst:
    """Create a boolean constant."""
    return BoolConst(bool(value))


# -- integer builders -------------------------------------------------------


def add(*args: ExprLike) -> Expr:
    """Integer addition; flattens and folds constants."""
    flat: list[Expr] = []
    const = 0
    for arg in args:
        node = _coerce(arg)
        if isinstance(node, IntConst):
            const += node.value
        elif isinstance(node, Add):
            for sub_node in node.args:
                if isinstance(sub_node, IntConst):
                    const += sub_node.value
                else:
                    flat.append(sub_node)
        else:
            flat.append(node)
    if const != 0 or not flat:
        flat.append(IntConst(const))
    if len(flat) == 1:
        return flat[0]
    return Add(tuple(flat))


def sub(left: ExprLike, right: ExprLike) -> Expr:
    """Integer subtraction with constant folding."""
    lhs, rhs = _coerce(left), _coerce(right)
    if isinstance(lhs, IntConst) and isinstance(rhs, IntConst):
        return IntConst(lhs.value - rhs.value)
    if isinstance(rhs, IntConst) and rhs.value == 0:
        return lhs
    return Sub(lhs, rhs)


def neg(operand: ExprLike) -> Expr:
    """Integer negation with constant folding."""
    node = _coerce(operand)
    if isinstance(node, IntConst):
        return IntConst(-node.value)
    if isinstance(node, Neg):
        return node.operand
    return Neg(node)


def mul(left: ExprLike, right: ExprLike) -> Expr:
    """Integer multiplication with constant folding and unit elimination."""
    lhs, rhs = _coerce(left), _coerce(right)
    if isinstance(lhs, IntConst) and isinstance(rhs, IntConst):
        return IntConst(lhs.value * rhs.value)
    for a, other in ((lhs, rhs), (rhs, lhs)):
        if isinstance(a, IntConst):
            if a.value == 0:
                return IntConst(0)
            if a.value == 1:
                return other
            if a.value == -1:
                return neg(other)
    return Mul(lhs, rhs)


def ite(cond: ExprLike, then: ExprLike, orelse: ExprLike) -> Expr:
    """If-then-else with constant-condition folding."""
    cond_e, then_e, else_e = _coerce(cond), _coerce(then), _coerce(orelse)
    if isinstance(cond_e, BoolConst):
        return then_e if cond_e.value else else_e
    if then_e == else_e:
        return then_e
    return Ite(cond_e, then_e, else_e)


# -- comparisons ------------------------------------------------------------


def _fold_cmp(node_cls, left: Expr, right: Expr, op):
    if isinstance(left, IntConst) and isinstance(right, IntConst):
        return BoolConst(op(left.value, right.value))
    if isinstance(left, BoolConst) and isinstance(right, BoolConst):
        return BoolConst(op(left.value, right.value))
    return node_cls(left, right)


def eq(left: ExprLike, right: ExprLike) -> Expr:
    lhs, rhs = _coerce(left), _coerce(right)
    if lhs == rhs:
        return TRUE
    return _fold_cmp(Eq, lhs, rhs, lambda a, c: a == c)


def ne(left: ExprLike, right: ExprLike) -> Expr:
    lhs, rhs = _coerce(left), _coerce(right)
    if lhs == rhs:
        return FALSE
    return _fold_cmp(Ne, lhs, rhs, lambda a, c: a != c)


def lt(left: ExprLike, right: ExprLike) -> Expr:
    return _fold_cmp(Lt, _coerce(left), _coerce(right), lambda a, c: a < c)


def le(left: ExprLike, right: ExprLike) -> Expr:
    return _fold_cmp(Le, _coerce(left), _coerce(right), lambda a, c: a <= c)


def gt(left: ExprLike, right: ExprLike) -> Expr:
    return _fold_cmp(Gt, _coerce(left), _coerce(right), lambda a, c: a > c)


def ge(left: ExprLike, right: ExprLike) -> Expr:
    return _fold_cmp(Ge, _coerce(left), _coerce(right), lambda a, c: a >= c)


# -- boolean builders -------------------------------------------------------

_NEGATED_CMP = {Eq: Ne, Ne: Eq, Lt: Ge, Ge: Lt, Gt: Le, Le: Gt}


def lnot(operand: ExprLike) -> Expr:
    """Logical negation, pushing through constants, double negation and comparisons.

    Computed once per node: later calls look it up (``terms._NEGATIONS``).
    """
    negation = _NEGATIONS.get(operand)
    if negation is None:
        node = _coerce(operand)
        negation = _NEGATIONS[node] = _negate(node)
    return negation


def _negate(node: Expr) -> Expr:
    if isinstance(node, BoolConst):
        return BoolConst(not node.value)
    if isinstance(node, Not):
        return node.operand
    cls = type(node)
    if cls in _NEGATED_CMP and node.left.sort is INT:
        return _NEGATED_CMP[cls](node.left, node.right)  # type: ignore[attr-defined]
    return Not(node)


def land(*args: ExprLike) -> Expr:
    """N-ary conjunction; flattens, deduplicates, short-circuits on false."""
    flat: list[Expr] = []
    seen: set[Expr] = set()
    for arg in args:
        node = _coerce(arg)
        parts = node.args if isinstance(node, And) else (node,)
        for part in parts:
            if isinstance(part, BoolConst):
                if not part.value:
                    return FALSE
                continue
            if part not in seen:
                seen.add(part)
                flat.append(part)
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))


def lor(*args: ExprLike) -> Expr:
    """N-ary disjunction; flattens, deduplicates, short-circuits on true."""
    flat: list[Expr] = []
    seen: set[Expr] = set()
    for arg in args:
        node = _coerce(arg)
        parts = node.args if isinstance(node, Or) else (node,)
        for part in parts:
            if isinstance(part, BoolConst):
                if part.value:
                    return TRUE
                continue
            if part not in seen:
                seen.add(part)
                flat.append(part)
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    return Or(tuple(flat))


def implies(antecedent: ExprLike, consequent: ExprLike) -> Expr:
    """Implication with constant short-circuiting."""
    ant, con = _coerce(antecedent), _coerce(consequent)
    if isinstance(ant, BoolConst):
        return con if ant.value else TRUE
    if isinstance(con, BoolConst):
        return TRUE if con.value else lnot(ant)
    if ant == con:
        return TRUE
    return Implies(ant, con)


def iff(left: ExprLike, right: ExprLike) -> Expr:
    """Bi-implication with constant short-circuiting."""
    lhs, rhs = _coerce(left), _coerce(right)
    if lhs == rhs:
        return TRUE
    if isinstance(lhs, BoolConst):
        return rhs if lhs.value else lnot(rhs)
    if isinstance(rhs, BoolConst):
        return lhs if rhs.value else lnot(lhs)
    return Iff(lhs, rhs)


def forall(bound: Sequence[Var], body: ExprLike) -> Expr:
    """Universal quantification; collapses empty binders."""
    body_e = _coerce(body)
    bound = tuple(bound)
    if not bound or isinstance(body_e, BoolConst):
        return body_e
    if isinstance(body_e, Forall):
        return Forall(bound + body_e.bound, body_e.body)
    return Forall(bound, body_e)


def exists(bound: Sequence[Var], body: ExprLike) -> Expr:
    """Existential quantification; collapses empty binders."""
    body_e = _coerce(body)
    bound = tuple(bound)
    if not bound or isinstance(body_e, BoolConst):
        return body_e
    if isinstance(body_e, Exists):
        return Exists(bound + body_e.bound, body_e.body)
    return Exists(bound, body_e)


def conjuncts(expr: Expr) -> tuple[Expr, ...]:
    """Return the top-level conjuncts of *expr* (itself if not a conjunction)."""
    if isinstance(expr, And):
        return expr.args
    if isinstance(expr, BoolConst) and expr.value:
        return ()
    return (expr,)


def disjuncts(expr: Expr) -> tuple[Expr, ...]:
    """Return the top-level disjuncts of *expr* (itself if not a disjunction)."""
    if isinstance(expr, Or):
        return expr.args
    if isinstance(expr, BoolConst) and not expr.value:
        return ()
    return (expr,)
