"""Concrete evaluation of expressions under a variable assignment.

Evaluation is used in four places: the reference trace semantics
(:mod:`repro.semantics`) evaluates guards against monitor states, the SMT
solver's tests cross-check models against formulas, the AutoSynch-style
runtime evaluates waiting predicates at signal time, and invariant inference
(:mod:`repro.analysis.abduction`, :mod:`repro.analysis.invariants`) settles
satisfiability questions under models it already holds.
"""

from __future__ import annotations

from typing import Mapping, Optional, Union

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

Value = Union[int, bool]
Assignment = Mapping[str, Value]


class EvaluationError(KeyError):
    """Raised when an expression mentions a variable missing from the assignment."""


def evaluate(expr: Expr, assignment: Assignment) -> Value:
    """Evaluate *expr* under *assignment* (a mapping from variable name to value)."""
    if isinstance(expr, IntConst):
        return expr.value
    if isinstance(expr, BoolConst):
        return expr.value
    if isinstance(expr, Var):
        try:
            return assignment[expr.name]
        except KeyError as exc:
            raise EvaluationError(f"unassigned variable {expr.name!r}") from exc
    if isinstance(expr, Add):
        return sum(int(evaluate(arg, assignment)) for arg in expr.args)
    if isinstance(expr, Sub):
        return int(evaluate(expr.left, assignment)) - int(evaluate(expr.right, assignment))
    if isinstance(expr, Neg):
        return -int(evaluate(expr.operand, assignment))
    if isinstance(expr, Mul):
        return int(evaluate(expr.left, assignment)) * int(evaluate(expr.right, assignment))
    if isinstance(expr, Ite):
        branch = expr.then if evaluate(expr.cond, assignment) else expr.orelse
        return evaluate(branch, assignment)
    if isinstance(expr, Eq):
        return evaluate(expr.left, assignment) == evaluate(expr.right, assignment)
    if isinstance(expr, Ne):
        return evaluate(expr.left, assignment) != evaluate(expr.right, assignment)
    if isinstance(expr, Lt):
        return evaluate(expr.left, assignment) < evaluate(expr.right, assignment)
    if isinstance(expr, Le):
        return evaluate(expr.left, assignment) <= evaluate(expr.right, assignment)
    if isinstance(expr, Gt):
        return evaluate(expr.left, assignment) > evaluate(expr.right, assignment)
    if isinstance(expr, Ge):
        return evaluate(expr.left, assignment) >= evaluate(expr.right, assignment)
    if isinstance(expr, Not):
        return not evaluate(expr.operand, assignment)
    if isinstance(expr, And):
        return all(evaluate(arg, assignment) for arg in expr.args)
    if isinstance(expr, Or):
        return any(evaluate(arg, assignment) for arg in expr.args)
    if isinstance(expr, Implies):
        return (not evaluate(expr.antecedent, assignment)) or bool(
            evaluate(expr.consequent, assignment)
        )
    if isinstance(expr, Iff):
        return bool(evaluate(expr.left, assignment)) == bool(evaluate(expr.right, assignment))
    if isinstance(expr, (Forall, Exists)):
        raise EvaluationError("cannot concretely evaluate a quantified formula")
    raise TypeError(f"cannot evaluate node {type(expr).__name__}")


def truth_value(formula: Expr, assignment: Assignment) -> Optional[bool]:
    """*formula*'s truth value under *assignment*, or None when evaluation
    cannot tell (a variable the assignment lacks, a quantifier, or a node
    evaluation does not cover)."""
    try:
        return bool(evaluate(formula, assignment))
    except (EvaluationError, TypeError):
        return None
