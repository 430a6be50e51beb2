"""Linear integer expressions.

A :class:`LinExpr` is a normalized linear combination ``c0 + c1*x1 + ... +
cn*xn`` with integer coefficients over integer-sorted variables.  It is the
exchange format between the logic AST and the arithmetic core (simplex,
Fourier–Motzkin, branch-and-bound).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, Mapping, Tuple

from repro.logic import build
from repro.logic.terms import (
    Add,
    Expr,
    INT,
    IntConst,
    Ite,
    Mul,
    Neg,
    Sub,
    Var,
)
from repro.record import record


class NonLinearError(ValueError):
    """Raised when an integer term is not linear (e.g. a product of variables)."""


@record(frozen=True)
class LinExpr:
    """An immutable linear expression ``constant + sum(coeffs[name] * name)``."""

    coeffs: Tuple[Tuple[str, int], ...]
    constant: int = 0

    def __init__(self, coeffs: Tuple[Tuple[str, int], ...], constant: int = 0) -> None:
        # Spelled out: a compile pass builds ~14,000 (see ``repro.record``).
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "constant", constant)

    @staticmethod
    def of(coeffs: Mapping[str, int], constant: int = 0) -> "LinExpr":
        """Build a LinExpr, dropping zero coefficients and sorting by name."""
        items = tuple(sorted((name, coef) for name, coef in coeffs.items() if coef != 0))
        return LinExpr(items, constant)

    @staticmethod
    def const(value: int) -> "LinExpr":
        return LinExpr((), value)

    @staticmethod
    def var(name: str, coefficient: int = 1) -> "LinExpr":
        if coefficient == 0:
            return LinExpr((), 0)
        return LinExpr(((name, coefficient),), 0)

    # -- accessors ----------------------------------------------------------

    def coeff_map(self) -> Dict[str, int]:
        return dict(self.coeffs)

    def variables(self) -> Tuple[str, ...]:
        return tuple(name for name, _ in self.coeffs)

    def coefficient(self, name: str) -> int:
        for var_name, coef in self.coeffs:
            if var_name == name:
                return coef
        return 0

    def is_constant(self) -> bool:
        return not self.coeffs

    # -- arithmetic ---------------------------------------------------------

    def add(self, other: "LinExpr") -> "LinExpr":
        coeffs = self.coeff_map()
        for name, coef in other.coeffs:
            coeffs[name] = coeffs.get(name, 0) + coef
        return LinExpr.of(coeffs, self.constant + other.constant)

    def sub(self, other: "LinExpr") -> "LinExpr":
        return self.add(other.scale(-1))

    def scale(self, factor: int) -> "LinExpr":
        if factor == 0:
            return LinExpr((), 0)
        return LinExpr.of({name: coef * factor for name, coef in self.coeffs},
                          self.constant * factor)

    def shift(self, delta: int) -> "LinExpr":
        return LinExpr(self.coeffs, self.constant + delta)

    def evaluate(self, assignment: Mapping[str, int]) -> int:
        total = self.constant
        for name, coef in self.coeffs:
            total += coef * int(assignment.get(name, 0))
        return total

    # -- conversion ---------------------------------------------------------

    def to_expr(self) -> Expr:
        """Convert back into a logic-AST integer term."""
        parts = []
        for name, coef in self.coeffs:
            var = Var(name, INT)
            if coef == 1:
                parts.append(var)
            else:
                parts.append(build.mul(coef, var))
        if self.constant != 0 or not parts:
            parts.append(build.i(self.constant))
        return build.add(*parts)

    def __str__(self) -> str:  # pragma: no cover - debugging helper
        from repro.logic.pretty import pretty

        return pretty(self.to_expr())


def linearize(expr: Expr) -> LinExpr:
    """Convert an integer-sorted AST term into a :class:`LinExpr`.

    Raises :class:`NonLinearError` for products of two non-constant terms and
    :class:`ValueError` for ``ite`` terms (callers must lift those first via
    :func:`repro.smt.preprocess.lift_int_ite`).
    """
    if isinstance(expr, IntConst):
        return LinExpr.const(expr.value)
    if isinstance(expr, Var):
        if expr.var_sort is not INT:
            raise NonLinearError(f"boolean variable {expr.name!r} in arithmetic position")
        return LinExpr.var(expr.name)
    if isinstance(expr, Add):
        result = LinExpr.const(0)
        for arg in expr.args:
            result = result.add(linearize(arg))
        return result
    if isinstance(expr, Sub):
        return linearize(expr.left).sub(linearize(expr.right))
    if isinstance(expr, Neg):
        return linearize(expr.operand).scale(-1)
    if isinstance(expr, Mul):
        left = linearize(expr.left)
        right = linearize(expr.right)
        if left.is_constant():
            return right.scale(left.constant)
        if right.is_constant():
            return left.scale(right.constant)
        raise NonLinearError(f"non-linear product: {expr}")
    if isinstance(expr, Ite):
        raise ValueError("integer ite must be lifted before linearization")
    raise NonLinearError(f"cannot linearize node {type(expr).__name__}")


@record(frozen=True)
class Constraint:
    """A normalized constraint ``expr <= 0`` (non-strict, integer semantics)."""

    expr: LinExpr

    def __init__(self, expr: LinExpr) -> None:
        # Spelled out: a compile pass builds ~1,100 (see ``repro.record``).
        object.__setattr__(self, "expr", expr)

    def evaluate(self, assignment: Mapping[str, int]) -> bool:
        return self.expr.evaluate(assignment) <= 0

    def variables(self) -> Tuple[str, ...]:
        return self.expr.variables()

    def negate(self) -> "Constraint":
        """Integer negation: not(e <= 0) == (-e + 1 <= 0), i.e. e >= 1."""
        return Constraint(self.expr.scale(-1).shift(1))

    def to_formula(self) -> Expr:
        return build.le(self.expr.to_expr(), build.i(0))

    def __str__(self) -> str:  # pragma: no cover
        return f"{self.expr} <= 0"
