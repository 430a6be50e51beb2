"""Forward symbolic execution of loop-free monitor statements.

The commutativity check of §4.3 needs to compare the *effect* of two CCR
bodies executed in either order.  We compute, for each statement, a symbolic
state mapping every assigned variable to an expression over the initial
values (branches become ``ite`` terms).  Two statements commute iff the two
compositions yield provably equal final values for every shared variable and
provably equivalent path behaviour.

Loops make the effect unbounded; :class:`SymbolicExecutionError` is raised
and callers treat the pair conservatively as non-commuting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

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
)


class SymbolicExecutionError(ValueError):
    """Raised when a statement cannot be summarized (contains a loop)."""


@dataclass
class SymbolicState:
    """A mapping from variable names to their symbolic values.

    Unmapped variables implicitly hold their initial (pre-state) value.
    """

    values: Dict[str, Expr] = field(default_factory=dict)

    def lookup(self, var: Var) -> Expr:
        return self.values.get(var.name, var)

    def rewrite(self, expr: Expr) -> Expr:
        """Evaluate *expr* over the current symbolic state."""
        mapping = {var: self.values[var.name]
                   for var in ordered_free_vars(expr) if var.name in self.values}
        return substitute(expr, mapping)

    def copy(self) -> "SymbolicState":
        return SymbolicState(dict(self.values))


def symbolic_execute(stmt: Stmt, state: Optional[SymbolicState] = None) -> SymbolicState:
    """Compute the symbolic post-state of a loop-free statement."""
    state = state.copy() if state is not None else SymbolicState()
    _execute(stmt, state)
    state.values = {name: simplify(value) for name, value in state.values.items()}
    return state


def _execute(stmt: Stmt, state: SymbolicState) -> None:
    if isinstance(stmt, Skip):
        return
    if isinstance(stmt, (Assign, LocalDecl)):
        target = stmt.target if isinstance(stmt, Assign) else stmt.name
        value = stmt.value if isinstance(stmt, Assign) else stmt.init
        state.values[target] = state.rewrite(value)
        return
    if isinstance(stmt, ArrayAssign):
        raise SymbolicExecutionError("array assignments must be scalarized first")
    if isinstance(stmt, Seq):
        for child in stmt.stmts:
            _execute(child, state)
        return
    if isinstance(stmt, If):
        cond = state.rewrite(stmt.cond)
        then_state = state.copy()
        else_state = state.copy()
        _execute(stmt.then, then_state)
        _execute(stmt.orelse, else_state)
        merged: Dict[str, Expr] = {}
        touched = set(then_state.values) | set(else_state.values)
        for name in touched:
            then_value = _branch_value(name, then_state, else_state)
            else_value = _branch_value(name, else_state, then_state)
            merged[name] = build.ite(cond, then_value, else_value)
        state.values.update(merged)
        return
    if isinstance(stmt, While):
        raise SymbolicExecutionError("cannot summarize a loop symbolically")
    raise TypeError(f"cannot execute statement {type(stmt).__name__}")


def _branch_value(name: str, branch: SymbolicState, other: SymbolicState) -> Expr:
    """The symbolic value of *name* at the end of *branch*.

    A name unmapped in *branch* still holds its pre-conditional (initial)
    value; its sort is read off the other branch's assigned expression.
    """
    from repro.logic.terms import sort_of

    if name in branch.values:
        return branch.values[name]
    return Var(name, sort_of(other.values[name]))
