"""Concrete monitor states and statement interpretation.

A :class:`MonitorState` is the σ of Definition 3.1: a valuation of shared
variables (identical for every thread) plus per-thread valuations of
thread-local variables.  The interpreter executes loop-free-or-terminating
statements concretely; it is the ⇓ relation of the paper.
"""

from __future__ import annotations

from dataclasses import field
from typing import Dict, Mapping, Optional, Tuple, Union

from repro.logic.evaluate import evaluate
from repro.logic.terms import BOOL, Expr, INT
from repro.lang.ast import (
    ArrayAssign,
    Assign,
    If,
    LocalDecl,
    Monitor,
    Seq,
    Skip,
    Stmt,
    While,
)
from repro.record import record

Value = Union[int, bool]

#: Safety bound on concrete loop iterations (the formal model assumes
#: terminating CCR bodies; a runaway loop indicates a broken benchmark).
_MAX_LOOP_ITERATIONS = 100_000


class InterpretationError(RuntimeError):
    """Raised when a statement cannot be executed concretely."""


@record
class MonitorState:
    """σ: shared-variable valuation plus per-thread local valuations."""

    shared: Dict[str, Value] = field(default_factory=dict)
    locals: Dict[int, Dict[str, Value]] = field(default_factory=dict)

    def __init__(self, shared: Optional[Dict[str, Value]] = None,
                 locals: Optional[Dict[int, Dict[str, Value]]] = None) -> None:
        # Spelled out: an explore pass builds ~6,000 (see ``repro.record``).
        self.shared = {} if shared is None else shared
        self.locals = {} if locals is None else locals

    @staticmethod
    def initial(monitor: Monitor) -> "MonitorState":
        """The state produced by the monitor constructor (all fields initialized)."""
        state = MonitorState()
        ctor_env = execute_statement(monitor.constructor(), {})
        for decl in monitor.fields:
            default: Value = 0 if decl.sort is INT else False
            state.shared[decl.name] = ctor_env.get(decl.name, default)
        return state

    def copy(self) -> "MonitorState":
        return MonitorState(dict(self.shared),
                            {tid: dict(env) for tid, env in self.locals.items()})

    def environment(self, thread: int) -> Dict[str, Value]:
        """The combined valuation a given thread sees (σ(t, ·))."""
        env = dict(self.shared)
        env.update(self.locals.get(thread, {}))
        return env

    def set_locals(self, thread: int, values: Mapping[str, Value]) -> None:
        self.locals.setdefault(thread, {}).update(values)

    def evaluate(self, expr: Expr, thread: int) -> Value:
        """(σ, t) |= p  /  term evaluation for thread *t*."""
        return evaluate(expr, self.environment(thread))

    def run(self, stmt: Stmt, thread: int, shared_names: Tuple[str, ...]) -> "MonitorState":
        """⟨s, t, σ⟩ ⇓ σ′ — execute *stmt* as thread *thread*, returning the new state."""
        env = self.environment(thread)
        result_env = execute_statement(stmt, env)
        new_state = self.copy()
        thread_locals = new_state.locals.setdefault(thread, {})
        for name, value in result_env.items():
            if name in shared_names:
                new_state.shared[name] = value
            else:
                thread_locals[name] = value
        return new_state


def execute_statement(stmt: Stmt, environment: Mapping[str, Value]) -> Dict[str, Value]:
    """Execute *stmt* over a flat environment, returning the updated environment."""
    env: Dict[str, Value] = dict(environment)
    _execute(stmt, env)
    return env


def _execute(stmt: Stmt, env: Dict[str, Value]) -> None:
    if isinstance(stmt, Skip):
        return
    if isinstance(stmt, Assign):
        env[stmt.target] = evaluate(stmt.value, env)
        return
    if isinstance(stmt, LocalDecl):
        env[stmt.name] = evaluate(stmt.init, env)
        return
    if isinstance(stmt, ArrayAssign):
        raise InterpretationError("array assignments must be scalarized before execution")
    if isinstance(stmt, Seq):
        for child in stmt.stmts:
            _execute(child, env)
        return
    if isinstance(stmt, If):
        branch = stmt.then if evaluate(stmt.cond, env) else stmt.orelse
        _execute(branch, env)
        return
    if isinstance(stmt, While):
        iterations = 0
        while evaluate(stmt.cond, env):
            _execute(stmt.body, env)
            iterations += 1
            if iterations > _MAX_LOOP_ITERATIONS:
                raise InterpretationError("loop exceeded the interpreter's iteration bound")
        return
    raise InterpretationError(f"cannot execute statement {type(stmt).__name__}")
