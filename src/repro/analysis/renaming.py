"""Thread-local variable renaming (paper §4.2).

The Hoare triples generated by the placement algorithm have the shape
``{P1 && P2} S {Q}`` where ``P1`` constrains the *currently running* thread
while ``P2`` and ``Q`` talk about some *other* (blocked) thread.  When the
guards mention thread-local variables (method parameters or locals), the two
threads' locals must not be conflated: Example 4.2 of the paper shows the
algorithm becoming unsound otherwise.  The fix is to rename the thread-local
variables of the blocked thread's predicates (and, for the §4.3 composition
check, its CCR body) to fresh primed copies before checking validity.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Tuple

from repro.logic.free_vars import ordered_free_vars
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

_RENAME_COUNTER = itertools.count()


def rename_thread_locals(formula: Expr, local_names: Iterable[str],
                         suffix: str) -> Expr:
    """Rename every free occurrence of a thread-local variable with *suffix*."""
    locals_set = frozenset(local_names)
    return substitute(formula, {var: Var(_renamed(var.name, suffix), var.var_sort)
                                for var in ordered_free_vars(formula) if var.name in locals_set})


def rename_stmt_locals(stmt: Stmt, local_names: Iterable[str], suffix: str) -> Stmt:
    """Rename thread-local variables inside a statement (targets and expressions)."""
    locals_set = frozenset(local_names)

    def rename_expr(expr: Expr) -> Expr:
        return rename_thread_locals(expr, locals_set, suffix)

    def rename_target(name: str) -> str:
        return _renamed(name, suffix) if name in locals_set else name

    if isinstance(stmt, Skip):
        return stmt
    if isinstance(stmt, Assign):
        return Assign(rename_target(stmt.target), rename_expr(stmt.value))
    if isinstance(stmt, LocalDecl):
        return LocalDecl(rename_target(stmt.name), stmt.sort, rename_expr(stmt.init))
    if isinstance(stmt, ArrayAssign):
        return ArrayAssign(stmt.array, rename_expr(stmt.index), rename_expr(stmt.value))
    if isinstance(stmt, Seq):
        return Seq(tuple(rename_stmt_locals(child, locals_set, suffix) for child in stmt.stmts))
    if isinstance(stmt, If):
        return If(rename_expr(stmt.cond),
                  rename_stmt_locals(stmt.then, locals_set, suffix),
                  rename_stmt_locals(stmt.orelse, locals_set, suffix))
    if isinstance(stmt, While):
        invariant = rename_expr(stmt.invariant) if stmt.invariant is not None else None
        return While(rename_expr(stmt.cond),
                     rename_stmt_locals(stmt.body, locals_set, suffix), invariant)
    raise TypeError(f"cannot rename statement {type(stmt).__name__}")


def renamed_copy(predicate: Expr, local_names: Iterable[str]) -> Tuple[Expr, str]:
    """Return a copy of *predicate* with its thread-locals freshly renamed.

    The returned suffix identifies the blocked-thread instance; callers reuse
    it (via :func:`rename_thread_locals` / :func:`rename_stmt_locals`) when
    the same blocked thread's predicate or body appears elsewhere in a triple.
    """
    suffix = f"other{next(_RENAME_COUNTER)}"
    return rename_thread_locals(predicate, local_names, suffix), suffix


def _renamed(name: str, suffix: str) -> str:
    return f"{name}${suffix}"
