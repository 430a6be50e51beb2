"""Semantic checks for parsed monitors.

The checker enforces the well-formedness conditions the paper's development
relies on:

* guards are boolean-sorted and mention no array placeholders (scalarization
  must run first);
* statements assign only to declared fields or to method locals/params, with
  matching sorts;
* ``waituntil`` regions are not nested (guaranteed syntactically by the
  parser, re-checked here for programmatically-built monitors);
* expressions are well-sorted throughout.
"""

from __future__ import annotations

from typing import Dict, Set

from repro.logic.free_vars import ordered_free_vars
from repro.logic.terms import BOOL, Expr, INT, Sort, SortError, Var, sort_of
from repro.lang.arrays import ArraySelect
from repro.lang.ast import (
    ArrayAssign,
    Assign,
    CCR,
    If,
    LocalDecl,
    MethodDecl,
    Monitor,
    Seq,
    Skip,
    Stmt,
    While,
)


class MonitorCheckError(ValueError):
    """Raised when a monitor violates a semantic well-formedness rule."""


def check_monitor(monitor: Monitor) -> None:
    """Validate *monitor*; raises :class:`MonitorCheckError` on the first violation."""
    field_sorts: Dict[str, Sort] = {}
    for decl in monitor.fields:
        if decl.is_array:
            raise MonitorCheckError(
                f"field {decl.name!r} is an unscalarized array; run scalarize_monitor first"
            )
        if decl.name in field_sorts:
            raise MonitorCheckError(f"duplicate field {decl.name!r}")
        field_sorts[decl.name] = decl.sort
        _check_sorted(decl.init, f"initializer of field {decl.name!r}")
        if sort_of(decl.init) is not decl.sort:
            raise MonitorCheckError(
                f"initializer of field {decl.name!r} has the wrong sort"
            )

    method_names: Set[str] = set()
    for method in monitor.methods:
        if method.name in method_names:
            raise MonitorCheckError(f"duplicate method {method.name!r}")
        method_names.add(method.name)
        _check_method(monitor, method, field_sorts)


def _collect_local_decls(stmt: Stmt, out: Dict[str, Sort]) -> None:
    if isinstance(stmt, LocalDecl):
        out[stmt.name] = stmt.sort
    for child in stmt.children():
        _collect_local_decls(child, out)


def _check_method(monitor: Monitor, method: MethodDecl, field_sorts: Dict[str, Sort]) -> None:
    scope: Dict[str, Sort] = dict(field_sorts)
    for param in method.params:
        if param.name in field_sorts:
            raise MonitorCheckError(
                f"parameter {param.name!r} of {method.name!r} shadows a field"
            )
        scope[param.name] = param.sort
    # Method locals are thread-local names with method scope: a local declared
    # in an earlier CCR (e.g. a ticket number) may appear in a later guard.
    for ccr in method.ccrs:
        _collect_local_decls(ccr.body, scope)
    for ccr in method.ccrs:
        guard_context = f"guard of {ccr.label or method.name}"
        _check_sorted(ccr.guard, guard_context)
        if sort_of(ccr.guard) is not BOOL:
            raise MonitorCheckError(f"{guard_context} is not boolean")
        _check_known_vars(ccr.guard, scope, guard_context)
        _check_stmt(ccr.body, dict(scope), field_sorts, method.name)


def _check_stmt(stmt: Stmt, scope: Dict[str, Sort], field_sorts: Dict[str, Sort],
                method_name: str) -> None:
    if isinstance(stmt, Skip):
        return
    if isinstance(stmt, LocalDecl):
        _check_sorted(stmt.init, f"initializer of local {stmt.name!r}")
        _check_known_vars(stmt.init, scope, f"initializer of local {stmt.name!r}")
        if stmt.name in field_sorts:
            raise MonitorCheckError(f"local {stmt.name!r} in {method_name!r} shadows a field")
        scope[stmt.name] = stmt.sort
        if sort_of(stmt.init) is not stmt.sort:
            raise MonitorCheckError(f"initializer of local {stmt.name!r} has the wrong sort")
        return
    if isinstance(stmt, Assign):
        context = f"assignment to {stmt.target!r} in {method_name!r}"
        if stmt.target not in scope:
            raise MonitorCheckError(f"{context}: undeclared variable")
        _check_sorted(stmt.value, context)
        _check_known_vars(stmt.value, scope, context)
        if sort_of(stmt.value) is not scope[stmt.target]:
            raise MonitorCheckError(f"{context}: sort mismatch")
        return
    if isinstance(stmt, ArrayAssign):
        raise MonitorCheckError(
            f"array assignment to {stmt.array!r} must be scalarized before checking"
        )
    if isinstance(stmt, Seq):
        for child in stmt.stmts:
            _check_stmt(child, scope, field_sorts, method_name)
        return
    if isinstance(stmt, If):
        _check_bool_cond(stmt.cond, scope, f"if-condition in {method_name!r}")
        _check_stmt(stmt.then, dict(scope), field_sorts, method_name)
        _check_stmt(stmt.orelse, dict(scope), field_sorts, method_name)
        return
    if isinstance(stmt, While):
        _check_bool_cond(stmt.cond, scope, f"while-condition in {method_name!r}")
        if stmt.invariant is not None:
            _check_bool_cond(stmt.invariant, scope, f"loop invariant in {method_name!r}")
        _check_stmt(stmt.body, dict(scope), field_sorts, method_name)
        return
    raise MonitorCheckError(f"unknown statement node {type(stmt).__name__}")


def _check_bool_cond(expr: Expr, scope: Dict[str, Sort], context: str) -> None:
    _check_sorted(expr, context)
    _check_known_vars(expr, scope, context)
    if sort_of(expr) is not BOOL:
        raise MonitorCheckError(f"{context} is not boolean")


def _check_sorted(expr: Expr, context: str) -> None:
    if _contains_array_select(expr):
        raise MonitorCheckError(f"{context} contains an unscalarized array access")
    try:
        sort_of(expr)
    except SortError as exc:
        raise MonitorCheckError(f"{context} is ill-sorted: {exc}") from exc


def _contains_array_select(expr: Expr) -> bool:
    if isinstance(expr, ArraySelect):
        return True
    return any(_contains_array_select(child) for child in expr.children())


def _check_known_vars(expr: Expr, scope: Dict[str, Sort], context: str) -> None:
    for var in ordered_free_vars(expr):
        declared = scope.get(var.name)
        if declared is None:
            raise MonitorCheckError(f"{context} mentions undeclared variable {var.name!r}")
        if declared is not var.var_sort:
            raise MonitorCheckError(
                f"{context} uses {var.name!r} at sort {var.var_sort.value} "
                f"but it is declared {declared.value}"
            )
