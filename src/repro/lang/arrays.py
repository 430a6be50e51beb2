"""Fixed-size array support via compile-time scalarization.

The paper's source language has only scalar fields; several benchmarks
(Dining Philosophers, Round Robin variants) are naturally written with small
fixed-size arrays indexed by a thread-local parameter.  We admit such arrays
in the surface syntax and *scalarize* them before analysis:

* an array field ``int forks[5]`` becomes scalar fields ``forks__0 ..
  forks__4``;
* a read ``forks[e]`` becomes the nested conditional
  ``ite(e == 0, forks__0, ite(e == 1, forks__1, ...))``;
* a write ``forks[e] = v`` becomes one conditional assignment per cell:
  ``forks__k = ite(e == k, v, forks__k)``.

The transformation is semantics-preserving for in-bounds indices; an
out-of-bounds read evaluates to the last cell and an out-of-bounds write is
dropped, mirroring the "monitors do not fail" assumption of the formal model.
The resulting guards contain disjunctions over the concrete indices, which
typically makes the placement algorithm conservative (broadcast) for
array-indexed guards — the same behaviour the paper reports for Dining
Philosophers.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.logic import build
from repro.logic.terms import BoolConst, Expr, INT, IntConst, Sort, Var, node_class, rebuild
from repro.lang.ast import (
    ArrayAssign,
    Assign,
    CCR,
    FieldDecl,
    If,
    LocalDecl,
    MethodDecl,
    Monitor,
    Seq,
    Skip,
    Stmt,
    While,
    seq,
)


@node_class
class ArraySelect(Expr):
    """Placeholder expression ``array[index]`` produced by the parser.

    Scalarization removes every occurrence; the SMT layer never sees it.
    """

    array: str
    index: Expr
    elem_sort: Sort = INT


def cell_name(array: str, index: int) -> str:
    """The scalar field name standing for ``array[index]``."""
    return f"{array}__{index}"


def scalarize_monitor(monitor: Monitor) -> Monitor:
    """Replace array fields, reads, and writes with scalar equivalents."""
    sizes: Dict[str, Tuple[int, Sort, Expr]] = {}
    new_fields: List[FieldDecl] = []
    for decl in monitor.fields:
        if decl.is_array:
            sizes[decl.name] = (decl.array_size, decl.sort, decl.init)
            for index in range(decl.array_size):
                new_fields.append(
                    FieldDecl(cell_name(decl.name, index), decl.sort, decl.init,
                              unsigned=decl.unsigned)
                )
        else:
            new_fields.append(decl)
    if not sizes:
        return monitor

    new_methods = []
    for method in monitor.methods:
        new_ccrs = []
        for ccr in method.ccrs:
            guard = _scalarize_expr(ccr.guard, sizes)
            body = _scalarize_stmt(ccr.body, sizes)
            new_ccrs.append(CCR(guard, body, ccr.label))
        new_methods.append(MethodDecl(method.name, method.params, tuple(new_ccrs)))
    return Monitor(monitor.name, tuple(new_fields), tuple(new_methods), monitor.constants)


def _scalarize_expr(expr: Expr, sizes: Dict[str, Tuple[int, Sort, Expr]]) -> Expr:
    if isinstance(expr, ArraySelect):
        size, elem_sort, _ = sizes[expr.array]
        index = _scalarize_expr(expr.index, sizes)
        if isinstance(index, IntConst):
            clamped = min(max(index.value, 0), size - 1)
            return Var(cell_name(expr.array, clamped), elem_sort)
        result: Expr = Var(cell_name(expr.array, size - 1), elem_sort)
        for cell_index in range(size - 2, -1, -1):
            result = build.ite(build.eq(index, build.i(cell_index)),
                               Var(cell_name(expr.array, cell_index), elem_sort),
                               result)
        return result
    if isinstance(expr, (Var, IntConst, BoolConst)):
        return expr
    children = tuple(_scalarize_expr(child, sizes) for child in expr.children())
    return rebuild(expr, children)


def _scalarize_stmt(stmt: Stmt, sizes: Dict[str, Tuple[int, Sort, Expr]]) -> Stmt:
    if isinstance(stmt, Skip):
        return stmt
    if isinstance(stmt, Assign):
        return Assign(stmt.target, _scalarize_expr(stmt.value, sizes))
    if isinstance(stmt, LocalDecl):
        return LocalDecl(stmt.name, stmt.sort, _scalarize_expr(stmt.init, sizes))
    if isinstance(stmt, ArrayAssign):
        size, elem_sort, _ = sizes[stmt.array]
        index = _scalarize_expr(stmt.index, sizes)
        value = _scalarize_expr(stmt.value, sizes)
        if isinstance(index, IntConst):
            if 0 <= index.value < size:
                return Assign(cell_name(stmt.array, index.value), value)
            return Skip()
        updates: List[Stmt] = []
        for cell_index in range(size):
            cell = Var(cell_name(stmt.array, cell_index), elem_sort)
            updates.append(
                Assign(cell_name(stmt.array, cell_index),
                       build.ite(build.eq(index, build.i(cell_index)), value, cell))
            )
        return seq(*updates)
    if isinstance(stmt, Seq):
        return seq(*[_scalarize_stmt(child, sizes) for child in stmt.stmts])
    if isinstance(stmt, If):
        return If(_scalarize_expr(stmt.cond, sizes),
                  _scalarize_stmt(stmt.then, sizes),
                  _scalarize_stmt(stmt.orelse, sizes))
    if isinstance(stmt, While):
        invariant = _scalarize_expr(stmt.invariant, sizes) if stmt.invariant is not None else None
        return While(_scalarize_expr(stmt.cond, sizes),
                     _scalarize_stmt(stmt.body, sizes), invariant)
    raise TypeError(f"cannot scalarize statement {type(stmt).__name__}")
