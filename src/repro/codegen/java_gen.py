"""Java source emission for explicit-signal monitors (paper §6).

The generated code follows the paper's scheme exactly: a ``ReentrantLock``,
one ``Condition`` per waited-on guard, ``while (!p) c.await();`` wait loops,
``if (p) c.signal()`` for conditional notifications, plain ``c.signal()`` /
``c.signalAll()`` for unconditional ones, and an optional *lazy broadcast*
mode that relays ``if (p) c.signal()`` after every waituntil with guard ``p``
instead of emitting ``signalAll``.

The output is meant for inspection and for golden tests; the executable
evaluation uses the Python generators.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List

from repro.codegen.pyexpr import to_java
from repro.logic import TRUE
from repro.logic.terms import BOOL, Expr
from repro.lang.ast import (
    Assign,
    If,
    LocalDecl,
    Seq,
    Skip,
    Stmt,
    While,
)
from repro.placement.target import ExplicitCCR, ExplicitMonitor, Notification


def _java_type(sort) -> str:
    return "boolean" if sort is BOOL else "int"


def _stmt_to_java(stmt: Stmt, indent: int) -> List[str]:
    pad = "    " * indent
    if isinstance(stmt, Skip):
        return []
    if isinstance(stmt, Assign):
        return [f"{pad}{stmt.target} = {to_java(stmt.value, frozenset())};"]
    if isinstance(stmt, LocalDecl):
        return [f"{pad}{_java_type(stmt.sort)} {stmt.name} = {to_java(stmt.init, frozenset())};"]
    if isinstance(stmt, Seq):
        lines: List[str] = []
        for child in stmt.stmts:
            lines.extend(_stmt_to_java(child, indent))
        return lines
    if isinstance(stmt, If):
        lines = [f"{pad}if ({to_java(stmt.cond, frozenset())}) {{"]
        lines.extend(_stmt_to_java(stmt.then, indent + 1))
        if isinstance(stmt.orelse, Skip):
            lines.append(f"{pad}}}")
        else:
            lines.append(f"{pad}}} else {{")
            lines.extend(_stmt_to_java(stmt.orelse, indent + 1))
            lines.append(f"{pad}}}")
        return lines
    if isinstance(stmt, While):
        lines = [f"{pad}while ({to_java(stmt.cond, frozenset())}) {{"]
        lines.extend(_stmt_to_java(stmt.body, indent + 1))
        lines.append(f"{pad}}}")
        return lines
    raise TypeError(f"cannot translate statement {type(stmt).__name__}")


def _notification_to_java(notification: Notification, cond_name: str,
                          indent: int, lazy_broadcast: bool) -> List[str]:
    pad = "    " * indent
    call = "signalAll" if (notification.broadcast and not lazy_broadcast) else "signal"
    if notification.conditional:
        predicate = to_java(notification.predicate, frozenset())
        return [f"{pad}if ({predicate}) {cond_name}.{call}();"]
    return [f"{pad}{cond_name}.{call}();"]


def _relay_lines(guard: Expr, cond_name: str, indent: int) -> List[str]:
    pad = "    " * indent
    predicate = to_java(guard, frozenset())
    return [f"{pad}if ({predicate}) {cond_name}.signal();  // lazy broadcast relay"]


def generate_java(explicit: ExplicitMonitor, lazy_broadcast: bool = False) -> str:
    """Render an explicit-signal monitor as Java source text."""
    guard_vars: Dict[Expr, str] = dict(explicit.condition_vars)
    broadcast_guards = {
        note.predicate
        for method in explicit.methods for ccr in method.ccrs
        for note in ccr.broadcasts
    } if lazy_broadcast else set()

    lines: List[str] = []
    lines.append("import java.util.concurrent.locks.Condition;")
    lines.append("import java.util.concurrent.locks.ReentrantLock;")
    lines.append("")
    lines.append(f"class {explicit.name} {{")
    for decl in explicit.fields:
        init = to_java(decl.init, frozenset())
        lines.append(f"    {_java_type(decl.sort)} {decl.name} = {init};")
    lines.append("    final ReentrantLock lock = new ReentrantLock();")
    for _guard, cond_name in explicit.condition_vars:
        lines.append(f"    final Condition {cond_name} = lock.newCondition();")
    lines.append("")

    for method in explicit.methods:
        params = ", ".join(f"{_java_type(p.sort)} {p.name}" for p in method.params)
        lines.append(f"    void {method.name}({params}) {{")
        lines.append("        lock.lock();")
        lines.append("        try {")
        for ccr in method.ccrs:
            if ccr.guard != TRUE:
                cond_name = guard_vars[ccr.guard]
                guard_java = to_java(ccr.guard, frozenset())
                lines.append(f"            while (!{guard_java}) {cond_name}.await();")
                if lazy_broadcast and ccr.guard in broadcast_guards:
                    lines.extend(_relay_lines(ccr.guard, cond_name, 3))
            lines.extend(_stmt_to_java(ccr.body, 3))
            for note in ccr.notifications:
                cond_name = guard_vars.get(note.predicate)
                if cond_name is None:
                    continue
                lines.extend(_notification_to_java(note, cond_name, 3, lazy_broadcast))
        lines.append("        } finally {")
        lines.append("            lock.unlock();")
        lines.append("        }")
        lines.append("    }")
        lines.append("")
    lines.append("}")
    return "\n".join(lines) + "\n"
