"""Abstract syntax for implicit-signal monitors.

Expressions inside the AST are :mod:`repro.logic` terms; the statement layer
defined here is exactly the statement language of the paper's Figure 3 plus
fixed-size array assignment (which :mod:`repro.lang.arrays` removes before
analysis).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.logic import build
from repro.logic.terms import BOOL, Expr, INT, Sort


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Stmt:
    """Base class for statements."""

    def children(self) -> Tuple["Stmt", ...]:
        return ()


@dataclass(frozen=True)
class Skip(Stmt):
    """The no-op statement."""


@dataclass(frozen=True)
class Assign(Stmt):
    """``target = value`` where *target* is a field, parameter, or local."""

    target: str
    value: Expr


@dataclass(frozen=True)
class ArrayAssign(Stmt):
    """``array[index] = value`` on a fixed-size array field (pre-scalarization)."""

    array: str
    index: Expr
    value: Expr


@dataclass(frozen=True)
class LocalDecl(Stmt):
    """Declaration of a method-local variable with an initializer."""

    name: str
    sort: Sort
    init: Expr


@dataclass(frozen=True)
class Seq(Stmt):
    """Sequential composition of two or more statements."""

    stmts: Tuple[Stmt, ...]

    def children(self) -> Tuple[Stmt, ...]:
        return self.stmts


@dataclass(frozen=True)
class If(Stmt):
    """Conditional statement with an optional else branch (``Skip`` if absent)."""

    cond: Expr
    then: Stmt
    orelse: Stmt

    def children(self) -> Tuple[Stmt, ...]:
        return (self.then, self.orelse)


@dataclass(frozen=True)
class While(Stmt):
    """Loop with an optional user-supplied invariant annotation.

    The invariant is only used to strengthen the (otherwise havoc-based)
    weakest-precondition treatment of loops; omitting it is always sound.
    """

    cond: Expr
    body: Stmt
    invariant: Optional[Expr] = None

    def children(self) -> Tuple[Stmt, ...]:
        return (self.body,)


def seq(*stmts: Stmt) -> Stmt:
    """Build a right-flattened sequence, dropping ``Skip`` components."""
    flat: List[Stmt] = []
    for stmt in stmts:
        if isinstance(stmt, Skip):
            continue
        if isinstance(stmt, Seq):
            flat.extend(stmt.stmts)
        else:
            flat.append(stmt)
    if not flat:
        return Skip()
    if len(flat) == 1:
        return flat[0]
    return Seq(tuple(flat))


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FieldDecl:
    """A shared monitor field.

    ``unsigned`` fields carry an implicit non-negativity hint that the
    invariant-inference engine may add to its candidate pool; it is *not*
    assumed without proof.  ``array_size`` is set for fixed-size arrays
    before scalarization.
    """

    name: str
    sort: Sort
    init: Expr
    unsigned: bool = False
    array_size: Optional[int] = None

    @property
    def is_array(self) -> bool:
        return self.array_size is not None


@dataclass(frozen=True)
class Param:
    """A method parameter (thread-local by definition, §3.1)."""

    name: str
    sort: Sort


@dataclass(frozen=True)
class CCR:
    """A conditional critical region ``waituntil (guard) { body }``."""

    guard: Expr
    body: Stmt
    #: Stable identifier "<method>#<index>" assigned by the parser.
    label: str = ""

    def is_trivial(self) -> bool:
        """True when the guard is literally ``true`` (a plain statement)."""
        return self.guard == build.TRUE


@dataclass(frozen=True)
class MethodDecl:
    """An ``atomic`` monitor method: a parameter list plus a CCR sequence."""

    name: str
    params: Tuple[Param, ...]
    ccrs: Tuple[CCR, ...]

    def param_names(self) -> Tuple[str, ...]:
        return tuple(param.name for param in self.params)


@dataclass(frozen=True)
class Monitor:
    """An implicit-signal monitor: fields, named constants, and atomic methods."""

    name: str
    fields: Tuple[FieldDecl, ...]
    methods: Tuple[MethodDecl, ...]
    constants: Tuple[Tuple[str, int], ...] = ()

    # -- lookup helpers -----------------------------------------------------

    def field(self, name: str) -> FieldDecl:
        for decl in self.fields:
            if decl.name == name:
                return decl
        raise KeyError(name)

    def field_names(self) -> Tuple[str, ...]:
        return tuple(decl.name for decl in self.fields)

    def method(self, name: str) -> MethodDecl:
        for decl in self.methods:
            if decl.name == name:
                return decl
        raise KeyError(name)

    def ccrs(self) -> Tuple[Tuple[MethodDecl, CCR], ...]:
        """All conditional critical regions with their enclosing methods (CCRs(M))."""
        result = []
        for method in self.methods:
            for ccr in method.ccrs:
                result.append((method, ccr))
        return tuple(result)

    def ccr_by_label(self, label: str) -> Tuple[MethodDecl, CCR]:
        """The CCR carrying the parser-assigned *label*, with its method."""
        for method, ccr in self.ccrs():
            if ccr.label == label:
                return method, ccr
        raise KeyError(label)

    def guards(self) -> Tuple[Expr, ...]:
        """The distinct non-trivial guard predicates of the monitor (Guards(M))."""
        seen: List[Expr] = []
        for _method, ccr in self.ccrs():
            if ccr.is_trivial():
                continue
            if ccr.guard not in seen:
                seen.append(ccr.guard)
        return tuple(seen)

    def constructor(self) -> Stmt:
        """The implicit constructor Ctr(M): initialize every scalar field."""
        assigns: List[Stmt] = []
        for decl in self.fields:
            if decl.is_array:
                continue
            assigns.append(Assign(decl.name, decl.init))
        return seq(*assigns)

    def thread_local_names(self, method: MethodDecl) -> frozenset:
        """Parameter and local-variable names of *method* (thread-local, §3.1/§4.2)."""
        from repro.lang.effects import stmt_effects  # effects builds on this module

        names = set(method.param_names())
        for ccr in method.ccrs:
            for name in stmt_effects(ccr.body).writes:
                if name not in self.field_names():
                    names.add(name)
        return frozenset(names)
