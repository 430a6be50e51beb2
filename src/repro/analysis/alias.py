"""A flow-insensitive may-alias analysis standing in for the paper's use of Doop.

Expresso discharges Hoare triples over Java code that may contain heap
stores ``v.f = e``; to model them soundly it queries Doop's points-to
results and expands each store into guarded updates ``if (v == xi) xi.f = e``
for every potential alias ``xi`` of ``v`` (paper §6, "Discharging Hoare
triples").

The monitor DSL of this reproduction has no references, so the heap substrate
is provided as a standalone component: a small pointer-assignment IR, a
classic Andersen-style (inclusion-based, field-sensitive) points-to analysis
over it, and the guarded store expansion that turns a heap store into the
scalar conditional assignments the wp calculus understands.  Its tests mirror
the paper's motivating scenario: proving triples about ``x.f`` in the
presence of potential aliasing between ``x`` and ``y``.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Mapping, Set, Tuple

from repro.logic import build
from repro.logic.terms import Expr, INT, Sort, Var
from repro.lang.ast import Assign, If, Skip, Stmt, seq
from repro.record import record


# ---------------------------------------------------------------------------
# Pointer-assignment IR
# ---------------------------------------------------------------------------


@record(frozen=True)
class Alloc:
    """``target = new Obj()`` — *site* is a unique allocation-site label."""

    target: str
    site: str


@record(frozen=True)
class Copy:
    """``target = source`` between reference variables."""

    target: str
    source: str


@record(frozen=True)
class FieldWrite:
    """``target.field = source`` (source is a reference variable)."""

    target: str
    fld: str
    source: str


@record(frozen=True)
class FieldRead:
    """``target = source.field``."""

    target: str
    source: str
    fld: str


PointerStatement = object  # Alloc | Copy | FieldWrite | FieldRead


class PointsToAnalysis:
    """Inclusion-based (Andersen) points-to analysis, field sensitive.

    The analysis iterates the usual four inference rules to a fixed point:

    * ``x = new o``       adds ``o`` to pts(x);
    * ``x = y``           pts(x) ⊇ pts(y);
    * ``x.f = y``         for every o ∈ pts(x): pts(o.f) ⊇ pts(y);
    * ``x = y.f``         for every o ∈ pts(y): pts(x) ⊇ pts(o.f).
    """

    def __init__(self, statements: Iterable[PointerStatement]):
        self._statements: Tuple[PointerStatement, ...] = tuple(statements)
        self._var_points_to: Dict[str, Set[str]] = {}
        self._field_points_to: Dict[Tuple[str, str], Set[str]] = {}
        self._solved = False

    # -- solving ------------------------------------------------------------

    def solve(self) -> "PointsToAnalysis":
        """Run the fixed-point computation (idempotent)."""
        if self._solved:
            return self
        changed = True
        while changed:
            changed = False
            for stmt in self._statements:
                if isinstance(stmt, Alloc):
                    changed |= self._add_var(stmt.target, {stmt.site})
                elif isinstance(stmt, Copy):
                    changed |= self._add_var(stmt.target, self.points_to(stmt.source))
                elif isinstance(stmt, FieldWrite):
                    for obj in self.points_to(stmt.target):
                        changed |= self._add_field(obj, stmt.fld, self.points_to(stmt.source))
                elif isinstance(stmt, FieldRead):
                    gathered: Set[str] = set()
                    for obj in self.points_to(stmt.source):
                        gathered |= self._field_points_to.get((obj, stmt.fld), set())
                    changed |= self._add_var(stmt.target, gathered)
                else:
                    raise TypeError(f"unknown pointer statement {type(stmt).__name__}")
        self._solved = True
        return self

    def _add_var(self, name: str, objects: Set[str]) -> bool:
        current = self._var_points_to.setdefault(name, set())
        before = len(current)
        current |= objects
        return len(current) != before

    def _add_field(self, obj: str, fld: str, objects: Set[str]) -> bool:
        current = self._field_points_to.setdefault((obj, fld), set())
        before = len(current)
        current |= objects
        return len(current) != before

    # -- queries -------------------------------------------------------------

    def points_to(self, name: str) -> Set[str]:
        """The set of allocation sites *name* may refer to."""
        return set(self._var_points_to.get(name, set()))

    def may_alias(self, first: str, second: str) -> bool:
        """Whether two reference variables may refer to the same object."""
        self.solve()
        return bool(self.points_to(first) & self.points_to(second))

    def alias_set(self, name: str, candidates: Iterable[str]) -> Tuple[str, ...]:
        """The candidates that may alias *name* (always includes *name* itself)."""
        self.solve()
        result = [name]
        for candidate in candidates:
            if candidate != name and self.may_alias(name, candidate):
                result.append(candidate)
        return tuple(result)


# ---------------------------------------------------------------------------
# Guarded store expansion (§6)
# ---------------------------------------------------------------------------


def field_scalar(owner: str, fld: str) -> str:
    """The scalar variable modelling ``owner.fld`` in the wp calculus."""
    return f"{owner}.{fld}"


def expand_store(owner: str, fld: str, value: Expr,
                 may_aliases: Iterable[str] = (),
                 value_sort: Sort = INT) -> Stmt:
    """Expand a heap store ``owner.fld = value`` into guarded scalar updates.

    Object references are modelled as integer-valued identity variables, so
    ``owner == alias`` is an ordinary integer equality the wp calculus and the
    SMT solver already handle.  The expansion is exactly the paper's
    ``if (v == xi) xi.f = e`` instrumentation: the owner's own field scalar is
    updated unconditionally, and every may-alias receives a conditional
    update guarded by reference equality.
    """
    updates: List[Stmt] = [Assign(field_scalar(owner, fld), value)]
    for alias in may_aliases:
        if alias == owner:
            continue
        guard = build.eq(Var(owner, INT), Var(alias, INT))
        updates.append(If(guard, Assign(field_scalar(alias, fld), value), Skip()))
    return seq(*updates)


def expand_store_with_analysis(owner: str, fld: str, value: Expr,
                               analysis: PointsToAnalysis,
                               candidates: Iterable[str],
                               value_sort: Sort = INT) -> Stmt:
    """Convenience wrapper: compute the may-alias set from *analysis* and expand."""
    aliases = analysis.alias_set(owner, candidates)
    return expand_store(owner, fld, value, aliases, value_sort)
