"""May-read / may-write effect summaries for monitor statements and guards.

The lint layer's substrate: a flow-insensitive AST dataflow that computes,
per statement / guard / method, the set of variable names the code may read
and may write.  Field-level projections of these sets drive the
signal-obligation map (every segment that may change a guard's valuation owes
a notification on that condition), the dead-signal/naked-notify smells, and
the static independence pre-filter in
:mod:`repro.analysis.commutativity`.

Array stores are handled both before and after scalarization: a
pre-scalarization ``ArrayAssign`` conservatively writes the array name plus
every declared cell scalar, while Java-style heap stores reuse
:mod:`repro.analysis.alias` — :func:`heap_store_effects` expands
``owner.fld = e`` through the points-to analysis' guarded-store
instrumentation and summarizes the expansion, so alias-induced writes flow
through the same effect walk as everything else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

from repro.logic.free_vars import ordered_free_vars
from repro.logic.terms import Expr
from repro.lang.arrays import cell_name
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
from repro.analysis.alias import PointsToAnalysis, expand_store_with_analysis


@dataclass(frozen=True)
class EffectSummary:
    """May-read / may-write name sets of one piece of code.

    ``summarizable`` is False when the code contains constructs forward
    symbolic execution cannot summarize (loops, unscalarized array stores);
    the commutativity pre-filter refuses to decide such pairs statically so
    its verdicts stay exactly those of the symbolic path.
    """

    reads: FrozenSet[str]
    writes: FrozenSet[str]
    summarizable: bool = True

    @property
    def names(self) -> FrozenSet[str]:
        """Everything the code mentions (reads and writes)."""
        return self.reads | self.writes

    def field_writes(self, fields: FrozenSet[str]) -> FrozenSet[str]:
        return self.writes & fields

    def disjoint_from(self, other: "EffectSummary") -> bool:
        """Neither side writes anything the other mentions."""
        return not (self.writes & other.names) and not (other.writes & self.names)

    def union(self, other: "EffectSummary") -> "EffectSummary":
        return EffectSummary(self.reads | other.reads,
                             self.writes | other.writes,
                             self.summarizable and other.summarizable)


EMPTY_EFFECTS = EffectSummary(frozenset(), frozenset())


def expr_reads(expr: Expr) -> FrozenSet[str]:
    """The variable names an expression may read."""
    return frozenset(var.name for var in ordered_free_vars(expr))


def stmt_effects(stmt: Stmt,
                 array_sizes: Optional[Mapping[str, int]] = None) -> EffectSummary:
    """The may-read/may-write summary of a statement.

    *array_sizes* maps pre-scalarization array field names to their declared
    sizes so an ``ArrayAssign`` can be attributed to every cell scalar it may
    target; without it the write is attributed to the bare array name only.
    """
    reads: set = set()
    writes: set = set()
    summarizable = _collect_effects(stmt, reads, writes, array_sizes or {})
    return EffectSummary(frozenset(reads), frozenset(writes), summarizable)


def _collect_effects(stmt: Stmt, reads: set, writes: set,
                     array_sizes: Mapping[str, int]) -> bool:
    summarizable = True
    if isinstance(stmt, Skip):
        return True
    if isinstance(stmt, Assign):
        writes.add(stmt.target)
        reads.update(expr_reads(stmt.value))
        return True
    if isinstance(stmt, LocalDecl):
        writes.add(stmt.name)
        reads.update(expr_reads(stmt.init))
        return True
    if isinstance(stmt, ArrayAssign):
        writes.add(stmt.array)
        for index in range(array_sizes.get(stmt.array, 0)):
            writes.add(cell_name(stmt.array, index))
        reads.update(expr_reads(stmt.index))
        reads.update(expr_reads(stmt.value))
        return False  # symbolic execution rejects unscalarized stores
    if isinstance(stmt, Seq):
        for child in stmt.stmts:
            summarizable &= _collect_effects(child, reads, writes, array_sizes)
        return summarizable
    if isinstance(stmt, If):
        reads.update(expr_reads(stmt.cond))
        summarizable &= _collect_effects(stmt.then, reads, writes, array_sizes)
        summarizable &= _collect_effects(stmt.orelse, reads, writes, array_sizes)
        return summarizable
    if isinstance(stmt, While):
        reads.update(expr_reads(stmt.cond))
        if stmt.invariant is not None:
            reads.update(expr_reads(stmt.invariant))
        _collect_effects(stmt.body, reads, writes, array_sizes)
        return False  # loops defeat forward symbolic execution
    # Unknown statement type: claim nothing, decide nothing statically.
    for child in stmt.children():
        _collect_effects(child, reads, writes, array_sizes)
    return False


def heap_store_effects(owner: str, fld: str, value: Expr,
                       analysis: PointsToAnalysis,
                       candidates: Iterable[str]) -> EffectSummary:
    """The effect footprint of a heap store ``owner.fld = value`` (§6).

    Expands the store through the points-to analysis' guarded-update
    instrumentation (``if (v == xi) xi.f = e`` per may-alias) and summarizes
    the expansion, so every field scalar an alias may reach shows up in the
    write set.
    """
    expanded = expand_store_with_analysis(owner, fld, value, analysis, candidates)
    return stmt_effects(expanded)


# ---------------------------------------------------------------------------
# Monitor-level summaries
# ---------------------------------------------------------------------------


def _monitor_array_sizes(monitor: object) -> Dict[str, int]:
    sizes: Dict[str, int] = {}
    for decl in getattr(monitor, "fields", ()):
        if getattr(decl, "array_size", None) is not None:
            sizes[decl.name] = decl.array_size
    return sizes


def iter_ccrs(monitor: object) -> List[Tuple[object, object]]:
    """``(method, ccr)`` pairs of an implicit :class:`~repro.lang.ast.Monitor`
    or a placed :class:`~repro.placement.target.ExplicitMonitor`."""
    pairs: List[Tuple[object, object]] = []
    for method in getattr(monitor, "methods", ()):
        for ccr in method.ccrs:
            pairs.append((method, ccr))
    return pairs


def monitor_guards(monitor: object) -> List[Expr]:
    """The distinct non-trivial guard predicates, in declaration order."""
    from repro.logic import build

    seen: List[Expr] = []
    for _method, ccr in iter_ccrs(monitor):
        if ccr.guard == build.TRUE:
            continue
        if ccr.guard not in seen:
            seen.append(ccr.guard)
    return seen


def segment_effects(monitor: object) -> Dict[str, EffectSummary]:
    """Per-CCR body summaries, keyed by CCR label."""
    sizes = _monitor_array_sizes(monitor)
    return {ccr.label: stmt_effects(ccr.body, sizes)
            for _method, ccr in iter_ccrs(monitor)}


def method_effects(method: object,
                   array_sizes: Optional[Mapping[str, int]] = None,
                   include_notifications: bool = True) -> EffectSummary:
    """One method's combined effects: guards, bodies, placed notifications.

    Guard and notification-predicate reads are included because the
    independence pre-filter must treat a write that flips another method's
    guard (or notification condition) as an interaction.
    """
    summary = EMPTY_EFFECTS
    for ccr in method.ccrs:
        summary = summary.union(stmt_effects(ccr.body, array_sizes))
        summary = summary.union(EffectSummary(expr_reads(ccr.guard), frozenset()))
        if include_notifications:
            for notification in getattr(ccr, "notifications", ()):
                summary = summary.union(
                    EffectSummary(expr_reads(notification.predicate), frozenset()))
    return summary


def obligation_map(monitor: object,
                   effects: Optional[Dict[str, EffectSummary]] = None
                   ) -> Dict[str, Tuple[Expr, ...]]:
    """The signal-obligation map: which guards each segment may enable.

    For every CCR *w* and every non-trivial guard *g*, *w* owes a
    notification obligation on *g* when its body may write a shared field *g*
    reads — the purely syntactic over-approximation of "executing *w* can
    wake a thread blocked on *g*".  The placement cross-check discharges each
    obligation either by a covering placed notification or by the same
    can-enable Hoare triple Algorithm 1 used to omit one.
    """
    fields = frozenset(decl.name for decl in getattr(monitor, "fields", ()))
    if effects is None:
        effects = segment_effects(monitor)
    obligations: Dict[str, Tuple[Expr, ...]] = {}
    for _method, ccr in iter_ccrs(monitor):
        owed = tuple(
            guard for guard in monitor_guards(monitor)
            if effects[ccr.label].field_writes(fields) & expr_reads(guard)
        )
        obligations[ccr.label] = owed
    return obligations
