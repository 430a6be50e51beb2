"""Monitor-level effect summaries for the lint layer.

The lint layer's substrate.  Statement and expression effects come from the
one effect walker, :func:`repro.lang.effects.stmt_effects`; this module
lifts them to segments, methods and whole monitors.  Field-level projections
of the summaries drive the signal-obligation map (every segment that may
change a guard's valuation owes a notification on that condition), the
dead-signal/naked-notify smells, and the static independence pre-filter in
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

from typing import TYPE_CHECKING, Dict, Iterable, Optional, Tuple

from repro.logic.terms import Expr
from repro.lang.effects import (
    EMPTY_EFFECTS,
    EffectSummary,
    expr_reads,
    guarded_effects,
    stmt_effects,
)
from repro.analysis.alias import PointsToAnalysis, expand_store_with_analysis

if TYPE_CHECKING:  # the placement package imports this one
    from repro.placement.target import ExplicitMethod, ExplicitMonitor


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


def segment_effects(monitor: ExplicitMonitor) -> Dict[str, EffectSummary]:
    """Per-CCR body summaries, keyed by CCR label."""
    sizes = {decl.name: decl.array_size for decl in monitor.fields
             if decl.array_size is not None}
    return {ccr.label: stmt_effects(ccr.body, sizes) for _method, ccr in monitor.ccrs()}


def method_effects(method: ExplicitMethod) -> EffectSummary:
    """One method's combined effects: guards, bodies, placed notifications.

    Guard and notification-predicate reads are included because the
    independence pre-filter must treat a write that flips another method's
    guard (or notification condition) as an interaction.
    """
    summary = EMPTY_EFFECTS
    for ccr in method.ccrs:
        summary = summary.union(guarded_effects(
            ccr.guard, ccr.body, (n.predicate for n in ccr.notifications)))
    return summary


def obligation_map(monitor: ExplicitMonitor,
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
    fields = frozenset(decl.name for decl in monitor.fields)
    if effects is None:
        effects = segment_effects(monitor)
    obligations: Dict[str, Tuple[Expr, ...]] = {}
    for _method, ccr in monitor.ccrs():
        owed = tuple(
            guard for guard in monitor.guards()
            if effects[ccr.label].field_writes(fields) & expr_reads(guard)
        )
        obligations[ccr.label] = owed
    return obligations
