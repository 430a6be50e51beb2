"""The lint checks: placement cross-check plus concurrency smells.

The headline check is ``missing-signal``, the static soundness alarm on the
placement itself.  The obligation side comes from the dataflow: a segment
whose body may write a shared field some guard reads owes a notification on
that guard.  Each owed-but-unplaced obligation is then confirmed with the
*same* Hoare triple Algorithm 1 (line 7) used to omit the notification —
``{I ∧ guard_w ∧ ¬p'} body_w {¬p'}`` with the blocked thread's locals
renamed apart (§4.2) — so on a correct placement every uncovered obligation
is provably un-enabling (zero false positives), while deleting any placed
notification leaves a failing triple behind (zero false negatives: placement
only placed it because this triple failed).  Running inside the pipeline the
triples are byte-identical to placement's, so the formula cache answers them
for free.

The remaining checks are solver-light smells for generated/fuzzed/ingested
monitors: SMT-unsat guards (``dead-guard``), signals whose segment cannot
re-enable their predicate (``dead-signal``), notifications with no prior
state change (``naked-notify``), ``unused-field``, ``unreachable-method``,
and ``wait-in-non-loop`` shapes in emitted cooperative code.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional

from repro import obs
from repro.logic import build
from repro.logic.free_vars import ordered_free_vars
from repro.logic.pretty import pretty
from repro.logic.terms import Expr
from repro.analysis.hoare import HoareTriple, check_triple
from repro.lang.effects import EffectSummary, expr_reads
from repro.analysis.lint.dataflow import obligation_map, segment_effects
from repro.analysis.lint.report import ADVISORY, ERROR, LintFinding, LintReport
from repro.analysis.renaming import rename_thread_locals
from repro.smt.solver import Solver

if TYPE_CHECKING:  # the placement package imports this one
    from repro.placement.pipeline import ExpressoResult
    from repro.placement.target import ExplicitCCR, ExplicitMonitor


def _field_names(monitor: ExplicitMonitor) -> FrozenSet[str]:
    return frozenset(decl.name for decl in monitor.fields)


def _guard_locals(guard: Expr, fields: FrozenSet[str]) -> FrozenSet[str]:
    """Thread-local names free in *guard* (everything that is not a field)."""
    return frozenset(var.name for var in ordered_free_vars(guard)
                     if var.name not in fields)


def _short(predicate: Expr) -> str:
    text = pretty(predicate)
    return text if len(text) <= 48 else text[:45] + "..."


def can_enable(invariant: Expr, ccr: ExplicitCCR, predicate: Expr,
               fields: FrozenSet[str], solver: Solver) -> bool:
    """May executing *ccr* wake a thread blocked on *predicate*?

    Re-checks Algorithm 1's line-7 omission triple
    ``{I ∧ guard ∧ ¬p'} body {¬p'}`` (p' = p with thread-locals renamed
    apart, §4.2): the triple holding means the segment provably cannot
    enable the predicate.  An UNKNOWN verdict (solver budget exhausted)
    answers ``False``: a lint finding is an accusation of omission, and a
    degraded solver cannot sustain one — placement saw the same UNKNOWN and
    kept the notification, so firing ``missing-signal`` here would be a
    false error.  Each suppression is counted as ``degraded.lint``.
    """
    locals_in_p = _guard_locals(predicate, fields)
    other_p = rename_thread_locals(predicate, locals_in_p, "blk")
    pre = build.land(invariant, ccr.guard, build.lnot(other_p))
    no_signal = HoareTriple(pre, ccr.body, build.lnot(other_p),
                            purpose=f"{ccr.label} cannot wake {_short(predicate)}")
    ok = check_triple(no_signal, solver)
    if not ok and solver.consume_unknown() is not None:
        obs.registry().inc("degraded.lint")
        obs.tracer().instant("degraded.lint", cat="smt", ccr=ccr.label)
        return False
    return not ok


def check_missing_signals(explicit: ExplicitMonitor, solver: Solver,
                          effects: Dict[str, EffectSummary]) -> List[LintFinding]:
    """Obligations with no covering placed notification that the SMT
    confirmation cannot discharge."""
    fields = _field_names(explicit)
    invariant = explicit.invariant
    findings: List[LintFinding] = []
    obligations = obligation_map(explicit, effects)
    for method, ccr in explicit.ccrs():
        for predicate in obligations[ccr.label]:
            covered = any(note.predicate == predicate
                          for note in ccr.notifications)
            if covered:
                continue
            if not can_enable(invariant, ccr, predicate, fields, solver):
                continue  # provably cannot wake anyone: omission is sound
            findings.append(LintFinding(
                check="missing-signal", severity=ERROR,
                ccr_label=ccr.label, method=method.name,
                predicate=pretty(predicate),
                message=f"body may enable '{_short(predicate)}' but places no "
                        f"notification on it (threads blocked there can starve)"))
    return findings


def check_dead_signals(explicit: ExplicitMonitor,
                       effects: Dict[str, EffectSummary]) -> List[LintFinding]:
    """Placed notifications whose segment writes nothing their predicate reads."""
    fields = _field_names(explicit)
    findings: List[LintFinding] = []
    for method, ccr in explicit.ccrs():
        summary = effects[ccr.label]
        for note in ccr.notifications:
            predicate_fields = expr_reads(note.predicate) & fields
            if summary.field_writes(fields) & predicate_fields:
                continue
            findings.append(LintFinding(
                check="dead-signal", severity=ADVISORY,
                ccr_label=ccr.label, method=method.name,
                predicate=pretty(note.predicate),
                message=f"notification on '{_short(note.predicate)}' but the "
                        f"body writes none of the fields it reads"))
    return findings


def check_dead_guards(explicit: ExplicitMonitor, solver: Solver) -> List[LintFinding]:
    """Guards no state can ever satisfy (SMT-unsat predicates)."""
    findings: List[LintFinding] = []
    for guard in explicit.guards():
        if solver.check_sat(guard).is_unsat:
            waiters = sorted(ccr.label for _m, ccr in explicit.ccrs()
                             if ccr.guard == guard)
            findings.append(LintFinding(
                check="dead-guard", severity=ERROR,
                ccr_label=waiters[0] if waiters else None,
                predicate=pretty(guard),
                message=f"guard '{_short(guard)}' is unsatisfiable; "
                        f"{', '.join(waiters)} can never run"))
    return findings


def check_naked_notifies(explicit: ExplicitMonitor,
                         effects: Dict[str, EffectSummary]) -> List[LintFinding]:
    """Segments that notify without changing any shared state."""
    fields = _field_names(explicit)
    findings: List[LintFinding] = []
    for method, ccr in explicit.ccrs():
        notes = ccr.notifications
        if not notes:
            continue
        if effects[ccr.label].field_writes(fields):
            continue
        findings.append(LintFinding(
            check="naked-notify", severity=ADVISORY,
            ccr_label=ccr.label, method=method.name,
            message=f"{len(notes)} notification(s) but the body writes no "
                    f"shared field (nothing can have become enabled here)"))
    return findings


def check_unused_fields(explicit: ExplicitMonitor,
                        effects: Dict[str, EffectSummary]) -> List[LintFinding]:
    """Fields no guard, body, or notification predicate ever mentions."""
    mentioned: set = set()
    for _method, ccr in explicit.ccrs():
        mentioned |= effects[ccr.label].names
        mentioned |= expr_reads(ccr.guard)
        for note in ccr.notifications:
            mentioned |= expr_reads(note.predicate)
    findings: List[LintFinding] = []
    for decl in explicit.fields:
        if decl.name in mentioned:
            continue
        findings.append(LintFinding(
            check="unused-field", severity=ADVISORY,
            message=f"field '{decl.name}' is never read or written by any "
                    f"method"))
    return findings


def check_unreachable_methods(explicit: ExplicitMonitor, solver: Solver) -> List[LintFinding]:
    """Methods whose entry guard is unsatisfiable even alone."""
    findings: List[LintFinding] = []
    for method in explicit.methods:
        if not method.ccrs:
            continue
        entry = method.ccrs[0]
        if entry.guard == build.TRUE:
            continue
        if not solver.check_sat(entry.guard).is_unsat:
            continue
        findings.append(LintFinding(
            check="unreachable-method", severity=ADVISORY,
            ccr_label=entry.label, method=method.name,
            message=f"entry guard of '{method.name}' is unsatisfiable; the "
                    f"method can never be entered"))
    return findings


def check_coop_waits(source: str) -> List[LintFinding]:
    """``wait`` yields not directly inside a ``while`` re-check loop.

    Condition-variable discipline requires every wait to sit in a loop that
    re-checks its predicate (spurious wakeups, §6); the coop emission always
    produces that shape, so this check guards hand-edited or foreign
    cooperative monitor code.
    """
    findings: List[LintFinding] = []
    lines = source.splitlines()
    for index, line in enumerate(lines):
        stripped = line.lstrip()
        if not stripped.startswith('yield ("wait"'):
            continue
        indent = len(line) - len(stripped)
        enclosing: Optional[str] = None
        for prior in range(index - 1, -1, -1):
            candidate = lines[prior]
            body = candidate.lstrip()
            if not body:
                continue
            if len(candidate) - len(body) < indent:
                enclosing = body
                break
        if enclosing is not None and enclosing.startswith("while "):
            continue
        findings.append(LintFinding(
            check="wait-in-non-loop", severity=ADVISORY,
            message=f"line {index + 1}: wait yield is not directly inside a "
                    f"'while' guard re-check loop"))
    return findings


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def lint_explicit(explicit: ExplicitMonitor, solver: Optional[Solver] = None,
                  coop_source: Optional[str] = None) -> LintReport:
    """Run every check against a placed monitor.

    *explicit* is a :class:`~repro.placement.target.ExplicitMonitor` (its
    ``invariant`` justifies the can-enable confirmations; mutants produced by
    :meth:`~repro.placement.target.ExplicitMonitor.without_notification`
    carry their parent's).  Pass *coop_source* (the coop emission of
    :func:`~repro.codegen.python_gen.generate_python_explicit`) to include
    the ``wait-in-non-loop`` shape check.
    """
    solver = solver or Solver()
    effects = segment_effects(explicit)
    findings: List[LintFinding] = []
    findings.extend(check_missing_signals(explicit, solver, effects))
    findings.extend(check_dead_guards(explicit, solver))
    findings.extend(check_dead_signals(explicit, effects))
    findings.extend(check_naked_notifies(explicit, effects))
    findings.extend(check_unused_fields(explicit, effects))
    findings.extend(check_unreachable_methods(explicit, solver))
    if coop_source is not None:
        findings.extend(check_coop_waits(coop_source))
    return LintReport(monitor=explicit.name,
                      findings=tuple(findings))


def lint_result(result: ExpressoResult, solver: Optional[Solver] = None) -> LintReport:
    """Lint a pipeline :class:`~repro.placement.pipeline.ExpressoResult`."""
    return lint_explicit(result.explicit, solver=solver)
