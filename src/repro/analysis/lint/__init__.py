"""``expresso lint`` — a static monitor analyzer.

A cheap dataflow layer that audits the expensive symbolic one: per-segment
may-read/may-write sets yield a signal-obligation map, the obligation map is
diffed against the SMT-derived placement (``missing-signal`` /
``dead-signal``), a handful of concurrency smells are flagged on generated
and fuzzed monitors, and the same read/write sets pre-filter the SMT
independence queries in :mod:`repro.analysis.commutativity`.

The names below are imported from their submodules on first use
(:func:`repro.lazy_exports`), so reading a :class:`LintReport` loads no
check.
"""

from repro import lazy_exports
from repro.lang.effects import EffectSummary, expr_reads, stmt_effects

__getattr__ = lazy_exports(__name__, {
    "checks": "can_enable check_coop_waits check_dead_guards check_dead_signals "
              "check_missing_signals check_naked_notifies "
              "check_unreachable_methods check_unused_fields lint_explicit "
              "lint_result",
    "dataflow": "heap_store_effects method_effects obligation_map segment_effects",
    "report": "ADVISORY CHECKS ERROR LintFinding LintReport merge_reports"})

__all__ = [
    "ADVISORY",
    "CHECKS",
    "ERROR",
    "EffectSummary",
    "LintFinding",
    "LintReport",
    "can_enable",
    "check_coop_waits",
    "check_dead_guards",
    "check_dead_signals",
    "check_missing_signals",
    "check_naked_notifies",
    "check_unreachable_methods",
    "check_unused_fields",
    "expr_reads",
    "heap_store_effects",
    "lint_explicit",
    "lint_result",
    "merge_reports",
    "method_effects",
    "obligation_map",
    "segment_effects",
    "stmt_effects",
]
