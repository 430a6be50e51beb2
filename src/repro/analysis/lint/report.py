"""Lint findings and reports.

A finding is one check firing at one site; a report is the ordered
collection for one monitor.  Severities split into:

* ``error`` — a placement-soundness alarm (``missing-signal``) or a monitor
  that can never make progress (``dead-guard``); CI fails on these.
* ``advisory`` — concurrency smells worth a look (``dead-signal``,
  ``naked-notify``, ``unused-field``, ``unreachable-method``,
  ``wait-in-non-loop``); reported, never fatal.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.record import record

ERROR = "error"
ADVISORY = "advisory"

#: Check name -> severity; the registry the CLI documents.
CHECKS: Dict[str, str] = {
    "missing-signal": ERROR,
    "dead-guard": ERROR,
    "dead-signal": ADVISORY,
    "naked-notify": ADVISORY,
    "unused-field": ADVISORY,
    "unreachable-method": ADVISORY,
    "wait-in-non-loop": ADVISORY,
}


@record(frozen=True)
class LintFinding:
    """One check firing at one site."""

    check: str
    severity: str
    message: str
    ccr_label: Optional[str] = None
    method: Optional[str] = None
    predicate: Optional[str] = None

    @property
    def is_error(self) -> bool:
        return self.severity == ERROR

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "check": self.check,
            "severity": self.severity,
            "message": self.message,
        }
        if self.ccr_label is not None:
            payload["ccr"] = self.ccr_label
        if self.method is not None:
            payload["method"] = self.method
        if self.predicate is not None:
            payload["predicate"] = self.predicate
        return payload


@record(frozen=True)
class LintReport:
    """All findings for one monitor, in deterministic check/site order."""

    monitor: str
    findings: Tuple[LintFinding, ...] = ()
    #: Optional per-monitor analysis statistics (the CLI attaches the
    #: compile's ``commute_static_skips`` pre-filter effect and the lint
    #: phase's wall time so the CI lint-report artifact carries both).
    stats: Optional[Dict[str, Any]] = None

    @property
    def errors(self) -> Tuple[LintFinding, ...]:
        return tuple(f for f in self.findings if f.is_error)

    @property
    def advisories(self) -> Tuple[LintFinding, ...]:
        return tuple(f for f in self.findings if not f.is_error)

    @property
    def ok(self) -> bool:
        """No *error*-severity findings (advisories allowed)."""
        return not self.errors

    @property
    def clean(self) -> bool:
        """No findings at all."""
        return not self.findings

    def counts(self) -> Dict[str, int]:
        tally: Dict[str, int] = {}
        for finding in self.findings:
            tally[finding.check] = tally.get(finding.check, 0) + 1
        return dict(sorted(tally.items()))

    def to_dict(self) -> Dict[str, Any]:
        payload = {
            "monitor": self.monitor,
            "ok": self.ok,
            "clean": self.clean,
            "errors": len(self.errors),
            "advisories": len(self.advisories),
            "counts": self.counts(),
            "findings": [finding.to_dict() for finding in self.findings],
        }
        if self.stats is not None:
            payload["stats"] = dict(self.stats)
        return payload

    def render(self) -> str:
        """A human-readable block (used by ``expresso lint``)."""
        if self.clean:
            return f"{self.monitor}: clean"
        lines: List[str] = [f"{self.monitor}: {len(self.errors)} error(s), "
                            f"{len(self.advisories)} advisory(ies)"]
        for finding in self.findings:
            site = finding.ccr_label or finding.method or "-"
            lines.append(f"  [{finding.severity}] {finding.check} @ {site}: "
                         f"{finding.message}")
        return "\n".join(lines)


def merge_reports(reports: List[LintReport]) -> Dict[str, Any]:
    """A suite-level JSON document (``expresso lint --suite --json``)."""
    document = {
        "ok": all(report.ok for report in reports),
        "clean": all(report.clean for report in reports),
        "monitors": len(reports),
        "errors": sum(len(report.errors) for report in reports),
        "advisories": sum(len(report.advisories) for report in reports),
        "reports": [report.to_dict() for report in reports],
    }
    if any(report.stats for report in reports):
        document["commute_static_skips"] = sum(
            int((report.stats or {}).get("commute_static_skips", 0))
            for report in reports)
        document["lint_seconds"] = round(sum(
            float((report.stats or {}).get("lint_seconds", 0.0))
            for report in reports), 6)
    return document
