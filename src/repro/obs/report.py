"""Self-contained run reports: markdown + HTML + an OpenMetrics textfile.

``expresso report`` folds whatever artifacts a run left behind — a shared
campaign store (``--store``), ``expresso profile --json`` output
(``--profile``), and any number of Chrome-trace recordings (``--trace``) —
into one report model, rendered three ways:

* ``report.md`` — the markdown summary (phase timings, hot SMT queries,
  unit/worker status, coverage axes, findings, fault/degradation counters);
* ``report.html`` — a dependency-free, inline-styled HTML page (the
  nightly-CI artifact a human actually opens);
* ``metrics.prom`` — every counter as an OpenMetrics/Prometheus textfile
  (node-exporter textfile-collector compatible), so a scrape target can
  export campaign progress without parsing JSON.

``report.md`` and ``report.html`` are two emitters over one list of blocks
(:func:`_blocks`), so they carry the same sections in the same order.

All three are written atomically (:func:`repro.resilience.atomic.
atomic_write_text`): a report generated *while* a campaign is running never
leaves a torn file next to the campaign's own artifacts.
"""

from __future__ import annotations

import html as _html
import re
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro.resilience.atomic import atomic_write_text

#: Counter-name fragments surfaced in the "faults & degradation" section.
_FAULT_FRAGMENTS = ("fault", "degrad", "timeout", "unknown", "quarantined",
                    "expired", "stolen", "failed")


def build_report(snapshot: Optional[Dict[str, Any]] = None,
                 profile: Optional[Dict[str, Any]] = None,
                 traces: Optional[Sequence[Dict[str, Any]]] = None,
                 trace_labels: Optional[Sequence[str]] = None,
                 title: str = "expresso run report") -> Dict[str, Any]:
    """Fold the run's artifacts into one deterministic report model.

    *snapshot* is a :func:`repro.obs.console.store_snapshot`, *profile* a
    parsed ``expresso profile --json`` document, *traces* parsed
    Chrome-trace documents.  Every input is optional; sections without
    data are simply absent.
    """
    metrics: Dict[str, int] = {}
    for source in ([(snapshot or {}).get("counters") or {}]
                   + [((trace or {}).get("otherData") or {}).get("metrics")
                      or {} for trace in (traces or ())]
                   + [(profile or {}).get("metrics") or {}]):
        for name in sorted(source):
            metrics[name] = max(metrics.get(name, 0), int(source[name]))

    model: Dict[str, Any] = {"title": title, "metrics": metrics}
    if snapshot is not None:
        model["store"] = {
            "path": snapshot["store"],
            "units": snapshot["units"],
            "workers": snapshot["workers"],
            "coverage": snapshot["coverage"],
            "corpus_entries": snapshot["corpus_entries"],
            "checkpoint": snapshot["checkpoint"],
            "warnings": list(snapshot["warnings"]),
        }
    if profile is not None:
        model["phases"] = {name: dict(agg) for name, agg in
                           sorted((profile.get("phases") or {}).items())}
        model["hot_queries"] = list(profile.get("top") or ())
        model["solver"] = {
            "queries": profile.get("queries"),
            "solver_seconds": profile.get("solver_seconds"),
            "wall_seconds": profile.get("wall_seconds"),
        }
    if traces:
        labels = list(trace_labels or
                      [f"trace {index}" for index in range(len(traces))])
        spans: Dict[str, int] = {}
        for trace in traces:
            for event in trace.get("traceEvents") or ():
                if event.get("ph") == "B":
                    name = str(event.get("name"))
                    spans[name] = spans.get(name, 0) + 1
        model["traces"] = {
            "sources": labels,
            "events": sum(len(trace.get("traceEvents") or ())
                          for trace in traces),
            "spans": {name: spans[name] for name in sorted(spans)},
        }
    model["faults"] = {
        name: value for name, value in sorted(metrics.items())
        if any(fragment in name for fragment in _FAULT_FRAGMENTS) and value}
    return model


# ---------------------------------------------------------------------------
# markdown and HTML, both from one block walk
# ---------------------------------------------------------------------------


def _blocks(model: Dict[str, Any]) -> List[tuple]:
    """The report in reading order: ``("heading", level, text)``,
    ``("paragraph", text)``, ``("warnings", texts)`` and ``("table", headers,
    rows)`` blocks.  Heading and paragraph text is markdown."""
    blocks: List[tuple] = [("heading", 1, model["title"])]
    store = model.get("store")
    if store:
        units = store["units"]
        blocks += [("heading", 2, f"Campaign store — `{store['path']}`"),
                   ("paragraph",
                    f"Units: **{units['done']}/{units['total']} done** — "
                    f"{units['pending']} pending, {units['leased']} leased, "
                    f"{units['quarantined']} quarantined.  Corpus "
                    f"{store['corpus_entries']} entries; coverage "
                    f"{store['coverage']['features']} features over "
                    f"{len(store['coverage']['axes'])} axes.")]
        if store["checkpoint"]:
            ckpt = store["checkpoint"]
            blocks.append(("paragraph",
                           f"Checkpoint: round {ckpt['round_index']}, "
                           f"{ckpt['schedules_run']} schedules, "
                           f"{ckpt['findings']} finding(s)."))
        if store["workers"]:
            blocks.append(("table", ("worker", "role", "health",
                                     "heartbeat age", "claims", "completed"),
                           [(name, entry["role"], entry["health"],
                             entry["heartbeat_age"], entry.get("claims", 0),
                             entry.get("completed", 0))
                            for name, entry in store["workers"].items()]))
        if store["warnings"]:
            blocks.append(("warnings", store["warnings"]))
        if store["coverage"]["axes"]:
            blocks += [("heading", 3, "Coverage axes"),
                       ("table", ("axis", "features"),
                        sorted(store["coverage"]["axes"].items()))]
    phases = model.get("phases")
    if phases:
        blocks += [("heading", 2, "Phase timings"),
                   ("table", ("phase", "count", "seconds", "self seconds"),
                    [(name, agg["count"], f"{agg['seconds']:.3f}",
                      f"{agg['self_seconds']:.3f}")
                     for name, agg in sorted(
                         phases.items(),
                         key=lambda item: -item[1]["seconds"])])]
    hot = model.get("hot_queries")
    if hot:
        blocks += [("heading", 2, "Hot SMT queries"),
                   ("table", ("formula", "queries", "seconds", "phase"),
                    [(entry.get("fingerprint", "?")[:12],
                      entry.get("count", entry.get("queries", "?")),
                      f"{entry.get('seconds', 0.0):.4f}",
                      entry.get("phase", entry.get("caller", "")))
                     for entry in hot])]
    traces = model.get("traces")
    if traces:
        blocks += [("heading", 2, "Traces"),
                   ("paragraph", f"{traces['events']} events from "
                    f"{len(traces['sources'])} recording(s): "
                    + ", ".join(f"`{source}`" for source in traces["sources"]))]
    for title, key in (("Faults & degradation", "faults"),
                       ("Counters", "metrics")):
        if model.get(key):
            blocks += [("heading", 2, title),
                       ("table", ("counter", "value"),
                        sorted(model[key].items()))]
    return blocks


def render_markdown(model: Dict[str, Any]) -> str:
    lines: List[str] = []
    for kind, *data in _blocks(model):
        if kind == "heading":
            lines.append("#" * data[0] + " " + data[1])
        elif kind == "paragraph":
            lines.append(data[0])
        elif kind == "warnings":
            lines += [f"> **Warning:** {warning}" for warning in data[0]]
        else:
            headers, rows = data
            lines += ["| " + " | ".join(str(cell) for cell in row) + " |"
                      for row in (headers, ["---"] * len(headers), *rows)]
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


_CSS = (
    "body{font-family:system-ui,sans-serif;margin:2rem auto;max-width:60rem;"
    "color:#1a202c}h1{border-bottom:2px solid #2b6cb0}h2{color:#2b6cb0}"
    "table{border-collapse:collapse;margin:1rem 0}"
    "td,th{border:1px solid #cbd5e0;padding:.3rem .7rem;text-align:left}"
    "th{background:#ebf4ff}.warn{background:#fffbea;border-left:4px solid "
    "#d69e2e;padding:.5rem .8rem;margin:.5rem 0}"
    ".health-live{color:#2f855a;font-weight:600}"
    ".health-expired{color:#b7791f;font-weight:600}"
    ".health-dead{color:#c53030;font-weight:600}"
)


def _inline(text: str) -> str:
    """Escape markdown *text*, its bold and code spans turned into tags."""
    text = re.sub(r"\*\*(.+?)\*\*", r"<b>\1</b>", _html.escape(text))
    return re.sub(r"`([^`]*)`", r"<code>\1</code>", text)


def render_html(model: Dict[str, Any]) -> str:
    """The blocks of :func:`render_markdown` as one self-contained page."""
    body: List[str] = []
    for kind, *data in _blocks(model):
        if kind == "heading":
            body.append(f"<h{data[0]}>{_inline(data[1])}</h{data[0]}>")
        elif kind == "paragraph":
            body.append(f"<p>{_inline(data[0])}</p>")
        elif kind == "warnings":
            body += [f'<div class="warn">{_html.escape(warning)}</div>'
                     for warning in data[0]]
        else:
            headers, rows = data
            body += ["<table>", "<tr>" + "".join(
                f"<th>{_html.escape(header)}</th>" for header in headers)
                + "</tr>"]
            for row in rows:
                cells = [_html.escape(str(cell)) for cell in row]
                body.append("<tr>" + "".join(
                    f'<td class="health-{cell}">{cell}</td>'
                    if cell in ("live", "expired", "dead")
                    else f"<td>{cell}</td>" for cell in cells) + "</tr>")
            body.append("</table>")
    title = _html.escape(model["title"])
    return ("<!doctype html>\n<html><head><meta charset=\"utf-8\">"
            f"<title>{title}</title><style>{_CSS}</style></head>\n<body>\n"
            + "\n".join(body) + "\n</body></html>\n")


# ---------------------------------------------------------------------------
# OpenMetrics / Prometheus textfile exporter
# ---------------------------------------------------------------------------


def _metric_name(name: str) -> str:
    return "expresso_" + re.sub(r"[^a-zA-Z0-9_]", "_", name)


def render_openmetrics(counters: Dict[str, int],
                       gauges: Optional[Dict[str, float]] = None) -> str:
    """Counters/gauges as an OpenMetrics textfile (``# EOF``-terminated)."""
    lines: List[str] = []
    for name in sorted(counters):
        metric = _metric_name(name)
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {int(counters[name])}")
    for name in sorted(gauges or {}):
        metric = _metric_name(name)
        lines.append(f"# TYPE {metric} gauge")
        value = gauges[name]
        lines.append(f"{metric} {value if value is not None else 0}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def snapshot_gauges(snapshot: Dict[str, Any]) -> Dict[str, float]:
    """The store-status gauges exported next to the counters."""
    units = snapshot["units"]
    healths = [entry["health"] for entry in snapshot["workers"].values()]
    gauges = {f"units.{state}": float(units[state])
              for state in ("pending", "leased", "done", "quarantined")}
    gauges["coverage.features"] = float(snapshot["coverage"]["features"])
    gauges["corpus.entries"] = float(snapshot["corpus_entries"])
    for kind in ("live", "expired", "dead"):
        gauges[f"workers.{kind}"] = float(healths.count(kind))
    return gauges


# ---------------------------------------------------------------------------
# writing (atomic: never a torn report next to live campaign artifacts)
# ---------------------------------------------------------------------------


def write_report(out_dir, model: Dict[str, Any],
                 gauges: Optional[Dict[str, float]] = None) -> Dict[str, str]:
    """Write ``report.md``/``report.html``/``metrics.prom`` under *out_dir*.

    Returns the paths written.  Every file goes through
    :func:`~repro.resilience.atomic.atomic_write_text` (tmp + fsync +
    rename).
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "markdown": out / "report.md",
        "html": out / "report.html",
        "openmetrics": out / "metrics.prom",
    }
    atomic_write_text(paths["markdown"], render_markdown(model))
    atomic_write_text(paths["html"], render_html(model))
    atomic_write_text(paths["openmetrics"],
                      render_openmetrics(model.get("metrics") or {}, gauges))
    return {kind: str(path) for kind, path in paths.items()}
