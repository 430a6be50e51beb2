"""The SMT query profiler: solver time by phase, caller site, formula hash.

When a profiler is active (``repro.obs.observe(profile=True)`` — the
``expresso profile`` command does this), :meth:`repro.smt.solver.Solver
.check_sat` reports every query here with its wall time, cache outcome, and
status.  Queries aggregate by **structural formula hash** (a stable digest
of the expression tree, so "the same VC re-asked across invariant-inference
iterations" lands in one bucket), each bucket remembering which pipeline
phases (the tracer's open-span path) and which **caller sites** issued it.

The output is the top-N hot-query table in the harness report: the direct
answer to "which placement/matrix site burns the suite compile".
"""

from __future__ import annotations

import sys
from hashlib import blake2b
from typing import Dict, List, Optional


def formula_fingerprint(formula: object) -> str:
    """A stable structural digest of an expression tree.

    Expression nodes are frozen dataclasses whose ``repr`` is fully
    structural (no object ids), so hashing the repr is a deterministic
    fingerprint across processes and runs.  Never use ``hash()`` here: a
    node hashes by identity, which differs between runs.
    """
    digest = blake2b(repr(formula).encode("utf-8"), digest_size=6)
    return digest.hexdigest()


#: Module prefixes that never count as a caller site (the solver itself and
#: the observability layer that wraps it).
_INTERNAL_PREFIXES = ("repro.smt", "repro.obs")


def caller_site(depth: int = 2, limit: int = 12) -> str:
    """``module:function`` of the nearest non-solver frame on the stack."""
    frame = sys._getframe(depth)
    for _ in range(limit):
        if frame is None:
            break
        module = frame.f_globals.get("__name__", "")
        if not module.startswith(_INTERNAL_PREFIXES):
            if module.startswith("repro."):
                module = module[len("repro."):]
            return f"{module}:{frame.f_code.co_name}"
        frame = frame.f_back
    return "(unknown)"


class SmtProfiler:
    """Aggregates solver queries by structural formula hash."""

    __slots__ = ("queries", "total_queries", "total_seconds")

    def __init__(self) -> None:
        self.queries: Dict[str, Dict[str, object]] = {}
        self.total_queries = 0
        self.total_seconds = 0.0

    def record(self, formula: object, seconds: float, cached: bool,
               status: str, phase: str, sample: Optional[str] = None) -> None:
        """Report one solver query (called from ``Solver.check_sat``)."""
        fingerprint = formula_fingerprint(formula)
        caller = caller_site(depth=3)
        bucket = self.queries.get(fingerprint)
        if bucket is None:
            bucket = self.queries[fingerprint] = {
                "fingerprint": fingerprint,
                "count": 0,
                "seconds": 0.0,
                "cached": 0,
                "status": status,
                "phases": {},
                "callers": {},
                "sample": sample if sample is not None else _render(formula),
            }
        bucket["count"] = int(bucket["count"]) + 1
        bucket["seconds"] = float(bucket["seconds"]) + seconds
        if cached:
            bucket["cached"] = int(bucket["cached"]) + 1
        phases: Dict[str, int] = bucket["phases"]  # type: ignore[assignment]
        phases[phase or "(untracked)"] = phases.get(phase or "(untracked)", 0) + 1
        callers: Dict[str, int] = bucket["callers"]  # type: ignore[assignment]
        callers[caller] = callers.get(caller, 0) + 1
        self.total_queries += 1
        self.total_seconds += seconds

    # -- reporting -----------------------------------------------------------

    def top(self, limit: int = 10) -> List[Dict[str, object]]:
        """The hottest query buckets by total solver seconds."""
        rows = sorted(
            self.queries.values(),
            key=lambda bucket: (-float(bucket["seconds"]),
                                str(bucket["fingerprint"])),
        )
        out: List[Dict[str, object]] = []
        for bucket in rows[:limit]:
            phases = bucket["phases"]
            callers = bucket["callers"]
            out.append({
                "fingerprint": bucket["fingerprint"],
                "count": bucket["count"],
                "seconds": round(float(bucket["seconds"]), 6),
                "cached": bucket["cached"],
                "status": bucket["status"],
                "phase": _dominant(phases),        # type: ignore[arg-type]
                "caller": _dominant(callers),      # type: ignore[arg-type]
                "sample": bucket["sample"],
            })
        return out

    def by_caller(self) -> Dict[str, Dict[str, float]]:
        """Total seconds and query count per caller site."""
        out: Dict[str, Dict[str, float]] = {}
        for bucket in self.queries.values():
            seconds = float(bucket["seconds"]) / max(int(bucket["count"]), 1)
            for caller, count in bucket["callers"].items():  # type: ignore[union-attr]
                agg = out.setdefault(caller, {"count": 0, "seconds": 0.0})
                agg["count"] += count
                agg["seconds"] += seconds * count
        return out


def _dominant(votes: Dict[str, int]) -> str:
    """The most frequent key (ties broken lexicographically)."""
    if not votes:
        return "(unknown)"
    return min(votes, key=lambda key: (-votes[key], key))


def _render(formula: object, limit: int = 64) -> str:
    try:
        from repro.logic.pretty import pretty

        text = pretty(formula)
    except Exception:
        text = repr(formula)
    return text if len(text) <= limit else text[:limit - 3] + "..."
