"""The end-to-end Expresso pipeline.

``compile_monitor`` (or :class:`ExpressoPipeline` for configurable use) takes
implicit-signal monitor source text and produces:

1. the parsed and checked :class:`~repro.lang.ast.Monitor`;
2. the inferred monitor invariant (Algorithm 2);
3. the signal placement (Algorithm 1 + §4.2/§4.3);
4. the instrumented explicit-signal monitor (Figure 7);

plus timing and solver statistics, which the evaluation harness uses to
reproduce the paper's Table 1 (compilation times).

Loading this module loads what an :class:`ExpressoResult` holds, not what
computes it: the solver, abduction, commutativity, the lint checks and the
observability layer are imported by the first compile, so reading a
pickled result or running a generated monitor loads none of them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple, Union

from repro.logic import build
from repro.logic.pretty import pretty
from repro.logic.terms import Expr
from repro.lang import load_monitor
from repro.lang.ast import Monitor
from repro.analysis.invariants import InvariantInferenceResult, infer_monitor_invariant
from repro.placement.algorithm import PlacementResult, place_signals
from repro.placement.instrument import instrument
from repro.placement.target import ExplicitMonitor

if TYPE_CHECKING:
    from repro.analysis.lint import LintReport
    from repro.smt.cache import FormulaCache
    from repro.smt.solver import Solver


def lint_explicit(explicit: ExplicitMonitor, solver: Solver) -> LintReport:
    """:func:`repro.analysis.lint.lint_explicit`, whose checks load on first use."""
    from repro.analysis.lint import checks

    return checks.lint_explicit(explicit, solver=solver)


@dataclass(frozen=True)
class ExpressoResult:
    """Everything the pipeline produced for one monitor."""

    monitor: Monitor
    invariant: Expr
    invariant_details: InvariantInferenceResult
    placement: PlacementResult
    explicit: ExplicitMonitor
    elapsed_seconds: float
    solver_statistics: Dict[str, int]
    lint_report: Optional[LintReport] = None
    #: Wall time per pipeline phase (parse/invariants/placement/instrument/
    #: lint) — always recorded (two perf_counter reads per phase), so phase
    #: attribution is available even without an observability session.
    phase_seconds: Dict[str, float] = field(default_factory=dict)

    def summary(self) -> str:
        """A short human-readable report (used by the CLI and examples)."""
        hits = self.solver_statistics.get("cache_hits", 0)
        misses = self.solver_statistics.get("cache_misses", 0)
        total = hits + misses
        hit_rate = f" ({hits / total:.0%} hit rate)" if total else ""
        lines = [
            f"monitor            : {self.monitor.name}",
            f"monitor invariant  : {pretty(self.invariant)}",
            f"notifications      : {self.placement.total_notifications()} "
            f"({self.placement.broadcast_count()} broadcasts)",
            f"analysis time      : {self.elapsed_seconds:.3f}s",
            f"validity queries   : {self.solver_statistics.get('validity_queries', 0)}",
            f"solver cache       : {hits} hits / {misses} misses{hit_rate}",
            f"commute cache      : "
            f"{self.solver_statistics.get('commute_cache_hits', 0)} hits / "
            f"{self.solver_statistics.get('commute_cache_misses', 0)} misses",
            f"static pre-filter  : "
            f"{self.solver_statistics.get('commute_static_skips', 0)} "
            f"commute queries skipped",
        ]
        if self.lint_report is not None:
            if self.lint_report.clean:
                lint_line = "clean"
            else:
                lint_line = (f"{len(self.lint_report.errors)} error(s), "
                             f"{len(self.lint_report.advisories)} advisory(ies)")
            lines.append(f"lint               : {lint_line}")
        return "\n".join(lines)


class ExpressoPipeline:
    """Configurable front door to the reproduction.

    Parameters
    ----------
    use_commutativity:
        Enable the §4.3 commutativity-based broadcast elimination.
    infer_invariant:
        Disable to run placement with ``I = true`` (used by the ablation
        benchmarks to show how much the invariant matters).
    extra_invariant_candidates:
        Additional candidate predicates seeded into Algorithm 2.
    solver:
        A (reusable, cached) solver shared across compiles.  When given, the
        same rewrite memo, clause database (Tseitin definitions, learned
        clauses, theory lemmas) and result cache serve every compile through
        this pipeline; per-compile statistics are still
        reported as deltas.  When omitted, each compile gets a fresh solver
        with its own result cache (the pipeline's hundreds of near-duplicate
        VCs make even a compile-local cache worthwhile).
    cache:
        A formula cache for the per-compile solvers (ignored when *solver*
        is given, which carries its own).  Pass a shared
        :class:`~repro.smt.cache.FormulaCache` to memoize across compiles
        without sharing solver state.
    lint:
        Run the static analyzer (:mod:`repro.analysis.lint`) on the placed
        monitor and attach its :class:`LintReport` to the result.  The
        missing-signal cross-check re-asks placement's own omission triples,
        which the formula cache answers for free; disable for benchmarking
        the bare synthesis path.  Lint never changes the produced artifacts.
    smt_timeout:
        Per-query wall-clock budget (seconds) for the per-compile solvers
        (ignored when *solver* is given, which carries its own).  Exhausting
        the budget yields UNKNOWN and every analysis degrades in its sound
        direction (see ``README.md#robustness--resume``), so a timeout can
        change results — it participates in :meth:`config_key`.
    """

    def __init__(self, use_commutativity: bool = True, infer_invariant: bool = True,
                 extra_invariant_candidates: Sequence[Expr] = (),
                 solver: Optional[Solver] = None,
                 cache: Optional[FormulaCache] = None,
                 lint: bool = True,
                 smt_timeout: Optional[float] = None):
        self.use_commutativity = use_commutativity
        self.infer_invariant = infer_invariant
        self.extra_invariant_candidates = tuple(extra_invariant_candidates)
        self._solver = solver
        self._cache = cache
        self.lint = lint
        self.smt_timeout = smt_timeout

    def config_key(self) -> Tuple:
        """A hashable key identifying the *semantic* pipeline configuration.

        Two pipelines with equal keys produce identical artifacts for the
        same monitor; solver/cache sharing deliberately does not participate
        (it changes speed, never results).  Used by the harness caches.
        """
        return (self.use_commutativity, self.infer_invariant,
                self.extra_invariant_candidates, self.lint, self.smt_timeout)

    def compile(self, source: Union[str, Monitor]) -> ExpressoResult:
        """Compile implicit-signal monitor source (or a parsed monitor)."""
        from repro import obs

        start = time.perf_counter()
        tracer = obs.tracer()
        solver = self._solver
        if solver is None:
            from repro.smt.cache import FormulaCache
            from repro.smt.solver import Solver

            cache = self._cache if self._cache is not None else FormulaCache()
            solver = Solver(cache=cache, timeout_seconds=self.smt_timeout)
        stats_before = solver.snapshot_statistics()
        phases: Dict[str, float] = {}

        with tracer.span("compile", cat="compile") as root:
            mark = time.perf_counter()
            with tracer.span("compile.parse", cat="compile"):
                monitor = (source if isinstance(source, Monitor)
                           else load_monitor(source))
            phases["parse"] = time.perf_counter() - mark
            root.set(monitor=monitor.name)

            mark = time.perf_counter()
            with tracer.span("compile.invariants", cat="compile") as inv_span:
                if self.infer_invariant:
                    invariant_details = infer_monitor_invariant(
                        monitor, solver=solver,
                        extra_candidates=self.extra_invariant_candidates
                    )
                else:
                    invariant_details = InvariantInferenceResult(
                        invariant=build.TRUE, kept_predicates=(),
                        candidate_pool=(), iterations=0
                    )
                invariant = invariant_details.invariant
                if tracer.enabled:
                    inv_span.set(invariant=obs.formula_fingerprint(invariant),
                                 iterations=invariant_details.iterations)
            phases["invariants"] = time.perf_counter() - mark

            mark = time.perf_counter()
            with tracer.span("compile.placement", cat="compile") as place_span:
                placement = place_signals(
                    monitor, invariant, solver,
                    use_commutativity=self.use_commutativity)
                place_span.set(
                    notifications=placement.total_notifications(),
                    broadcasts=placement.broadcast_count())
            phases["placement"] = time.perf_counter() - mark

            mark = time.perf_counter()
            with tracer.span("compile.instrument", cat="compile"):
                explicit = instrument(monitor, placement)
            phases["instrument"] = time.perf_counter() - mark

            lint_report = None
            if self.lint:
                mark = time.perf_counter()
                with tracer.span("compile.lint", cat="compile"):
                    lint_report = lint_explicit(explicit, solver=solver)
                phases["lint"] = time.perf_counter() - mark

        elapsed = time.perf_counter() - start
        # Shared solvers serve many compiles; report this compile's share only.
        stats_delta = solver.snapshot_statistics(since=stats_before)
        return ExpressoResult(
            monitor=monitor,
            invariant=invariant,
            invariant_details=invariant_details,
            placement=placement,
            explicit=explicit,
            elapsed_seconds=elapsed,
            solver_statistics=stats_delta,
            lint_report=lint_report,
            phase_seconds=phases,
        )


def compile_monitor(source: Union[str, Monitor], **kwargs) -> ExpressoResult:
    """One-call convenience wrapper around :class:`ExpressoPipeline`."""
    return ExpressoPipeline(**kwargs).compile(source)


# Keyed by benchmark and configuration: a monitor compiled by one pipeline
# (say the ``use_commutativity=False`` ablation) is never served to another.
_RESULT_CACHE: Dict[Tuple[str, Tuple], ExpressoResult] = {}


def expresso_result(spec, pipeline: Optional[ExpressoPipeline] = None) -> ExpressoResult:
    """Compile a benchmark spec's monitor (cached per benchmark/config)."""
    pipeline = pipeline if pipeline is not None else ExpressoPipeline()
    key = (spec.name, pipeline.config_key())
    if key not in _RESULT_CACHE:
        _RESULT_CACHE[key] = pipeline.compile(spec.monitor())
    return _RESULT_CACHE[key]
