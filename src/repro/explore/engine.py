"""The exploration engine: strategies × scheduler × oracle × reduction.

`explore_class` is the core loop: run a budget of schedules of one coop-mode
monitor class over fixed per-thread programs, judge every run with the
differential oracle, and delta-debug the first failing schedule down to a
minimal, replayable counterexample.  `explore_benchmark` wires that loop to
the paper's benchmark registry (any of the four disciplines), and
`explore_explicit` to an arbitrary placed monitor — which is how mutation
tests inject lost-wakeup bugs.  The fuzzing campaign (``expresso fuzz``)
checks freshly generated placements by calling `coop_class_for_explicit`
and `explore_class` itself.

Three strategies are supported (see :mod:`repro.explore.strategies`):

* ``dfs`` — exhaustive depth-first enumeration of all scheduling decisions.
  By default it runs with **dynamic partial-order reduction** (``por=True``):
  sleep sets plus a DPOR-style backtrack filter over grant decisions (the
  one dependence relation, :class:`~repro.explore.dependence.Dependence`,
  decides when two enabled choices commute), and an early *merge probe*
  that cuts a backtracking replay the moment its divergent suffix re-enters
  an already-visited state — so the engine judges one canonical
  representative per Mazurkiewicz trace instead of every interleaving.  With
  ``symmetry=True`` visited states merge modulo the workload's symmetry
  group: swaps of identical-program threads and the index automorphisms
  :func:`index_symmetry` proves for array-indexed monitors (a state and its
  rotated image root subtrees with the same verdict kinds).  ``por=False``
  recovers the plain PR-2 DFS (every popped prefix runs to completion and is
  judged), which the soundness cross-check tests compare against.  Both
  variants set ``exhausted=True`` when the whole (reduced) space was covered.
* ``random`` — seeded uniform random walks (seed *i* of a budget-N run uses
  ``seed + i``, so any failing walk is reproducible in isolation).
* ``pct`` — PCT-style priority schedules, better at deep ordering bugs.

All strategies share a per-campaign :class:`~repro.explore.oracle.OracleCache`
so commit prefixes are interpreted against the reference semantics exactly
once, however many schedules revisit them.
"""

from __future__ import annotations

import time
from dataclasses import field
from typing import Dict, List, Optional, Sequence, Tuple, cast

from repro import obs
from repro.codegen.pyexpr import python_identifier
from repro.codegen.python_gen import (
    generate_python_autosynch,
    generate_python_explicit,
    generate_python_implicit,
    materialize_class,
)
from repro.record import record
from repro.explore.dependence import Dependence, Transition, footprints_for_explicit
from repro.explore.oracle import OracleCache, OracleVerdict, check_run
from repro.explore.scheduler import (
    Checkpoint,
    Decision,
    ProgramSymmetry,
    RunResult,
    run_schedule,
)
from repro.explore.strategies import (
    DporStrategy,
    FirstStrategy,
    ScheduleStrategy,
    make_strategy,
)
from repro.lang.ast import Monitor
from repro.lang.arrays import cell_name
from repro.lang.effects import stmt_effects
from repro.logic.simplify import simplify
from repro.logic.substitute import rename_vars
from repro.logic.terms import INT, Var
from repro.placement.target import ExplicitMonitor

#: The disciplines the engine can adversarially schedule.
COOP_DISCIPLINES: Tuple[str, ...] = ("expresso", "explicit", "autosynch", "implicit")

#: Exploration strategies accepted by the engine/CLI.
STRATEGIES: Tuple[str, ...] = ("dfs", "random", "pct")

_COOP_CLASS_CACHE: Dict[Tuple, type] = {}


# ---------------------------------------------------------------------------
# Index-permutation symmetry
# ---------------------------------------------------------------------------

#: Sym(N) is searched only while it has at most this many permutations.
MAX_INDEX_PERMUTATIONS = 720


def index_symmetry(programs, coop_class: type, monitor: Monitor) -> ProgramSymmetry:
    """The symmetry table of one exploration, index automorphisms included.

    The scalarset reduction (Ip & Dill, FMSD 1996) over the array cells
    ``a__i`` that :func:`repro.lang.arrays.cell_name` names: a permutation
    σ of the index domain {0..N-1} is kept when it passes both

    * **(W)** — σ applied to the index arguments (int parameters no body
      assigns, every workload argument in [0, N)) maps the programs onto
      themselves (:meth:`ProgramSymmetry.workload_image`), and
    * **(M)** — every workload call is equivariant under σ in both the
      placed monitor and the reference monitor (:class:`_Equivariance`).

    Then renaming cells and index arguments together is an automorphism of
    the scheduler state, the placed monitor and the oracle's reference, so
    a state and its images root subtrees with the same verdict kinds.
    Classes without ``_coop_explicit`` (the autosynch and implicit
    disciplines) and array-free monitors get the identity alone.  The check
    asks no SMT query.
    """
    from itertools import permutations
    from math import factorial

    explicit = getattr(coop_class, "_coop_explicit", None)
    arrays = _index_arrays(explicit, monitor) if explicit is not None else None
    if not arrays:
        return ProgramSymmetry(programs)
    size = len(next(iter(arrays.values())))
    calls = sorted({(name, tuple(args)) for program in programs
                    for name, args in program}, key=repr)
    index_params = _index_params(explicit, monitor, calls, size)
    table = ProgramSymmetry(programs, index_params, size)
    if not index_params or factorial(size) > MAX_INDEX_PERMUTATIONS:
        return table
    rules = _Equivariance((explicit, monitor), calls, table)
    identity = tuple(range(size))
    for sigma in permutations(identity):
        groups = table.workload_image(sigma)
        if sigma == identity or groups is None:
            continue
        cells = {cells_of[index]: cells_of[sigma[index]]
                 for cells_of in arrays.values() for index in range(size)}
        if rules.hold(sigma, cells):
            # Fingerprints name fields by instance attribute (dots mangled).
            table.add(sigma, groups, {
                python_identifier(source): python_identifier(target)
                for source, target in cells.items()})
    return table


def _index_arrays(explicit: ExplicitMonitor,
                  monitor: Monitor) -> Optional[Dict[str, List[str]]]:
    """The scalarized arrays of one common size N ≥ 2: name -> cell names.

    An array's cells must share their sort and initial value in both
    monitors, so the initial state is a fixed point of every renaming.
    """
    declared = {decl.name: decl for decl in explicit.fields}
    reference = {decl.name: decl for decl in monitor.fields}
    arrays: Dict[str, List[str]] = {}
    for name in declared:
        base, _sep, index = name.rpartition("__")
        if base and index == "0":
            cells = []
            while cell_name(base, len(cells)) in declared:
                cells.append(cell_name(base, len(cells)))
            if len(cells) >= 2:
                arrays[base] = cells
    if len({len(cells) for cells in arrays.values()}) != 1:
        return None
    for cells in arrays.values():
        for decls in (declared, reference):
            first = decls.get(cells[0])
            if first is None or any(
                    cell not in decls or decls[cell].sort != first.sort
                    or decls[cell].init is not first.init for cell in cells):
                return None
    return arrays


def _index_params(explicit: ExplicitMonitor, monitor: Monitor, calls,
                  size: int) -> Dict[str, Dict[int, str]]:
    """Per called method, its index parameters: position -> name.

    An index parameter is an int parameter that no body of either monitor
    assigns and whose workload arguments all lie in [0, *size*).  Its name
    must be a plain identifier, so frame locals and ``_snapshot`` keys
    carry it unchanged.
    """
    reference = {method.name: method for method in monitor.methods}
    params: Dict[str, Dict[int, str]] = {}
    for method in explicit.methods:
        argument_lists = [args for name, args in calls if name == method.name]
        other = reference.get(method.name)
        if not argument_lists or other is None or other.params != method.params:
            continue
        assigned = set()
        for ccr in method.ccrs + other.ccrs:
            assigned |= stmt_effects(ccr.body).writes
        positions = {
            position: param.name
            for position, param in enumerate(method.params)
            if param.sort is INT and param.name.isidentifier()
            and param.name not in assigned
            and all(type(args[position]) is int and 0 <= args[position] < size
                    for args in argument_lists)}
        if positions:
            params[method.name] = positions
    return params


class _Equivariance:
    """Condition (M): the monitors commute with an index renaming.

    For a permutation σ with cell renaming ρ (``a__i`` to ``a__σ(i)``),
    every workload call (m, a) and every CCR of m, in the placed and in the
    reference monitor, must satisfy, instantiated at a and at σ(a):

    * the guard at σ(a) is ρ(guard at a);
    * after :func:`~repro.analysis.symexec.symbolic_execute`, each field
      ρ(f) holds ρ(value of f at a), and each CCR local holds ρ(its value
      at a).

    Notifications belong to the CCR, not to the call, so their kind,
    condition variable and conditional flag agree at a and σ(a) by
    construction.  A conditional one's waiter-side predicate is the guard
    of the CCRs waiting on its condition, so the guard rule at every
    waiting call's arguments already covers it.  Equality is object
    identity of simplified, hash-consed formulas: a loop, a local that
    copies an index or a mere reordering rejects σ, which is always sound.
    """

    def __init__(self, monitors, calls, table: ProgramSymmetry):
        self.calls = calls
        self.table = table
        self.owners = [({method.name: method for method in owner.methods},
                        {decl.name: decl.sort for decl in owner.fields})
                       for owner in monitors]
        self._summaries: Dict[tuple, Optional[list]] = {}

    def hold(self, sigma: Tuple[int, ...], cells: Dict[str, str]) -> bool:
        return all(
            name in methods and self._call_holds(
                owner, methods[name], args,
                self.table.image_args(name, args, sigma), cells, sorts)
            for owner, (methods, sorts) in enumerate(self.owners)
            for name, args in self.calls)

    def _summary(self, owner: int, method, args) -> Optional[list]:
        """Per CCR at one call: (simplified guard, symbolic post-state)."""
        from repro.analysis.commutativity import (
            _instantiate_expr,
            _instantiate_stmt,
            _param_binding,
        )
        from repro.analysis.symexec import SymbolicExecutionError, symbolic_execute

        key = (owner, method.name, args)
        if key not in self._summaries:
            binding = _param_binding(method, args)
            summary: Optional[list] = None
            if binding is not None:
                try:
                    summary = [
                        (simplify(_instantiate_expr(ccr.guard, binding)),
                         symbolic_execute(_instantiate_stmt(ccr.body, binding)).values)
                        for ccr in method.ccrs]
                except SymbolicExecutionError:
                    summary = None
            self._summaries[key] = summary
        return self._summaries[key]

    def _call_holds(self, owner: int, method, args, image, cells, sorts) -> bool:
        before = self._summary(owner, method, args)
        after = self._summary(owner, method, image)
        if before is None or after is None:
            return False
        for (guard, values), (image_guard, image_values) in zip(before, after):
            if _renamed(guard, cells) is not image_guard:
                return False
            locals_ = {name for name in values if name not in sorts}
            if locals_ != {name for name in image_values if name not in sorts}:
                return False
            for name in locals_:
                if _renamed(values[name], cells) is not image_values[name]:
                    return False
            for name, sort in sorts.items():
                target = cells.get(name, name)
                value = values.get(name, Var(name, sort))
                if _renamed(value, cells) is not image_values.get(
                        target, Var(target, sort)):
                    return False
        return True


def _renamed(expr, cells: Dict[str, str]):
    return simplify(rename_vars(expr, cells))


# ---------------------------------------------------------------------------
# Coop-class construction
# ---------------------------------------------------------------------------


def coop_class_for_explicit(explicit: ExplicitMonitor,
                            class_name: str = "CoopMonitor",
                            placement=None) -> type:
    """Materialize the scheduler-targeting class for a placed monitor.

    The syntactic per-method footprints are computed here and *emitted into
    the generated source* as a class attribute, so parallel workers that
    rebuild the class from shipped source inherit them without re-running
    any analysis.  No SMT query runs here: the semantic-independence
    entries are proven by the exploration's
    :class:`~repro.explore.dependence.Dependence` on first consult and
    memoized on the class (``_coop_semantic``).
    """
    from repro.codegen.python_gen import placement_signature

    signature = (placement_signature(placement)
                 if placement is not None else None)
    source = generate_python_explicit(explicit, class_name=class_name, coop=True,
                                      footprints=footprints_for_explicit(explicit),
                                      placement=signature)
    cls = materialize_class(source, class_name)
    cls._coop_source = source
    # The placement cannot be embedded in source text; parallel drivers ship
    # it alongside the source (it pickles like the monitor AST).  It feeds
    # the dependence relation's matrix entries, wait entries and value
    # checks, the index symmetry and counterexample witnesses.
    cls._coop_explicit = explicit
    return cls


def coop_monitor_and_class(spec, discipline: str,
                           pipeline=None) -> Tuple[Monitor, type]:
    """(reference monitor AST, coop class) for one benchmark/discipline pair."""
    from repro.placement.pipeline import ExpressoPipeline, expresso_result

    if discipline not in COOP_DISCIPLINES:
        raise ValueError(f"unknown discipline {discipline!r}; "
                         f"expected one of {COOP_DISCIPLINES}")
    pipeline = pipeline if pipeline is not None else ExpressoPipeline()
    key = (spec.name, discipline, pipeline.config_key())
    expresso = discipline == "expresso"
    reference = expresso_result(spec, pipeline).monitor if expresso else spec.monitor()
    if key in _COOP_CLASS_CACHE:
        return reference, _COOP_CLASS_CACHE[key]
    if discipline in ("expresso", "explicit"):
        _COOP_CLASS_CACHE[key] = coop_class_for_explicit(
            expresso_result(spec, pipeline).explicit if expresso
            else spec.handwritten_explicit())
    else:
        # The automatic runtimes broadcast on every exit, so no two of their
        # segments commute; they get no footprints (POR degrades to merge
        # probing, which is discipline-agnostic).
        generate = (generate_python_autosynch if discipline == "autosynch"
                    else generate_python_implicit)
        source = generate(reference, "CoopMonitor", coop=True)
        _COOP_CLASS_CACHE[key] = materialize_class(source, "CoopMonitor")
        _COOP_CLASS_CACHE[key]._coop_source = source
    return reference, _COOP_CLASS_CACHE[key]


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


@record
class Counterexample:
    """A failing schedule, minimized and rendered for replay."""

    kind: str                      # oracle failure kind
    detail: str
    schedule: Tuple[int, ...]      # the original failing choice list
    minimized: Tuple[int, ...]     # the delta-debugged choice list
    trace: str                     # readable interleaving of the minimized run
    strategy: str
    seed: Optional[int]            # seed that found it (sampling strategies)
    #: Definition 3.4 witness (implicit-vs-explicit trace pair) — attached
    #: when the campaign ran with ``witness=True`` and a trace-level form of
    #: the failure exists (see :func:`repro.semantics.equivalence
    #: .counterexample_witness`).
    witness: Optional[dict] = None

    def to_dict(self) -> dict:
        record = {
            "kind": self.kind,
            "detail": self.detail,
            "schedule": list(self.schedule),
            "minimized": list(self.minimized),
            "strategy": self.strategy,
            "seed": self.seed,
            "trace": self.trace,
        }
        if self.witness is not None:
            record["witness"] = self.witness
        return record


@record
class ExplorationResult:
    """Aggregate outcome of one exploration campaign.

    ``schedules_run`` counts fully executed, oracle-judged schedules.
    ``pruned`` counts backtracking replays cut off by the merge probe (their
    divergent suffix re-entered a visited state), and ``por_skipped`` counts
    subtrees the partial-order reduction proved redundant without running
    them (sleep-set hits and backtrack-filter skips).  ``budget_exhausted``
    distinguishes "stopped because the budget ran out" from "covered
    everything" (``exhausted``).

    :meth:`to_dict` is the JSON artifact surface.  A ``--store`` campaign
    checkpoints the pickled per-unit results in the store's work queue
    instead, and a rerun merges those again, so the timing fields of a
    rerun report how long collecting them took.
    """

    benchmark: str
    discipline: str
    strategy: str
    seed: int
    threads: int = 0
    ops: int = 0
    workers: int = 1
    schedules_run: int = 0
    completed: int = 0
    stalls: int = 0
    pruned: int = 0
    por_skipped: int = 0
    #: Wake/grant alternatives collapsed because they were provably symmetric
    #: to an explored sibling (same frame, arguments and remaining program).
    symmetry_skipped: int = 0
    distinct_states: int = 0
    exhausted: bool = False
    budget_exhausted: bool = False
    oracle_hits: int = 0
    oracle_misses: int = 0
    elapsed_seconds: float = 0.0
    failures: List[Counterexample] = field(default_factory=list)
    #: Stable hashes of *abstracted* state shapes (only populated when the
    #: engine is given a shape function — the fuzzing campaign's
    #: scheduler-state-shape coverage axis).
    state_shapes: Optional[List[int]] = field(default=None, repr=False)
    #: Shards the work dispatcher quarantined (their workers kept dying or
    #: hanging until the attempts ran out): one dict per lost shard with
    #: the shard's identifying parameters and the error chain.  Serialized
    #: only when nonempty, so fault-free campaign artifacts never show it.
    worker_failures: List[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def schedules_per_second(self) -> float:
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.schedules_run / self.elapsed_seconds

    def to_dict(self) -> dict:
        record = {
            "benchmark": self.benchmark,
            "discipline": self.discipline,
            "strategy": self.strategy,
            "seed": self.seed,
            "threads": self.threads,
            "ops": self.ops,
            "workers": self.workers,
            "schedules_run": self.schedules_run,
            "completed": self.completed,
            "stalls": self.stalls,
            "pruned": self.pruned,
            "por_skipped": self.por_skipped,
            "symmetry_skipped": self.symmetry_skipped,
            "distinct_states": self.distinct_states,
            "exhausted": self.exhausted,
            "budget_exhausted": self.budget_exhausted,
            "oracle_hits": self.oracle_hits,
            "oracle_misses": self.oracle_misses,
            "elapsed_seconds": round(self.elapsed_seconds, 6),
            "schedules_per_second": round(self.schedules_per_second, 2),
            "ok": self.ok,
            "failures": [failure.to_dict() for failure in self.failures],
        }
        if self.worker_failures:
            record["worker_failures"] = self.worker_failures
        return record


# ---------------------------------------------------------------------------
# Core loops
# ---------------------------------------------------------------------------


def _run_once(monitor: Monitor, coop_class: type, programs, strategy,
              max_steps: int, fingerprints: bool = False):
    instance = coop_class()
    result = run_schedule(instance, programs, strategy, max_steps,
                          fingerprints=fingerprints)
    verdict = check_run(monitor, programs, instance, result)
    return result, verdict


def replay_schedule(monitor: Monitor, coop_class: type, programs,
                    schedule: Sequence[int],
                    max_steps: int = 20_000) -> Tuple[RunResult, OracleVerdict]:
    """Replay a recorded/minimized schedule deterministically."""
    return _run_once(monitor, coop_class, programs,
                     ScheduleStrategy(schedule, FirstStrategy()), max_steps)


def _minimize(monitor: Monitor, coop_class: type, programs,
              schedule: Tuple[int, ...], kind: str,
              max_steps: int) -> Tuple[Tuple[int, ...], RunResult, OracleVerdict]:
    """ddmin the schedule, then rerun the minimum for its trace."""
    from repro.explore.reduce import ddmin

    def reproduces(candidate: Tuple[int, ...]) -> bool:
        _result, verdict = replay_schedule(monitor, coop_class, programs,
                                           candidate, max_steps)
        return verdict.is_failure and verdict.kind == kind

    minimized = ddmin(schedule, reproduces)
    result, verdict = replay_schedule(monitor, coop_class, programs,
                                      minimized, max_steps)
    return minimized, result, verdict


def _full_recording(coop_class: type, programs, run: RunResult) -> RunResult:
    """*run* with every event recorded, re-run when it replayed a prefix.

    Replaying the full choice list under the run's own step count stops the
    replay exactly where the run stopped: merge and sleep-set cuts happen
    between segments, where the step limit is checked, and steps grow with
    every segment.  Only the outcome, which a step-limited replay cannot
    restate, is carried over.
    """
    if not run.prefix:
        return run
    full = run_schedule(coop_class(), programs, ScheduleStrategy(run.choices),
                        max_steps=run.steps)
    full.outcome = run.outcome
    return full


def _record_failure(outcome: ExplorationResult, monitor, coop_class, programs,
                    run: RunResult, verdict: OracleVerdict, strategy_name: str,
                    seed: Optional[int], max_steps: int, minimize: bool,
                    witness: bool = False) -> None:
    from repro.explore.trace import render_trace

    schedule = run.choices
    if minimize:
        minimized, min_run, min_verdict = _minimize(
            monitor, coop_class, programs, schedule, verdict.kind, max_steps)
        trace = render_trace(min_run, programs, min_verdict)
        detail = min_verdict.detail or verdict.detail
        witness_run, witness_verdict = min_run, min_verdict
    else:
        minimized = schedule
        witness_run, witness_verdict = _full_recording(coop_class, programs, run), verdict
        trace = render_trace(witness_run, programs, verdict)
        detail = verdict.detail
    witness_record = None
    if witness:
        explicit = getattr(coop_class, "_coop_explicit", None)
        if explicit is not None:
            from repro.semantics.equivalence import counterexample_witness

            witness_record = counterexample_witness(
                monitor, explicit, programs, witness_run, witness_verdict)
    outcome.failures.append(Counterexample(
        kind=verdict.kind or "failure", detail=detail, schedule=schedule,
        minimized=minimized, trace=trace, strategy=strategy_name, seed=seed,
        witness=witness_record))


def _tally(outcome: ExplorationResult, run: RunResult,
           verdict: OracleVerdict) -> None:
    outcome.schedules_run += 1
    if run.outcome == "completed":
        outcome.completed += 1
    elif verdict.ok and verdict.kind == "stall":
        outcome.stalls += 1


def _explore_sampling(monitor, coop_class, programs, outcome: ExplorationResult,
                      budget: int, seed: int, max_steps: int,
                      stop_on_failure: bool, minimize: bool,
                      oracle: OracleCache, seen: Optional[set] = None,
                      witness: bool = False) -> None:
    # PCT change points must land inside the run: roughly one grant decision
    # per operation plus slack for waits/relays.  When a *seen* set is given
    # (coverage export), walks additionally fingerprint every grant decision
    # so sampling campaigns report the states they visited.
    expected_decisions = max(8, 2 * sum(len(program) for program in programs))
    tracer = obs.tracer()
    for iteration in range(budget):
        walk_seed = seed + iteration
        # Spans are keyed by the *global* walk seed, not the loop index, so a
        # sharded campaign emits the same event args as a sequential one.
        with tracer.span("schedule", cat="explore", seed=walk_seed) as span:
            strategy = make_strategy(outcome.strategy, walk_seed,
                                     expected_decisions=expected_decisions)
            instance = coop_class()
            run = run_schedule(instance, programs, strategy, max_steps,
                               fingerprints=seen is not None)
            if seen is not None:
                for decision in run.decisions:
                    if decision.fingerprint is not None:
                        seen.add(decision.fingerprint)
            verdict = oracle.judge(run, instance)
            span.set(outcome=run.outcome, ok=verdict.ok, kind=verdict.kind or "")
        _tally(outcome, run, verdict)
        if verdict.is_failure:
            _record_failure(outcome, monitor, coop_class, programs, run, verdict,
                            outcome.strategy, walk_seed, max_steps, minimize,
                            witness)
            if stop_on_failure:
                return


def _branch_points(run: RunResult,
                   start: Optional[Checkpoint]) -> List[Optional[Checkpoint]]:
    """Per fresh decision of *run*, the deepest checkpoint at or before it.

    A sibling of decision *k* restarts there and quietly replays the rest
    of its prefix.  Signal decisions (mid-segment) and unrestorable grant
    decisions have no checkpoint of their own and fall back to an earlier
    one: the run's, or *start*, the one the run itself started from (None
    is the root).
    """
    points: List[Optional[Checkpoint]] = []
    for offset in range(len(run.decisions)):
        start = run.checkpoints.get(offset, start)
        points.append(start)
    return points


def _explore_dfs_plain(monitor, coop_class, programs, outcome: ExplorationResult,
                       budget: int, max_steps: int, stop_on_failure: bool,
                       minimize: bool, oracle: OracleCache,
                       seen: set, witness: bool = False) -> None:
    stack: List[Tuple[Tuple[int, ...], Optional[Checkpoint]]] = [((), None)]
    tracer = obs.tracer()
    first = FirstStrategy()
    while stack and outcome.schedules_run < budget:
        prefix, checkpoint = stack.pop()
        instance = coop_class()
        with tracer.span("schedule", cat="explore", depth=len(prefix)) as span:
            run = run_schedule(instance, programs, first, max_steps,
                               fingerprints=True, prefix=prefix,
                               checkpoint=checkpoint)
            verdict = oracle.judge(run, instance)
            span.set(outcome=run.outcome, ok=verdict.ok, kind=verdict.kind or "")
        _tally(outcome, run, verdict)
        # The replayed prefix's alternatives were pushed by the ancestors;
        # the run records only its fresh decisions.  A fresh decision whose
        # pre-decision state was already visited roots a subtree explored
        # elsewhere: stop expanding there.  (Expansion happens before the
        # failure check so that a failing first run still records its states
        # and pending alternatives — `exhausted` must not claim full
        # coverage after an early stop.)
        limit = len(run.decisions)
        for offset, decision in enumerate(run.decisions):
            fingerprint = decision.fingerprint
            if fingerprint is None:
                continue
            if fingerprint in seen:
                limit = offset
                outcome.pruned += 1
                if tracer.enabled:
                    tracer.instant("prune", cat="explore", provenance="visited")
                    obs.registry().inc("explore.skipped.visited")
                break
            seen.add(fingerprint)
        choices = run.choices
        base = len(run.prefix)
        points = _branch_points(run, checkpoint)
        for offset in range(limit - 1, -1, -1):
            decision = run.decisions[offset]
            for alternative in range(len(decision.candidates)):
                if alternative != decision.chosen:
                    stack.append((choices[:base + offset] + (alternative,),
                                  points[offset]))
        if verdict.is_failure:
            _record_failure(outcome, monitor, coop_class, programs, run, verdict,
                            "dfs", None, max_steps, minimize, witness)
            if stop_on_failure:
                break
    outcome.exhausted = not stack
    outcome.budget_exhausted = bool(stack)


def _commutes_past(run: RunResult, decision: Decision, alternative: int,
                   pending: Transition, dependence: Dependence) -> bool:
    """Does deferring the *alternative* candidate's *pending* transition
    commute with the run?

    The DPOR backtrack filter: the sibling choice "grant this thread now"
    needs no exploration when every segment the run executed between this
    decision and the thread's own next grant is independent of its pending
    segment — the two orders reach the same state through equivalent
    (Mazurkiewicz-equal) traces, and the run already covers the canonical
    one.  Truncated runs where the thread never ran again answer
    conservatively False.  An executed segment's wait key is the one the
    scheduler recorded on its grant event.  *decision* is one of the run's
    fresh decisions, so the scan stays inside the recorded suffix.
    """
    tid = decision.candidates[alternative]
    # events[event_index] is the chosen thread's own grant: the scan starts
    # there so the chosen segment itself is dependence-checked too.
    for event in run.events[decision.event_index:]:
        if event.kind != "grant":
            continue
        if event.thread == tid:
            return True
        # A grant event's label is the granted method's name.
        executed = cast(Transition, (event.label, event.args, event.key))
        if not dependence.independent(pending, executed):
            return False
    return False


def _expand_dpor(run: RunResult, strategy: DporStrategy, stack: list,
                 outcome: ExplorationResult,
                 checkpoint: Optional[Checkpoint] = None) -> None:
    """Push the non-redundant sibling prefixes of one DPOR run.

    Only the run's fresh decisions are expanded: the replayed prefix's
    siblings were pushed by the ancestors.  Children of each decision node
    are pushed so pops follow exploration order (shallowest node first,
    ascending alternatives), and each sibling's sleep set accumulates the
    siblings explored before it — the classic sleep-set discipline adapted
    to the worklist DFS.  Each entry carries its branch point's checkpoint
    (:func:`_branch_points`; *checkpoint* is the one the run started from).

    When the scheduler recorded symmetry classes (wake-order
    canonicalization), alternatives whose class matches the chosen candidate
    or an already-pushed sibling are collapsed: their subtrees are images of
    an explored subtree under a thread-swap automorphism, so only one
    representative per class is branched.
    """
    sleeps = strategy.fresh_sleeps
    dependence = strategy.dependence
    choices = run.choices
    base = len(run.prefix)
    tracer = obs.tracer()
    points = _branch_points(run, checkpoint)
    entries: List[Tuple[Tuple[int, ...], frozenset, Optional[Checkpoint]]] = []
    for offset, decision in enumerate(run.decisions):
        node_sleep = sleeps[offset]
        child_prefix = choices[:base + offset]
        point = points[offset]
        sym = decision.sym_classes
        explored_classes = {sym[decision.chosen]} if sym else None
        if decision.kind != "grant":
            # Signal choices are otherwise not reduced: every alternative
            # wake target is explored (the woken thread's identity is
            # observable) unless it is provably symmetric to one already
            # taken.
            for alternative in range(len(decision.candidates)):
                if alternative == decision.chosen:
                    continue
                if sym:
                    if sym[alternative] in explored_classes:
                        outcome.symmetry_skipped += 1
                        if tracer.enabled:
                            tracer.instant("prune", cat="explore",
                                           provenance="symmetry")
                        continue
                    explored_classes.add(sym[alternative])
                entries.append((child_prefix + (alternative,), node_sleep, point))
            continue
        asleep = {entry[0] for entry in node_sleep}
        cumulative = set(node_sleep)
        cumulative.add((decision.candidates[decision.chosen],)
                       + dependence.transition(decision, decision.chosen))
        for alternative in range(len(decision.candidates)):
            if alternative == decision.chosen:
                continue
            tid = decision.candidates[alternative]
            if tid in asleep:
                # Sleep set: an ancestor's sibling already explores every
                # trace that starts by running this thread here.
                outcome.por_skipped += 1
                if tracer.enabled:
                    tracer.instant("prune", cat="explore",
                                   provenance="sleep_set")
                    obs.registry().inc("explore.skipped.sleep_set")
                continue
            if sym and sym[alternative] in explored_classes:
                outcome.symmetry_skipped += 1
                if tracer.enabled:
                    tracer.instant("prune", cat="explore",
                                   provenance="symmetry")
                continue
            pending = dependence.transition(decision, alternative)
            if _commutes_past(run, decision, alternative, pending, dependence):
                outcome.por_skipped += 1
                if tracer.enabled:
                    tracer.instant("prune", cat="explore",
                                   provenance="backtrack")
                    obs.registry().inc("explore.skipped.backtrack")
                continue
            entries.append((child_prefix + (alternative,), frozenset(cumulative),
                            point))
            cumulative.add((tid,) + pending)
            if sym:
                explored_classes.add(sym[alternative])
    stack.extend(reversed(entries))


def _explore_dpor(monitor, coop_class, programs, outcome: ExplorationResult,
                  budget: int, max_steps: int, stop_on_failure: bool,
                  minimize: bool, oracle: OracleCache,
                  seen: set, semantic: bool = True, symmetry: bool = True,
                  witness: bool = False) -> None:
    dependence = Dependence(coop_class, programs, semantic)
    stack: List[Tuple[Tuple[int, ...], frozenset, Optional[Checkpoint]]] = [
        ((), frozenset(), None)]
    symmetry_table = (index_symmetry(programs, coop_class, monitor)
                      if symmetry else None)
    # Decisions keep the raw fingerprint (the dependence relation evaluates
    # wait-entry guards against its un-renamed fields); visited states are
    # keyed modulo the symmetry group.  A raw fingerprint probed before is
    # answered without canonicalizing it again: its key is in *seen* already.
    canonical = (symmetry_table.canonical if symmetry_table is not None
                 and len(symmetry_table.automorphisms) > 1 else None)
    answered: set = set()

    def probe(fingerprint: tuple) -> bool:
        if canonical is not None:
            if fingerprint in answered:
                return True
            answered.add(fingerprint)
            fingerprint = canonical(fingerprint)
        if fingerprint in seen:
            return True
        seen.add(fingerprint)
        return False

    # Probes (merge-aborted replays) are bounded by the state-graph edge
    # count, but cap total work anyway so a pathological class cannot spin.
    work_cap = 60 * budget
    stopped = False
    tracer = obs.tracer()
    while stack and outcome.schedules_run < budget and not stopped:
        if outcome.pruned + outcome.por_skipped >= work_cap:
            break
        prefix, sleep, checkpoint = stack.pop()
        strategy = DporStrategy(sleep, dependence)
        instance = coop_class()
        run = run_schedule(instance, programs, strategy, max_steps,
                           fingerprints=True, prefix=prefix,
                           merge_probe=probe, symmetry=symmetry_table,
                           checkpoint=checkpoint)
        if run.outcome == "merged":
            outcome.pruned += 1
            if tracer.enabled:
                tracer.instant("prune", cat="explore", provenance="merge")
            verdict = oracle.judge_partial(run)
        elif run.outcome == "sleep-set":
            outcome.por_skipped += 1
            if tracer.enabled:
                tracer.instant("prune", cat="explore",
                               provenance="sleep_set")
                obs.registry().inc("explore.skipped.sleep_set")
            verdict = oracle.judge_partial(run)
        else:
            with tracer.span("schedule", cat="explore",
                             depth=len(prefix)) as span:
                verdict = oracle.judge(run, instance)
                span.set(outcome=run.outcome, ok=verdict.ok,
                         kind=verdict.kind or "")
            _tally(outcome, run, verdict)
        _expand_dpor(run, strategy, stack, outcome, checkpoint)
        if verdict.is_failure:
            _record_failure(outcome, monitor, coop_class, programs, run, verdict,
                            "dfs", None, max_steps, minimize, witness)
            if stop_on_failure:
                stopped = True
    outcome.exhausted = not stack
    outcome.budget_exhausted = bool(stack)


def explore_class(monitor: Monitor, coop_class: type, programs,
                  strategy: str = "random", budget: int = 200, seed: int = 0,
                  max_steps: int = 20_000, stop_on_failure: bool = True,
                  minimize: bool = True, benchmark: str = "?",
                  discipline: str = "?", por: bool = True,
                  semantic: bool = True, symmetry: bool = True,
                  state_shape=None, witness: bool = False) -> ExplorationResult:
    """Explore one coop monitor class over fixed per-thread programs.

    ``por`` selects partial-order reduction for the ``dfs`` strategy
    (sampling strategies ignore it); under POR, ``semantic`` additionally
    consults the SMT-proven independence matrix, whose entries the first
    exploration to need them proves and memoizes on the class, and
    ``symmetry`` collapses provably interchangeable wake/grant alternatives
    to one representative and merges visited states with their images
    under the workload's symmetry group.

    ``state_shape`` (a callable over raw scheduler fingerprints) populates
    ``result.state_shapes`` with stable hashes of the *abstracted* shapes of
    every visited state — the fuzzing campaign's coverage axis; sampling
    strategies then fingerprint their walks too.  ``witness=True`` attaches a
    Definition 3.4 implicit-vs-explicit trace witness to each recorded
    failure when one exists.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    # ``ops`` falls back to the longest program; registry-level entry points
    # overwrite it with the actual workload parameter.
    outcome = ExplorationResult(benchmark=benchmark, discipline=discipline,
                                strategy=strategy, seed=seed,
                                threads=len(programs),
                                ops=max((len(p) for p in programs), default=0))
    oracle = OracleCache(monitor, programs)
    seen: set = set()
    start = time.perf_counter()
    if strategy == "dfs":
        if por:
            _explore_dpor(monitor, coop_class, programs, outcome, budget,
                          max_steps, stop_on_failure, minimize, oracle, seen,
                          semantic=semantic, symmetry=symmetry, witness=witness)
        else:
            _explore_dfs_plain(monitor, coop_class, programs, outcome, budget,
                               max_steps, stop_on_failure, minimize, oracle,
                               seen, witness=witness)
        outcome.distinct_states = len(seen)
    else:
        _explore_sampling(monitor, coop_class, programs, outcome, budget, seed,
                          max_steps, stop_on_failure, minimize, oracle,
                          seen=seen if state_shape is not None else None,
                          witness=witness)
        if state_shape is not None:
            outcome.distinct_states = len(seen)
    outcome.elapsed_seconds = time.perf_counter() - start
    outcome.oracle_hits = oracle.hits
    outcome.oracle_misses = oracle.misses
    if state_shape is not None:
        outcome.state_shapes = sorted({_stable_hash(state_shape(fp))
                                       for fp in seen})
    # Single fold point: result counters land in the registry once per
    # exploration, and only inside an observability session (parallel shards
    # each fold into their own session registry; the driver merges snapshots,
    # so nothing is ever counted twice).
    if obs.tracer().enabled:
        obs.record_exploration(outcome, obs.registry())
    return outcome


def _stable_hash(fingerprint: tuple) -> int:
    """A process-stable 128-bit hash of a state-shape fingerprint.

    The hex digests are the fuzz campaign's ``state`` coverage features, so
    changing the hash changes every stored corpus's coverage map.
    """
    import hashlib

    digest = hashlib.blake2b(repr(fingerprint).encode(), digest_size=16)
    return int.from_bytes(digest.digest(), "big")


def explore_explicit(explicit: ExplicitMonitor, reference: Monitor, programs,
                     **kwargs) -> ExplorationResult:
    """Explore an arbitrary placed monitor (mutants, hand-edited placements)."""
    coop_class = coop_class_for_explicit(explicit,
                                         placement=kwargs.pop("placement", None))
    kwargs.setdefault("benchmark", reference.name)
    kwargs.setdefault("discipline", "explicit")
    return explore_class(reference, coop_class, programs, **kwargs)


def explore_benchmark(spec, discipline: str = "expresso", threads: int = 3,
                      ops: int = 3, pipeline=None, **kwargs) -> ExplorationResult:
    """Explore one registry benchmark under a discipline's coop compilation."""
    reference, coop_class = coop_monitor_and_class(spec, discipline, pipeline)
    programs = spec.workload(threads, ops)
    kwargs.setdefault("benchmark", spec.name)
    kwargs.setdefault("discipline", discipline)
    result = explore_class(reference, coop_class, programs, **kwargs)
    # Record the *workload parameter*, not the derived program length (roles
    # may emit several calls per op) — `--replay` feeds it back to
    # ``spec.workload`` and must regenerate the same programs.
    result.ops = ops
    return result
