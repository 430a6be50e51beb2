"""Parallel exploration campaigns: shard schedules over a process pool.

Schedules are independent, so a campaign parallelizes embarrassingly — the
only care is determinism of the *reported* result:

* ``random`` / ``pct`` budgets are sharded into contiguous seed blocks
  (worker *i* explores walk seeds ``seed+start_i .. seed+end_i-1``); because
  walk ``seed + k`` is exactly the schedule a sequential campaign would run
  as iteration *k*, the merged first failure — minimal global iteration
  index — is the same schedule a ``--workers 1`` campaign reports.
* ``dfs`` shards the *top-level decision*: the driver runs one schedule to
  find the first branching decision and gives each worker a slice of its
  alternatives as DFS root prefixes.  Shards keep private visited-state sets
  (coverage is unioned via stable state hashes) **and additionally share a
  cross-worker visited-fingerprint memo** — a SQLite-backed
  :class:`~repro.distrib.CampaignStore` each shard's merge probe consults
  through :class:`~repro.distrib.VisitedStore` — so shards stop re-exploring
  (and re-judging) overlap that a shard *completed failure-free*.
  Publication is gated on clean completion (see
  :class:`~repro.distrib.VisitedStore`), which keeps the failure list and
  the combined coverage independent of scheduling timing.  Statistics are
  not: judged/pruned/shared-hit counts — and, under budgets tight enough
  that pruning decides whether a shard drains, the per-shard ``exhausted``
  flags — depend on which shards finish first, so assert verdicts, never
  exact counts, for ``workers > 1``.  The merged failure list is ordered
  by (shard, discovery order).

Shards are dispatched through the work queue (:func:`repro.distrib.queue_map`):
every shard is a leased work unit, and results merge in unit order.  With
a persistent ``--store`` cooperating processes — extra ``expresso``
invocations pointed at the same path — pick up units too; without one the
queue and the visited-state memo share one private temp store.

Workers never recompile the monitor: the parent ships the *generated coop
class source* (plus the reference AST, POR footprints, semantic matrix and
wait-guard metadata), so a worker only ``exec``s the class definition — no
SMT recompilation, no placement.

The module also hosts the **mutation campaign**: iterate every placed
notification of every benchmark (``ExplicitMonitor.notification_sites``),
delete it, and require the exploration engine to produce a counterexample —
a placement-wide lost-wakeup detection sweep, parallelized per mutant.
"""

from __future__ import annotations

import os
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro import obs
from repro.codegen.python_gen import generate_python_explicit, materialize_class
from repro.distrib import (
    CampaignStore,
    DistribConfig,
    JobFailure,
    VisitedStore,
    private_store,
    queue_map,
)
from repro.explore.engine import (
    Counterexample,
    ExplorationResult,
    coop_monitor_and_class,
    explore_class,
    footprints_for_explicit,
    wait_info_for_explicit,
)
from repro.explore.scheduler import run_schedule
from repro.explore.strategies import FirstStrategy
from repro.lang.ast import Monitor
from repro.placement.target import ExplicitMonitor
from repro.resilience.atomic import checksum_payload


def default_workers() -> int:
    return os.cpu_count() or 2


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


def _rebuild_class(job: dict) -> type:
    cls = materialize_class(job["class_source"], job["class_name"])
    if job.get("footprints") is not None:
        cls._coop_footprints = job["footprints"]
    if job.get("semantic") is not None:
        cls._coop_semantic = job["semantic"]
    if job.get("wait_info") is not None:
        cls._coop_wait_info = job["wait_info"]
    if job.get("explicit") is not None:
        cls._coop_explicit = job["explicit"]
    return cls


def _run_shard(job: dict) -> ExplorationResult:
    """One worker's slice of a campaign (executed in a pool process)."""
    coop_class = _rebuild_class(job)
    store_path = job.get("visited_store")
    shared_store = (VisitedStore(CampaignStore(store_path),
                                 scope=job["visited_scope"])
                    if store_path is not None else None)

    def explore() -> ExplorationResult:
        return explore_class(
            job["monitor"], coop_class, job["programs"],
            strategy=job["strategy"], budget=job["budget"], seed=job["seed"],
            max_steps=job["max_steps"], stop_on_failure=job["stop_on_failure"],
            minimize=job["minimize"], benchmark=job["benchmark"],
            discipline=job["discipline"], por=job["por"],
            semantic=job.get("semantic_por", True),
            symmetry=job.get("symmetry", True),
            dfs_prefixes=job.get("dfs_prefixes"),
            export_state_hashes=job["strategy"] == "dfs",
            shared_store=shared_store,
            witness=job.get("witness", False))

    if not job.get("trace"):
        return explore()
    # Traced shard: record into a worker-local session and ship the raw
    # events + counter snapshot home; the driver merges them in shard order.
    with obs.observe(trace=True) as session:
        result = explore()
    result.trace_shards = [session.tracer.events]
    result.metrics_snapshot = session.registry.snapshot()
    return result


def _run_mutant(job: dict) -> dict:
    """Explore one notification-deleted mutant (executed in a pool process).

    The driver computes the semantic matrix *per mutant*: matrix entries may
    rest on notification-order proofs (the monotone-broadcast rule), so the
    parent's matrix can overstate independence once a notification is
    deleted.  The syntactic condition-variable gating additionally uses the
    mutant's own (reduced) footprints, computed here.
    """
    mutant: ExplicitMonitor = job["mutant"]
    source = generate_python_explicit(mutant, class_name="CoopMonitor", coop=True)
    cls = materialize_class(source, "CoopMonitor")
    cls._coop_footprints = footprints_for_explicit(mutant)
    if job.get("semantic") is not None:
        cls._coop_semantic = job["semantic"]
    cls._coop_wait_info = wait_info_for_explicit(mutant)
    cls._coop_explicit = mutant
    result = explore_class(
        job["monitor"], cls, job["programs"], strategy="dfs",
        budget=job["budget"], max_steps=job["max_steps"],
        stop_on_failure=True, minimize=job["minimize"],
        benchmark=job["benchmark"], discipline="mutant", por=True)
    if result.ok and result.exhausted:
        status = "benign"        # proven unobservable within this bound
    elif result.ok:
        status = "survived"      # budget ran out without a counterexample
    else:
        status = "caught"
    failure = result.failures[0].to_dict() if result.failures else None
    return {
        "benchmark": job["benchmark"],
        "site": job["site"],
        "status": status,
        "kind": failure["kind"] if failure else None,
        "schedules_run": result.schedules_run,
        "exhausted": result.exhausted,
        "failure": failure,
    }


# ---------------------------------------------------------------------------
# Merging
# ---------------------------------------------------------------------------


def merge_results(shards: Sequence[ExplorationResult], strategy: str,
                  base_seed: int, workers: int,
                  elapsed: float) -> ExplorationResult:
    """Fold worker shard results into one campaign result.

    The first failure is chosen deterministically: minimal global iteration
    index (``failure.seed - base_seed``) for sampling strategies, shard order
    for DFS — independent of worker count and scheduling jitter.
    """
    first = shards[0]
    merged = ExplorationResult(
        benchmark=first.benchmark, discipline=first.discipline,
        strategy=strategy, seed=base_seed, threads=first.threads,
        ops=first.ops, workers=workers)
    hashes: set = set()
    for shard in shards:
        merged.schedules_run += shard.schedules_run
        merged.completed += shard.completed
        merged.stalls += shard.stalls
        merged.pruned += shard.pruned
        merged.por_skipped += shard.por_skipped
        merged.symmetry_skipped += shard.symmetry_skipped
        merged.shared_hits += shard.shared_hits
        merged.oracle_hits += shard.oracle_hits
        merged.oracle_misses += shard.oracle_misses
        if shard.state_hashes:
            hashes.update(shard.state_hashes)
    if strategy == "dfs":
        merged.distinct_states = len(hashes)
        merged.exhausted = all(shard.exhausted for shard in shards)
        merged.budget_exhausted = any(shard.budget_exhausted for shard in shards)
        failures: List[Counterexample] = [
            failure for shard in shards for failure in shard.failures]
    else:
        merged.distinct_states = max(shard.distinct_states for shard in shards)
        failures = sorted(
            (failure for shard in shards for failure in shard.failures),
            key=lambda failure: failure.seed if failure.seed is not None else 0)
    merged.failures = failures
    merged.elapsed_seconds = elapsed
    # Flight-recorder payloads: shard event lists are concatenated in shard
    # (= job) order — for sampling strategies that is exactly the sequential
    # walk order, so the deterministic trace export is worker-count-stable.
    # Counter snapshots are summed into one registry; each shard folded its
    # own result exactly once, so the merge never double-counts.
    if any(shard.trace_shards for shard in shards):
        merged.trace_shards = [events for shard in shards
                               for events in (shard.trace_shards or [])]
        registry = obs.MetricsRegistry()
        for shard in shards:
            if shard.metrics_snapshot:
                registry.merge(shard.metrics_snapshot)
        merged.metrics_snapshot = registry.snapshot()
    return merged


# ---------------------------------------------------------------------------
# Driver side
# ---------------------------------------------------------------------------


def _shard_bounds(budget: int, workers: int) -> List[Tuple[int, int]]:
    """Split ``range(budget)`` into ``workers`` contiguous blocks."""
    chunk, remainder = divmod(budget, workers)
    bounds = []
    start = 0
    for index in range(workers):
        size = chunk + (1 if index < remainder else 0)
        if size == 0:
            continue
        bounds.append((start, start + size))
        start += size
    return bounds


def _dfs_root_prefixes(coop_class: type, programs, max_steps: int) -> List[Tuple[int, ...]]:
    """The alternatives of the first branching decision (DFS shard roots)."""
    probe = run_schedule(coop_class(), programs, FirstStrategy(), max_steps)
    if not probe.decisions:
        return []
    first = probe.decisions[0]
    return [(alternative,) for alternative in range(len(first.candidates))]


def parallel_explore_class(monitor: Monitor, coop_class: type, programs,
                           strategy: str = "random", budget: int = 200,
                           seed: int = 0, max_steps: int = 20_000,
                           stop_on_failure: bool = True, minimize: bool = True,
                           benchmark: str = "?", discipline: str = "?",
                           por: bool = True, semantic: bool = True,
                           symmetry: bool = True, share_states: bool = True,
                           witness: bool = False, trace: bool = False,
                           workers: Optional[int] = None,
                           store: Optional[CampaignStore] = None,
                           distrib: Optional[DistribConfig] = None,
                           ) -> ExplorationResult:
    """`explore_class`, sharded over the work dispatcher.

    Falls back to the sequential engine when one worker (or one shard) would
    do all the work anyway.  The coop class must carry ``_coop_source`` (all
    engine-built classes do) so workers can rebuild it without recompiling.
    ``share_states`` (DFS only) links the shards' merge probes through one
    SQLite-backed :class:`~repro.distrib.VisitedStore`, so overlap explored
    by one shard is pruned — not re-judged — by the others.
    ``trace`` records every shard into a flight-recorder session and
    attaches ``trace_shards`` / ``metrics_snapshot`` to the merged result
    (also on the sequential fallback, so callers read one surface regardless
    of worker count).

    Shards are work units of :func:`repro.distrib.queue_map`, in the
    persistent campaign *store* when one is given (cooperating processes
    pointed at the same path claim units too) and otherwise in a private
    temp store; the visited-state memo lives in the same store.  A shard
    whose worker keeps dying or hanging is *quarantined* — recorded in
    ``result.worker_failures`` with its shard parameters — while every
    surviving shard's coverage and failures are still merged.  A lost shard
    also forces ``exhausted=False``: the merged result never claims full
    coverage of a subtree nobody finished.
    """
    workers = workers or default_workers()
    source = getattr(coop_class, "_coop_source", None)
    sequential_kwargs = dict(
        strategy=strategy, budget=budget, seed=seed, max_steps=max_steps,
        stop_on_failure=stop_on_failure, minimize=minimize,
        benchmark=benchmark, discipline=discipline, por=por,
        semantic=semantic, symmetry=symmetry, witness=witness)

    def sequential() -> ExplorationResult:
        if not trace:
            return explore_class(monitor, coop_class, programs,
                                 **sequential_kwargs)
        with obs.observe(trace=True) as session:
            result = explore_class(monitor, coop_class, programs,
                                   **sequential_kwargs)
        result.trace_shards = [session.tracer.events]
        result.metrics_snapshot = session.registry.snapshot()
        return result

    if source is None or (workers <= 1 and store is None):
        return sequential()
    roots: List[Tuple[int, ...]] = []
    if strategy == "dfs":
        roots = _dfs_root_prefixes(coop_class, programs, max_steps)
        if not roots or (len(roots) < 2 and store is None):
            return sequential()
    # Explicit coop sources embed footprints/matrix as class-attribute
    # literals — rebuilding from source restores them, so ship them only
    # for classes whose source does not (autosynch/implicit runtimes).
    base_job = {
        "class_source": source,
        "class_name": coop_class.__name__,
        "footprints": (None if "_coop_footprints" in source
                       else getattr(coop_class, "_coop_footprints", None)),
        "semantic": (None if "_coop_semantic" in source
                     else getattr(coop_class, "_coop_semantic", None)),
        "wait_info": getattr(coop_class, "_coop_wait_info", None),
        "explicit": getattr(coop_class, "_coop_explicit", None),
        "monitor": monitor,
        "programs": [list(program) for program in programs],
        "strategy": strategy,
        "max_steps": max_steps,
        "stop_on_failure": stop_on_failure,
        "minimize": minimize,
        "benchmark": benchmark,
        "discipline": discipline,
        "por": por,
        "semantic_por": semantic,
        "symmetry": symmetry,
        "witness": witness,
        "trace": trace,
    }
    jobs: List[dict] = []
    with (nullcontext(store) if store is not None
          else private_store()) as dispatch_store:
        if strategy == "dfs":
            visited_store = None
            visited_scope = None
            if share_states and por:
                # Campaign-scoped namespace: different benchmarks/configs
                # cooperating through one persistent store never observe
                # each other's published subtrees.
                visited_scope = checksum_payload([
                    benchmark, discipline, source,
                    [[repr(op) for op in program] for program in programs],
                    seed, max_steps, bool(semantic), bool(symmetry)])[:16]
                visited_store = str(dispatch_store.path)
            root_slices = _shard_bounds(len(roots),
                                        min(max(workers, 1), len(roots)))
            # The --schedules budget caps *total* judged schedules, like the
            # sequential path: split it across shards (each shard gets at
            # least one schedule so every subtree is entered).
            budget_sizes = [end - start
                            for start, end in _shard_bounds(budget, len(root_slices))]
            budget_sizes += [1] * (len(root_slices) - len(budget_sizes))
            for (start, end), shard_budget in zip(root_slices, budget_sizes):
                job = dict(base_job)
                job["seed"] = seed
                job["budget"] = max(shard_budget, 1)
                job["dfs_prefixes"] = roots[start:end]
                job["visited_store"] = visited_store
                job["visited_scope"] = visited_scope
                jobs.append(job)
        else:
            for start, end in _shard_bounds(budget, max(workers, 1)):
                job = dict(base_job)
                job["seed"] = seed + start
                job["budget"] = end - start
                jobs.append(job)
        batch_key = checksum_payload([
            benchmark, discipline, strategy, source,
            [[repr(op) for op in program] for program in programs],
            budget, seed, max_steps, stop_on_failure, minimize,
            por, semantic, symmetry, witness, len(jobs)])[:16]
        start_time = time.perf_counter()
        outcomes = queue_map(
            _run_shard, jobs, dispatch_store, batch=f"explore/{batch_key}",
            config=distrib, workers=min(max(workers, 1), len(jobs)))
        elapsed = time.perf_counter() - start_time
    if store is not None:
        # The store's transactional counters are the authoritative
        # cross-process aggregate; mirror them so the session registry
        # (observe() snapshots, the exporter) shares one namespace.
        obs.mirror_store_counters(store.counters())
    shards: List[ExplorationResult] = []
    lost: List[dict] = []
    for job, outcome in zip(jobs, outcomes):
        if isinstance(outcome, JobFailure):
            lost.append(outcome.error_dict(
                shard={"seed": job["seed"], "budget": job["budget"],
                       "dfs_prefixes": [list(prefix) for prefix in
                                        job["dfs_prefixes"]]
                       if job.get("dfs_prefixes") else None}))
        else:
            shards.append(outcome)
    if not shards:
        merged = ExplorationResult(
            benchmark=benchmark, discipline=discipline, strategy=strategy,
            seed=seed, workers=len(jobs), elapsed_seconds=elapsed)
    else:
        merged = merge_results(shards, strategy, seed, len(jobs), elapsed)
    if lost:
        merged.worker_failures = lost
        merged.exhausted = False
    return merged


def parallel_explore_benchmark(spec, discipline: str = "expresso",
                               threads: int = 3, ops: int = 3, pipeline=None,
                               workers: Optional[int] = None,
                               **kwargs) -> ExplorationResult:
    """`explore_benchmark`, sharded over a process pool."""
    reference, coop_class = coop_monitor_and_class(spec, discipline, pipeline)
    programs = spec.workload(threads, ops)
    kwargs.setdefault("benchmark", spec.name)
    kwargs.setdefault("discipline", discipline)
    result = parallel_explore_class(reference, coop_class, programs,
                                    workers=workers, **kwargs)
    # Replay files feed this back to ``spec.workload``: record the workload
    # parameter, not the derived program length.
    result.ops = ops
    return result


# ---------------------------------------------------------------------------
# Mutation campaign
# ---------------------------------------------------------------------------


@dataclass
class MutationReport:
    """Outcome of a notification-deletion sweep over benchmark placements."""

    threads: int
    ops: int
    budget: int
    workers: int
    elapsed_seconds: float = 0.0
    mutants: List[dict] = field(default_factory=list)

    @property
    def caught(self) -> List[dict]:
        return [m for m in self.mutants if m["status"] == "caught"]

    @property
    def survived(self) -> List[dict]:
        return [m for m in self.mutants if m["status"] == "survived"]

    @property
    def benign(self) -> List[dict]:
        return [m for m in self.mutants if m["status"] == "benign"]

    @property
    def errors(self) -> List[dict]:
        return [m for m in self.mutants if m["status"] == "error"]

    @property
    def ok(self) -> bool:
        """Every mutant either yielded a counterexample or was *proven*
        unobservable at this bound (exhausted without divergence); a mutant
        that merely outlives the budget — or whose worker was quarantined
        before a verdict (``error``) — fails the campaign."""
        return not self.survived and not self.errors

    def to_dict(self) -> dict:
        record = {
            "threads": self.threads,
            "ops": self.ops,
            "budget": self.budget,
            "workers": self.workers,
            "elapsed_seconds": round(self.elapsed_seconds, 3),
            "total": len(self.mutants),
            "caught": len(self.caught),
            "benign": len(self.benign),
            "survived": len(self.survived),
            "ok": self.ok,
            "mutants": self.mutants,
        }
        if self.errors:
            record["errors"] = len(self.errors)
        return record


def mutation_campaign(specs, threads: int = 3, ops: int = 2,
                      budget: int = 20_000, max_steps: int = 20_000,
                      workers: Optional[int] = None, minimize: bool = True,
                      pipeline=None,
                      distrib: Optional[DistribConfig] = None,
                      ) -> MutationReport:
    """Drop every placed notification across *specs*; each must be detected.

    Compilation (SMT) happens once per benchmark in the driver; workers only
    exec mutant class sources and explore.  Uses DPOR DFS so small bounds
    exhaust — a surviving mutant is then either *benign* (search exhausted:
    the signal is unobservable under this workload bound) or a genuine
    detection gap (``survived``), which fails the campaign.  *distrib*
    carries the dispatch knobs (per-job deadline, attempts); a mutant whose
    worker keeps dying or hanging is reported with status ``error``.
    """
    from repro.analysis.commutativity import semantic_independence_for_explicit
    from repro.harness.saturation import expresso_result
    from repro.placement.pipeline import ExpressoPipeline

    pipeline = pipeline if pipeline is not None else ExpressoPipeline()
    workers = workers or default_workers()
    jobs: List[dict] = []
    for spec in specs:
        compiled = expresso_result(spec, pipeline)
        programs = [list(program) for program in spec.workload(threads, ops)]
        for site in compiled.explicit.notification_sites():
            mutant = compiled.explicit.without_notification(*site)
            # Matrix entries can rest on notification-order proofs (the
            # monotone-broadcast rule), so each mutant gets its own matrix
            # in the driver; the shared solver's commute memo makes every
            # pair the deletion does not touch a cache hit.
            jobs.append({
                "benchmark": spec.name,
                "site": list(site),
                "mutant": mutant,
                "monitor": compiled.monitor,
                "programs": programs,
                "budget": budget,
                "max_steps": max_steps,
                "minimize": minimize,
                "semantic": semantic_independence_for_explicit(mutant),
            })
    report = MutationReport(threads=threads, ops=ops, budget=budget,
                            workers=workers)
    start = time.perf_counter()
    outcomes = queue_map(_run_mutant, jobs, config=distrib, workers=workers)
    report.mutants = [
        outcome if not isinstance(outcome, JobFailure)
        else outcome.error_dict(
            benchmark=outcome.job["benchmark"], site=outcome.job["site"],
            status="error", kind=None, schedules_run=0, exhausted=False,
            failure=None)
        for outcome in outcomes
    ]
    report.elapsed_seconds = time.perf_counter() - start
    return report
