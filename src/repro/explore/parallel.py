"""Parallel exploration campaigns: shard sampling budgets over a process pool.

Random and PCT walks are independent, so a sampling campaign parallelizes
embarrassingly — the only care is determinism of the *reported* result.
``random`` / ``pct`` budgets are sharded into contiguous seed blocks (worker
*i* explores walk seeds ``seed+start_i .. seed+end_i-1``); because walk
``seed + k`` is exactly the schedule a sequential campaign would run as
iteration *k*, the merged first failure — minimal global iteration index —
is the same schedule a ``--workers 1`` campaign reports.

A ``dfs`` exploration of one benchmark is one work unit, whatever
``workers`` says: without a store it runs in-process, with one it is a
single leased unit, so its results are the same for every worker count.
Splitting one DPOR search over the first decision's alternatives made the
shards re-explore each other's states (suite at 3x3: 196 judged schedules
in-process, 371-375 over two shards, and slower).

Shards are dispatched through the work queue (:func:`repro.distrib.queue_map`):
every shard is a leased work unit, and results merge in unit order.  With
a persistent ``--store`` cooperating processes — extra ``expresso``
invocations pointed at the same path — pick up units too, and the stored
unit results are the campaign's checkpoint: a rerun of the same
configuration collects them instead of exploring again.  Without a store
the queue lives in a private temp store.

Workers never recompile the monitor: the parent ships the *generated coop
class source*, which embeds the POR footprints, plus the reference AST and
the placement, so a worker only ``exec``s the class definition — no SMT
recompilation, no placement.  Each shard proves the matrix entries its DPOR
consults from the shipped placement; no entry travels between processes.

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
from repro.codegen.python_gen import materialize_class
from repro.distrib import (
    CampaignStore,
    DistribConfig,
    JobFailure,
    private_store,
    queue_map,
)
from repro.explore.engine import (
    ExplorationResult,
    coop_class_for_explicit,
    coop_monitor_and_class,
    explore_class,
)
from repro.lang.ast import Monitor
from repro.resilience.atomic import checksum_payload


def default_workers() -> int:
    return os.cpu_count() or 2


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


def _rebuild_class(job: dict) -> type:
    cls = materialize_class(job["class_source"], job["class_name"])
    cls._coop_explicit = job["explicit"]
    return cls


def _run_shard(job: dict) -> ExplorationResult:
    """One worker's slice of a campaign (executed in a pool process)."""
    return explore_class(
        job["monitor"], _rebuild_class(job),
        job["programs"], strategy=job["strategy"], budget=job["budget"],
        seed=job["seed"], max_steps=job["max_steps"],
        stop_on_failure=job["stop_on_failure"], minimize=job["minimize"],
        benchmark=job["benchmark"], discipline=job["discipline"],
        por=job["por"], semantic=job.get("semantic_por", True),
        symmetry=job.get("symmetry", True), witness=job.get("witness", False))


def _run_mutant(job: dict) -> dict:
    """Explore one notification-deleted mutant (executed in a pool process).

    The job is a DPOR shard of the mutant's own coop class, which the driver
    built with the mutant's footprints (see :func:`mutation_campaign`); the
    shard proves its matrix entries against the mutant.
    """
    result = _run_shard(job)
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

    The first failure is chosen deterministically — minimal global iteration
    index (``failure.seed - base_seed``) — independent of worker count and
    scheduling jitter.  A DFS campaign has one shard, which passes through.
    """
    first = shards[0]
    merged = ExplorationResult(
        benchmark=first.benchmark, discipline=first.discipline,
        strategy=strategy, seed=base_seed, threads=first.threads,
        ops=first.ops, workers=workers)
    for shard in shards:
        merged.schedules_run += shard.schedules_run
        merged.completed += shard.completed
        merged.stalls += shard.stalls
        merged.pruned += shard.pruned
        merged.por_skipped += shard.por_skipped
        merged.symmetry_skipped += shard.symmetry_skipped
        merged.oracle_hits += shard.oracle_hits
        merged.oracle_misses += shard.oracle_misses
    merged.distinct_states = max(shard.distinct_states for shard in shards)
    merged.exhausted = all(shard.exhausted for shard in shards)
    merged.budget_exhausted = any(shard.budget_exhausted for shard in shards)
    merged.failures = sorted(
        (failure for shard in shards for failure in shard.failures),
        key=lambda failure: failure.seed if failure.seed is not None else 0)
    merged.elapsed_seconds = elapsed
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


def parallel_explore_class(monitor: Monitor, coop_class: type, programs,
                           strategy: str = "random", budget: int = 200,
                           seed: int = 0, max_steps: int = 20_000,
                           stop_on_failure: bool = True, minimize: bool = True,
                           benchmark: str = "?", discipline: str = "?",
                           por: bool = True, semantic: bool = True,
                           symmetry: bool = True, witness: bool = False,
                           workers: Optional[int] = None,
                           store: Optional[CampaignStore] = None,
                           distrib: Optional[DistribConfig] = None,
                           ) -> ExplorationResult:
    """`explore_class`, sharded over the work dispatcher.

    Without a *store*, one worker or a DFS strategy runs the sequential
    engine in-process; with one, a DFS exploration is a single work unit.
    The coop class must carry ``_coop_source`` (all engine-built classes do)
    so workers can rebuild it without recompiling.  Inside a traced
    session every shard is recorded, wherever it runs, and its events reach
    the session in shard (= job) order — for sampling strategies exactly
    the sequential walk order, so the trace is worker-count-stable.

    Shards are work units of :func:`repro.distrib.queue_map`, in the
    persistent campaign *store* when one is given (cooperating processes
    pointed at the same path claim units too) and otherwise in a private
    temp store.  A shard whose worker keeps dying or hanging is
    *quarantined* — recorded in ``result.worker_failures`` with its shard
    parameters — while every surviving shard's coverage and failures are
    still merged.  A lost shard also forces ``exhausted=False``: the merged
    result never claims full coverage of a search nobody finished.
    """
    workers = workers or default_workers()
    source = getattr(coop_class, "_coop_source", None)
    dfs = strategy == "dfs"
    if source is None or (store is None and (workers <= 1 or dfs)):
        return explore_class(
            monitor, coop_class, programs, strategy=strategy, budget=budget,
            seed=seed, max_steps=max_steps, stop_on_failure=stop_on_failure,
            minimize=minimize, benchmark=benchmark, discipline=discipline,
            por=por, semantic=semantic, symmetry=symmetry, witness=witness)
    # Explicit coop sources embed footprints as a class-attribute literal,
    # so rebuilding from source restores them; automatic runtimes have none.
    base_job = {
        "class_source": source,
        "class_name": coop_class.__name__,
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
    }
    blocks = [(0, budget)] if dfs else _shard_bounds(budget, workers)
    jobs = [dict(base_job, seed=seed + start, budget=end - start)
            for start, end in blocks]
    with (nullcontext(store) if store is not None
          else private_store()) as dispatch_store:
        # Units carry trace payloads only when traced, so a traced rerun
        # must not collect an untraced run's stored results.
        batch_key = checksum_payload([
            benchmark, discipline, strategy, source,
            [[repr(op) for op in program] for program in programs],
            budget, seed, max_steps, stop_on_failure, minimize,
            por, semantic, symmetry, witness, obs.tracer().enabled,
            len(jobs)])[:16]
        start_time = time.perf_counter()
        outcomes = queue_map(
            _run_shard, jobs, dispatch_store, batch=f"explore/{batch_key}",
            config=distrib, workers=min(workers, len(jobs)))
        elapsed = time.perf_counter() - start_time
    shards: List[ExplorationResult] = []
    lost: List[dict] = []
    for job, outcome in zip(jobs, outcomes):
        if isinstance(outcome, JobFailure):
            lost.append(outcome.error_dict(
                shard={"seed": job["seed"], "budget": job["budget"]}))
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
    """`explore_benchmark` through :func:`parallel_explore_class`.

    Building the coop class compiles the monitor; that stays out of any
    trace the caller records.
    """
    with obs.observe():
        reference, coop_class = coop_monitor_and_class(spec, discipline,
                                                       pipeline)
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
    exec mutant class sources and explore, proving the matrix entries their
    DPOR consults.  Uses DPOR DFS so small bounds exhaust — a surviving
    mutant is then either *benign* (search exhausted: the signal is
    unobservable under this workload bound) or a genuine detection gap
    (``survived``), which fails the campaign.  *distrib* carries the
    dispatch knobs (per-job deadline, attempts); a mutant whose worker keeps
    dying or hanging is reported with status ``error``.
    """
    from repro.placement.pipeline import ExpressoPipeline, expresso_result

    pipeline = pipeline if pipeline is not None else ExpressoPipeline()
    workers = workers or default_workers()
    jobs: List[dict] = []
    for spec in specs:
        compiled = expresso_result(spec, pipeline)
        programs = [list(program) for program in spec.workload(threads, ops)]
        for site in compiled.explicit.notification_sites():
            mutant = compiled.explicit.without_notification(*site)
            # Matrix entries can rest on notification-order proofs (the
            # monotone-broadcast rule), so each mutant's shard proves its own
            # entries against the mutant; the shared solver's commute memo
            # makes every pair the deletion does not touch a cache hit.
            cls = coop_class_for_explicit(mutant)
            jobs.append({
                "benchmark": spec.name,
                "site": list(site),
                "class_source": cls._coop_source,
                "class_name": cls.__name__,
                "explicit": mutant,
                "monitor": compiled.monitor,
                "programs": programs,
                "strategy": "dfs",
                "budget": budget,
                "seed": 0,
                "max_steps": max_steps,
                "stop_on_failure": True,
                "minimize": minimize,
                "discipline": "mutant",
                "por": True,
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
