"""The coverage-guided fuzzing campaign driver (``expresso fuzz``).

The loop is the classic greybox cycle instantiated over monitor programs:

1. **bootstrap** — evaluate generated roots until the corpus has seeds;
2. **select** — a power schedule picks parents, favouring entries whose run
   added new coverage (``gain``) and spreading picks across the corpus;
3. **mutate** — a rendezvous-hashed operator (deterministic per
   ``(campaign seed, round, slot)``) transforms the parent's monitor AST,
   falling back through the operator order and finally to fresh generation;
4. **evaluate** — each candidate batch goes through the work dispatcher
   (:func:`repro.distrib.queue_map`): each job compiles the monitor,
   explores it, and extracts coverage features + findings (with
   Definition 3.4 witnesses);
5. **merge** — results are folded in batch-slot order: the coverage map
   unions deterministically, fingerprint-novel candidates join the corpus,
   findings are deduplicated by (kind, minimized schedule, coverage
   fingerprint).

Everything observable — the corpus, the coverage map, the finding set — is a
pure function of the campaign seed, the starting corpus and the budget; the
worker count only changes wall-clock time.  The budget counts **judged
schedules**, so equal-budget comparisons against blind random generation
(``tests/test_fuzz.py::TestFuzzGain``) are fair.

Crash safety: with an on-disk store, the driver appends one self-contained
**checkpoint record** to the corpus journal after the bootstrap and after
every mutation round — admission-ordered entry ids, power-schedule picks,
coverage, findings, and the result counters.  That record is the corpus's
only checkpoint: a fresh invocation starts from the last record's coverage,
findings and round counter (and every entry file), and ``resume=True``
restores the whole record and continues the *same* invocation; because
checkpoints carry no timing and every round is a pure function of (seed,
round index, restored state), a campaign killed at any point and resumed
produces a byte-identical corpus directory — journal included — to one
that never crashed.  A pool worker's death or a hang past
``config.distrib.deadline`` costs the candidate one attempt; a candidate
that exhausts its attempts is quarantined into ``compile_errors`` as a
per-candidate ``worker:`` error.

Distributed campaigns: with ``config.distrib`` pointing at a shared
:class:`~repro.distrib.CampaignStore`, candidate batches are dispatched
through that store's lease-based work-stealing queue instead of a private
temp one.  Any process pointed at the store — the driver, its pool workers,
extra ``expresso fuzz --store PATH --helper`` invocations — claims units
under TTL leases; a crashed helper's unit is stolen after the lease
expires.  Unit ids
are keyed by entry id, so a resumed driver re-enqueueing a replayed round
reuses stored results and merges stay deterministic.  The driver mirrors
every checkpoint record into the store's ``fuzz/checkpoint`` frontier, which
the campaign console reads.  Checkpoint records embed each newly admitted
entry's full record (``entry_records``), so a corpus directory whose journal
is *ahead* of its entry files rolls forward on resume/repair instead of
failing.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import field
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
# Every campaign compiles, explores and minimizes: load now what the pipeline
# and the engine import on first use, so the campaign's run imports nothing.
from repro.analysis import abduction, commutativity  # noqa: F401
from repro.analysis.lint import checks  # noqa: F401
from repro.lang import check, lexer, parser  # noqa: F401
from repro.distrib import (
    CampaignStore,
    DistribConfig,
    JobFailure,
    mark_active,
    mark_finished,
    queue_map,
)
from repro.record import record
from repro.explore import engine, reduce, trace  # noqa: F401
from repro.fuzz.corpus import (
    CorpusEntry,
    CorpusStore,
    CorruptCorpusError,
    entry_from_generated,
)
from repro.fuzz.coverage import CoverageMap, coverage_fingerprint, run_features, state_shape
from repro.fuzz.generate import balanced_workload, derive_seed, roles_from_json, roles_to_json
from repro.fuzz import mutate
from repro.fuzz.mutate import CROSSOVER_OPERATORS, OPERATORS, apply_operator, remember
from repro.placement.pipeline import ExpressoPipeline, ExpressoResult
from repro.resilience import fault_check
from repro.smt.cache import FormulaCache


@record
class FuzzConfig:
    """Campaign knobs (all deterministic inputs)."""

    seed: int = 0
    budget: int = 2000            # total judged schedules this invocation
    per_run_budget: int = 120     # engine budget per candidate
    threads: int = 3              # bootstrap workload bounds (mutable by
    ops: int = 2                  # the resize-bounds operator)
    batch_size: int = 8
    bootstrap: int = 8
    max_findings: int = 10
    max_rounds: int = 1000
    workers: int = 1
    strategy: str = "dfs"
    max_steps: int = 20_000
    #: Continue the last journaled invocation (rolling the corpus back to
    #: its last valid checkpoint first) instead of starting a new one.
    resume: bool = False
    #: Dispatch knobs (per-job deadline, attempts, lease timing); with a
    #: ``store_path`` candidate batches go through that shared store's
    #: work-stealing queue so cooperating processes evaluate units too.
    distrib: Optional[DistribConfig] = None

    def fingerprint_dict(self) -> dict:
        """The deterministic inputs a resumed invocation must match.

        ``workers`` and ``distrib`` (store topology and lease knobs) are
        excluded: they change wall-clock behaviour only, never the
        campaign's observable results.
        """
        return {"seed": self.seed, "budget": self.budget,
                "per_run_budget": self.per_run_budget,
                "threads": self.threads, "ops": self.ops,
                "batch_size": self.batch_size, "bootstrap": self.bootstrap,
                "max_findings": self.max_findings,
                "max_rounds": self.max_rounds, "strategy": self.strategy,
                "max_steps": self.max_steps}


@record
class FuzzCampaignResult:
    """Everything one campaign invocation produced (timing kept out of
    :meth:`to_dict` so artifacts stay byte-stable)."""

    seed: int
    budget: int
    workers: int
    strategy: str
    rounds: int = 0
    monitors: int = 0
    schedules_run: int = 0
    corpus_size: int = 0
    corpus_added: int = 0
    new_features: int = 0
    coverage_counts: Dict[str, int] = field(default_factory=dict)
    coverage_total: int = 0
    findings: List[dict] = field(default_factory=list)
    duplicate_findings: int = 0
    compile_errors: List[dict] = field(default_factory=list)
    operator_stats: Dict[str, Dict[str, int]] = field(default_factory=dict)
    elapsed_seconds: float = 0.0
    #: Shared-store lease counters (``distrib.*``) when the campaign ran
    #: against a distributed store; ``None`` — and absent from
    #: :meth:`to_dict` — otherwise, keeping legacy artifacts byte-stable.
    distrib: Optional[Dict[str, int]] = None

    @property
    def ok(self) -> bool:
        return not self.findings

    @property
    def coverage_per_schedule(self) -> float:
        if self.schedules_run <= 0:
            return 0.0
        return self.coverage_total / self.schedules_run

    def to_dict(self) -> dict:
        record = {
            "seed": self.seed,
            "budget": self.budget,
            "workers": self.workers,
            "strategy": self.strategy,
            "rounds": self.rounds,
            "monitors": self.monitors,
            "schedules_run": self.schedules_run,
            "corpus_size": self.corpus_size,
            "corpus_added": self.corpus_added,
            "new_features": self.new_features,
            "coverage_counts": dict(sorted(self.coverage_counts.items())),
            "coverage_total": self.coverage_total,
            "findings": list(self.findings),
            "duplicate_findings": self.duplicate_findings,
            "compile_errors": list(self.compile_errors),
            "operator_stats": {name: dict(sorted(stats.items()))
                               for name, stats in
                               sorted(self.operator_stats.items())},
            "ok": self.ok,
        }
        # Lease counters are timing-dependent (renewals, steals), so they
        # only appear when a shared store was actually in play.
        if self.distrib is not None:
            record["distrib"] = {name: int(value) for name, value in
                                 sorted(self.distrib.items())}
        return record


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


#: One pipeline (with a shared formula cache) per worker process: SMT
#: compilation dominates campaign wall time and mutants share most of their
#: bodies with their parents, so memoized validity/commute verdicts pay for
#: themselves immediately.  Caches change speed, never verdicts, so
#: determinism is unaffected.
_WORKER_PIPELINE = None

#: Campaign-scoped reuse, keyed by content and released with the pipeline
#: (``mutate._PARSED`` holds the parses): per distinct source its pipeline
#: result and coop class (whose ``_coop_semantic`` memo keeps the DFS
#: matrix), and per distinct DFS job its outcome.  Each table holds at most
#: ``mutate.REUSE_LIMIT`` entries.
_PROGRAMS: Dict[str, Tuple[ExpressoResult, type]] = {}
_OUTCOMES: Dict[str, dict] = {}


def _worker_pipeline():
    global _WORKER_PIPELINE
    if _WORKER_PIPELINE is None:
        _WORKER_PIPELINE = ExpressoPipeline(cache=FormulaCache())
    return _WORKER_PIPELINE


def _outcome_key(job: dict) -> Optional[str]:
    """The reuse key of a DFS job: every field but its id and seed, which
    DPOR never reads.  Sampling strategies walk by the seed: no key."""
    if job["strategy"] != "dfs":
        return None
    return json.dumps({name: value for name, value in job.items()
                       if name not in ("entry_id", "explore_seed")},
                      sort_keys=True)


def _evaluate_candidate(job: dict) -> dict:
    """Compile + explore one candidate and extract its coverage (pool job).

    In a traced campaign the work queue records each candidate in a session
    of its own, wherever it runs; the ``fuzz.candidate`` span is its root.
    A DFS job equal to an earlier one but for its id and seed gets that
    job's outcome, unless the outcome has failures or an error; any other
    job of an already-compiled source explores the program compiled first.
    The span's ``reused`` names which of the two happened, if any.
    """
    fault_check("fuzz.candidate", token=job["entry_id"])
    with obs.tracer().span("fuzz.candidate", cat="fuzz",
                           entry=job["entry_id"]) as span:
        key = _outcome_key(job)
        outcome = _OUTCOMES.get(key)
        if outcome is not None:
            outcome, reused = {**outcome, "entry_id": job["entry_id"]}, "outcome"
        else:
            reused = "compile" if _PROGRAMS.get(job["source"]) else ""
            outcome = _evaluate_candidate_inner(job)
            if (key is not None and "error" not in outcome
                    and not outcome["failures"]):
                remember(_OUTCOMES, key, outcome)
        span.set(ok=outcome.get("ok", False), error="error" in outcome,
                 reused=reused)
    return outcome


def _evaluate_candidate_inner(job: dict) -> dict:
    # The engine's entry points are looked up on the module at call time, so
    # instrumentation that wraps them as module attributes sees every call.
    base = {"entry_id": job["entry_id"], "schedules_run": 0}
    source = job["source"]
    program = _PROGRAMS.get(source)
    if program is None:
        try:
            # A mutant's validation already parsed its text; a text nobody
            # parsed yet is parsed inside the compile.
            compiled = _worker_pipeline().compile(
                mutate._PARSED.get(source) or source)
        except Exception as exc:
            return {**base, "error": f"compile: {type(exc).__name__}: {exc}"}
    try:
        if program is None:
            program = (compiled, engine.coop_class_for_explicit(
                compiled.explicit, placement=compiled.placement))
            remember(_PROGRAMS, source, program)
        compiled, coop_class = program
        # The coverage's matrix axis reads every entry, so the first DFS
        # candidate of a class proves the whole matrix and every exploration
        # reads it from the class's memo.  Only this proof creates the memo
        # here: sampling strategies explore without it.
        matrix = None
        if job["strategy"] == "dfs":
            matrix = getattr(coop_class, "_coop_semantic", None)
            if matrix is None:
                matrix, _delta = commutativity.matrix_with_statistics(
                    compiled.explicit)
                coop_class._coop_semantic = matrix
        # The codegen hook embedded the placement signature in the class;
        # read it back so coverage extraction and any worker that rebuilds
        # the class from source consume the same artifact.
        signature = coop_class._coop_placement
        programs = balanced_workload(roles_from_json(job["roles"]),
                                     job["threads"], job["ops"])
        result = engine.explore_class(
            compiled.monitor, coop_class, programs,
            strategy=job["strategy"], budget=job["budget"],
            seed=job["explore_seed"], max_steps=job["max_steps"],
            stop_on_failure=True, minimize=True,
            benchmark=job["name"], discipline="fuzz",
            por=True, semantic=matrix is not None, symmetry=True,
            state_shape=state_shape, witness=True)
    except Exception as exc:
        return {**base, "error": f"explore: {type(exc).__name__}: {exc}"}
    features = run_features(result, explicit=compiled.explicit, matrix=matrix,
                            placement_signature=signature)
    outcome = {
        "entry_id": job["entry_id"],
        "features": {axis: sorted(values) for axis, values in features.items()},
        "fingerprint": coverage_fingerprint(features),
        "schedules_run": result.schedules_run,
        "summary": {
            "schedules_run": result.schedules_run,
            "completed": result.completed,
            "stalls": result.stalls,
            "distinct_states": result.distinct_states,
            "exhausted": result.exhausted,
        },
        "ok": result.ok,
        "failures": [failure.to_dict() for failure in result.failures],
    }
    # A dirty static analysis on a generated monitor is triage signal for any
    # dynamic finding; clean reports stay out to keep artifacts stable.
    if compiled.lint_report is not None and not compiled.lint_report.clean:
        outcome["lint"] = compiled.lint_report.to_dict()
    return outcome


# ---------------------------------------------------------------------------
# Selection
# ---------------------------------------------------------------------------


def _select_parent(entries: Sequence[CorpusEntry],
                   exclude: Optional[str] = None) -> Optional[CorpusEntry]:
    """Power schedule: favour high-gain seeds, spread picks across the corpus.

    Score is ``(gain + 1) / (picks + 1)`` — a seed whose last run added new
    coverage outranks exhausted ones, and every pick decays the seed so the
    schedule cycles through the corpus instead of fixating.  Ties break by
    corpus order, which is deterministic (load order, then admission order).
    """
    best = None
    best_score = None
    for index, entry in enumerate(entries):
        if entry.entry_id == exclude:
            continue
        score = ((entry.gain + 1) / (entry.picks + 1), -index)
        if best_score is None or score > best_score:
            best, best_score = entry, score
    return best


def _select_operator(slot_seed: int, corpus_size: int) -> List[str]:
    """Operator preference order for one slot (rendezvous-hashed).

    Returns the full registry sorted by each operator's derived digest, so
    the driver can fall through deterministically when an operator does not
    apply; crossover is excluded while the corpus cannot supply a mate.
    """
    names = [name for name in OPERATORS
             if corpus_size >= 2 or name not in CROSSOVER_OPERATORS]
    return sorted(names, key=lambda name: derive_seed(slot_seed, name),
                  reverse=True)


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def _entry_job(entry: CorpusEntry, config: FuzzConfig) -> dict:
    return {
        "entry_id": entry.entry_id,
        "name": entry.name,
        "source": entry.source,
        "roles": roles_to_json(roles_from_json(entry.roles)),
        "threads": entry.threads,
        "ops": entry.ops,
        "strategy": config.strategy,
        "budget": config.per_run_budget,
        "max_steps": config.max_steps,
        "explore_seed": derive_seed(config.seed, entry.entry_id) % (2 ** 31),
    }


def run_campaign(config: FuzzConfig,
                 store: Optional[CorpusStore] = None) -> FuzzCampaignResult:
    """Run one deterministic coverage-guided campaign invocation."""
    global _WORKER_PIPELINE
    try:
        return _run_campaign(config, store)
    finally:
        # Candidates evaluated in this process (``workers=1``, or this
        # process's own share of a work queue) filled the worker pipeline's
        # formula cache; release it with the campaign instead of pinning it
        # for the life of the process.  Pool workers exit with theirs.  The
        # reuse tables go with it.
        _WORKER_PIPELINE = None
        for table in (mutate._PARSED, _PROGRAMS, _OUTCOMES):
            table.clear()


def _run_campaign(config: FuzzConfig,
                  store: Optional[CorpusStore]) -> FuzzCampaignResult:
    store = store or CorpusStore(None)
    start = time.perf_counter()
    result = FuzzCampaignResult(seed=config.seed, budget=config.budget,
                                workers=config.workers,
                                strategy=config.strategy)
    dstore: Optional[CampaignStore] = None
    if config.distrib is not None and config.distrib.store_path:
        dstore = CampaignStore(config.distrib.store_path)
        dstore.bind_campaign(config.fingerprint_dict())
        mark_active(dstore, config.distrib)

    # -- journal recovery / restore -------------------------------------------
    journal = store.journal()
    checkpoint_record = None
    journal_records: List[dict] = []
    if journal is not None and journal.exists():
        if config.resume:
            replay = journal.truncate_to_valid()
        else:
            replay = journal.replay()
            if replay.torn:
                raise CorruptCorpusError(
                    store.root, "journal has a torn tail; rerun with "
                    "--resume (or --repair) to roll back to the last "
                    "valid checkpoint")
        checkpoint_record = replay.last
        journal_records = replay.records
    resuming = config.resume and checkpoint_record is not None
    if resuming:
        if checkpoint_record["config"] != config.fingerprint_dict():
            raise CorruptCorpusError(
                store.root, "checkpoint was written by a campaign with "
                "different parameters; resume with the original flags")
        store.clean_stale_tmp()
        # A journal ahead of the entry files (lost/tampered directory, but
        # committed frames survive) rolls forward instead of failing: the
        # checkpoint records carry every admitted entry's full record.
        store.roll_forward(journal_records)
        entries = store.load_entries(ids=checkpoint_record["entries"])
        picks = checkpoint_record["picks"]
        for entry in entries:
            entry.picks = int(picks.get(entry.entry_id, 0))
        counters = checkpoint_record["result"]
        result.monitors = counters["monitors"]
        result.schedules_run = counters["schedules_run"]
        result.corpus_added = counters["corpus_added"]
        result.new_features = counters["new_features"]
        result.duplicate_findings = counters["duplicate_findings"]
        result.compile_errors = [dict(item) for item
                                 in counters["compile_errors"]]
        result.operator_stats = {name: dict(stats) for name, stats in
                                 counters["operator_stats"].items()}
    else:
        if config.resume:
            # Nothing journaled yet: nothing was ever committed, so the
            # resume is a fresh start — and any entry files a crash left
            # behind before the first checkpoint are uncommitted and must
            # not seed it.
            store.rollback_uncommitted()
        elif checkpoint_record is not None:
            problems = store.validate()
            if problems:
                raise CorruptCorpusError(
                    store.root, "entry files disagree with the journal "
                    f"({'; '.join(problems)}); rerun with --resume or "
                    "--repair")
        entries = store.load_entries()
    known_ids = {entry.entry_id for entry in entries}
    checkpointed_ids = set(known_ids)
    # The last checkpoint record carries the coverage, findings and round
    # counter both a resume and a fresh start continue from.
    committed = checkpoint_record or {}
    coverage = CoverageMap.from_dict(committed.get("coverage", {}))
    fingerprints = {entry.fingerprint for entry in entries
                    if entry.fingerprint}
    findings: Dict[Tuple, dict] = {}
    for record in committed.get("findings", ()):
        key = (record.get("kind"), tuple(record.get("minimized", ())),
               record.get("coverage_fingerprint"))
        findings[key] = record
    round_index = int(committed.get("round_index", 0))
    rounds_restored = 0
    bootstrap_done = False
    if resuming:
        rounds_restored = int(checkpoint_record["rounds_this_run"])
        bootstrap_done = bool(checkpoint_record["bootstrap_done"])
    tracer = obs.tracer()
    metrics = obs.registry() if tracer.enabled else None

    def operator_stat(name: str) -> Dict[str, int]:
        return result.operator_stats.setdefault(
            name, {"applied": 0, "rejected": 0, "new_coverage": 0, "findings": 0})

    def merge_outcome(outcome, entry: CorpusEntry, op_name: Optional[str]) -> None:
        if isinstance(outcome, JobFailure):
            # The dispatcher quarantined this candidate: record it like a
            # compile error — per-candidate, never campaign-fatal.
            outcome = outcome.error_dict(entry_id=entry.entry_id)
        if metrics is not None:
            metrics.inc("fuzz.candidates")
        result.monitors += 1
        result.schedules_run += outcome.get("schedules_run", 0)
        if "error" in outcome:
            result.compile_errors.append({"entry_id": outcome["entry_id"],
                                          "error": outcome["error"]})
            return
        entry.fingerprint = outcome["fingerprint"]
        entry.features = outcome["features"]
        entry.schedules_run = outcome["summary"]["schedules_run"]
        gain = coverage.add(outcome["features"])
        entry.gain = gain
        result.new_features += gain
        if op_name is not None and gain:
            operator_stat(op_name)["new_coverage"] += 1
        novel = entry.fingerprint not in fingerprints
        if gain and novel:
            fingerprints.add(entry.fingerprint)
            entries.append(entry)
            known_ids.add(entry.entry_id)
            store.save_entry(entry)
            result.corpus_added += 1
        for failure in outcome.get("failures", ()):
            key = (failure.get("kind"), tuple(failure.get("minimized", ())),
                   outcome["fingerprint"])
            if key in findings:
                result.duplicate_findings += 1
                continue
            if op_name is not None:
                operator_stat(op_name)["findings"] += 1
            findings[key] = {
                "entry_id": entry.entry_id,
                "monitor": entry.name,
                "source": entry.source,
                "roles": roles_to_json(roles_from_json(entry.roles)),
                "threads": entry.threads,
                "ops": entry.ops,
                "coverage_fingerprint": outcome["fingerprint"],
                **failure,
            }
            if "lint" in outcome:
                findings[key]["lint"] = outcome["lint"]

    def budget_left() -> bool:
        return (result.schedules_run < config.budget
                and len(findings) < config.max_findings)

    def evaluate_batch(jobs: List[dict], batch: str,
                       keys: List[str]) -> List:
        """Dispatch one candidate batch through the work queue.

        Unit ids are ``<batch>/<entry id>`` — stable across resumes even
        though a replayed round skips already-admitted entries, so a shared
        store's results always line back up with their jobs.  Without a
        shared store the batch runs on a private temp one.
        """
        if dstore is not None:
            mark_active(dstore, config.distrib)
        return queue_map(_evaluate_candidate, jobs, dstore, batch,
                         config.distrib, workers=config.workers, keys=keys)

    def ordered_findings_list() -> List[dict]:
        return sorted(
            findings.values(),
            key=lambda record: (record.get("entry_id", ""),
                                record.get("kind", ""),
                                tuple(record.get("minimized", ()))))

    def checkpoint() -> None:
        """Append one self-contained journal record.

        The record carries everything a resume needs (no timing, nothing
        invocation-specific), so a killed-and-resumed campaign appends the
        *same* records an uninterrupted one would — the journal itself
        converges byte-identically.  Entries admitted since the previous
        checkpoint ride along in full (``entry_records``): committed journal
        frames are then sufficient to rebuild a lost entry file
        byte-identically (see :meth:`CorpusStore.roll_forward`).
        """
        if journal is None:
            return
        meta = {"seed": config.seed, "rounds_completed": round_index,
                "schedules_last_run": result.schedules_run}
        current_findings = ordered_findings_list()
        fresh = [entry for entry in entries
                 if entry.entry_id not in checkpointed_ids]
        record = {
            "type": "checkpoint",
            "config": config.fingerprint_dict(),
            "bootstrap_done": bootstrap_done,
            "round_index": round_index,
            "rounds_this_run": rounds_this_run,
            "entries": [entry.entry_id for entry in entries],
            "entry_records": {entry.entry_id: entry.to_dict()
                              for entry in fresh},
            "picks": {entry.entry_id: entry.picks for entry in entries
                      if entry.picks},
            "coverage": coverage.to_dict(),
            "findings": current_findings,
            "meta": meta,
            "result": {
                "monitors": result.monitors,
                "schedules_run": result.schedules_run,
                "corpus_added": result.corpus_added,
                "new_features": result.new_features,
                "duplicate_findings": result.duplicate_findings,
                "compile_errors": result.compile_errors,
                "operator_stats": result.operator_stats,
            },
        }
        journal.append_if_changed(record)
        checkpointed_ids.update(entry.entry_id for entry in fresh)
        if dstore is not None:
            # Mirror the committed checkpoint into the shared store's
            # frontier, with the driver's heartbeat, in one transaction.
            with dstore.transaction("checkpoint.mirror") as conn:
                dstore.set_frontier("fuzz/checkpoint", record, conn=conn)
                dstore.record_telemetry(
                    f"driver-{os.getpid()}",
                    {"last_heartbeat": time.time(), "role": "driver",
                     "round_index": round_index,
                     "schedules_run": result.schedules_run,
                     "corpus_entries": len(entries)}, conn=conn)

    # -- bootstrap ------------------------------------------------------------
    rounds_this_run = rounds_restored
    boot_jobs: List[Tuple[CorpusEntry, dict]] = []
    if not bootstrap_done:
        for index in range(config.bootstrap):
            entry = entry_from_generated(config.seed, index)
            entry.threads, entry.ops = config.threads, config.ops
            if entry.entry_id in known_ids:
                continue
            boot_jobs.append((entry, _entry_job(entry, config)))
    bootstrap_done = True
    if boot_jobs and budget_left():
        with tracer.span("fuzz.bootstrap", cat="fuzz", batch=len(boot_jobs)):
            outcomes = evaluate_batch(
                [job for _entry, job in boot_jobs], "boot",
                [entry.entry_id for entry, _job in boot_jobs])
        for (entry, _job), outcome in zip(boot_jobs, outcomes):
            if isinstance(outcome, JobFailure):
                outcome = outcome.error_dict(entry_id=entry.entry_id)
            # Bootstrap roots always join the corpus (dedup still applies to
            # their fingerprints for later mutants); they are the search's
            # anchors even when an earlier root covered the same features.
            merge_outcome(outcome, entry, None)
            if entry.entry_id not in known_ids and "error" not in outcome:
                entries.append(entry)
                known_ids.add(entry.entry_id)
                fingerprints.add(entry.fingerprint)
                store.save_entry(entry)
        checkpoint()

    # -- mutation rounds ------------------------------------------------------
    while budget_left() and entries and rounds_this_run < config.max_rounds:
        batch: List[Tuple[CorpusEntry, Optional[str], dict]] = []
        for slot in range(config.batch_size):
            slot_seed = derive_seed(config.seed, "round", round_index, slot)
            parent = _select_parent(entries)
            if parent is None:
                break
            parent.picks += 1
            if metrics is not None:
                metrics.inc("fuzz.power.picks")
            candidate = None
            used_op = None
            mate_entry = None
            for op_name in _select_operator(slot_seed, len(entries)):
                op_seed = derive_seed(slot_seed, op_name)
                mate_entry = None
                mate = None
                if op_name in CROSSOVER_OPERATORS:
                    mate_entry = _select_parent(entries, exclude=parent.entry_id)
                    if mate_entry is None:
                        continue
                    mate = mate_entry.candidate()
                candidate = apply_operator(op_name, parent.candidate(),
                                           op_seed, mate)
                if candidate is not None:
                    used_op = op_name
                    operator_stat(op_name)["applied"] += 1
                    break
                operator_stat(op_name)["rejected"] += 1
            if candidate is None:
                # Every operator refused: inject a fresh generated root.
                fresh_seed = derive_seed(config.seed, "fresh", round_index, slot)
                entry = entry_from_generated(fresh_seed, 0)
                entry.entry_id = f"gen-fresh-{config.seed}-{round_index}-{slot}"
                entry.threads, entry.ops = config.threads, config.ops
                operator_stat("fresh-generation")["applied"] += 1
                if metrics is not None:
                    metrics.inc("fuzz.power.fresh")
            else:
                entry = CorpusEntry(
                    entry_id=f"mut-{config.seed}-{round_index}-{slot}",
                    name=candidate.name, source=candidate.source,
                    roles=candidate.roles,
                    threads=candidate.threads, ops=candidate.ops,
                    parent=parent.entry_id, op=used_op,
                    op_seed=derive_seed(slot_seed, used_op),
                    mate=mate_entry.entry_id if mate_entry else None)
            if entry.entry_id in known_ids:
                continue  # replayed round against a resumed corpus
            batch.append((entry, used_op, _entry_job(entry, config)))
        if not batch:
            round_index += 1
            rounds_this_run += 1
            continue
        with tracer.span("fuzz.round", cat="fuzz", round=round_index,
                         batch=len(batch)):
            outcomes = evaluate_batch(
                [job for _e, _op, job in batch], f"r{round_index:06d}",
                [entry.entry_id for entry, _op, _job in batch])
        for (entry, op_name, _job), outcome in zip(batch, outcomes):
            if isinstance(outcome, JobFailure):
                outcome = outcome.error_dict(entry_id=entry.entry_id)
            merge_outcome(outcome, entry, op_name or "fresh-generation")
        round_index += 1
        rounds_this_run += 1
        checkpoint()

    # -- finalize -------------------------------------------------------------
    result.rounds = rounds_this_run
    result.corpus_size = len(entries)
    result.coverage_counts = coverage.counts()
    result.coverage_total = coverage.total()
    result.findings = ordered_findings_list()
    result.elapsed_seconds = time.perf_counter() - start
    if metrics is not None:
        for name, stats in sorted(result.operator_stats.items()):
            for key, value in sorted(stats.items()):
                if value:
                    metrics.inc(f"fuzz.operator.{name}.{key}", value)
    checkpoint()
    if dstore is not None:
        # Only the store counts leases, across every cooperating process.
        result.distrib = dstore.counters()
        if metrics is not None:
            metrics.merge(result.distrib)
        # Close the liveness window so cooperating helpers drain and exit
        # (and this process's connection); a *crashed* driver instead lets
        # it lapse, keeping helpers around long enough for a resumed driver
        # to take over.
        mark_finished(dstore)
    return result
