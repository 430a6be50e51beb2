"""Restore and quiet replay against the full-recording replay.

The DFS hands the scheduler the choice prefix of a backtrack point and the
checkpoint of its branch point, when one was taken.  The scheduler restores
the checkpoint, applies every remaining prefix choice with recording off,
turns recording on as it applies the last, and records only the suffix.
The reference below is the replay the scheduler did before either existed:
the whole prefix goes through the ordinary recording loop from the initial
state, every decision is recorded, fingerprints and merge probes start at
``len(prefix)``, and the strategy is shown nothing before the last prefix
choice.

Every run the engine makes during DFS explorations of the suite and of all
notification-deletion mutants (3 threads x 2 ops) is executed both ways.
From the first fresh decision on the two must agree on outcome, steps, the
full commit list, the waiting set, the fresh decisions (with event indices
relative to the hand-off), the events, the merge-probe queries and the
strategy's sleep sets.  Counterexamples recorded without minimization must
render the reference's full trace and witness.  Restored states must
fingerprint as recorded, and classes or states a checkpoint cannot hold
must fall back to replay with unchanged results.
"""

import copy
from collections import Counter

import pytest

from repro import obs
from repro.benchmarks_lib import ALL_BENCHMARKS, get_benchmark
from repro.explore import engine, scheduler
from repro.explore.engine import (
    coop_monitor_and_class,
    explore_benchmark,
    explore_explicit,
)
from repro.explore.oracle import OracleVerdict
from repro.explore.scheduler import CoopScheduler, ProgramSymmetry
from repro.explore.strategies import DporStrategy, FirstStrategy, RandomStrategy
from repro.explore.trace import render_trace
from repro.harness.saturation import expresso_result
from repro.runtime.explicit_support import GuardWaiters
from repro.semantics.equivalence import counterexample_witness

# ---------------------------------------------------------------------------
# The reference: replay the prefix through the ordinary recording loop
# ---------------------------------------------------------------------------


class _PrefixReplay:
    """Replay *prefix*, then defer to *inner*.

    The inner strategy observes segments only once the last prefix choice
    has been made, which is what ``DporStrategy``'s own prefix bookkeeping
    used to do.
    """

    def __init__(self, prefix, inner):
        self.prefix = tuple(prefix)
        self.inner = inner
        self.position = 0
        self._observe_grant = getattr(inner, "observe_grant", None)
        self._observe_extent = getattr(inner, "observe_extent", None)

    def choose(self, kind, candidates):
        if self.position < len(self.prefix):
            choice = self.prefix[self.position]
            self.position += 1
            return min(max(choice, 0), len(candidates) - 1)
        return self.inner.choose(kind, candidates)

    def observe_grant(self, tid, method, args=()):
        if self.position >= len(self.prefix) and self._observe_grant is not None:
            self._observe_grant(tid, method, args)

    def observe_extent(self, wait_key):
        if self.position >= len(self.prefix) and self._observe_extent is not None:
            self._observe_extent(wait_key)


class ReferenceScheduler(CoopScheduler):
    """Full-recording replay: no quiet replay, analysis gated by position."""

    def __init__(self, instance, programs, strategy, max_steps=20_000,
                 fingerprints=False, prefix=(), merge_probe=None, symmetry=None):
        super().__init__(instance, programs, _PrefixReplay(prefix, strategy),
                         max_steps, fingerprints=fingerprints,
                         merge_probe=merge_probe, symmetry=symmetry)
        self.fingerprint_after = len(prefix)

    def _loop(self):
        result = self.result
        while True:
            if result.steps >= self.max_steps:
                result.outcome = "step-limit"
                return
            contenders = [t for t in self.threads if t.status == "acquiring"]
            if not contenders:
                result.outcome = ("completed" if all(t.status == "done"
                                                     for t in self.threads)
                                  else "deadlock")
                return
            if len(contenders) == 1:
                self._grant(contenders[0])
                continue
            fingerprint = None
            if (self.fingerprints
                    and len(result.decisions) >= self.fingerprint_after):
                fingerprint = self._fingerprint()
                if self.merge_probe is not None and self.merge_probe(fingerprint):
                    result.outcome = "merged"
                    return
            self._grant(contenders[self._choose(
                "grant", tuple(t.tid for t in contenders), fingerprint,
                tuple(t.program[t.op_index][0] for t in contenders),
                sym_classes=self._symmetry_classes(contenders),
                op_indices=tuple(t.op_index for t in contenders),
                resumes=tuple(t.resume_key for t in contenders))])


# ---------------------------------------------------------------------------
# Running both and comparing
# ---------------------------------------------------------------------------


def _clone(strategy):
    """A copy of *strategy* in its current (unused) state."""
    if isinstance(strategy, DporStrategy):
        clone = copy.copy(strategy)
        clone.sleep = set(strategy.sleep)
        clone.fresh_sleeps = []
        return clone
    return copy.deepcopy(strategy)


def _handoff_event(run, reference, prefix):
    """Where the replaying run's recording starts in the reference."""
    if not prefix:
        return 0
    if len(run.prefix) < len(prefix):      # ended before the last choice
        return len(reference.events)
    return reference.decisions[len(prefix) - 1].event_index


def _differences(run, reference, prefix, start):
    fresh = [decision._replace(event_index=decision.event_index - start)
             for decision in reference.decisions[len(prefix):]]
    pairs = {
        "outcome": (run.outcome, reference.outcome),
        "error": (run.error, reference.error),
        "steps": (run.steps, reference.steps),
        "commits": (run.commits, reference.commits),
        "waiting": (run.waiting, reference.waiting),
        "choices": (run.choices, reference.choices),
        "decisions": (run.decisions, fresh),
        "events": (run.events, reference.events[start:]),
    }
    return [name for name, (mine, theirs) in pairs.items() if mine != theirs]


def _restorable_offsets(reference, prefix_length):
    """The fresh grant decisions where no thread is inside an operation
    that has committed, signalled or broadcast — where checkpoints belong.

    Read off the reference's full event log: generated operations end with
    their ``release`` event.
    """
    offsets = set()
    dirty = set()
    events = iter(reference.events)
    position = 0
    for index, decision in enumerate(reference.decisions):
        for event in events:
            if position == decision.event_index:
                break
            position += 1
            if event.kind in ("commit", "signal", "broadcast"):
                dirty.add(event.thread)
            elif event.kind == "release":
                dirty.discard(event.thread)
        position += 1
        if index >= prefix_length and decision.kind == "grant" and not dirty:
            offsets.add(index - prefix_length)
        if decision.kind == "signal":
            dirty.add(reference.events[decision.event_index].thread)
    return offsets


class Checker:
    """Stands in for ``engine.run_schedule``: runs both ways and compares."""

    def __init__(self):
        self.mismatches = []
        self.handoffs = Counter()
        #: Hand-offs reached from a checkpoint, and prefix runs that
        #: replayed more than their last choice (from the root or from an
        #: earlier checkpoint).
        self.restored = 0
        self.fallbacks = 0
        #: Runs that started from a checkpoint or took one.
        self.checkpointed = 0
        #: Per full choice list, the first reference run and whether the
        #: run under test replayed a prefix (failure checks).
        self.references = {}

    def run_schedule(self, instance, programs, strategy, max_steps=20_000,
                     fingerprints=False, prefix=(), merge_probe=None,
                     symmetry=None, checkpoint=None):
        reference_strategy = _clone(strategy)
        answers = []

        def recording_probe(fingerprint):
            answer = merge_probe(fingerprint)
            answers.append((fingerprint, answer))
            return answer

        run = scheduler.run_schedule(
            instance, programs, strategy, max_steps, fingerprints=fingerprints,
            prefix=prefix, merge_probe=recording_probe if merge_probe else None,
            symmetry=symmetry, checkpoint=checkpoint)

        replayed = iter(answers)
        probed = []

        def replaying_probe(fingerprint):
            probed.append(fingerprint)
            recorded = next(replayed, None)
            return recorded is not None and recorded == (fingerprint, True)

        reference = ReferenceScheduler(
            type(instance)(), programs, reference_strategy, max_steps,
            fingerprints=fingerprints, prefix=prefix,
            merge_probe=replaying_probe if merge_probe else None,
            symmetry=symmetry).run()
        self.compare(run, reference, prefix, strategy, reference_strategy,
                     [fingerprint for fingerprint, _answer in answers], probed)
        if fingerprints and scheduler._restorable_layout(instance) is not None:
            taken = {offset for offset in run.checkpoints
                     if offset < len(run.decisions)}
            depths = {checkpoint.depth - len(run.prefix) - offset
                      for offset, checkpoint in run.checkpoints.items()}
            if (taken != _restorable_offsets(reference, len(prefix))
                    or depths - {0}):
                self.mismatches.append((tuple(prefix), ["checkpoints"]))
        self.references.setdefault(reference.choices, (reference, bool(prefix)))
        if checkpoint is not None and len(run.prefix) == len(prefix):
            self.restored += 1
        if prefix and (checkpoint is None or checkpoint.depth < len(prefix) - 1):
            self.fallbacks += 1
        if checkpoint is not None or run.checkpoints:
            self.checkpointed += 1
        return run

    def compare(self, run, reference, prefix, strategy, reference_strategy,
                probes=(), reference_probes=()):
        start = _handoff_event(run, reference, prefix)
        problems = _differences(run, reference, prefix, start)
        if probes != reference_probes:
            problems.append("merge probes")
        if isinstance(strategy, DporStrategy) and (
                strategy.fresh_sleeps != reference_strategy.fresh_sleeps
                or strategy.sleep != reference_strategy.sleep):
            problems.append("sleep sets")
        if problems:
            self.mismatches.append((tuple(prefix), problems))
        if prefix and len(run.prefix) == len(prefix):
            self.handoffs[reference.decisions[len(prefix) - 1].kind] += 1


@pytest.fixture
def checker(monkeypatch):
    checker = Checker()
    monkeypatch.setattr(engine, "run_schedule", checker.run_schedule)
    return checker


DFS = dict(strategy="dfs", budget=50_000, minimize=False, stop_on_failure=False)


class TestSuite:
    @pytest.mark.parametrize("por", [True, False], ids=["dpor", "plain"])
    def test_every_run_matches_the_reference(self, checker, por):
        for name in sorted(ALL_BENCHMARKS):
            result = explore_benchmark(get_benchmark(name), "expresso",
                                       threads=3, ops=2, por=por, **DFS)
            assert result.exhausted and result.ok, name
        assert checker.mismatches == []
        # Both hand-off shapes were exercised: a grant decision and a
        # signal decision in the middle of a segment.
        assert checker.handoffs["grant"] > 100
        assert checker.handoffs["signal"] > 0
        # Most runs restored their branch point; some replayed from an
        # earlier one or from the root.
        assert checker.restored > 100
        assert checker.fallbacks > 0


class TestMutants:
    @pytest.mark.parametrize("name", sorted(ALL_BENCHMARKS))
    def test_every_run_and_counterexample_matches(self, checker, name):
        spec = get_benchmark(name)
        compiled = expresso_result(spec)
        programs = spec.workload(3, 2)
        failures = Counter()
        for site in compiled.explicit.notification_sites():
            mutant = compiled.explicit.without_notification(*site)
            for por in (True, False):
                checker.references.clear()
                result = explore_explicit(mutant, compiled.monitor, programs,
                                          por=por, witness=True, **DFS)
                assert result.exhausted, (site, por)
                for failure in result.failures:
                    # Recorded without minimization: the trace and witness
                    # of a replaying run come from its re-recording and
                    # must equal the reference's full recording.
                    reference, replayed = checker.references[failure.schedule]
                    failures[replayed] += 1
                    verdict = OracleVerdict(False, failure.kind, failure.detail)
                    assert failure.trace == render_trace(reference, programs,
                                                         verdict), (site, por)
                    assert failure.witness == counterexample_witness(
                        compiled.monitor, mutant, programs, reference,
                        verdict), (site, por)
        assert checker.mismatches == []
        assert checker.restored > 0
        # Wherever mutants fail, most counterexamples come from
        # runs that replayed a prefix.
        assert failures[True] >= failures[False]


# ---------------------------------------------------------------------------
# The step limit, at every point of a replay
# ---------------------------------------------------------------------------


def _handoff_prefixes(coop_class, programs):
    """Prefixes whose last choice is a grant decision / a signal decision."""
    found = {}
    for seed in range(200):
        run = scheduler.run_schedule(coop_class(), programs, RandomStrategy(seed))
        for position, decision in enumerate(run.decisions):
            if position >= 2 and decision.kind not in found:
                found[decision.kind] = run.choices[:position + 1]
        if len(found) == 2:
            return found
    raise AssertionError("no signal decision found")


@pytest.mark.parametrize("kind", ["grant", "signal"])
def test_step_limit_anywhere_in_a_replay(kind):
    # The suite monitor whose 3x2 workload has signal decisions.
    spec = get_benchmark("Sleeping Barber")
    _reference, coop_class = coop_monitor_and_class(spec, "expresso")
    programs = spec.workload(3, 2)
    prefix = _handoff_prefixes(coop_class, programs)[kind]
    symmetry = ProgramSymmetry(programs)
    full = scheduler.run_schedule(coop_class(), programs, FirstStrategy(),
                                  prefix=prefix)
    checker = Checker()
    outcomes = Counter()
    for max_steps in range(full.steps + 2):
        run = scheduler.run_schedule(coop_class(), programs, FirstStrategy(),
                                     max_steps, fingerprints=True,
                                     prefix=prefix, symmetry=symmetry)
        reference = ReferenceScheduler(coop_class(), programs, FirstStrategy(),
                                       max_steps, fingerprints=True,
                                       prefix=prefix, symmetry=symmetry).run()
        checker.compare(run, reference, prefix, None, None)
        outcomes[run.outcome, len(run.prefix) == len(prefix)] += 1
    assert checker.mismatches == []
    # The limit struck inside the replay and after the hand-off, and
    # the largest limits let the run finish.
    assert outcomes["step-limit", False] and outcomes["step-limit", True]
    assert outcomes[full.outcome, True]


def test_a_prefix_longer_than_the_run_ends_inside_the_fast_forward():
    spec = get_benchmark("BoundedBuffer")
    _reference, coop_class = coop_monitor_and_class(spec, "expresso")
    programs = spec.workload(2, 1)
    complete = scheduler.run_schedule(coop_class(), programs, FirstStrategy())
    prefix = complete.choices + (0, 0)
    run = scheduler.run_schedule(coop_class(), programs, FirstStrategy(),
                                 prefix=prefix)
    assert run.outcome == complete.outcome
    assert run.prefix == list(complete.choices)
    assert run.events == [] and run.decisions == []
    assert run.commits == complete.commits and run.steps == complete.steps


def _restore_points(coop_class, programs):
    """(prefix, checkpoint) whose hand-off is a grant / a signal decision.

    The grant prefix restarts at its own branch point; the signal prefix
    restarts at an earlier grant decision and replays the segment up to
    the signal.
    """
    found = {}
    symmetry = ProgramSymmetry(programs)
    for seed in range(200):
        run = scheduler.run_schedule(coop_class(), programs, RandomStrategy(seed),
                                     fingerprints=True, symmetry=symmetry)
        point = None
        for offset, decision in enumerate(run.decisions):
            point = run.checkpoints.get(offset, point)
            if (point is not None and point.depth >= 2
                    and decision.kind not in found
                    and (decision.kind == "signal" or offset in run.checkpoints)):
                alternative = (decision.chosen + 1) % len(decision.candidates)
                found[decision.kind] = (run.choices[:offset] + (alternative,), point)
        if len(found) == 2:
            return found
    raise AssertionError("no restorable signal decision found")


@pytest.mark.parametrize("kind", ["grant", "signal"])
def test_step_limit_after_a_restore(kind):
    spec = get_benchmark("Sleeping Barber")
    _reference, coop_class = coop_monitor_and_class(spec, "expresso")
    programs = spec.workload(3, 2)
    prefix, checkpoint = _restore_points(coop_class, programs)[kind]
    symmetry = ProgramSymmetry(programs)
    full = scheduler.run_schedule(coop_class(), programs, FirstStrategy(),
                                  prefix=prefix)
    checker = Checker()
    outcomes = Counter()
    # A checkpoint is taken below the run's step limit, so limits from
    # there on strike after the restore.
    for max_steps in range(checkpoint.steps + 1, full.steps + 2):
        run = scheduler.run_schedule(coop_class(), programs, FirstStrategy(),
                                     max_steps, fingerprints=True, prefix=prefix,
                                     symmetry=symmetry, checkpoint=checkpoint)
        reference = ReferenceScheduler(coop_class(), programs, FirstStrategy(),
                                       max_steps, fingerprints=True,
                                       prefix=prefix, symmetry=symmetry).run()
        checker.compare(run, reference, prefix, None, None)
        outcomes[run.outcome, len(run.prefix) == len(prefix)] += 1
    assert checker.mismatches == []
    assert outcomes["step-limit", True]
    if kind == "signal":
        # The replayed grant segment before the signal hand-off.
        assert outcomes["step-limit", False]
    assert outcomes[full.outcome, True]


# ---------------------------------------------------------------------------
# Checkpoints: exact restores, and the states and classes that fall back
# ---------------------------------------------------------------------------


def _registries(instance):
    return {name: list(value._snapshots) for name, value in vars(instance).items()
            if isinstance(value, GuardWaiters)}


def test_every_suite_checkpoint_restores_the_recorded_state(monkeypatch):
    saved = {}
    take = CoopScheduler._checkpoint

    def recording_checkpoint(self):
        checkpoint = take(self)
        saved[id(checkpoint)] = (_registries(self.instance),
                                 copy.copy(self.instance.metrics))
        return checkpoint

    runs = []
    real_run_schedule = engine.run_schedule

    def capturing_run_schedule(instance, programs, strategy, *args, **kwargs):
        run = real_run_schedule(instance, programs, strategy, *args, **kwargs)
        runs.append((type(instance), programs, kwargs.get("symmetry"), run))
        return run

    monkeypatch.setattr(CoopScheduler, "_checkpoint", recording_checkpoint)
    monkeypatch.setattr(engine, "run_schedule", capturing_run_schedule)
    for name in sorted(ALL_BENCHMARKS):
        assert explore_benchmark(get_benchmark(name), "expresso", threads=3,
                                 ops=3, **DFS).ok, name
    checked = registered = 0
    for coop_class, programs, symmetry, run in runs:
        for offset, checkpoint in run.checkpoints.items():
            if offset == len(run.decisions):    # the sleep set cut the choice
                continue
            restored = CoopScheduler(coop_class(), programs, FirstStrategy(),
                                     fingerprints=True, symmetry=symmetry,
                                     checkpoint=checkpoint)
            restored._restore(checkpoint)
            registries, metrics = saved[id(checkpoint)]
            assert restored._fingerprint() == run.decisions[offset].fingerprint
            assert _registries(restored.instance) == registries
            assert restored.instance.metrics == metrics
            checked += 1
            registered += any(registries.values())
    assert checked > 1000
    # Some restores re-registered waiter snapshots (Dining Philosophers,
    # the parameterized buffer, Round Robin, Ticketed Readers-Writers).
    assert registered > 0


def _explore_both_ways(monkeypatch, spec, discipline, por):
    checker = Checker()
    monkeypatch.setattr(engine, "run_schedule", checker.run_schedule)
    result = explore_benchmark(spec, discipline, threads=3, ops=2, por=por, **DFS)
    counts = (result.schedules_run, result.pruned, result.por_skipped,
              result.symmetry_skipped, result.distinct_states)
    return checker, result, counts


#: (schedules_run, pruned, por_skipped, symmetry_skipped, distinct_states)
#: at 3 threads x 2 ops, measured before checkpoints existed.
_AUTOSYNCH_READERS_WRITERS = {True: (43, 221, 0, 30, 214),
                              False: (501, 422, 0, 0, 368)}
_TICKETED_READERS_WRITERS = {True: (24, 123, 0, 22, 126),
                             False: (301, 253, 0, 0, 230)}


@pytest.mark.parametrize("por", [True, False], ids=["dpor", "plain"])
def test_an_automatic_runtime_class_replays_from_the_root(monkeypatch, por):
    # The runtime object behind an AutoSynch class is not restorable state.
    checker, result, counts = _explore_both_ways(
        monkeypatch, get_benchmark("Readers-Writers"), "autosynch", por)
    assert result.exhausted and result.ok
    assert counts == _AUTOSYNCH_READERS_WRITERS[por]
    assert checker.mismatches == []
    assert checker.checkpointed == 0 and checker.fallbacks > 0


@pytest.mark.parametrize("por", [True, False], ids=["dpor", "plain"])
def test_a_thread_between_two_ccrs_falls_back(monkeypatch, por):
    # enterReader and enterWriter take a ticket in one CCR and wait for it
    # in the next: a state with a thread in between has no checkpoint.
    spec = get_benchmark("Ticketed Readers-Writers")
    multi = [method.name for method in expresso_result(spec).explicit.methods
             if len(method.ccrs) > 1]
    assert multi
    unrestorable = 0
    real_run_schedule = scheduler.run_schedule

    def counting_run_schedule(*args, **kwargs):
        nonlocal unrestorable
        run = real_run_schedule(*args, **kwargs)
        unrestorable += sum(1 for offset, decision in enumerate(run.decisions)
                            if decision.kind == "grant"
                            and offset not in run.checkpoints)
        return run

    monkeypatch.setattr(scheduler, "run_schedule", counting_run_schedule)
    checker, result, counts = _explore_both_ways(monkeypatch, spec, "expresso", por)
    assert result.exhausted and result.ok
    assert counts == _TICKETED_READERS_WRITERS[por]
    assert checker.mismatches == []
    assert unrestorable > 0 and checker.restored > 0 and checker.fallbacks > 0


# ---------------------------------------------------------------------------
# The work a replay does
# ---------------------------------------------------------------------------


def test_suite_replay_work_is_pinned(monkeypatch):
    """DPOR over the suite at 3 threads x 3 ops, tallied per run.

    The comparisons above check that a replayed run ends up where the full
    recording does; they cannot see a replay that does extra work on the
    way (records events or decisions, fingerprints, walks frames, calls the
    strategy).  These totals pin that work.  Every search is deterministic
    and none of them depends on the hash seed.
    """
    tally = Counter()
    real_run_schedule = engine.run_schedule

    def counting_run_schedule(*args, **kwargs):
        run = real_run_schedule(*args, **kwargs)
        checkpoint = kwargs.get("checkpoint")
        tally["runs"] += 1
        tally["events"] += len(run.events)
        tally["decisions"] += len(run.decisions)
        tally["prefix"] += len(run.prefix)
        tally["restored"] += checkpoint.depth if checkpoint is not None else 0
        return run

    monkeypatch.setattr(engine, "run_schedule", counting_run_schedule)
    with obs.observe(trace=True) as session:
        for name in sorted(ALL_BENCHMARKS):
            result = explore_benchmark(get_benchmark(name), "expresso",
                                       threads=3, ops=3, **DFS)
            assert result.exhausted and result.ok, name
            tally["judged"] += result.schedules_run
    counters = session.registry.snapshot()
    assert dict(tally) == {"runs": 2347, "events": 17497, "decisions": 1925,
                           "prefix": 23090, "restored": 19293, "judged": 196}
    assert {name: counters[name] for name in (
        "explore.scheduler.fingerprints", "explore.scheduler.frame_walks",
        "explore.scheduler.frame_cache_hits",
        "explore.strategy.sleep_wakeups")} == {
        "explore.scheduler.fingerprints": 4044,
        "explore.scheduler.frame_walks": 7960,
        "explore.scheduler.frame_cache_hits": 7782,
        "explore.strategy.sleep_wakeups": 2804}
