"""Fast-forward replay against the full-recording replay it replaced.

The DFS hands the scheduler the choice prefix of a backtrack point.  The
scheduler fast-forwards every prefix choice but the last, applies the last
through its ordinary path, and records only the suffix.  The reference below
is the replay the scheduler did before: the whole prefix goes through the
ordinary recording loop, every decision is recorded, fingerprints and merge
probes start at ``len(prefix)``, and the strategy is shown nothing before
the last prefix choice.

Every run the engine makes during DFS explorations of the suite and of all
notification-deletion mutants (3 threads x 2 ops) is executed both ways.
From the first fresh decision on the two must agree on outcome, steps, the
full commit list, the waiting set, the fresh decisions (with event indices
relative to the hand-off), the events, the merge-probe queries and the
strategy's sleep sets.  Counterexamples recorded without minimization must
render the reference's full trace and witness.
"""

import copy
import dataclasses
from collections import Counter

import pytest

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
    """Full-recording replay: no fast-forward, analysis gated by position."""

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
    """Where the fast-forwarded run's recording starts in the reference."""
    if not prefix:
        return 0
    if len(run.prefix) < len(prefix):      # ended before the last choice
        return len(reference.events)
    return reference.decisions[len(prefix) - 1].event_index


def _differences(run, reference, prefix, start):
    fresh = [dataclasses.replace(decision, event_index=decision.event_index - start)
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


class Checker:
    """Stands in for ``engine.run_schedule``: runs both ways and compares."""

    def __init__(self):
        self.mismatches = []
        self.handoffs = Counter()
        #: Per full choice list, the first reference run and whether the
        #: run under test was fast-forwarded (failure checks).
        self.references = {}

    def run_schedule(self, instance, programs, strategy, max_steps=20_000,
                     fingerprints=False, prefix=(), merge_probe=None,
                     symmetry=None):
        reference_strategy = _clone(strategy)
        answers = []

        def recording_probe(fingerprint):
            answer = merge_probe(fingerprint)
            answers.append((fingerprint, answer))
            return answer

        run = scheduler.run_schedule(
            instance, programs, strategy, max_steps, fingerprints=fingerprints,
            prefix=prefix, merge_probe=recording_probe if merge_probe else None,
            symmetry=symmetry)

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
        self.references.setdefault(reference.choices, (reference, bool(prefix)))
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
                    # of a fast-forwarded run come from its re-recording and
                    # must equal the reference's full recording.
                    reference, fast_forwarded = checker.references[failure.schedule]
                    failures[fast_forwarded] += 1
                    verdict = OracleVerdict(False, failure.kind, failure.detail)
                    assert failure.trace == render_trace(reference, programs,
                                                         verdict), (site, por)
                    assert failure.witness == counterexample_witness(
                        compiled.monitor, mutant, programs, reference,
                        verdict), (site, por)
        assert checker.mismatches == []
        # Wherever mutants fail, most counterexamples come from
        # fast-forwarded runs.
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
    # The limit struck inside the fast-forward and after the hand-off, and
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
