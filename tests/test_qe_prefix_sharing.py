"""Prefix-shared elimination steps, checked on Dining Philosophers.

A ``QuantifierEliminator`` memoizes each step per (body, variables
eliminated so far), so abduction's variable subsets of one obligation share
the steps their eliminated lists have in common.  Dining Philosophers is
the suite monitor whose eliminations mostly fail (a DNF over budget after a
boolean step), and the step-by-step reference of ``test_qe_reference.py``
is too slow for it.  Here every elimination its compile makes is compared
with a fresh eliminator, which shares no step with any other call.
"""

import collections

import pytest

from repro.benchmarks_lib import get_benchmark
from repro.logic import BOOL, build, v
from repro.placement.pipeline import ExpressoPipeline
from repro.smt.qe import QuantifierEliminator


def outcome(function, *args):
    """("ok", result) or ("error", exception class): what must match."""
    try:
        return "ok", function(*args)
    except ValueError as exc:
        return "error", type(exc)


def counting_steps(monkeypatch):
    """Patch ``QuantifierEliminator._step``; return the per-eliminator counts."""
    counts = collections.Counter()
    original = QuantifierEliminator._step

    def counting(self, var, state):
        counts[self] += 1
        return original(self, var, state)

    monkeypatch.setattr(QuantifierEliminator, "_step", counting)
    return counts


@pytest.fixture(scope="module")
def compile_record():
    """The Dining Philosophers compile's eliminations and step counts."""
    calls = []
    original = QuantifierEliminator.forall

    def recording(self, variables):
        result = outcome(original, self, variables)
        calls.append((self, tuple(variables), result))
        if result[0] == "error":
            raise result[1]("recorded")
        return result[1]

    patch = pytest.MonkeyPatch()
    patch.setattr(QuantifierEliminator, "forall", recording)
    steps = counting_steps(patch)
    try:
        ExpressoPipeline().compile(get_benchmark("Dining Philosophers").source)
    finally:
        patch.undo()
    return calls, steps


class TestDiningPhilosophers:
    def test_every_elimination_matches_a_fresh_eliminator(self, compile_record,
                                                          monkeypatch):
        calls, shared_steps = compile_record
        assert len(calls) >= 60
        assert sum(result[0] == "error" for _e, _v, result in calls) >= 40
        fresh_steps = counting_steps(monkeypatch)
        mismatches = [
            [var.name for var in variables]
            for eliminator, variables, result in calls
            if outcome(QuantifierEliminator(eliminator.formula).forall, variables)
            != result
        ]
        assert mismatches == []
        # Sharing steps is what the compile saves.
        assert sum(shared_steps.values()) < sum(fresh_steps.values())

    def test_each_step_runs_at_most_once_per_eliminator(self, compile_record):
        calls, steps = compile_record
        eliminators = {eliminator for eliminator, _v, _r in calls}
        assert set(steps) == eliminators
        # Every step run stores its (body, prefix) key, so a key computed
        # twice would leave fewer keys than runs.
        assert all(steps[eliminator] == len(eliminator._steps)
                   for eliminator in eliminators)



x, y, z = v("x"), v("y"), v("z")
p = v("p", BOOL)


class TestResume:
    def test_a_list_resumes_after_its_longest_eliminated_prefix(self, monkeypatch):
        formula = build.land(build.le(x, y), build.le(y, z), build.lor(p, build.ge(x, 3)))
        eliminator = QuantifierEliminator(formula)
        eliminator.exists([x, y, z])
        steps = counting_steps(monkeypatch)
        assert eliminator.exists([x, y, p]) \
            == QuantifierEliminator(formula).exists([x, y, p])
        assert steps[eliminator] == 1

    def test_a_failed_step_fails_a_longer_list_without_running(self, monkeypatch):
        pairs = [build.lor(v(f"a{k}", BOOL), v(f"b{k}", BOOL)) for k in range(13)]
        formula = build.land(p, *pairs, build.ge(x, y))
        eliminator = QuantifierEliminator(formula)
        with pytest.raises(ValueError):
            eliminator.exists([p, x])
        steps = counting_steps(monkeypatch)
        with pytest.raises(ValueError):
            eliminator.exists([p, x, y])
        assert steps[eliminator] == 0
