"""Prefix-shared elimination steps, checked on Dining Philosophers.

A ``QuantifierEliminator`` memoizes each step per (body, variables
eliminated so far), so abduction's variable subsets of one obligation share
the steps their eliminated lists have in common.  Dining Philosophers is
the suite monitor whose eliminations mostly fail (a DNF over budget after a
boolean step), and the step-by-step reference of ``test_qe_reference.py``
is too slow for it.  Here every elimination its compile makes, and that of
the same monitor with four forks, is compared with a fresh eliminator,
which shares no step with any other call.

Abduction orders each eliminated list by the invariant's vocabulary and
skips kept sets without a vocabulary variable; the last tests pin both
rules and the work a suite compile spends on eliminations.
"""

import collections
from operator import attrgetter

import pytest

from repro.analysis import abduction
from repro.analysis.abduction import abduce
from repro.benchmarks_lib import ALL_BENCHMARKS, get_benchmark
from repro.lang import load_monitor
from repro.logic import BOOL, build, v
from repro.logic.free_vars import free_vars
from repro.placement.pipeline import ExpressoPipeline
from repro.smt.qe import QuantifierEliminator
from repro.smt.solver import Solver


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


#: The suite's Dining Philosophers and the same monitor with four forks:
#: array-scalarized fields whose eliminations mostly hit the DNF budget.
DINING = get_benchmark("Dining Philosophers").source
DINING_SOURCES = (DINING, DINING.replace("const int N = 3;", "const int N = 4;"))


@pytest.fixture(scope="module")
def compile_record():
    """The Dining Philosophers compiles' eliminations and step counts."""
    assert DINING_SOURCES[1] != DINING
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
        for source in DINING_SOURCES:
            ExpressoPipeline().compile(source)
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


# ---------------------------------------------------------------------------
# Vocabulary-ordered eliminations in abduction
# ---------------------------------------------------------------------------


def recording_forall(monkeypatch):
    """Patch ``QuantifierEliminator.forall``; return the eliminated lists."""
    lists = []
    original = QuantifierEliminator.forall

    def recording(self, variables):
        lists.append(tuple(variables))
        return original(self, variables)

    monkeypatch.setattr(QuantifierEliminator, "forall", recording)
    return lists


def kept_sets(obligation, lists):
    """The kept set of each eliminated list: the obligation's other variables."""
    variables = sorted(free_vars(obligation), key=lambda var: var.name)
    return [tuple(var for var in variables if var not in eliminated)
            for eliminated in lists]


def is_vocabulary_ordered(eliminated, vocabulary):
    """Outside *vocabulary* first, then inside, each group sorted by name."""
    outside = [var for var in eliminated if var.name not in vocabulary]
    inside = [var for var in eliminated if var.name in vocabulary]
    return list(eliminated) == (sorted(outside, key=attrgetter("name"))
                                + sorted(inside, key=attrgetter("name")))


class TestVocabularyOrder:
    def test_a_kept_set_without_a_vocabulary_variable_is_not_eliminated(
            self, monkeypatch):
        a, b = v("a"), v("b")
        pre = build.land(build.le(x, a), build.le(a, b))
        goal = build.le(b, x)
        lists = recording_forall(monkeypatch)
        abduce(pre, goal, Solver(), vocabulary={"x"})
        kept = kept_sets(build.implies(pre, goal), lists)
        # The unrestricted loop also eliminates for (a,), (b,) and (a, b).
        assert kept == [(x,), (a, x), (b, x)]

    def test_max_subsets_is_applied_before_the_skip(self, monkeypatch):
        names = ("a", "b", "c", "d", "e", "f")
        variables = [v(name) for name in names]
        pre = build.land(*(build.le(left, right)
                           for left, right in zip(variables, variables[1:])))
        goal = build.le(variables[-1], variables[0])
        obligation = build.implies(pre, goal)
        subsets = abduction._variable_subsets(variables, 2)
        assert len(subsets) > 16
        vocabulary = {"b", "f"}
        lists = recording_forall(monkeypatch)
        abduce(pre, goal, Solver(), vocabulary=vocabulary)
        expected = [kept for kept in subsets[:16]
                    if any(var.name in vocabulary for var in kept)]
        assert kept_sets(obligation, lists) == expected
        # Skipping first would reach (c, f), which the slice drops.
        assert (v("c"), v("f")) not in expected

    def test_each_eliminated_list_puts_outside_variables_first(self, monkeypatch):
        a, b = v("a"), v("b")
        pre = build.land(build.le(a, x), build.le(x, b), build.le(b, y))
        goal = build.le(y, a)
        lists = recording_forall(monkeypatch)
        abduce(pre, goal, Solver(), vocabulary={"a", "b"})
        assert lists and all(is_vocabulary_ordered(eliminated, {"a", "b"})
                             for eliminated in lists)
        # Sorted by name alone, the list for (a,) would be [b, x, y].
        assert (x, y, b) in lists


@pytest.fixture(scope="module")
def suite_work():
    """Every suite compile's eliminated lists, each with its monitor's
    fields and its obligation, and the QE work: forall calls, steps and
    cube projections."""
    lists = []
    work = collections.Counter()
    patch = pytest.MonkeyPatch()
    fields = ()
    for name in ("forall", "_step", "_project_cube"):
        original = getattr(QuantifierEliminator, name)

        def counting(self, *args, _original=original, _name=name):
            work[_name] += 1
            if _name == "forall":
                lists.append((fields, self.formula, tuple(args[0])))
            return _original(self, *args)

        patch.setattr(QuantifierEliminator, name, counting)
    try:
        for benchmark in ALL_BENCHMARKS.values():
            fields = load_monitor(benchmark.source).field_names()
            ExpressoPipeline().compile(benchmark.source)
    finally:
        patch.undo()
    return lists, work


class TestSuiteWork:
    def test_every_suite_elimination_is_vocabulary_ordered(self, suite_work):
        lists, _work = suite_work
        assert len(lists) >= 300
        assert all(is_vocabulary_ordered(eliminated, fields)
                   for fields, _obligation, eliminated in lists)

    def test_every_suite_elimination_keeps_a_field(self, suite_work):
        lists, _work = suite_work
        assert all(any(var.name in fields for var in kept)
                   for fields, obligation, eliminated in lists
                   for kept in kept_sets(obligation, [eliminated]))

    def test_a_suite_compile_spends_at_most_the_measured_work(self, suite_work):
        # Ceilings of work at the values measured when abduction started
        # ordering its eliminations by vocabulary (forall calls 399 -> 325,
        # steps 499 -> 361, cube projections 8,316 -> 4,298); the identity of
        # what the eliminations yield is pinned elsewhere, not here.
        _lists, work = suite_work
        assert work["forall"] <= 325
        assert work["_step"] <= 361
        assert work["_project_cube"] <= 4298
