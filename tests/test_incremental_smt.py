"""Incremental SMT: one persistent SAT instance per solver.

A :class:`~repro.smt.solver.Solver` keeps one
:class:`~repro.smt.sat.SatSolver` for its lifetime: Tseitin definitions are
loaded once per node, each query solves under one assumption per conjunct,
and learned clauses and theory lemmas stay in the database.  That
may change models, never verdicts.  These tests replay every ``check_sat`` of
a six-monitor compile (Dining Philosophers, the most theory checks, plus
monitors with boolean and integer state) plus ten generated monitors, with
its hypotheses, and compare each verdict with a fresh solver's on the whole
formula, check every model against that formula, and cover the database's limit-and-clear
policy and the shared commutativity solver's per-build clear.
"""

import pytest

from repro.analysis import commutativity
from repro.benchmarks_lib import get_benchmark
from repro.fuzz.generate import random_monitor
from repro.logic.evaluate import truth_value
from repro.placement.pipeline import ExpressoPipeline
from repro.smt import solver as solver_module
from repro.smt.cache import FormulaCache
from repro.smt.solver import SatStatus, Solver
from test_conjunct_queries import whole_query

MONITORS = ("Dining Philosophers", "Ticketed Readers-Writers", "SimpleDecoder",
            "AsyncDispatch", "Readers-Writers", "BoundedBuffer")
GENERATED = tuple(random_monitor(1717, index).source for index in range(10))


@pytest.fixture(scope="module")
def answers():
    """``((formula, hyps), result)`` for every ``check_sat`` the compiles
    made, as their own (persistent, cached) solvers answered."""
    recorded = []
    original = Solver.check_sat

    def recording(self, formula, *, hyps=()):
        result = original(self, formula, hyps=hyps)
        recorded.append(((formula, tuple(hyps)), result))
        return result

    patch = pytest.MonkeyPatch()
    patch.setattr(Solver, "check_sat", recording)
    try:
        for source in [get_benchmark(name).source for name in MONITORS] + list(GENERATED):
            ExpressoPipeline().compile(source)
    finally:
        patch.undo()
    return recorded


@pytest.fixture(scope="module")
def fresh_verdicts(answers):
    """Each distinct query's status from a solver that never saw another,
    asked as one formula (:func:`whole_query`)."""
    return {query: Solver().check_sat(whole_query(*query)).status
            for query in dict.fromkeys(query for query, _ in answers)}


def assert_model_satisfies(query, result):
    __tracebackhide__ = True
    if result.is_sat:
        formula = whole_query(*query)
        assert truth_value(formula, result.model) is True, (formula, result.model)


def test_the_compiles_answer_like_fresh_solvers(answers, fresh_verdicts):
    assert len(answers) >= 1000
    for query, result in answers:
        assert result.status is fresh_verdicts[query], query
        assert_model_satisfies(query, result)
    assert SatStatus.UNKNOWN not in fresh_verdicts.values()


def test_one_solver_across_every_monitor_answers_like_fresh_ones(fresh_verdicts):
    solver = Solver()
    database = solver._sat
    for (formula, hyps), verdict in fresh_verdicts.items():
        result = solver.check_sat(formula, hyps=hyps)
        assert result.status is verdict, (formula, hyps)
        assert_model_satisfies((formula, hyps), result)
    # Definitions, axioms, lemmas and learned clauses all stayed in one
    # database: it holds every clause loaded, plus at most one learned
    # clause per conflict.
    assert solver._sat is database
    clauses = solver.snapshot_statistics()["sat_clauses"]
    assert clauses > 2000
    assert clauses <= database.num_clauses <= clauses + database.conflicts


def test_a_full_database_is_cleared_and_answers_do_not_change(fresh_verdicts, monkeypatch):
    monkeypatch.setattr(solver_module, "_REWRITE_MEMO_LIMIT", 300)
    solver = Solver()
    databases = set()
    sizes = []
    for (formula, hyps), verdict in list(fresh_verdicts.items())[:400]:
        result = solver.check_sat(formula, hyps=hyps)
        assert result.status is verdict, (formula, hyps)
        assert_model_satisfies((formula, hyps), result)
        databases.add(id(solver._sat))
        sizes.append(solver._sat.num_clauses)
    assert len(databases) > 3
    # Cleared before a query once full: one query's clauses past the cap.
    assert max(sizes) < 300 + 200
    assert any(later < earlier for earlier, later in zip(sizes, sizes[1:]))


def test_a_cleared_solver_keeps_its_cache():
    explicit = ExpressoPipeline().compile(get_benchmark("BoundedBuffer").source).explicit
    commutativity._DEFAULT_SOLVER = None
    first, _ = commutativity.matrix_with_statistics(explicit)
    shared = commutativity._default_solver()
    assert shared._sat.num_clauses == 0 and len(shared.rewrite_memo()) == 0
    assert len(shared.cache) > 0
    again, stats = commutativity.matrix_with_statistics(explicit)
    assert again == first
    assert stats["commute_cache_misses"] == 0


def test_the_counters_reach_the_compile_statistics():
    solver = Solver(cache=FormulaCache())
    result = ExpressoPipeline(solver=solver).compile(get_benchmark("Readers-Writers").source)
    stats = result.solver_statistics
    assert stats["sat_clauses"] > 0 and stats["sat_conflicts"] > 0
    assert solver.metrics.value("smt.sat.clauses") == stats["sat_clauses"]
    assert solver.metrics.value("smt.sat.conflicts") == stats["sat_conflicts"]
