"""Unit tests for the incremental CDCL SAT core (repro.smt.sat).

These tests pin down the edge cases of the trail-based search — empty
clauses, unit-only instances, conflicting assumptions, tautology filtering —
the scaling property of an iterative search (a multi-thousand-variable
implication chain), and what incrementality must preserve: clauses learned
under assumptions stay valid for later queries under other assumptions, and
theory lemmas resume the search.  Hypothesis sessions that interleave
``add_clause`` and ``solve(assumptions)`` are checked against brute-force
enumeration.
"""

import itertools

from hypothesis import given, settings, strategies as st

from repro.smt.cache import CachedResult, FormulaCache
from repro.smt.sat import SatSolver


def assert_satisfies(model, clauses):
    __tracebackhint__ = True
    for clause in clauses:
        assert any(model.get(abs(lit), False) == (lit > 0) for lit in clause), \
            f"clause {clause} unsatisfied by {model}"


class TestBasics:
    def test_no_clauses_is_sat(self):
        assert SatSolver().solve() is not None

    def test_empty_clause_is_unsat(self):
        solver = SatSolver()
        solver.add_clause([])
        assert solver.solve() is None

    def test_empty_clause_beats_later_clauses(self):
        solver = SatSolver()
        solver.add_clause([])
        solver.add_clause([1])
        assert solver.solve() is None

    def test_single_unit(self):
        solver = SatSolver()
        solver.add_clause([-3])
        model = solver.solve()
        assert model[3] is False

    def test_unit_only_instance(self):
        solver = SatSolver()
        units = [1, -2, 3, -4, 5]
        for literal in units:
            solver.add_clause([literal])
        model = solver.solve()
        for literal in units:
            assert model[abs(literal)] is (literal > 0)

    def test_contradicting_units_unsat(self):
        solver = SatSolver()
        solver.add_clause([2])
        solver.add_clause([-2])
        assert solver.solve() is None

    def test_propagation_chain(self):
        solver = SatSolver()
        solver.add_clauses([[1], [-1, 2], [-2, 3], [-3, 4]])
        model = solver.solve()
        assert all(model[var] for var in (1, 2, 3, 4))

    def test_requires_search(self):
        clauses = [[1, 2], [-1, 2], [1, -2]]
        solver = SatSolver()
        solver.add_clauses(clauses)
        model = solver.solve()
        assert_satisfies(model, clauses)

    def test_unsat_needs_conflict_analysis(self):
        # All four polarity combinations of two variables are blocked.
        solver = SatSolver()
        solver.add_clauses([[1, 2], [1, -2], [-1, 2], [-1, -2]])
        assert solver.solve() is None


class TestAssumptions:
    def test_assumption_forces_polarity(self):
        solver = SatSolver()
        solver.add_clause([1, 2])
        model = solver.solve([-1])
        assert model[1] is False
        assert model[2] is True

    def test_conflicting_assumptions(self):
        solver = SatSolver()
        solver.add_clause([1, 2])
        assert solver.solve([1, -1]) is None

    def test_assumption_conflicts_with_unit(self):
        solver = SatSolver()
        solver.add_clause([5])
        assert solver.solve([-5]) is None

    def test_assumption_on_unconstrained_variable(self):
        solver = SatSolver()
        solver.add_clause([1])
        model = solver.solve([9])
        assert model[9] is True

    def test_assumptions_make_instance_unsat(self):
        solver = SatSolver()
        solver.add_clauses([[1, 2], [-1, 3]])
        model = solver.solve([-2])
        assert model[1] is True and model[3] is True
        assert solver.solve([1, -3]) is None  # [-1, 3] forces 3


class TestTautologies:
    def test_tautological_clause_dropped(self):
        solver = SatSolver()
        solver.add_clause([1, -1])
        # The clause constrains nothing; the instance is vacuously sat.
        model = solver.solve()
        assert model is not None

    def test_tautology_does_not_mask_unsat(self):
        solver = SatSolver()
        solver.add_clause([2, -2, 1])  # tautological, must not matter
        solver.add_clause([3])
        solver.add_clause([-3])
        assert solver.solve() is None

    def test_tautology_does_not_skew_occurrences(self):
        solver = SatSolver()
        solver.add_clause([1, -1])
        assert solver._occurrences == {}

    def test_duplicate_literals_deduplicated(self):
        solver = SatSolver()
        solver.add_clause([4, 4, 4])
        model = solver.solve()
        assert model[4] is True


class TestIncremental:
    def test_clauses_added_between_solves(self):
        solver = SatSolver()
        solver.add_clause([1, 2])
        first = solver.solve()
        assert first is not None
        # Block both variables; the instance becomes unsat.
        solver.add_clause([-1])
        solver.add_clause([-2])
        assert solver.solve() is None

    def test_blocking_clause_enumeration(self):
        solver = SatSolver()
        solver.add_clause([1, 2])
        seen = set()
        while True:
            model = solver.solve()
            if model is None:
                break
            key = (model[1], model[2])
            assert key not in seen, "enumeration revisited a model"
            seen.add(key)
            solver.add_clause([-1 if model[1] else 1, -2 if model[2] else 2])
        assert len(seen) == 3  # all assignments except (False, False)


class TestLearningUnderAssumptions:
    def test_a_clause_learned_under_an_assumption_keeps_it(self):
        # Under a (1), deciding x (2) forces y (3) both ways; the 1UIP clause
        # is (¬x ∨ ¬a).  Learning (¬x) alone would make x impossible for good.
        solver = SatSolver()
        solver.add_clauses([[-1, -2, 3], [-1, -2, -3]])
        assert solver.solve([1])[2] is False
        assert solver.conflicts == 1
        solver.add_clause([2])
        model = solver.solve([-1])
        assert model is not None and model[2] is True
        assert solver.solve([1]) is None

    def test_a_theory_lemma_resumes_the_search(self):
        # The check rejects x ∧ y once; the search backjumps and finds x ∧ ¬y.
        solver = SatSolver()
        solver.add_clauses([[1, 2], [1, 3]])
        seen = []

        def check(model):
            seen.append(dict(model))
            return [-1, -2] if model[1] and model[2] else None

        model = solver.solve([], [1, 2, 3], check)
        assert model[1] is True and model[2] is False
        assert len(seen) == 2
        assert solver.solve([2], [1, 2, 3], check)[1] is False  # the lemma stays


# ---------------------------------------------------------------------------
# Differential: incremental sessions against brute-force enumeration
# ---------------------------------------------------------------------------

MAX_VARS = 10


@st.composite
def sessions(draw):
    """(variable count, forbidden cubes, operations): each operation adds a
    clause or solves under assumptions.

    A dense start of non-unit clauses, then mostly solves under assumptions:
    conflicts below the assumption levels are what learning must get right
    for the queries after them.  Literals come from a seeded ``Random`` so
    that sessions are as dense as uniform sampling makes them.
    """
    rng = draw(st.randoms(use_true_random=False))
    num_vars = draw(st.integers(1, MAX_VARS))

    def clause(low, high):
        return [rng.choice((1, -1)) * rng.randint(1, num_vars)
                for _ in range(rng.randint(low, high))]

    operations = [("add", clause(2, 4)) for _ in range(draw(st.integers(4, 25)))]
    for _ in range(draw(st.integers(2, 12))):
        kind = rng.choice(("add", "solve", "solve", "solve"))
        operations.append((kind, clause(0, 4) if kind == "add" else clause(0, 3)))
    cubes = [clause(1, 3) for _ in range(draw(st.integers(0, 3)))]
    return num_vars, cubes, operations


def holds(literal, assignment):
    return assignment[abs(literal)] == (literal > 0)


def brute_force(num_vars, clauses, assumptions, cubes=()):
    for values in itertools.product((False, True), repeat=num_vars):
        assignment = dict(enumerate(values, start=1))
        if (all(any(holds(lit, assignment) for lit in clause) for clause in clauses)
                and all(holds(lit, assignment) for lit in assumptions)
                and not any(all(holds(lit, assignment) for lit in cube)
                            for cube in cubes)):
            return True
    return False


def assert_answers_like_brute_force(num_vars, operations, cubes, cone):
    solver = SatSolver()
    clauses = []

    def check(model):
        # A "theory" that forbids each cube; its lemmas hold in every query.
        for cube in cubes:
            if all(holds(lit, model) for lit in cube):
                return [-lit for lit in cube]
        return None

    for kind, payload in operations:
        if kind == "add":
            solver.add_clause(payload)
            clauses.append(payload)
            continue
        if cone:
            model = solver.solve(payload, range(1, num_vars + 1), check)
        else:
            model = solver.solve(payload)
        assert (model is not None) == brute_force(
            num_vars, clauses, payload, cubes if cone else ()), (clauses, payload)
        if model is not None:
            full = {var: model.get(var, False) for var in range(1, num_vars + 1)}
            assert all(any(holds(lit, full) for lit in clause) for clause in clauses)
            assert all(model[abs(lit)] == (lit > 0) for lit in payload)
            if cone:
                assert not any(all(holds(lit, full) for lit in cube) for cube in cubes)


class TestDifferential:
    @settings(max_examples=400, deadline=None)
    @given(sessions())
    def test_incremental_sessions_match_brute_force(self, session):
        num_vars, _cubes, operations = session
        assert_answers_like_brute_force(num_vars, operations, (), cone=False)

    @settings(max_examples=300, deadline=None)
    @given(sessions())
    def test_sessions_with_theory_lemmas_match_brute_force(self, session):
        num_vars, cubes, operations = session
        assert_answers_like_brute_force(num_vars, operations, cubes, cone=True)


class TestDeepSkeletons:
    def test_two_thousand_variable_chain(self):
        """Regression: the recursive search overflowed on deep skeletons."""
        solver = SatSolver()
        n = 2000
        solver.add_clause([1])
        for var in range(1, n):
            solver.add_clause([-var, var + 1])
        model = solver.solve()
        assert model is not None
        assert all(model[var] for var in range(1, n + 1))

    def test_deep_chain_unsat(self):
        solver = SatSolver()
        n = 2500
        solver.add_clause([1])
        for var in range(1, n):
            solver.add_clause([-var, var + 1])
        solver.add_clause([-n])
        assert solver.solve() is None

    def test_wide_instance_with_search(self):
        # 1000 independent variable pairs, each needing one decision.
        solver = SatSolver()
        clauses = []
        for pair in range(1000):
            a, b = 2 * pair + 1, 2 * pair + 2
            clauses += [[a, b], [-a, -b]]
        solver.add_clauses(clauses)
        model = solver.solve()
        assert_satisfies(model, clauses)


class TestFormulaCache:
    def test_fifo_eviction(self):
        from repro.logic import i, eq, v

        cache = FormulaCache(max_entries=2)
        entries = [(eq(v("x"), i(k)), CachedResult(True, {"x": k}, {}))
                   for k in range(3)]
        for formula, entry in entries:
            cache.store(formula, formula, entry)
        assert cache.lookup_raw(entries[0][0]) is None  # evicted
        assert cache.lookup_raw(entries[2][0]) is not None

    def test_hit_and_miss_counters(self):
        """Each solver counts its own lookups in a shared cache."""
        from repro.logic import i, eq, v
        from repro.smt.solver import Solver

        cache = FormulaCache()
        formula = eq(v("x"), i(1))
        first, second = Solver(cache=cache), Solver(cache=cache)
        first.check_sat(formula)
        first.check_sat(formula)
        second.check_sat(formula)
        stats = first.snapshot_statistics()
        assert (stats["cache_misses"], stats["cache_hits"]) == (1, 1)
        stats = second.snapshot_statistics()
        assert (stats["cache_misses"], stats["cache_hits"]) == (0, 1)
