"""Unit tests for the SMT solver core (satisfiability, validity, models)."""

import time

import pytest

from repro.logic import (
    BOOL,
    FALSE,
    TRUE,
    eq,
    ge,
    gt,
    i,
    iff,
    implies,
    ite,
    land,
    le,
    lnot,
    lor,
    lt,
    ne,
    add,
    sub,
    mul,
    v,
    evaluate,
    parse_formula,
)
from repro.smt import Solver, SatStatus
from repro.smt.cache import FormulaCache


@pytest.fixture
def solver():
    return Solver()


x = v("x")
y = v("y")
z = v("z")
p = v("p", BOOL)
q = v("q", BOOL)


class TestBasicSat:
    def test_true_is_sat(self, solver):
        assert solver.check_sat(TRUE).is_sat

    def test_false_is_unsat(self, solver):
        assert solver.check_sat(FALSE).is_unsat

    def test_single_inequality_sat(self, solver):
        result = solver.check_sat(ge(x, i(5)))
        assert result.is_sat
        assert result.model["x"] >= 5

    def test_contradiction_unsat(self, solver):
        assert solver.check_sat(land(gt(x, i(0)), lt(x, i(0)))).is_unsat

    def test_equality_chain_sat(self, solver):
        formula = land(eq(x, y), eq(y, z), eq(z, i(7)))
        result = solver.check_sat(formula)
        assert result.is_sat
        assert result.model["x"] == result.model["y"] == result.model["z"] == 7

    def test_disequality_forces_gap(self, solver):
        formula = land(ge(x, i(0)), le(x, i(1)), ne(x, i(0)), ne(x, i(1)))
        assert solver.check_sat(formula).is_unsat

    def test_boolean_structure(self, solver):
        formula = land(lor(p, q), lnot(p))
        result = solver.check_sat(formula)
        assert result.is_sat
        assert result.model["q"] is True
        assert result.model["p"] is False

    def test_boolean_and_arithmetic_mix(self, solver):
        formula = land(implies(p, ge(x, i(10))), p, le(x, i(10)))
        result = solver.check_sat(formula)
        assert result.is_sat
        assert result.model["x"] == 10

    def test_integer_gap_unsat(self, solver):
        # 2x == 1 has no integer solution.
        formula = eq(mul(i(2), x), i(1))
        assert solver.check_sat(formula).is_unsat

    def test_integer_gap_sat_with_even(self, solver):
        formula = eq(mul(i(2), x), i(6))
        result = solver.check_sat(formula)
        assert result.is_sat
        assert result.model["x"] == 3

    def test_model_satisfies_formula(self, solver):
        formula = land(ge(x, i(2)), le(x, i(8)), eq(add(x, y), i(10)), gt(y, i(3)))
        result = solver.check_sat(formula)
        assert result.is_sat
        assert evaluate(formula, result.model)

    def test_ite_term_handling(self, solver):
        formula = eq(ite(p, add(x, 1), x), i(5))
        result = solver.check_sat(land(formula, p))
        assert result.is_sat
        assert result.model["x"] == 4

    def test_bool_equality_atoms(self, solver):
        formula = land(eq(p, q), p)
        result = solver.check_sat(formula)
        assert result.is_sat
        assert result.model["q"] is True


class TestValidity:
    def test_excluded_middle(self, solver):
        assert solver.check_valid(lor(p, lnot(p)))

    def test_arithmetic_tautology(self, solver):
        assert solver.check_valid(implies(ge(x, i(0)), ge(add(x, 1), i(1))))

    def test_invalid_formula(self, solver):
        assert not solver.check_valid(ge(x, i(0)))

    def test_readers_writers_key_triple(self, solver):
        """The §2 enterReader VC: readers>=0 && !writerIn && !Pw ==> readers+1 != 0."""
        readers = v("readers")
        writer_in = v("writerIn", BOOL)
        p_w = land(eq(readers, i(0)), lnot(writer_in))
        pre = land(ge(readers, i(0)), lnot(writer_in), lnot(p_w))
        post = lnot(land(eq(add(readers, 1), i(0)), lnot(writer_in)))
        assert solver.check_valid(implies(pre, post))

    def test_readers_writers_triple_needs_invariant(self, solver):
        """Dropping readers >= 0 makes the same implication invalid (paper §2)."""
        readers = v("readers")
        writer_in = v("writerIn", BOOL)
        p_w = land(eq(readers, i(0)), lnot(writer_in))
        pre = land(lnot(writer_in), lnot(p_w))
        post = lnot(land(eq(add(readers, 1), i(0)), lnot(writer_in)))
        assert not solver.check_valid(implies(pre, post))

    def test_transitivity(self, solver):
        assert solver.check_valid(implies(land(le(x, y), le(y, z)), le(x, z)))

    def test_iff_validity(self, solver):
        assert solver.check_valid(iff(lt(x, y), lnot(ge(x, y))))

    def test_implication_helpers(self, solver):
        assert solver.check_implies(land(ge(x, i(1)), ge(y, i(2))), ge(add(x, y), i(3)))
        assert not solver.check_implies(ge(x, i(0)), ge(x, i(1)))
        assert solver.check_equivalent(sub(x, y), sub(x, y))


class TestModuleLevelHelpers:
    """One-off queries build a ``Solver()``: the module has no wrappers."""

    def test_check_sat_wrapper(self):
        assert Solver().check_sat(ge(x, i(0))).is_sat

    def test_check_valid_wrapper(self):
        assert Solver().check_valid(lor(p, lnot(p)))

    def test_get_model_wrapper(self):
        model = Solver().get_model(land(eq(x, i(3)), p))
        assert model == {"x": 3, "p": True}

    def test_get_model_unsat_returns_none(self):
        assert Solver().get_model(FALSE) is None

    def test_wrapper_statistics_isolation(self):
        """Regression: a module-level solver accumulated statistics across
        unrelated callers, contaminating per-compile query counts."""
        from repro.smt import solver as solver_module

        for name in ("_DEFAULT_SOLVER", "SHARED_CACHE", "check_sat",
                     "check_valid", "get_model"):
            assert not hasattr(solver_module, name)
        own = Solver()
        own.check_valid(lor(p, lnot(p)))
        queries_before = own.snapshot_statistics()
        other = Solver()
        other.check_valid(lor(q, lnot(q)))
        other.check_sat(ge(x, i(0)))
        other.get_model(land(eq(x, i(1)), q))
        assert own.snapshot_statistics() == queries_before


class TestSolverReuseAndCache:
    def test_reused_solver_answers_match_fresh(self, solver):
        queries = [
            land(gt(x, i(0)), lt(x, i(0))),          # unsat
            ge(x, i(5)),                              # sat
            land(ge(x, i(0)), le(x, i(1)), ne(x, i(0)), ne(x, i(1))),  # unsat
            land(implies(p, ge(x, i(10))), p, le(x, i(10))),           # sat
        ]
        for formula in queries:
            assert solver.check_sat(formula).status is \
                Solver().check_sat(formula).status
        # Definitions, learned clauses and lemmas persist; answers stay
        # correct on repeat.
        for formula in queries:
            assert solver.check_sat(formula).status is \
                Solver().check_sat(formula).status

    def test_cached_solver_counts_hits_and_skips_work(self):
        cache = FormulaCache()
        solver = Solver(cache=cache)
        formula = implies(ge(x, i(0)), ge(add(x, 1), i(1)))
        assert solver.check_valid(formula)
        first = solver.snapshot_statistics()
        assert solver.check_valid(formula)
        delta = solver.snapshot_statistics(since=first)
        assert delta["cache_hits"] == 1
        assert delta["theory_checks"] == 0

    def test_cache_shared_across_solvers_rebuilds_models(self):
        cache = FormulaCache()
        first, second = Solver(cache=cache), Solver(cache=cache)
        formula = land(ge(x, i(2)), le(x, i(8)), eq(add(x, y), i(10)))
        model_a = first.check_sat(formula).model
        model_b = second.check_sat(formula).model
        assert second.snapshot_statistics()["cache_hits"] == 1
        assert model_a == model_b
        assert evaluate(formula, model_b)

    def test_unsat_results_cached(self):
        cache = FormulaCache()
        solver = Solver(cache=cache)
        formula = land(gt(x, i(0)), lt(x, i(0)))
        assert solver.check_sat(formula).is_unsat
        assert solver.check_sat(formula).is_unsat
        assert solver.snapshot_statistics()["cache_hits"] == 1

    def test_deep_boolean_skeleton_no_recursion_error(self):
        """A 2000-variable implication chain through the full solver stack."""
        chain = [v(f"b{k}", BOOL) for k in range(2000)]
        formula = land(chain[0],
                       *[implies(chain[k], chain[k + 1]) for k in range(1999)])
        result = Solver().check_sat(formula)
        assert result.is_sat
        assert result.model["b0"] is True
        assert result.model["b1999"] is True


class TestParserIntegration:
    def test_parse_and_solve(self, solver):
        formula = parse_formula("readers >= 0 && readers != 0 ==> readers >= 1")
        assert solver.check_valid(formula)

    def test_parse_bool_vars(self, solver):
        formula = parse_formula("!writerIn && (writerIn || flag)")
        result = solver.check_sat(formula)
        assert result.is_sat
        assert result.model["flag"] is True


class TestArtificialBounds:
    """Below the bounding depth, branch and bound adds ±_BIG_BOUND rows on
    every variable.  An infeasible branch proves integer infeasibility only
    when it stays infeasible without those rows; otherwise the answer is
    unknown, never "infeasible"."""

    @pytest.fixture
    def small_box(self, monkeypatch):
        from repro.smt import intfeas

        monkeypatch.setattr(intfeas, "_BOUND_DEPTH", 0)
        monkeypatch.setattr(intfeas, "_BIG_BOUND", 2)
        return intfeas

    @staticmethod
    def _rows(*coefficient_constant_pairs):
        from repro.smt.linear import Constraint, LinExpr

        return [Constraint(LinExpr.of({"x": a}, b))
                for a, b in coefficient_constant_pairs]

    def test_solutions_only_outside_the_box_are_unknown(self, small_box):
        # 2x >= 11: the relaxation is x = 11/2, every integer solution is
        # x >= 6, outside |x| <= 2.
        rows = self._rows((-2, 11))
        with pytest.raises(small_box.IntegerFeasibilityUnknown):
            small_box.integer_feasible(rows)

    def test_the_same_system_without_the_small_box_is_solved(self):
        from repro.smt.intfeas import integer_feasible

        assert integer_feasible(self._rows((-2, 11))) == {"x": 6}

    def test_infeasible_without_the_box_is_still_a_proof(self, small_box):
        # 2x >= 1 and 2x <= 1: x = 1/2, and both branches stay infeasible
        # once the artificial rows are dropped.
        assert small_box.integer_feasible(self._rows((-2, 1), (2, -1))) is None

    def test_solutions_inside_the_box_are_found(self, small_box):
        assert small_box.integer_feasible(self._rows((-2, 3))) == {"x": 2}

    def test_the_solver_degrades_to_an_uncached_theory_unknown(self, small_box):
        cache = FormulaCache()
        solver = Solver(cache=cache)
        formula = ge(mul(i(2), x), i(11))
        assert solver.check_sat(formula).status is SatStatus.UNKNOWN
        assert solver.consume_unknown() == "theory"
        assert cache.lookup_raw(formula) is None
        # An omission needs a valid triple: unknown keeps the signal.
        assert solver.check_valid(lnot(formula)) is False


class TestSearchBudget:
    """Branch and bound is bounded in breadth as well as depth: past a
    budget of simplex calls over its whole tree it answers unknown.  Both
    systems below have no integer solution (3x - 3y = -4) and a relaxation
    unbounded along x = y, so only a limit ends the search, and the answer
    must be unknown, never infeasible."""

    def test_a_search_without_integer_points_stops_at_the_budget(self, monkeypatch):
        from repro.smt import intfeas
        from repro.smt.linear import Constraint, LinExpr

        rows = [Constraint(LinExpr.of(coeffs, constant)) for coeffs, constant in (
            ({"x": 3, "y": -3}, 4), ({"x": -3, "y": 3}, -4), ({"x": -2, "y": 1}, 1),
            ({"x": -1}, 2), ({"x": -1, "z": 1}, 1), ({"y": 1, "z": 1}, -6),
            ({"y": -1, "z": -1}, 6), ({"z": 1}, -8), ({"z": 1}, -7))]
        calls = []
        solve = intfeas.rational_feasible
        monkeypatch.setattr(intfeas, "rational_feasible",
                            lambda constraints: calls.append(1) or solve(constraints))
        started = time.perf_counter()
        with pytest.raises(intfeas.IntegerFeasibilityUnknown, match="simplex calls"):
            intfeas.integer_feasible(rows)
        assert time.perf_counter() - started < 1.0
        assert len(calls) == intfeas._MAX_SIMPLEX_CALLS

    def test_the_solver_answers_unknown_in_time(self, solver, monkeypatch):
        from repro.smt import intfeas

        sizes = []
        solve = intfeas.rational_feasible
        monkeypatch.setattr(intfeas, "rational_feasible",
                            lambda constraints: sizes.append(len(constraints))
                            or solve(constraints))
        started = time.perf_counter()
        result = solver.check_sat(eq(sub(mul(i(3), x), mul(i(3), y)), i(-4)))
        assert time.perf_counter() - started < 1.0
        assert result.status is SatStatus.UNKNOWN
        assert solver.consume_unknown() == "theory"
        # This search ends at the depth limit.  A node solves the two rows,
        # the box (two rows per variable) and at most one branch row per
        # variable and direction, however deep it is.
        assert len(sizes) > intfeas._MAX_DEPTH
        assert max(sizes) <= 2 + 2 * 2 + 2 * 2
