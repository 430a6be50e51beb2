"""Focused unit tests for the logic layer details and quantifier elimination."""

import pytest

from repro.logic import (
    BOOL,
    FALSE,
    INT,
    TRUE,
    add,
    eq,
    evaluate,
    free_vars,
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
    parse_formula,
    parse_term,
    pretty,
    simplify,
    sub,
    substitute,
    to_smtlib,
    v,
)
from repro.logic.build import conjuncts, disjuncts, exists, forall
from repro.logic.nnf import to_dnf_clauses
from repro.logic.parser import FormulaParseError
from repro.logic.terms import Exists, Forall, Var, expr_size, sort_of, SortError
from repro.smt import Solver, eliminate_exists, eliminate_forall
from repro.smt.preprocess import preprocess, rewrite_bool_equalities

x, y, z = v("x"), v("y"), v("z")
p, q = v("p", BOOL), v("q", BOOL)


class TestBuilders:
    def test_land_flattens_and_short_circuits(self):
        assert land(TRUE, ge(x, i(0)), TRUE) == ge(x, i(0))
        assert land(ge(x, i(0)), FALSE) == FALSE
        assert land() == TRUE

    def test_lor_flattens_and_short_circuits(self):
        assert lor(FALSE, p) == p
        assert lor(p, TRUE) == TRUE
        assert lor() == FALSE

    def test_lnot_flips_comparisons(self):
        assert lnot(lt(x, y)) == ge(x, y)
        assert lnot(lnot(p)) == p

    def test_add_folds_constants(self):
        assert add(i(2), x, i(3)) == add(x, i(5))
        assert add(i(2), i(3)) == i(5)

    def test_ite_folds_constant_condition(self):
        assert ite(TRUE, x, y) == x
        assert ite(p, x, x) == x

    def test_conjuncts_disjuncts(self):
        formula = land(ge(x, i(0)), lt(x, i(5)))
        assert len(conjuncts(formula)) == 2
        assert disjuncts(lor(p, q)) == (p, q)

    def test_quantifier_builders_collapse(self):
        assert forall([], p) == p
        assert forall([x], TRUE) == TRUE      # constant bodies drop the binder
        nested = forall([x], forall([y], gt(x, y)))
        assert isinstance(nested, Forall)
        assert nested.bound == (x, y)         # adjacent binders are merged


class TestSorts:
    def test_sort_of_comparison_is_bool(self):
        assert sort_of(ge(x, i(0))) is BOOL
        assert sort_of(add(x, y)) is INT

    def test_ill_sorted_ite_raises(self):
        from repro.logic.terms import Ite

        with pytest.raises(SortError):
            sort_of(Ite(p, x, q))

    def test_expr_size(self):
        assert expr_size(add(x, i(1))) == 3


class TestSubstitutionAndFreeVars:
    def test_capture_avoidance(self):
        formula = Forall((y,), gt(y, x))
        substituted = substitute(formula, {x: add(y, i(1))})
        # The bound y must have been renamed so the free y is not captured.
        assert isinstance(substituted, Forall)
        bound_var = substituted.bound[0]
        assert bound_var.name != "y"
        assert y in free_vars(substituted)

    def test_free_vars_respect_binders(self):
        formula = Exists((x,), land(gt(x, y), p))
        names = {var.name for var in free_vars(formula)}
        assert names == {"y", "p"}


class TestPrettyAndParser:
    def test_pretty_round_trip(self):
        formula = land(ge(x, i(0)), implies(p, lt(add(x, y), i(10))))
        reparsed = parse_formula(pretty(formula), sorts={"p": BOOL})
        assert Solver().check_equivalent(formula, reparsed)

    def test_smtlib_output(self):
        assert to_smtlib(ge(x, i(0))) == "(>= x 0)"
        assert to_smtlib(lnot(p)) == "(not p)"

    def test_parser_rejects_garbage(self):
        with pytest.raises(FormulaParseError):
            parse_formula("x >= ")
        with pytest.raises(FormulaParseError):
            parse_formula("x @ 3")

    def test_parse_quantifier(self):
        formula = parse_formula("forall n: Int. n + 1 > n")
        assert isinstance(formula, Forall)

    def test_parse_term_keeps_int_sort(self):
        term = parse_term("x + 2")
        assert sort_of(term) is INT


class TestNormalForms:
    def test_dnf_of_disjunction(self):
        cubes = to_dnf_clauses(lor(land(p, q), lnot(p)))
        assert len(cubes) == 2

    def test_dnf_budget_enforced(self):
        big = land(*[lor(v(f"a{k}", BOOL), v(f"b{k}", BOOL)) for k in range(20)])
        with pytest.raises(ValueError):
            to_dnf_clauses(big, max_clauses=64)


class TestPreprocessing:
    def test_bool_equality_becomes_iff(self):
        rewritten = rewrite_bool_equalities(eq(p, q))
        assert Solver().check_equivalent(rewritten, iff(p, q))

    def test_normalize_atoms_only_le_zero(self):
        from repro.logic.terms import Le, IntConst

        normalized = preprocess(gt(x, y))
        assert isinstance(normalized, Le)
        assert normalized.right == IntConst(0)

    def test_preprocess_preserves_satisfiability(self):
        formula = land(eq(x, add(y, i(1))), ne(y, i(0)), implies(p, eq(x, i(5))))
        assert Solver().check_sat(formula).is_sat
        assert Solver().check_sat(preprocess(formula)).is_sat


class TestQuantifierElimination:
    def test_exists_int_interval(self):
        # exists x. y <= x <= z   <=>   y <= z  (integers, unit coefficients)
        formula = land(le(y, x), le(x, z))
        eliminated = eliminate_exists([x], formula)
        assert Solver().check_equivalent(eliminated, le(y, z))

    def test_forall_int(self):
        # forall x. x >= y ==> x >= z   <=>   z <= y
        formula = implies(ge(x, y), ge(x, z))
        eliminated = eliminate_forall([x], formula)
        assert Solver().check_equivalent(eliminated, le(z, y))

    def test_bool_elimination_is_shannon_expansion(self):
        formula = lor(land(p, ge(x, i(1))), land(lnot(p), ge(x, i(5))))
        eliminated = eliminate_exists([p], formula)
        assert Solver().check_equivalent(eliminated, ge(x, i(1)))

    def test_unconstrained_variable_is_dropped(self):
        formula = ge(y, i(0))
        assert eliminate_exists([x], formula) == ge(y, i(0))

    def test_elimination_result_is_quantifier_free_and_equivalid(self):
        formula = land(ge(x, y), le(x, add(y, i(3))), ge(x, i(0)))
        eliminated = eliminate_exists([x], formula)
        solver = Solver()
        # Spot-check equivalence on concrete y values by substitution.
        for value in (-5, -1, 0, 7):
            concrete = substitute(eliminated, {y: i(value)})
            expected = solver.check_sat(substitute(formula, {y: i(value)})).is_sat
            assert solver.check_sat(concrete).is_sat == expected
