"""Property-based tests (hypothesis) for the logic and SMT substrates.

These exercise the core invariants the rest of the system relies on:

* the solver agrees with brute-force evaluation on small formulas;
* preprocessing (NNF), simplification and substitution preserve semantics;
* linear-expression arithmetic matches integer arithmetic;
* the rational simplex and the integer branch-and-bound only report models
  that actually satisfy the constraints, and never miss obviously-satisfiable
  single-variable systems.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.logic import (
    BOOL,
    INT,
    add,
    eq,
    evaluate,
    ge,
    gt,
    i,
    implies,
    land,
    le,
    lnot,
    lor,
    lt,
    ne,
    simplify,
    sub,
    v,
)
from repro.logic.free_vars import free_vars
from repro.logic.substitute import substitute
from repro.logic.terms import Var
from repro.smt import Solver
from repro.smt.intfeas import integer_feasible
from repro.smt.linear import Constraint, LinExpr, linearize
from repro.smt.preprocess import preprocess
from repro.smt.simplex import rational_feasible

_INT_VARS = ("x", "y", "z")
_BOOL_VARS = ("p", "q")


def int_terms(depth=2):
    base = st.one_of(
        st.sampled_from([v(name) for name in _INT_VARS]),
        st.integers(min_value=-8, max_value=8).map(i),
    )
    if depth == 0:
        return base
    sub_term = int_terms(depth - 1)
    return st.one_of(
        base,
        st.tuples(sub_term, sub_term).map(lambda t: add(t[0], t[1])),
        st.tuples(sub_term, sub_term).map(lambda t: sub(t[0], t[1])),
        st.tuples(st.integers(min_value=-3, max_value=3), sub_term).map(
            lambda t: add(i(0), t[1]) if t[0] == 0 else sub(i(0), t[1]) if False else
            __import__("repro.logic.build", fromlist=["mul"]).mul(t[0], t[1])
        ),
    )


def atoms():
    comparisons = st.sampled_from([eq, ne, lt, le, gt, ge])
    return st.one_of(
        st.tuples(comparisons, int_terms(1), int_terms(1)).map(lambda t: t[0](t[1], t[2])),
        st.sampled_from([v(name, BOOL) for name in _BOOL_VARS]),
    )


def formulas(depth=2):
    if depth == 0:
        return atoms()
    sub_formula = formulas(depth - 1)
    return st.one_of(
        atoms(),
        sub_formula.map(lnot),
        st.tuples(sub_formula, sub_formula).map(lambda t: land(t[0], t[1])),
        st.tuples(sub_formula, sub_formula).map(lambda t: lor(t[0], t[1])),
        st.tuples(sub_formula, sub_formula).map(lambda t: implies(t[0], t[1])),
    )


def assignments():
    return st.fixed_dictionaries({
        **{name: st.integers(min_value=-6, max_value=6) for name in _INT_VARS},
        **{name: st.booleans() for name in _BOOL_VARS},
    })


class TestFormulaTransformations:
    @settings(max_examples=120, deadline=None)
    @given(formulas(), assignments())
    def test_nnf_preserves_semantics(self, formula, assignment):
        # Preprocessing returns the NNF with canonical ``t <= 0`` atoms.
        assert evaluate(preprocess(formula), assignment) == evaluate(formula, assignment)

    @settings(max_examples=120, deadline=None)
    @given(formulas(), assignments())
    def test_simplify_preserves_semantics(self, formula, assignment):
        assert evaluate(simplify(formula), assignment) == evaluate(formula, assignment)

    @settings(max_examples=80, deadline=None)
    @given(formulas(), st.integers(min_value=-5, max_value=5), assignments())
    def test_substitution_matches_evaluation(self, formula, value, assignment):
        target = Var("x", INT)
        substituted = substitute(formula, {target: i(value)})
        patched = dict(assignment)
        patched["x"] = value
        assert evaluate(substituted, assignment | {"x": 0}) == evaluate(formula, patched) \
            or evaluate(substituted, patched) == evaluate(formula, patched)


class TestSolverAgainstBruteForce:
    @settings(max_examples=60, deadline=None)
    @given(formulas(depth=2))
    def test_sat_models_satisfy_formula(self, formula):
        result = Solver().check_sat(formula)
        if result.is_sat:
            model = {name: 0 for name in _INT_VARS}
            model.update({name: False for name in _BOOL_VARS})
            model.update(result.model)
            assert evaluate(formula, model)

    @settings(max_examples=40, deadline=None)
    @given(formulas(depth=2))
    def test_unsat_means_no_small_model(self, formula):
        result = Solver().check_sat(formula)
        if result.is_unsat:
            names = sorted(var.name for var in free_vars(formula))
            domain = range(-3, 4)
            for values in _tuples(domain, len(names)):
                assignment = {}
                for name, value in zip(names, values):
                    assignment[name] = bool(value % 2) if name in _BOOL_VARS else value
                assert not evaluate(formula, assignment)

    @settings(max_examples=60, deadline=None)
    @given(formulas(depth=1), assignments())
    def test_validity_implies_truth_everywhere(self, formula, assignment):
        if Solver().check_valid(formula):
            assert evaluate(formula, assignment)


def _tuples(domain, arity):
    if arity == 0:
        yield ()
        return
    for head in domain:
        for rest in _tuples(domain, arity - 1):
            yield (head,) + rest


class TestLinearArithmetic:
    @settings(max_examples=120, deadline=None)
    @given(int_terms(2), assignments())
    def test_linearize_matches_evaluation(self, term, assignment):
        lin = linearize(term)
        assert lin.evaluate(assignment) == evaluate(term, assignment)

    @settings(max_examples=120, deadline=None)
    @given(int_terms(2), int_terms(2), assignments())
    def test_linexpr_addition(self, left, right, assignment):
        combined = linearize(left).add(linearize(right))
        assert combined.evaluate(assignment) == evaluate(left, assignment) + evaluate(right, assignment)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.integers(-8, 8)),
                    min_size=1, max_size=5))
    def test_simplex_models_satisfy_constraints(self, rows):
        constraints = []
        for cx, cy, k in rows:
            constraints.append(Constraint(LinExpr.of({"x": cx, "y": cy}, k)))
        model = rational_feasible(constraints)
        if model is not None:
            for constraint in constraints:
                value = Fraction(constraint.expr.constant)
                for name, coefficient in constraint.expr.coeffs:
                    value += coefficient * model.get(name, Fraction(0))
                assert value <= 0

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.integers(-4, 4), st.integers(-8, 8)), min_size=1, max_size=6))
    def test_integer_feasibility_single_variable(self, rows):
        constraints = [Constraint(LinExpr.of({"x": coefficient}, constant))
                       for coefficient, constant in rows if coefficient != 0]
        if not constraints:
            return
        model = integer_feasible(constraints)
        brute_force = any(
            all(constraint.evaluate({"x": candidate}) for constraint in constraints)
            for candidate in range(-40, 41)
        )
        if model is not None:
            assert all(constraint.evaluate(model) for constraint in constraints)
        else:
            assert not brute_force
