"""Output identity: SMT preprocessing equals the six-pass chain it replaced.

:func:`repro.smt.preprocess.preprocess` simplifies a formula and then makes
one polarity-aware, memoized rewrite over it.  This module keeps the
step-by-step formulation as the reference — simplify, boolean equalities to
``Iff``, integer ``ite`` lifting, boolean ``ite`` elimination, NNF, atom
normalization, simplify, each a pass of its own — built only from the smart
constructors of :mod:`repro.logic.build` and the linear layer, and asserts
``==`` results on every ``preprocess`` input of a suite compile plus
generated monitors, and on generated formulas through a warm and a fresh
memo.  It also checks that the output is NNF, and pins the corner where
negating a comparison before lifting its integer ``ite`` gives a different
formula.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.benchmarks_lib.registry import ALL_BENCHMARKS
from repro.fuzz.generate import random_monitor
from repro.logic import BOOL, build, v
from repro.logic.memo import RewriteMemo
from repro.logic.terms import (
    INT, Add, And, BoolConst, Eq, Exists, Expr, Forall, Ge, Gt, Iff, Implies,
    IntConst, Ite, Le, Lt, Mul, Ne, Neg, Not, Or, Sub, Var, is_atom, rebuild,
    sort_of,
)
from repro.placement.pipeline import ExpressoPipeline
from repro.smt import qe as qe_module
from repro.smt import solver as solver_module
from repro.smt.linear import linearize
from repro.smt.preprocess import preprocess

from test_conjunct_queries import whole_query
from test_rewrite_memo import formulas

_COMPARISONS = (Eq, Ne, Lt, Le, Gt, Ge)
_LEAVES = (Var, IntConst, BoolConst)


# ---------------------------------------------------------------------------
# The reference: one pass per step
# ---------------------------------------------------------------------------


_BUILDERS = {
    Add: build.add, Sub: build.sub, Neg: build.neg, Mul: build.mul, Ite: build.ite,
    Eq: build.eq, Ne: build.ne, Lt: build.lt, Le: build.le, Gt: build.gt, Ge: build.ge,
    Not: build.lnot, Implies: build.implies, Iff: build.iff,
}


def _memoized(step):
    """A bottom-up pass: *step(expr, rewrite)* per inner node, one table per call."""
    def run(expr):
        table = {}

        def rewrite(node):
            if isinstance(node, _LEAVES):
                return node
            if node not in table:
                table[node] = step(node, rewrite)
            return table[node]

        return rewrite(expr)

    return run


def _complementary(junction, kind, absorbing):
    if isinstance(junction, kind):
        literals = set(junction.args)
        if any(build.lnot(lit) in literals for lit in junction.args):
            return absorbing
    return junction


@_memoized
def reference_simplify(expr, rewrite):
    children = [rewrite(child) for child in expr.children()]
    if type(expr) in _BUILDERS:
        return _BUILDERS[type(expr)](*children)
    if isinstance(expr, And):
        return _complementary(build.land(*children), And, build.FALSE)
    if isinstance(expr, Or):
        return _complementary(build.lor(*children), Or, build.TRUE)
    quantifier = build.forall if isinstance(expr, Forall) else build.exists
    return quantifier(expr.bound, children[0])


@_memoized
def bool_equalities(expr, rewrite):
    children = tuple(rewrite(child) for child in expr.children())
    if isinstance(expr, (Eq, Ne)) and sort_of(children[0]) is BOOL:
        equiv = build.iff(children[0], children[1])
        return equiv if isinstance(expr, Eq) else build.lnot(equiv)
    return rebuild(expr, children)


def _find_int_ite(expr):
    if isinstance(expr, Ite) and sort_of(expr.then) is INT:
        return expr
    for child in expr.children():
        found = _find_int_ite(child)
        if found is not None:
            return found
    return None


def _replace(expr, target, replacement):
    if expr == target:
        return replacement
    if isinstance(expr, _LEAVES):
        return expr
    return rebuild(expr, tuple(_replace(child, target, replacement)
                               for child in expr.children()))


@_memoized
def lift_int_ite(expr, rewrite):
    if isinstance(expr, _COMPARISONS):
        found = _find_int_ite(expr)
        if found is None:
            return expr
        cond = rewrite(found.cond)
        return rewrite(build.lor(
            build.land(cond, _replace(expr, found, found.then)),
            build.land(build.lnot(cond), _replace(expr, found, found.orelse))))
    return rebuild(expr, tuple(rewrite(child) for child in expr.children()))


@_memoized
def eliminate_bool_ite(expr, rewrite):
    children = tuple(rewrite(child) for child in expr.children())
    if isinstance(expr, Ite) and sort_of(expr.then) is BOOL:
        cond, then, orelse = children
        return build.lor(build.land(cond, then), build.land(build.lnot(cond), orelse))
    return rebuild(expr, children)


def to_nnf(expr, positive=True, table=None):
    """Negation normal form of *expr* (of its negation unless *positive*)."""
    if isinstance(expr, BoolConst):
        return BoolConst(expr.value == positive)
    if is_atom(expr):
        return expr if positive else build.lnot(expr)
    table = {} if table is None else table
    if (expr, positive) not in table:
        table[expr, positive] = _nnf_node(expr, positive, table)
    return table[expr, positive]


def _nnf_node(expr, positive, table):
    if isinstance(expr, Not):
        return to_nnf(expr.operand, not positive, table)
    if isinstance(expr, (And, Or)):
        parts = [to_nnf(arg, positive, table) for arg in expr.args]
        conjunctive = isinstance(expr, And) == positive
        return build.land(*parts) if conjunctive else build.lor(*parts)
    if isinstance(expr, Implies):
        return to_nnf(build.lor(build.lnot(expr.antecedent), expr.consequent),
                      positive, table)
    if isinstance(expr, Iff):
        return to_nnf(build.lor(
            build.land(expr.left, expr.right),
            build.land(build.lnot(expr.left), build.lnot(expr.right))), positive, table)
    body = to_nnf(expr.body, positive, table)
    universal = isinstance(expr, Forall) == positive
    return build.forall(expr.bound, body) if universal else build.exists(expr.bound, body)


def _le_zero(lin):
    if lin.is_constant():
        return build.TRUE if lin.constant <= 0 else build.FALSE
    return Le(lin.to_expr(), IntConst(0))


@_memoized
def normalize_atoms(expr, rewrite):
    if not (isinstance(expr, _COMPARISONS) and sort_of(expr.left) is INT):
        return rebuild(expr, tuple(rewrite(child) for child in expr.children()))
    diff = linearize(expr.left).sub(linearize(expr.right))
    return {
        Le: lambda: _le_zero(diff),
        Lt: lambda: _le_zero(diff.shift(1)),
        Ge: lambda: _le_zero(diff.scale(-1)),
        Gt: lambda: _le_zero(diff.scale(-1).shift(1)),
        Eq: lambda: build.land(_le_zero(diff), _le_zero(diff.scale(-1))),
        Ne: lambda: build.lor(_le_zero(diff.shift(1)), _le_zero(diff.scale(-1).shift(1))),
    }[type(expr)]()


def reference_preprocess(expr: Expr) -> Expr:
    expr = reference_simplify(expr)
    expr = bool_equalities(expr)
    expr = lift_int_ite(expr)
    expr = to_nnf(eliminate_bool_ite(expr))
    expr = normalize_atoms(expr)
    return reference_simplify(expr)


# ---------------------------------------------------------------------------
# Every preprocess input of a suite compile plus generated monitors
# ---------------------------------------------------------------------------

GENERATED = tuple(random_monitor(1717, index).source for index in range(10))


@pytest.fixture(scope="module")
def suite_inputs():
    """``{formula: {results}}`` for every formula the solvers and quantifier
    eliminators of the compiles preprocessed, through their memos.  A
    solver query is its whole formula (:func:`whole_query`), and its result
    the conjunction of its preprocessed conjuncts."""
    processed = {}
    original = qe_module.preprocess
    original_conjuncts = solver_module.preprocess_conjuncts

    def recording(formula, memo=None):
        result = original(formula, memo)
        processed.setdefault(formula, set()).add(result)
        return result

    def recording_conjuncts(formula, memo=None, hyps=()):
        conjuncts = original_conjuncts(formula, memo, hyps)
        processed.setdefault(whole_query(formula, hyps), set()).add(build.land(*conjuncts))
        return conjuncts

    patch = pytest.MonkeyPatch()
    patch.setattr(solver_module, "preprocess_conjuncts", recording_conjuncts)
    patch.setattr(qe_module, "preprocess", recording)
    try:
        for source in [spec.source for spec in ALL_BENCHMARKS.values()] + list(GENERATED):
            ExpressoPipeline().compile(source)
    finally:
        patch.undo()
    return processed


class TestSuiteCompile:
    def test_every_input_matches_the_reference(self, suite_inputs):
        assert len(ALL_BENCHMARKS) == 14
        assert len(suite_inputs) >= 1000
        mismatches = [formula for formula, results in suite_inputs.items()
                      if results != {reference_preprocess(formula)}]
        assert mismatches == []

    def test_the_output_is_nnf(self, suite_inputs):
        outputs = set().union(*suite_inputs.values())
        assert [out for out in outputs if to_nnf(out) != out] == []

    def test_the_output_is_its_own_preprocessing(self, suite_inputs):
        # The rewrite records each result as its own rewrite.
        outputs = set().union(*suite_inputs.values())
        assert [out for out in outputs if reference_preprocess(out) != out] == []

    def test_lifting_is_exercised(self, suite_inputs):
        # Dining Philosophers' scalarized arrays put integer ``ite`` in atoms.
        assert any(_find_int_ite(formula) is not None for formula in suite_inputs)


# ---------------------------------------------------------------------------
# Generated formulas and fixed corners
# ---------------------------------------------------------------------------

#: Warm across all examples, as a long-lived solver's memo would be.
WARM = RewriteMemo()


WRAPPERS = (lambda first, _second: build.lnot(first), build.land, build.implies,
            build.iff)


class TestGeneratedFormulas:
    @settings(max_examples=2000, deadline=None)
    @given(formulas, formulas, st.sampled_from(WRAPPERS))
    def test_matches_the_reference_warm_and_fresh(self, first, second, wrap):
        formula = wrap(first, second)
        expected = reference_preprocess(formula)
        assert preprocess(formula, WARM) == expected
        assert preprocess(formula) == expected
        assert to_nnf(expected) == expected


x, y = v("x"), v("y")
p, q = v("p", BOOL), v("q", BOOL)
#: ``x != ite(p, x, y)``: lifting it and then negating the case split is not
#: lifting its negation ``x == ite(p, x, y)``.
NE_ITE = build.ne(x, build.ite(p, x, y))


@pytest.mark.parametrize("formula", [
    build.iff(p, NE_ITE),
    build.implies(NE_ITE, q),
    build.ite(NE_ITE, q, build.lnot(q)),
    build.lnot(build.iff(NE_ITE, q)),
], ids=["iff", "implies", "ite", "negated-iff"])
def test_negation_reaches_the_lifted_comparison(formula):
    assert preprocess(formula) == reference_preprocess(formula)


def test_negating_before_lifting_would_differ():
    # The case split of the negated comparison is a different formula: the
    # corner above is a real one.
    negated_first = reference_preprocess(build.lnot(NE_ITE))
    lifted_first = reference_simplify(normalize_atoms(to_nnf(lift_int_ite(NE_ITE), False)))
    assert negated_first != lifted_first
    assert preprocess(build.lnot(NE_ITE)) == negated_first


def test_quantifiers_are_dualized():
    formula = build.lnot(Forall((x,), build.implies(p, Exists((y,), build.lt(x, y)))))
    assert preprocess(formula) == reference_preprocess(formula)
