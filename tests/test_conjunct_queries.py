"""Queries as conjunct tuples: the solver's split, rewrite and assumptions.

:class:`~repro.smt.solver.Solver` splits every query into its top-level
conjuncts (``!(A ==> B)``, what ``check_valid`` asks, into ``A``'s and
``!B``), rewrites each through its memo
(:func:`~repro.smt.preprocess.preprocess_conjuncts`) and solves under one
assumption per conjunct.  These tests generate conjunctions and validity
queries that hold complementary comparisons and check that the conjuncts
are exactly those of ``preprocess`` on the whole query, and that a warm,
cached solver's verdict equals a fresh solver's and brute force over a box
that holds a model of every satisfiable query, with every SAT model
satisfying the original formula.
"""

from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from repro.logic import BOOL, build, v
from repro.logic.evaluate import truth_value
from repro.logic.memo import RewriteMemo
from repro.logic.terms import Implies, Not
from repro.smt.cache import FormulaCache
from repro.smt.preprocess import FALSE_CONJUNCTS, preprocess, preprocess_conjuncts
from repro.smt.solver import Solver

x, y = v("x"), v("y")
p, q = v("p", BOOL), v("q", BOOL)
#: Every threshold is within 4 of 0 on terms with unit coefficients, so a
#: satisfiable query has a model in this box.
BOX = range(-8, 9)
COMPARISONS = (build.eq, build.ne, build.lt, build.le, build.gt, build.ge)
TERMS = (x, y, build.add(x, y), build.sub(x, y))

#: One solver for all examples, as a compile's long-lived solver would be.
WARM = Solver(cache=FormulaCache())
WARM_MEMO = RewriteMemo()


@st.composite
def literals(draw):
    """A comparison of a term with a small constant, or a boolean variable,
    possibly negated (``build.lnot`` flips a comparison)."""
    if draw(st.integers(0, 4)) == 0:
        atom = draw(st.sampled_from((p, q)))
    else:
        atom = draw(st.sampled_from(COMPARISONS))(draw(st.sampled_from(TERMS)),
                                                   draw(st.integers(-3, 3)))
    return build.lnot(atom) if draw(st.booleans()) else atom


@st.composite
def conjuncts(draw, pool):
    """A literal of *pool* or its complement, or a disjunction or implication
    of two."""
    first, second = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
    shape = draw(st.integers(0, 4))
    if shape == 0:
        return build.lnot(first)
    if shape == 1:
        return build.lor(first, second)
    if shape == 2:
        return build.implies(first, second)
    return first


@st.composite
def queries(draw):
    """``And(...)`` or ``!(A ==> B)`` over a few literals and their
    complements."""
    pool = draw(st.lists(literals(), min_size=1, max_size=4))
    parts = draw(st.lists(conjuncts(pool), min_size=1, max_size=5))
    if draw(st.booleans()):
        return build.land(*parts)
    goal = draw(st.one_of(conjuncts(pool),
                          st.lists(conjuncts(pool), min_size=2, max_size=3)
                          .map(lambda goals: build.land(*goals))))
    return build.lnot(build.implies(build.land(*parts), goal))


def brute_force_sat(formula):
    points = product(BOX, BOX, (False, True), (False, True))
    return any(truth_value(formula, {"x": a, "y": b, "p": c, "q": d})
               for a, b, c, d in points)


@settings(max_examples=300, deadline=None)
@given(queries())
def test_the_conjuncts_are_those_of_the_whole_query(formula):
    expected = preprocess(formula)
    for memo in (WARM_MEMO, None):
        split = preprocess_conjuncts(formula, memo)
        assert build.land(*split) == expected
        assert (split == FALSE_CONJUNCTS) == (expected == build.FALSE)
        assert build.FALSE not in split[1:] and build.TRUE not in split


@settings(max_examples=200, deadline=None)
@given(queries())
def test_a_warm_solver_answers_like_a_fresh_one_and_brute_force(formula):
    warm = WARM.check_sat(formula)
    fresh = Solver().check_sat(formula)
    assert warm.status is fresh.status
    assert warm.is_sat == brute_force_sat(formula)
    for result in (warm, fresh):
        if result.is_sat:
            assert truth_value(formula, result.model) is True, result.model


def test_complementary_bounds_hit_the_canonical_false_entry():
    count = v("count")
    both = build.land(build.lt(count, 16), build.ge(count, 16))
    solver = Solver(cache=FormulaCache())
    assert solver.check_sat(build.FALSE).is_unsat
    # The two comparisons simplify to a literal and its negation, so each
    # query is ``false`` before any clause is loaded.
    assert solver.check_sat(both).is_unsat
    assert solver.check_valid(build.implies(both, build.gt(count, 100)))
    stats = solver.snapshot_statistics()
    assert stats["cache_misses"] == 1 and stats["cache_hits"] == 2
    assert stats["sat_clauses"] == 0 and stats["theory_checks"] == 0


def test_the_goal_is_not_checked_against_the_hypotheses():
    # ``x < 3 && p ==> x < 3`` is valid, and ``!(x < 3)`` is the negated
    # goal, but the simplified hypotheses alone hold no complementary pair
    # and the canonical atoms ``x - 2 <= 0`` and ``-x + 3 <= 0`` are no
    # literal and its negation: the query is solved, as ``preprocess`` has it.
    formula = build.implies(build.land(build.lt(x, 3), p), build.lt(x, 3))
    assert len(preprocess_conjuncts(build.lnot(formula))) == 3
    solver = Solver(cache=FormulaCache())
    assert solver.check_valid(formula)
    stats = solver.snapshot_statistics()
    assert stats["cache_misses"] == 1 and stats["sat_clauses"] == 2


def test_a_conjunction_counts_one_occurrence_per_conjunct_once():
    bound, positive = build.le(x, 3), build.ge(y, 1)
    conjunction = build.land(bound, positive)
    solver = Solver()
    assert solver.check_sat(bound).is_sat
    assert not solver._sat._occurrences
    assert solver.check_sat(conjunction).is_sat
    once = dict(solver._sat._occurrences)
    assert sorted(once.values()) == [1, 1]
    assert solver.check_sat(conjunction).is_sat
    assert dict(solver._sat._occurrences) == once
    # Encoded first as an And node, the conjunction gets no more.
    solver = Solver()
    assert solver.check_sat(build.lor(conjunction, p)).is_sat
    encoded = dict(solver._sat._occurrences)
    assert solver.check_sat(conjunction).is_sat
    assert dict(solver._sat._occurrences) == encoded


#: ``x != ite(p, x, y)``: its case split at negative polarity is not the case
#: split of ``x == ite(p, x, y)``, so the negated goal must be rewritten at
#: negative polarity, and ``!goal`` only where ``preprocess`` builds it (an
#: antecedent that simplifies to ``true``).
NE_ITE = build.ne(x, build.ite(p, x, y))


@pytest.mark.parametrize("formula", [
    build.lnot(build.implies(q, NE_ITE)),
    build.lnot(build.implies(build.land(q, build.lt(x, 3)), NE_ITE)),
    Not(Implies(Implies(q, q), NE_ITE)),
    Not(Implies(NE_ITE, build.FALSE)),
    Not(Implies(NE_ITE, NE_ITE)),
    build.land(NE_ITE, build.lnot(NE_ITE)),
], ids=["goal", "conjunction", "true-antecedent", "false-goal", "same", "complement"])
def test_lifted_goals_match_whole_formula_preprocessing(formula):
    assert build.land(*preprocess_conjuncts(formula)) == preprocess(formula)
