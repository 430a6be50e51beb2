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

Queries with hypotheses (``check_sat(formula, hyps=...)``,
``check_valid(goal, hyps=...)``) must equal the one-formula queries the
callers used to build, ``land(*hyps, formula)`` and
``implies(land(*hyps), goal)``: the same conjuncts, verdict and model.
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


def whole_query(formula, hyps=()):
    """The one formula ``check_sat(formula, hyps=hyps)`` decides as: the
    hypotheses join a validity query's antecedent, and are conjoined with
    any other formula (what :func:`preprocess_conjuncts` rewrites)."""
    if not hyps:
        return formula
    if isinstance(formula, Not) and isinstance(formula.operand, Implies):
        antecedent = build.land(*hyps, formula.operand.antecedent)
        return build.lnot(build.implies(antecedent, formula.operand.consequent))
    return build.land(*hyps, formula)


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


# ---------------------------------------------------------------------------
# Queries with hypotheses
# ---------------------------------------------------------------------------

CONSTANTS = st.sampled_from((build.TRUE, build.FALSE))


@st.composite
def hypothesis_queries(draw):
    """``(pre, psi, goal)`` over one pool of literals and their complements,
    with an occasional constant part; the goal may be ``pre`` itself."""
    pool = draw(st.lists(literals(), min_size=1, max_size=4))
    part = st.one_of(conjuncts(pool), conjuncts(pool), conjuncts(pool), CONSTANTS)
    pre = build.land(*draw(st.lists(part, min_size=0, max_size=4)))
    psi = build.land(*draw(st.lists(part, min_size=1, max_size=2)))
    goal = draw(st.one_of(part, st.just(pre),
                          st.lists(part, min_size=2, max_size=3)
                          .map(lambda goals: build.land(*goals))))
    return pre, psi, goal


def _ordered(model):
    """A model with its variable order, which ``==`` on dicts ignores."""
    return None if model is None else list(model.items())


def _answer(result):
    return result.status, _ordered(result.model)


@settings(max_examples=300, deadline=None)
@given(hypothesis_queries())
def test_hypothesis_queries_equal_the_whole_formula_queries(query):
    """A solver asked with hypotheses and one asked the same questions as
    whole formulas (as abduction used to: ``pre && psi``, then
    ``pre && psi ==> goal``) give the same answers, models included."""
    pre, psi, goal = query
    strengthened = build.land(pre, psi)
    obligation = build.implies(strengthened, goal)
    split, whole = Solver(cache=FormulaCache()), Solver(cache=FormulaCache())
    assert _answer(split.check_sat(psi, hyps=(pre,))) \
        == _answer(whole.check_sat(strengthened))
    # The second query finds pre prepared (and encoded, after a solve).
    found, expected = [], []
    assert split.check_valid(goal, found, hyps=(pre, psi)) \
        == whole.check_valid(obligation, expected)
    assert list(map(_ordered, found)) == list(map(_ordered, expected))
    assert split.snapshot_statistics() == whole.snapshot_statistics()
    assert split.check_valid(goal, hyps=(pre, psi)) == (not brute_force_sat(
        build.lnot(obligation)))
    for model in found:
        assert truth_value(obligation, model) is False


@settings(max_examples=300, deadline=None)
@given(hypothesis_queries())
def test_warm_hypothesis_conjuncts_are_those_of_the_whole_formula(query):
    """Through a memo that holds every earlier example's prepared
    hypotheses, the conjuncts are those of the whole formula, fresh."""
    pre, psi, goal = query
    validity = Not(Implies(build.TRUE, goal))
    for hyps in ((pre, psi), (pre,)):
        for formula in (validity, psi):
            expected = preprocess_conjuncts(whole_query(formula, hyps))
            assert preprocess_conjuncts(formula, WARM_MEMO, hyps) == expected
    warm = WARM.check_valid(goal, hyps=(pre, psi))
    assert warm == Solver().check_valid(build.implies(build.land(pre, psi), goal))


def test_a_cache_hit_adds_no_clause():
    pre = build.land(build.le(x, 3), build.ge(y, 1), p)
    psi, goal = build.ge(x, 0), build.le(build.add(x, y), 100)
    cache = FormulaCache()
    first = Solver(cache=cache)
    assert first.check_valid(goal, hyps=(pre, psi)) is False
    assert first.snapshot_statistics()["sat_clauses"] > 0
    # A new solver on the same cache: the raw key hits, then a new first
    # hypothesis with the same conjuncts hits the canonical key.  Neither
    # query encodes anything, the hypothesis's conjuncts included.
    second = Solver(cache=cache)
    assert second.check_valid(goal, hyps=(pre, psi)) is False
    assert second.check_valid(goal, hyps=(build.land(pre, psi),)) is False
    stats = second.snapshot_statistics()
    assert stats["cache_hits"] == 2 and stats["cache_misses"] == 0
    assert stats["sat_clauses"] == 0 and second._atom_table.num_vars == 0
    assert second.rewrite_memo().hypotheses[build.land(pre, psi)].encoded is None
