"""Bound axioms: two-literal clauses between bounds on one linear term.

When :class:`~repro.smt.solver.Solver` first sees an arithmetic atom it adds
a clause for every earlier atom over the same term or its negation whose
literals cannot both hold or cannot both fail, so the CDCL core refutes such
pairs without a theory check.  The rule is checked against brute force over
the integer points of a box: every clause must hold on all of them, and
every pair of literals that no point satisfies must get its clause.  The
second half needs a term whose coefficients have gcd 1, so that it takes
every integer value: over ``2x`` the pair ``2x <= 1``, ``2x >= 1`` is
contradictory only after rounding, which the rule leaves to the simplex's
branch-and-bound.
"""

from itertools import product
from math import gcd

from hypothesis import given, settings, strategies as st

from repro.logic import build, v
from repro.smt.linear import Constraint, LinExpr
from repro.smt.sat import SatSolver
from repro.smt.solver import Solver

NAMES = ("x", "y", "z")
#: Wide enough that every value a drawn term with coefficient gcd 1 can take
#: between its atoms' thresholds (at most 7 away from 0) has a point in it.
BOX = range(-8, 9)


@st.composite
def bounds_on_one_term(draw):
    """A term over 1-3 variables and 2-6 atoms ``s * term + c <= 0``."""
    names = NAMES[:draw(st.integers(1, 3))]
    coefficient = st.integers(1, 3).flatmap(lambda k: st.sampled_from((k, -k)))
    term = {name: draw(coefficient) for name in names}
    atoms = draw(st.lists(st.tuples(st.sampled_from((1, -1)), st.integers(-6, 6)),
                          min_size=2, max_size=6))
    return term, atoms


def term_values(term):
    """The values the term takes on the box's integer points."""
    return {sum(coef * value for coef, value in zip(term.values(), point))
            for point in product(BOX, repeat=len(term))}


@settings(max_examples=150, deadline=None)
@given(bounds_on_one_term())
def test_axioms_match_brute_force(drawn):
    term, atoms = drawn
    solver = Solver()
    axioms = set()
    for var_id, (multiplier, constant) in enumerate(atoms, start=1):
        row = LinExpr.of({name: multiplier * coef for name, coef in term.items()},
                         constant)
        axioms.update(frozenset(clause)
                      for clause in solver._bound_axioms(var_id, Constraint(row)))

    def holds(literal, value):
        multiplier, constant = atoms[abs(literal) - 1]
        return (multiplier * value + constant <= 0) == (literal > 0)

    values = term_values(term)
    for clause in axioms:
        assert all(any(holds(literal, value) for literal in clause)
                   for value in values), clause
    if gcd(*term.values()) != 1:
        return
    for first, second in product(range(1, len(atoms) + 1), repeat=2):
        if first >= second:
            continue
        for a, b in product((first, -first), (second, -second)):
            if not any(holds(a, value) and holds(b, value) for value in values):
                assert frozenset((-a, -b)) in axioms, (a, b)


def test_a_new_atom_meets_only_earlier_atoms_over_its_term():
    solver = Solver()
    x_plus_y = LinExpr.of({"x": 1, "y": 1}, -3)
    assert solver._bound_axioms(1, Constraint(x_plus_y)) == []
    # x + y >= 4, i.e. -x - y + 4 <= 0: both cannot hold, one must.
    assert solver._bound_axioms(2, Constraint(LinExpr.of({"x": -1, "y": -1}, 4))) \
        == [(-2, -1), (2, 1)]
    # x - y <= 0 shares no term with either.
    assert solver._bound_axioms(3, Constraint(LinExpr.of({"x": 1, "y": -1}, 0))) == []
    # x + y <= 2 implies x + y <= 3 and excludes x + y >= 4.
    assert sorted(solver._bound_axioms(
        4, Constraint(LinExpr.of({"x": 1, "y": 1}, -2)))) == [(-4, -2), (-4, 1)]


def test_two_bounds_on_one_term_need_no_theory_check():
    x, y = v("x"), v("y")
    solver = Solver()
    total = build.add(x, y)
    formula = build.land(build.le(total, 3), build.ge(total, 4))
    assert solver.check_sat(formula).is_unsat
    stats = solver.snapshot_statistics()
    assert stats["theory_checks"] == 0
    assert stats["theory_lemmas"] == 0
    # Each bound is a conjunct under its own assumption, so no definition
    # clause; two axioms: not both, and at least one.
    assert stats["sat_clauses"] == 0 + 2


def test_clear_state_drops_the_bounds():
    x, y = v("x"), v("y")
    solver = Solver()
    assert solver.check_sat(build.le(build.add(x, y), 3)).is_sat
    assert solver._bounds
    solver.clear_state()
    assert solver._bounds == {}
    assert solver.check_sat(build.ge(build.add(x, y), 4)).is_sat
    assert solver.snapshot_statistics()["sat_clauses"] == 0


def test_axioms_do_not_change_the_decision_order():
    sat = SatSolver()
    sat.add_clauses([[1, 2], [2, 3]])
    sat.add_axioms([[-2, -3], [-2, 1]])
    assert dict(sat._occurrences) == {1: 1, 2: 2, 3: 1}
    assert sat.num_clauses == 4
    # Variable 2 has the most occurrences and is decided true first; the
    # axioms then force 3 false and 1 true.
    assert sat.solve((), [1, 2, 3]) == {2: True, 3: False, 1: True}
