"""Theory-core identity: the integer sparse simplex and the per-atom forms.

``repro.smt.simplex`` runs Phase 1 on a fraction-free sparse tableau.  Its
contract is identity with the dense ``Fraction`` tableau kept below as the
reference: the same entering column, the same leaving row, hence the same
model and the same Farkas support on every input.  Both run on every simplex
input of a suite compile plus 32 generated monitors and on generated systems
built to reach Bland's tie-break.

The solver keeps each atom's theory form for its lifetime and takes a query's
atoms from :func:`repro.smt.cnf.encode`; these tests check that the collected
atoms are the pre-order walk's atoms, in order, and that a warm solver answers
like fresh ones.  The simplex's "no leaving row" guard must surface as an
uncached ``UNKNOWN("theory")``.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.benchmarks_lib import ALL_BENCHMARKS
from repro.fuzz.generate import random_monitor
from repro.logic import build, v
from repro.logic.terms import BoolConst, is_atom, walk
from repro.placement.pipeline import ExpressoPipeline
from repro.smt import simplex
from repro.smt import solver as solver_module
from repro.smt.cache import FormulaCache
from repro.smt.cnf import AtomTable, encode
from repro.smt.linear import Constraint, LinExpr
from repro.smt.preprocess import preprocess
from repro.smt.solver import Solver
from test_conjunct_queries import whole_query

#: Generated monitors compiled alongside the suite, for query volume:
#: model-guided invariant inference answers most of the suite's questions
#: without one, vocabulary-directed abduction skips the ones the invariant
#: cannot use, and bound axioms refute two bounds on one term before the
#: simplex sees them.
GENERATED = tuple([random_monitor(1717, index).source for index in range(12)]
                  + [random_monitor(2026, index).source for index in range(20)])

# ---------------------------------------------------------------------------
# The reference: a dense Phase-1 tableau over Fractions
# ---------------------------------------------------------------------------


def reference_solve(constraints):
    """``(model, core)`` of the dense ``Fraction`` tableau."""
    variables = []
    seen = set()
    rows = []
    row_indices = []
    single_variable_only = True
    for index, constraint in enumerate(constraints):
        if constraint.expr.is_constant():
            if constraint.expr.constant > 0:
                return None, [index]
            continue
        rows.append(constraint)
        row_indices.append(index)
        names = constraint.variables()
        if len(names) > 1:
            single_variable_only = False
        for name in names:
            if name not in seen:
                seen.add(name)
                variables.append(name)
    if not rows:
        return {}, None
    if single_variable_only:
        outcome = simplex._interval_feasible(rows, variables, row_indices)
        return outcome.model, outcome.core

    num_vars = len(variables)
    num_rows = len(rows)
    var_index = {name: idx for idx, name in enumerate(variables)}

    # Column layout: [x⁺ (n), x⁻ (n), slack (m), artificial (m)].
    total_cols = 2 * num_vars + 2 * num_rows
    tableau = []
    rhs = []
    basis = []
    for row_idx, constraint in enumerate(rows):
        coeffs = [Fraction(0)] * total_cols
        for name, coef in constraint.expr.coeffs:
            col = var_index[name]
            coeffs[col] += Fraction(coef)
            coeffs[num_vars + col] -= Fraction(coef)
        coeffs[2 * num_vars + row_idx] = Fraction(1)
        b = Fraction(-constraint.expr.constant)
        if b < 0:
            coeffs = [-c for c in coeffs]
            b = -b
        art_col = 2 * num_vars + num_rows + row_idx
        coeffs[art_col] = Fraction(1)
        tableau.append(coeffs)
        rhs.append(b)
        basis.append(art_col)

    objective = [Fraction(0)] * total_cols
    obj_value = Fraction(0)
    for row_idx in range(num_rows):
        objective[2 * num_vars + num_rows + row_idx] = Fraction(1)
    for row_idx in range(num_rows):
        for col in range(total_cols):
            objective[col] -= tableau[row_idx][col]
        obj_value -= rhs[row_idx]

    while True:
        entering = next((col for col in range(total_cols) if objective[col] < 0), None)
        if entering is None:
            break
        best_row = None
        best_ratio = None
        for row_idx in range(num_rows):
            coef = tableau[row_idx][entering]
            if coef > 0:
                ratio = rhs[row_idx] / coef
                if best_ratio is None or ratio < best_ratio or (
                    ratio == best_ratio and basis[row_idx] < basis[best_row]
                ):
                    best_ratio = ratio
                    best_row = row_idx
        assert best_row is not None
        pivot_val = tableau[best_row][entering]
        tableau[best_row] = [c / pivot_val for c in tableau[best_row]]
        rhs[best_row] /= pivot_val
        for row_idx in range(num_rows):
            factor = tableau[row_idx][entering]
            if row_idx == best_row or factor == 0:
                continue
            tableau[row_idx] = [tableau[row_idx][col] - factor * tableau[best_row][col]
                                for col in range(total_cols)]
            rhs[row_idx] -= factor * rhs[best_row]
        factor = objective[entering]
        if factor != 0:
            for col in range(total_cols):
                objective[col] -= factor * tableau[best_row][col]
            obj_value -= factor * rhs[best_row]
        basis[best_row] = entering

    if -obj_value > 0:
        core = [row_indices[row_idx] for row_idx in range(num_rows)
                if objective[2 * num_vars + num_rows + row_idx] != 1]
        return None, core or list(row_indices)
    values = [Fraction(0)] * total_cols
    for row_idx, col in enumerate(basis):
        values[col] = rhs[row_idx]
    return {name: values[idx] - values[num_vars + idx]
            for name, idx in var_index.items()}, None


def assert_same_as_reference(constraints):
    outcome = simplex._solve(constraints)
    assert (outcome.model, outcome.core) == reference_solve(constraints), constraints


def is_tableau_input(constraints):
    """True when the input reaches the tableau, not the interval fast path."""
    return any(len(constraint.variables()) > 1 for constraint in constraints)


# ---------------------------------------------------------------------------
# A suite compile plus generated monitors
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def suite_compile():
    """What the solvers of a suite compile handed to the theory layer.

    Returns the distinct simplex inputs, ``(processed conjuncts so far,
    collected atoms)`` for every ``encode`` call (a query encodes its
    conjuncts one by one into one collector, which starts from its first
    hypothesis's atoms once that hypothesis was solved), and every
    ``check_sat`` formula with its hypotheses.
    """
    inputs = set()
    encodings = []
    queries = []
    query = [None, []]  # the current query's collector and its conjuncts
    solving = []  # the conjuncts of the query being solved
    original_solve = simplex._solve
    original_solve_processed = Solver._solve_processed
    original_encode = solver_module.encode
    original_check_sat = Solver.check_sat

    def recording_solve(constraints):
        inputs.add(tuple(constraints))
        return original_solve(constraints)

    def recording_solve_processed(self, conjuncts, prefix=None):
        solving[:] = conjuncts
        return original_solve_processed(self, conjuncts, prefix)

    def recording_encode(expr, table, atoms=None, cone=None):
        encoded = original_encode(expr, table, atoms, cone)
        if query[0] is not atoms:
            # A query whose first hypothesis was solved before starts from
            # that hypothesis's atoms, collected from the conjuncts before.
            query[:] = [atoms, solving[:solving.index(expr)]]
        query[1].append(expr)
        encodings.append((tuple(query[1]), list(atoms)))
        return encoded

    def recording_check_sat(self, formula, *, hyps=()):
        queries.append((formula, tuple(hyps)))
        return original_check_sat(self, formula, hyps=hyps)

    patch = pytest.MonkeyPatch()
    patch.setattr(simplex, "_solve", recording_solve)
    patch.setattr(solver_module, "encode", recording_encode)
    patch.setattr(Solver, "_solve_processed", recording_solve_processed)
    patch.setattr(Solver, "check_sat", recording_check_sat)
    try:
        for source in [spec.source for spec in ALL_BENCHMARKS.values()] + list(GENERATED):
            ExpressoPipeline().compile(source)
    finally:
        patch.undo()
    return inputs, encodings, queries


def walk_atoms(conjuncts):
    """The atoms of processed conjuncts in ``walk`` pre-order, conjunct by
    conjunct, first visits."""
    atoms = {}
    for node in (node for conjunct in conjuncts for node in walk(conjunct)):
        if is_atom(node) and not isinstance(node, BoolConst):
            atoms.setdefault(node, None)
    return list(atoms)


class TestSuiteCompile:
    def test_every_simplex_input_matches_the_reference(self, suite_compile):
        inputs, _encodings, _queries = suite_compile
        assert sum(map(is_tableau_input, inputs)) >= 150
        for constraints in inputs:
            assert_same_as_reference(constraints)

    def test_encode_collects_the_walk_order_atoms(self, suite_compile):
        _inputs, encodings, _queries = suite_compile
        assert len(encodings) >= 1000
        mismatches = [conjuncts for conjuncts, atoms in encodings
                      if atoms != walk_atoms(conjuncts)]
        assert mismatches == []

    def test_a_warm_solver_answers_like_fresh_ones(self, suite_compile):
        _inputs, _encodings, queries = suite_compile
        distinct = list(dict.fromkeys(queries))
        assert len(distinct) >= 1000
        warm = Solver()
        for formula, hyps in distinct:
            assert warm.check_sat(formula, hyps=hyps).status \
                == Solver().check_sat(whole_query(formula, hyps)).status
        # One theory form per atom variable the warm solver ever mapped.
        assert 0 < len(warm._atom_forms) <= warm._atom_table.num_vars


def test_encode_without_a_collector():
    x, y = v("x"), v("y")
    processed = preprocess(build.lor(build.le(x, y), build.lnot(build.ge(x, 3))))
    collected = {}
    with_collector = encode(processed, AtomTable(), collected)
    assert encode(processed, AtomTable()) == with_collector
    assert list(collected) == walk_atoms([processed])


# ---------------------------------------------------------------------------
# Generated systems
# ---------------------------------------------------------------------------

NAMES = ("x", "y", "z", "w")


@st.composite
def systems(draw):
    """Constraint lists with non-unit and negative coefficients, negative and
    (often) zero constants — zero right-hand sides make degenerate ratio
    ties — repeated rows, and variables left unbounded in one direction."""
    rows = draw(st.lists(
        st.builds(
            lambda coeffs, constant: Constraint(LinExpr.of(coeffs, constant)),
            st.dictionaries(st.sampled_from(NAMES),
                            st.integers(-6, 6).filter(bool), max_size=4),
            st.one_of(st.just(0), st.integers(-12, 12))),
        min_size=1, max_size=8))
    repeats = draw(st.lists(st.sampled_from(rows), max_size=3))
    order = draw(st.permutations(rows + repeats))
    return order


class TestGeneratedSystems:
    @settings(max_examples=600, deadline=None)
    @given(systems())
    def test_matches_the_reference(self, constraints):
        assert_same_as_reference(constraints)

    @pytest.mark.parametrize("rows", [
        [({"x": 2, "y": 2, "z": 2}, 2), ({"x": 1, "z": -2}, 2), ({"x": 1, "z": -2}, 1)],
        [({"x": 1, "y": -1, "z": -2}, 0), ({"x": -1, "z": 1}, -1), ({"x": -2, "y": -2}, 0)],
        [({"y": 1, "z": 1}, -1), ({"y": 1, "z": -2}, 2), ({"y": -2}, 0), ({"y": -2}, 1),
         ({"x": -2, "y": 2, "z": 1}, 0)],
        [({"x": -2, "y": 1, "z": -2}, 1), ({"x": -1, "y": -1}, 1), ({"z": 2}, 0),
         ({"x": -1, "y": -1, "z": 2}, 1), ({"x": 2, "z": 1}, -1)],
    ], ids=["feasible-1", "feasible-2", "infeasible-1", "infeasible-2"])
    def test_ratio_ties_go_to_the_lowest_basic_column(self, rows):
        # Each system reaches a ratio tie in which a later row has the lower
        # basic column; picking the first tied row instead changes the model
        # (feasible) or the Farkas support (infeasible).
        assert_same_as_reference([Constraint(LinExpr.of(coeffs, constant))
                                  for coeffs, constant in rows])

    def test_unbounded_variables(self):
        # x - y <= 0 and y - z <= -1: every variable is unbounded in one
        # direction; the system is feasible.
        assert_same_as_reference([
            Constraint(LinExpr.of({"x": 1, "y": -1}, 0)),
            Constraint(LinExpr.of({"y": 1, "z": -1}, 1)),
        ])

    def test_infeasible_cycle_with_non_unit_coefficients(self):
        # The first three rows add up to 1 <= 0; the fourth is satisfiable
        # on its own and must stay out of the support.
        constraints = [
            Constraint(LinExpr.of({"x": 2, "y": -3}, 1)),
            Constraint(LinExpr.of({"y": 3, "z": -2}, 0)),
            Constraint(LinExpr.of({"z": 2, "x": -2}, 0)),
            Constraint(LinExpr.of({"w": -5, "x": 4}, 7)),
        ]
        assert simplex._solve(constraints).core == [0, 1, 2]
        assert_same_as_reference(constraints)


# ---------------------------------------------------------------------------
# The "no leaving row" guard
# ---------------------------------------------------------------------------


class TestNoLeavingRowGuard:
    @pytest.fixture
    def no_leaving_row(self, monkeypatch):
        monkeypatch.setattr(simplex, "_leaving_row", lambda *args: None)

    def test_the_simplex_raises(self, no_leaving_row):
        with pytest.raises(simplex.SimplexInvariantError):
            simplex.rational_feasible([Constraint(LinExpr.of({"x": 1, "y": 1}, 0))])

    @staticmethod
    def cycle():
        """``x <= y``, ``y <= z``, ``z + 1 <= x``: no two bounds share a term,
        so only the simplex can refute them, not a bound axiom."""
        x, y, z = v("x"), v("y"), v("z")
        return build.le(x, y), build.le(y, z), build.le(build.add(z, 1), x)

    def test_the_solver_degrades_to_an_uncached_theory_unknown(self, no_leaving_row):
        cache = FormulaCache()
        solver = Solver(cache=cache)
        first, second, closing = self.cycle()
        formula = build.implies(build.land(first, second), build.lnot(closing))
        assert solver.check_valid(formula) is False
        assert solver.consume_unknown() == "theory"
        assert cache.lookup_raw(build.lnot(formula)) is None
        assert solver._theory_verdicts == {}
        stats = solver.snapshot_statistics()
        assert stats["theory_lemmas"] == 0
        assert stats["theory_checks"] >= 1

    def test_core_minimization_degrades_too(self, monkeypatch):
        # Integer feasibility succeeds (infeasible), then the certificate
        # extraction breaks: still UNKNOWN, never UNSAT.
        def broken_subset(constraints):
            raise simplex.SimplexInvariantError("injected")

        monkeypatch.setattr(solver_module, "rational_infeasible_subset", broken_subset)
        solver = Solver(cache=FormulaCache())
        formula = build.land(*self.cycle())
        assert solver.check_sat(formula).status is solver_module.SatStatus.UNKNOWN
        assert solver.consume_unknown() == "theory"
        stats = solver.snapshot_statistics()
        assert stats["theory_lemmas"] == 0
        assert stats["theory_checks"] >= 1
