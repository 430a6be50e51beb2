"""Differential tests: constraint-space quantifier elimination vs. the reference.

``repro.smt.qe`` converts a formula to DNF once and runs Fourier–Motzkin on
canonical constraints.  Its contract is output identity with the
step-by-step formulation kept below as the reference: after every
eliminated variable that formulation rebuilds the result as a formula, and
preprocesses and converts it to DNF again for the next variable.  Results
must be ``==`` and failures must raise the same exception class, so that
abduction candidates, invariants, placements and SMT queries cannot change.
"""

import collections

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import abduction
from repro.benchmarks_lib import get_benchmark
from repro.fuzz.generate import random_monitor
from repro.logic import BOOL, INT, build, v
from repro.logic.free_vars import free_vars
from repro.logic.nnf import to_dnf_clauses
from repro.logic.simplify import simplify
from repro.logic.substitute import substitute
from repro.logic.terms import BoolConst, Not
from repro.placement.pipeline import ExpressoPipeline
from repro.smt.linear import Constraint, LinExpr
from repro.smt.preprocess import atom_constraint, preprocess
from repro.smt.qe import (
    QuantifierEliminationError,
    QuantifierEliminator,
    eliminate_exists,
    eliminate_forall,
)

# ---------------------------------------------------------------------------
# The reference: one Expr round trip per eliminated variable
# ---------------------------------------------------------------------------


def reference_exists(variables, formula, *, strict=False):
    result = formula
    for var in variables:
        if var.var_sort is BOOL:
            result = _reference_bool_exists(var, result)
        else:
            result = _reference_int_exists(var, result, strict=strict)
    return simplify(result)


def reference_forall(variables, formula, *, strict=False):
    negated = build.lnot(formula)
    return simplify(build.lnot(reference_exists(variables, negated, strict=strict)))


def _reference_bool_exists(var, formula):
    true_case = substitute(formula, {var: build.TRUE})
    false_case = substitute(formula, {var: build.FALSE})
    return build.lor(simplify(true_case), simplify(false_case))


def _reference_int_exists(var, formula, *, strict):
    if var not in free_vars(formula):
        return formula
    processed = preprocess(formula)
    if isinstance(processed, BoolConst):
        return processed
    cubes = to_dnf_clauses(processed)
    return build.lor(*[_reference_from_cube(var, cube, strict=strict)
                       for cube in cubes])


def _reference_from_cube(var, cube, *, strict):
    constraints = []
    other_literals = []
    for literal in cube:
        if isinstance(literal, Not):
            other_literals.append(literal)
            continue
        constraint = atom_constraint(literal)
        if constraint is None:
            other_literals.append(literal)
            continue
        constraints.append(constraint)

    lowers = []
    uppers = []
    unrelated = []
    for constraint in constraints:
        coef = constraint.expr.coefficient(var.name)
        if coef == 0:
            unrelated.append(constraint)
            continue
        rest = LinExpr.of(
            {n: c for n, c in constraint.expr.coeffs if n != var.name},
            constraint.expr.constant,
        )
        if coef > 0:
            uppers.append((coef, rest.scale(-1)))
        else:
            lowers.append((-coef, rest))
        if strict and abs(coef) != 1:
            raise QuantifierEliminationError(
                f"non-unit coefficient {coef} for {var.name}; elimination would be inexact"
            )

    combined = [c.to_formula() for c in unrelated]
    combined.extend(other_literals)
    for low_coef, low_rest in lowers:
        for up_coef, up_rest in uppers:
            lhs = low_rest.scale(up_coef)
            rhs = up_rest.scale(low_coef)
            combined.append(Constraint(lhs.sub(rhs)).to_formula())
    return build.land(*combined) if combined else build.TRUE


def outcome(function, *args, **kwargs):
    """("ok", result) or ("error", exception class): what must match."""
    try:
        return "ok", function(*args, **kwargs)
    except ValueError as exc:
        return "error", type(exc)


# ---------------------------------------------------------------------------
# Every elimination abduction makes while compiling suite and generated monitors
# ---------------------------------------------------------------------------

#: Every suite monitor that abduces, except Dining Philosophers: its
#: eliminations take the reference about ten seconds.  Its failure mode, a
#: DNF over budget after boolean steps, is covered synthetically by
#: TestBudget, and its own eliminations are compared with fresh eliminators
#: (no shared steps) in test_qe_prefix_sharing.py.
ABDUCING_MONITORS = (
    "Ticketed Readers-Writers", "SimpleDecoder", "AsyncDispatch",
    "Parameterized Bounded Buffer", "Readers-Writers", "Round Robin",
    "Sleeping Barber", "AsyncOperationExecutor",
)

#: Generated monitors, compiled after the suite ones.
GENERATED = tuple(random_monitor(1717, index).source for index in range(10))


@pytest.fixture(scope="module")
def abduction_calls():
    """(formula, variables, outcome) of every elimination abduce makes."""
    calls = []
    original = QuantifierEliminator.forall

    def recording(self, variables):
        result = outcome(original, self, variables)
        calls.append((self.formula, tuple(variables), result))
        if result[0] == "error":
            raise result[1]("recorded")
        return result[1]

    patch = pytest.MonkeyPatch()
    patch.setattr(QuantifierEliminator, "forall", recording)
    try:
        for source in ([get_benchmark(name).source for name in ABDUCING_MONITORS]
                       + list(GENERATED)):
            ExpressoPipeline().compile(source)
    finally:
        patch.undo()
    return calls


class TestSuiteAbduction:
    def test_every_elimination_matches_the_reference(self, abduction_calls):
        assert len(abduction_calls) >= 300
        mismatches = [
            (formula, [var.name for var in variables])
            for formula, variables, result in abduction_calls
            if outcome(reference_forall, variables, formula) != result
        ]
        assert mismatches == []

    def test_calls_mix_boolean_and_integer_steps(self, abduction_calls):
        mixed = [variables for _formula, variables, _result in abduction_calls
                 if {var.var_sort for var in variables} == {BOOL, INT}]
        assert len(mixed) >= 50

    def test_abduce_shares_one_eliminator_per_obligation(self, monkeypatch):
        built = []
        original = QuantifierEliminator.__init__

        def counting(self, formula, **kwargs):
            built.append(formula)
            original(self, formula, **kwargs)

        monkeypatch.setattr(QuantifierEliminator, "__init__", counting)
        x, y, z = v("x"), v("y"), v("z")
        pre = build.land(build.ge(x, y), build.ge(y, z))
        goal = build.ge(x, build.add(z, 1))
        abduction.abduce(pre, goal, vocabulary={"x", "y", "z"})
        assert built == [build.implies(pre, goal)]


# ---------------------------------------------------------------------------
# Generated mixed boolean/integer formulas
# ---------------------------------------------------------------------------

INTS = tuple(v(name) for name in ("x", "y", "z"))
BOOLS = tuple(v(name, BOOL) for name in ("p", "q"))


def terms():
    scaled = st.tuples(st.sampled_from((-1, 2, 3)), st.sampled_from(INTS)).map(
        lambda pair: build.mul(pair[0], pair[1]))
    leaf = st.one_of(st.sampled_from(INTS), scaled,
                     st.integers(min_value=-3, max_value=3).map(build.i))
    sums = st.tuples(leaf, leaf).map(lambda pair: build.add(*pair))
    ites = st.tuples(st.sampled_from(BOOLS), leaf, leaf).map(
        lambda triple: build.ite(*triple))
    return st.one_of(leaf, sums, ites)


def atoms():
    comparisons = st.sampled_from((build.eq, build.ne, build.lt, build.le,
                                   build.gt, build.ge))
    compared = st.tuples(comparisons, terms(), terms()).map(
        lambda triple: triple[0](triple[1], triple[2]))
    # A small fixed pool makes repeated and complementary literals common.
    pool = st.sampled_from((build.le(INTS[0], INTS[1]), build.ge(INTS[0], INTS[2]),
                            build.lt(INTS[1], build.i(2)), *BOOLS))
    return st.one_of(compared, pool, pool)


formulas = st.recursive(
    atoms(),
    lambda inner: st.one_of(
        inner.map(build.lnot),
        st.lists(inner, min_size=2, max_size=3).map(lambda parts: build.land(*parts)),
        st.lists(inner, min_size=2, max_size=3).map(lambda parts: build.lor(*parts)),
        st.tuples(inner, inner).map(lambda pair: build.implies(*pair)),
        st.tuples(inner, inner).map(lambda pair: build.iff(*pair)),
    ),
    max_leaves=8,
)

variable_lists = st.lists(st.sampled_from(INTS + BOOLS), min_size=1, max_size=4)


class TestGeneratedFormulas:
    @settings(max_examples=300, deadline=None)
    @given(formulas, variable_lists, st.booleans())
    def test_exists_and_forall_match_the_reference(self, formula, variables, strict):
        assert outcome(eliminate_exists, variables, formula, strict=strict) \
            == outcome(reference_exists, variables, formula, strict=strict)
        assert outcome(eliminate_forall, variables, formula, strict=strict) \
            == outcome(reference_forall, variables, formula, strict=strict)

    @settings(max_examples=50, deadline=None)
    @given(formulas, st.lists(variable_lists, min_size=2, max_size=3))
    def test_a_shared_eliminator_matches_fresh_references(self, formula, lists):
        eliminator = QuantifierEliminator(formula)
        for variables in lists:
            assert outcome(eliminator.forall, variables) \
                == outcome(reference_forall, variables, formula)
            assert outcome(eliminator.exists, variables) \
                == outcome(reference_exists, variables, formula)

    @settings(max_examples=200, deadline=None)
    @given(formulas)
    def test_mapping_leaves_during_the_expansion_maps_the_cubes(self, formula):
        # Quantifier elimination has the DNF expansion map each leaf to a
        # literal id; that must be the plain expansion, mapped.
        processed = preprocess(formula)
        mapped = []

        def literal(leaf):
            mapped.append(leaf)
            return "id", leaf

        result = outcome(to_dnf_clauses, processed, 64, literal=literal)
        # Once per distinct leaf node.
        assert len({id(leaf) for leaf in mapped}) == len(mapped)
        plain = outcome(to_dnf_clauses, processed, 64)
        if plain[0] == "ok":
            plain = "ok", [tuple(("id", leaf) for leaf in cube) for cube in plain[1]]
        assert result == plain


# ---------------------------------------------------------------------------
# Strict mode and the DNF budget
# ---------------------------------------------------------------------------

x, y, z = INTS
p, q = BOOLS


class TestStrict:
    def test_non_unit_coefficient_raises_in_strict_mode(self):
        formula = build.land(build.le(build.mul(2, x), y), build.ge(x, z))
        for function in (eliminate_exists, reference_exists):
            with pytest.raises(QuantifierEliminationError):
                function([x], formula, strict=True)
        assert eliminate_exists([x], formula) == reference_exists([x], formula)

    def test_strict_error_after_a_true_cube(self):
        # The first cube projects to true; the second is still inexact.
        formula = build.lor(build.ge(x, y), build.land(build.le(build.mul(2, x), y),
                                                      build.ge(x, z)))
        assert outcome(eliminate_exists, [x], formula, strict=True) \
            == outcome(reference_exists, [x], formula, strict=True) \
            == ("error", QuantifierEliminationError)

    def test_unit_coefficients_are_exact_in_strict_mode(self):
        formula = build.land(build.le(y, x), build.le(x, z))
        assert eliminate_exists([x], formula, strict=True) \
            == reference_exists([x], formula, strict=True)


class TestProjectionMemo:
    """An eliminator projects each cube at most once per variable; a strict
    error is memoized with the cube and raised again."""

    @staticmethod
    def counting_projections(monkeypatch):
        """Patch ``QuantifierEliminator._project_cube``; return its runs."""
        runs = []
        original = QuantifierEliminator._project_cube

        def counting(self, name, cube):
            runs.append((self, name, cube))
            return original(self, name, cube)

        monkeypatch.setattr(QuantifierEliminator, "_project_cube", counting)
        return runs

    def test_each_cube_is_projected_once_in_a_dining_philosophers_compile(
            self, monkeypatch):
        runs = self.counting_projections(monkeypatch)
        requests = collections.Counter()
        original = QuantifierEliminator._project

        def counting(self, name, cubes):
            requests.update((self, name, cube) for cube in cubes)
            return original(self, name, cubes)

        monkeypatch.setattr(QuantifierEliminator, "_project", counting)
        ExpressoPipeline().compile(get_benchmark("Dining Philosophers").source)
        assert runs, "the compile no longer projects a cube"
        # Runs stop at an error, so some requested pairs never run; the
        # ones that do, run once, and the memo answers the repeats.
        assert len(set(runs)) == len(runs)
        assert set(runs) <= set(requests)
        assert sum(requests.values()) > len(runs)

    def test_a_memoized_strict_error_is_raised_again(self, monkeypatch):
        # The negated body's first cube holds 2*x: inexact for x.
        formula = build.land(build.le(build.mul(2, x), y), build.ge(x, z))
        eliminator = QuantifierEliminator(formula, strict=True)
        with pytest.raises(QuantifierEliminationError):
            eliminator.forall([x])
        runs = self.counting_projections(monkeypatch)
        # w does not occur: the second list reaches the same cubes through
        # another step, and their projection memo.
        w = v("w")
        assert outcome(eliminator.forall, [w, x]) \
            == outcome(reference_forall, [w, x], formula, strict=True) \
            == ("error", QuantifierEliminationError)
        assert runs == []


class TestCleanUpBetweenSteps:
    """The reference simplifies its rebuilt formula before each integer
    step.  Most of that clean-up would also happen in the final
    simplification; it shows in the output when the next step is skipped,
    and in strict mode, where a cube the clean-up drops must not raise."""

    def test_vanished_variable_leaves_the_cubes_alone(self):
        # After the first x no constraint mentions x: the second x step must
        # not re-project (which would move the combined bound before p).
        formula = build.land(p, build.le(y, x), build.le(x, z))
        assert eliminate_exists([x, x], formula) \
            == reference_exists([x, x], formula) \
            == build.land(p, build.le(build.add(y, build.neg(z)), 0))

    @pytest.mark.parametrize("formula, expected", [
        # Dropped: the cube holding p and !p (and the inexact 2*y).
        (build.land(build.ge(x, 0),
                    build.lor(build.land(p, build.le(build.mul(2, y), z)),
                              build.ge(y, 1)),
                    build.lnot(p)), build.lnot(p)),
        # True: single-literal cubes p and !p.
        (build.lor(build.land(p, build.ge(x, 0)),
                   build.land(build.lnot(p), build.le(x, 0)),
                   build.land(build.le(build.mul(2, y), z), build.ge(x, 1))),
         build.TRUE),
        # True: the unit p only after deduplicating the cube (p, p).
        (build.lor(build.land(build.lor(p, q), build.lor(p, build.lnot(q)),
                              build.ge(x, 0)),
                   build.land(build.lnot(p), build.ge(x, 5)),
                   build.land(build.le(build.mul(2, y), z), build.ge(x, 1))),
         build.TRUE),
    ], ids=["contradictory-cube", "complementary-units", "duplicate-literal"])
    def test_clean_up_precedes_the_strict_check(self, formula, expected):
        assert eliminate_exists([x, y], formula, strict=True) \
            == reference_exists([x, y], formula, strict=True) == expected


def _pairs(count):
    """A conjunction of *count* boolean disjunctions: 2**count DNF cubes."""
    return build.land(*[build.lor(v(f"a{k}", BOOL), v(f"b{k}", BOOL))
                        for k in range(count)])


class TestBudget:
    @pytest.mark.parametrize("formula", [
        build.land(_pairs(12), build.ge(x, y)),                     # 4096 cubes
        build.lor(build.land(_pairs(12), build.ge(x, y)), build.le(x, z)),  # 4097
    ], ids=["at-budget", "over-budget"])
    def test_conversion_at_and_over_the_budget(self, formula):
        assert outcome(eliminate_exists, [x, y], formula) \
            == outcome(reference_exists, [x, y], formula)

    def test_over_budget_after_a_boolean_step(self):
        formula = build.land(p, _pairs(13), build.ge(x, y))
        result = outcome(eliminate_exists, [p, x], formula)
        assert result == outcome(reference_exists, [p, x], formula) \
            == ("error", ValueError)

    def test_a_shared_eliminator_re_raises_a_failed_conversion(self):
        formula = build.land(_pairs(13), build.ge(x, y))
        eliminator = QuantifierEliminator(formula)
        for variables in ([x], [y], [x, y]):
            with pytest.raises(ValueError):
                eliminator.exists(variables)
