"""Memo transparency: a solver's warm preprocessing memo changes nothing.

Simplification and preprocessing's canonicalizing rewrite are pure
functions of their input node, and a :class:`~repro.smt.solver.Solver`
memoizes both per node for as long as it lives.  These tests check that
rewriting through a warm memo gives ``==`` results to rewriting from scratch: on every query of a multi-monitor
suite compile, on every quantifier elimination abduction makes there, and
on generated mixed boolean/integer formulas.  They also pin the memo's cap
and the order of the quantifier check before the ``solver.query`` fault
site.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import abduction
from repro.benchmarks_lib import get_benchmark
from repro.logic import BOOL, build, v
from repro.logic.memo import RewriteMemo
from repro.logic.simplify import simplify
from repro.logic.terms import Exists, Forall
from repro.placement.pipeline import ExpressoPipeline
from repro.resilience.faults import FaultPlan, FaultRule, injected
from repro.smt import solver as solver_module
from repro.smt.cache import FormulaCache
from repro.smt.preprocess import preprocess
from repro.smt.qe import QuantifierEliminator
from repro.smt.solver import SatStatus, Solver, SolverError
from test_conjunct_queries import whole_query

#: Dining Philosophers (array-scalarized ite chains, the largest memo) plus
#: monitors with boolean and integer state and heavy abduction, then the
#: remaining suite monitors that abduce.
MONITORS = ("Dining Philosophers", "Ticketed Readers-Writers", "SimpleDecoder",
            "AsyncDispatch", "Readers-Writers", "BoundedBuffer",
            "Parameterized Bounded Buffer", "Round Robin", "Sleeping Barber",
            "AsyncOperationExecutor")


def outcome(function, *args):
    """("ok", result) or ("error", exception class)."""
    try:
        return "ok", function(*args)
    except ValueError as exc:
        return "error", type(exc)


@pytest.fixture(scope="module")
def suite_compile():
    """What the solvers of a suite compile preprocessed and eliminated.

    Returns ``{formula: {warm results}}`` for the queries
    ``Solver.check_sat`` preprocessed through the solver's memo (a query is
    its whole formula, :func:`whole_query`, and a result the conjunction of
    its preprocessed conjuncts), and the
    ``(formula, variables, outcome)`` of every abduction elimination.
    """
    processed = {}
    eliminations = []
    memos = []
    original_preprocess = solver_module.preprocess_conjuncts
    original_forall = QuantifierEliminator.forall

    def recording_preprocess(formula, memo=None, hyps=()):
        memos.append(memo)
        result = original_preprocess(formula, memo, hyps)
        processed.setdefault(whole_query(formula, hyps), set()).add(build.land(*result))
        return result

    def recording_forall(self, variables):
        memos.append(self.memo)
        result = outcome(original_forall, self, variables)
        eliminations.append((self.formula, tuple(variables), result))
        if result[0] == "error":
            raise result[1]("recorded")
        return result[1]

    patch = pytest.MonkeyPatch()
    patch.setattr(solver_module, "preprocess_conjuncts", recording_preprocess)
    patch.setattr(QuantifierEliminator, "forall", recording_forall)
    try:
        for name in MONITORS:
            ExpressoPipeline().compile(get_benchmark(name).source)
    finally:
        patch.undo()
    return processed, eliminations, memos


class TestSuiteCompile:
    def test_warm_preprocessing_matches_a_fresh_one(self, suite_compile):
        processed, _eliminations, _memos = suite_compile
        assert len(processed) >= 500
        # One result per distinct formula, equal to a from-scratch rewrite.
        mismatches = [formula for formula, results in processed.items()
                      if results != {preprocess(formula)}]
        assert mismatches == []

    def test_eliminations_match_an_unshared_memo(self, suite_compile):
        _processed, eliminations, _memos = suite_compile
        assert len(eliminations) >= 300
        mismatches = [
            (formula, [var.name for var in variables])
            for formula, variables, result in eliminations
            if outcome(QuantifierEliminator(formula).forall, variables) != result
        ]
        assert mismatches == []

    def test_every_rewrite_went_through_a_solver_memo(self, suite_compile):
        _processed, _eliminations, memos = suite_compile
        # One memo per compile (a fresh solver each), shared by the queries
        # and the eliminations of that compile.
        assert all(isinstance(memo, RewriteMemo) for memo in memos)
        assert len({id(memo) for memo in memos}) == len(MONITORS)


def test_abduce_shares_the_solver_memo(monkeypatch):
    memos = []
    original = QuantifierEliminator.__init__

    def recording(self, formula, **kwargs):
        original(self, formula, **kwargs)
        memos.append(self.memo)

    monkeypatch.setattr(QuantifierEliminator, "__init__", recording)
    x, y, z = v("x"), v("y"), v("z")
    solver = Solver()
    abduction.abduce(build.land(build.ge(x, y), build.ge(y, z)),
                     build.ge(x, build.add(z, 1)), solver,
                     vocabulary={"x", "y", "z"})
    assert memos == [solver.rewrite_memo()]
    assert len(solver.rewrite_memo()) > 0


# ---------------------------------------------------------------------------
# Generated mixed boolean/integer formulas
# ---------------------------------------------------------------------------

INTS = tuple(v(name) for name in ("x", "y", "z"))
BOOLS = tuple(v(name, BOOL) for name in ("p", "q"))


def _terms():
    leaf = st.one_of(st.sampled_from(INTS),
                     st.integers(min_value=-2, max_value=2).map(build.i))
    return st.recursive(
        leaf,
        lambda inner: st.one_of(
            st.tuples(inner, inner).map(lambda pair: build.add(*pair)),
            st.tuples(inner, inner).map(lambda pair: build.sub(*pair)),
            st.tuples(st.sampled_from((-1, 2)), inner).map(
                lambda pair: build.mul(*pair)),
            # Integer ite, conditioned on a variable or a comparison.
            st.tuples(st.one_of(st.sampled_from(BOOLS),
                                st.tuples(inner, inner).map(lambda pair: build.lt(*pair))),
                      inner, inner).map(lambda triple: build.ite(*triple)),
        ),
        max_leaves=5,
    )


def _atoms():
    comparisons = st.sampled_from((build.eq, build.ne, build.lt, build.le,
                                   build.gt, build.ge))
    compared = st.tuples(comparisons, _terms(), _terms()).map(
        lambda triple: triple[0](triple[1], triple[2]))
    return st.one_of(compared, st.sampled_from(BOOLS))


formulas = st.recursive(
    _atoms(),
    lambda inner: st.one_of(
        inner.map(build.lnot),
        st.lists(inner, min_size=2, max_size=3).map(lambda parts: build.land(*parts)),
        st.lists(inner, min_size=2, max_size=3).map(lambda parts: build.lor(*parts)),
        st.tuples(inner, inner).map(lambda pair: build.implies(*pair)),
        st.tuples(inner, inner).map(lambda pair: build.iff(*pair)),
        # Boolean equalities (rewritten to Iff) and boolean ite.
        st.tuples(inner, inner).map(lambda pair: build.eq(*pair)),
        st.tuples(inner, inner).map(lambda pair: build.ne(*pair)),
        st.tuples(inner, inner, inner).map(lambda triple: build.ite(*triple)),
    ),
    max_leaves=8,
)

#: Warm across all examples, as a long-lived solver's memo would be.
WARM = RewriteMemo()
WARM_SOLVER = Solver(cache=FormulaCache())


class TestGeneratedFormulas:
    @settings(max_examples=200, deadline=None)
    @given(formulas, formulas)
    def test_warm_passes_match_fresh_ones(self, first, second):
        # Rewriting `first` warms the memo for the formulas that share it.
        for formula in (first, build.land(first, second),
                        build.implies(build.land(first, second), first)):
            assert preprocess(formula, WARM) == preprocess(formula)
            assert simplify(formula, WARM) == simplify(formula)

    @settings(max_examples=50, deadline=None)
    @given(formulas)
    def test_a_warm_solver_answers_like_a_fresh_one(self, formula):
        assert WARM_SOLVER.check_sat(formula).status \
            == Solver().check_sat(formula).status


# ---------------------------------------------------------------------------
# Cap and quantifier check
# ---------------------------------------------------------------------------

x, y = INTS[0], INTS[1]
p = BOOLS[0]


class TestCap:
    def test_a_full_memo_is_cleared_and_answers_do_not_change(self, monkeypatch):
        monkeypatch.setattr(solver_module, "_REWRITE_MEMO_LIMIT", 40)
        solver = Solver()
        memo = solver.rewrite_memo()
        queries = [build.land(build.le(x, build.i(k)), build.ge(build.add(x, y), k),
                              build.lor(p, build.ne(y, build.i(-k))))
                   for k in range(12)]
        sizes = []
        for formula in queries + queries:
            sizes.append(len(memo))
            assert solver.check_sat(formula).status \
                == Solver().check_sat(formula).status
            assert solver.check_valid(formula) == Solver().check_valid(formula)
        # Cleared in place at least once; between clears it grows by at most
        # one check_sat/check_valid pair's entries (under 60 here) past the cap.
        assert solver.rewrite_memo() is memo
        assert any(later < earlier for earlier, later in zip(sizes, sizes[1:]))
        assert max(sizes) < 40 + 60


class TestQuantifierCheck:
    QUANTIFIED = (Forall((x,), build.ge(x, y)),
                  build.land(p, Exists((x,), build.lt(x, y))))

    @pytest.mark.parametrize("formula", QUANTIFIED, ids=["forall", "nested-exists"])
    def test_quantified_query_raises_before_the_fault_site(self, formula):
        solver = Solver()
        # Memoize the quantifier bodies as quantifier-free first.
        assert not solver.check_sat(build.land(build.ge(x, y), build.lt(x, y))).is_sat
        plan = FaultPlan([FaultRule("solver.query", action="unknown", attempt=None)])
        with injected(plan):
            for _ in range(2):  # cold, then memoized flag
                with pytest.raises(SolverError):
                    solver.check_sat(formula)
            assert solver.check_sat(build.ge(x, y)).status is SatStatus.UNKNOWN
        assert solver.consume_unknown() == "injected"
