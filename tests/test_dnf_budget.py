"""The DNF budget is checked before any cube is built.

``repro.logic.nnf.to_dnf_clauses`` first runs ``_dnf_size``, a pass that
counts the cubes of each NNF node (sum for ``Or``, product for ``And``) and
raises exactly where the expansion ``_dnf`` would.  These tests compare the
two on generated NNF formulas at small budgets and check that a suite
compile never starts an expansion that would overrun its budget.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.benchmarks_lib import get_benchmark
from repro.logic import BOOL, build, v
from repro.logic import nnf
from repro.logic.terms import And, BoolConst, Forall, Implies, Not, Or
from repro.placement.pipeline import ExpressoPipeline

x, y = v("x"), v("y")
BOOLS = tuple(v(name, BOOL) for name in ("p", "q", "r"))
p, q, r = BOOLS
TRUE, FALSE = BoolConst(True), BoolConst(False)


def outcome(function, *args):
    """("ok", value) or ("error", exception class, message)."""
    try:
        return "ok", function(*args)
    except (ValueError, TypeError) as exc:
        return "error", type(exc), str(exc)


def size_outcome(formula, budget):
    return outcome(nnf._dnf_size, formula, budget, {})


def expansion_outcome(formula, budget):
    result = outcome(nnf._dnf, formula, budget)
    return ("ok", len(result[1])) if result[0] == "ok" else result


# NNF formulas built from the node classes directly, so constants and
# nesting survive (``build.land`` would fold a ``false`` factor away).
literals = st.one_of(
    st.sampled_from(BOOLS),
    st.sampled_from(BOOLS).map(Not),
    st.sampled_from((build.le(x, y), build.ge(x, 1), TRUE, FALSE)),
)
# A quantifier or an ``Implies`` is not NNF: both conversions must raise.
strays = st.sampled_from((Forall((x,), build.ge(x, y)), Implies(p, q)))


def nnf_formulas(with_strays):
    leaves = st.one_of(literals, strays) if with_strays else literals

    def nodes(inner):
        # Drawing arguments from a small pool of subformulas makes shared
        # (DAG) nodes common, which the size pass memoizes.
        args = st.lists(inner, min_size=1, max_size=4)
        return st.one_of(args.map(lambda parts: And(tuple(parts))),
                         args.map(lambda parts: Or(tuple(parts))),
                         st.tuples(inner, st.integers(2, 3)).map(
                             lambda pair: And((pair[0],) * pair[1])))

    return st.recursive(leaves, nodes, max_leaves=16)


class TestSizePass:
    @settings(max_examples=400, deadline=None)
    @given(nnf_formulas(with_strays=False), st.integers(1, 64))
    def test_size_pass_matches_the_expansion(self, formula, budget):
        assert size_outcome(formula, budget) == expansion_outcome(formula, budget)

    @settings(max_examples=200, deadline=None)
    @given(nnf_formulas(with_strays=True), st.integers(1, 64))
    def test_size_pass_raises_what_the_expansion_raises(self, formula, budget):
        assert size_outcome(formula, budget) == expansion_outcome(formula, budget)

    @pytest.mark.parametrize("formula, budget, expected", [
        # The running product 2, 4 passes the budget 3 before the false
        # factor would bring it back to 0.
        (And((Or((p, q)), Or((p, r)), FALSE)), 3, ValueError),
        (And((Or((p, q)), Or((p, r)), FALSE)), 4, 0),
        (Or((And((Or((p, q)), Or((p, r)))), r)), 4, ValueError),
        (Or((And((Or((p, q)), Or((p, r)))), r)), 5, 5),
        # Arguments after a false factor are still visited.
        (And((FALSE, Forall((x,), build.ge(x, y)))), 64, ValueError),
        (And((FALSE, Implies(p, q))), 64, TypeError),
    ], ids=["over-budget-then-false", "at-budget-then-false", "or-over-budget",
            "or-at-budget", "quantifier-after-false", "stray-node-after-false"])
    def test_fixed_cases(self, formula, budget, expected):
        result = size_outcome(formula, budget)
        assert result == expansion_outcome(formula, budget)
        if isinstance(expected, int):
            assert result == ("ok", expected)
        else:
            assert result[:2] == ("error", expected)

    def test_shared_nodes_are_counted_per_occurrence(self):
        pair = Or((p, q))
        formula = And((pair,) * 6)          # one node, 2**6 cubes
        sizes = {}
        assert nnf._dnf_size(formula, 64, sizes) == 64 == len(nnf._dnf(formula, 64))
        assert sizes == {pair: 2, formula: 64}

    def test_an_over_budget_formula_builds_no_cube(self, monkeypatch):
        def no_expansion(expr, max_clauses):
            raise AssertionError("the expansion ran")

        monkeypatch.setattr(nnf, "_dnf", no_expansion)
        formula = build.land(*[build.lor(v(f"a{k}", BOOL), v(f"b{k}", BOOL))
                               for k in range(13)])
        with pytest.raises(ValueError, match="budget"):
            nnf.to_dnf_clauses(formula)


def _outermost_raises(monkeypatch, name):
    """Patch the recursive ``nnf.<name>`` to record the errors its outermost
    call raises."""
    original = getattr(nnf, name)
    depth = [0]
    raised = []

    def tracking(*args):
        depth[0] += 1
        try:
            return original(*args)
        except ValueError as exc:
            if depth[0] == 1:
                raised.append(exc)
            raise
        finally:
            depth[0] -= 1

    monkeypatch.setattr(nnf, name, tracking)
    return raised


def test_no_expansion_of_a_dining_philosophers_compile_overruns(monkeypatch):
    # Abduction's obligations for Dining Philosophers blow the 4,096-cube
    # budget after a boolean step.  Every such formula must be caught by
    # the size pass before the expansion starts.
    expansion_raises = _outermost_raises(monkeypatch, "_dnf")
    size_raises = _outermost_raises(monkeypatch, "_dnf_size")
    ExpressoPipeline().compile(get_benchmark("Dining Philosophers").source)
    assert size_raises, "the compile no longer reaches the DNF budget"
    assert expansion_raises == []
