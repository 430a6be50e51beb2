"""Integer feasibility via branch-and-bound on top of the rational simplex.

Conjunctions of linear integer constraints are decided by solving the
rational relaxation and branching on a variable with a fractional value
(``x <= floor(v)`` vs ``x >= ceil(v)``).  The verification conditions the
Expresso pipeline generates are tiny (a handful of variables, unit
coefficients), so branching depth is small in practice; a depth limit plus
artificial variable bounds act as a completeness backstop.  Exceeding the
limit raises :class:`IntegerFeasibilityUnknown` so callers can degrade
conservatively (an unproven Hoare triple only ever costs a signal, never
correctness), and so does a branch that only the artificial bounds make
infeasible: "no solution inside the box" is not "no solution".
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, FrozenSet, List, Optional, Sequence

from repro.smt.linear import Constraint, LinExpr
from repro.smt.simplex import rational_feasible

#: Depth after which artificial bounds are imposed on every variable.
_BOUND_DEPTH = 24
#: Hard recursion limit.
_MAX_DEPTH = 80
#: Magnitude of the artificial bounds.
_BIG_BOUND = 10**7


class IntegerFeasibilityUnknown(Exception):
    """Raised when branch-and-bound exceeds its budget without an answer."""


def integer_feasible(constraints: Sequence[Constraint]) -> Optional[Dict[str, int]]:
    """Return an integer model for the conjunction of *constraints*, or None.

    None is a proof of infeasibility.  Raises
    :class:`IntegerFeasibilityUnknown` when the search budget is exhausted,
    or when only the artificial bounds make a branch infeasible (both
    practically unreachable for pipeline-generated VCs).
    """
    return _search(list(constraints), depth=0, box=frozenset())


def _search(constraints: List[Constraint], depth: int,
            box: FrozenSet[int]) -> Optional[Dict[str, int]]:
    """Branch and bound; *box* holds the ids of the artificial bound rows."""
    if depth > _MAX_DEPTH:
        raise IntegerFeasibilityUnknown(
            f"branch-and-bound exceeded depth {_MAX_DEPTH} on {len(constraints)} constraints"
        )
    relaxation = rational_feasible(constraints)
    if relaxation is None:
        # Below _BOUND_DEPTH an empty relaxation proves only that no
        # solution lies inside the box; it is a proof when the branch is
        # infeasible without the artificial rows too.
        if box and rational_feasible(
                [row for row in constraints if id(row) not in box]) is not None:
            raise IntegerFeasibilityUnknown(
                f"branch infeasible only inside the artificial ±{_BIG_BOUND} bounds")
        return None
    fractional = _first_fractional(relaxation)
    if fractional is None:
        model = {name: int(value) for name, value in relaxation.items()}
        return model
    name, value = fractional
    if depth == _BOUND_DEPTH:
        # Bound every variable to force termination on pathological systems.
        rows = []
        for var_name in relaxation:
            rows.append(Constraint(LinExpr.var(var_name).shift(-_BIG_BOUND)))
            rows.append(Constraint(LinExpr.var(var_name, -1).shift(-_BIG_BOUND)))
        constraints = constraints + rows
        box = frozenset(map(id, rows))
    floor_val = math.floor(value)
    ceil_val = floor_val + 1
    # Branch x <= floor(v):  x - floor <= 0
    lower_branch = constraints + [Constraint(LinExpr.var(name).shift(-floor_val))]
    result = _search(lower_branch, depth + 1, box)
    if result is not None:
        return result
    # Branch x >= ceil(v):  ceil - x <= 0
    upper_branch = constraints + [Constraint(LinExpr.var(name, -1).shift(ceil_val))]
    return _search(upper_branch, depth + 1, box)


def _first_fractional(model: Dict[str, Fraction]) -> Optional[tuple]:
    for name in sorted(model):
        value = model[name]
        if value.denominator != 1:
            return name, value
    return None
