"""Integer feasibility via branch-and-bound on top of the rational simplex.

Conjunctions of linear integer constraints are decided by solving the
rational relaxation and branching on a variable with a fractional value
(``x <= floor(v)`` vs ``x >= ceil(v)``).  The verification conditions the
Expresso pipeline generates are tiny (a handful of variables, unit
coefficients), so the search is small in practice: every call of a suite
compile solves one relaxation.  A depth limit plus artificial variable
bounds act as a completeness backstop, and a budget of simplex calls
over the whole tree bounds the breadth a system whose relaxation is
unbounded along an integer-free direction would otherwise explore.
Exceeding either limit raises :class:`IntegerFeasibilityUnknown` so callers
can degrade conservatively (an unproven Hoare triple only ever costs a
signal, never correctness), and so does a branch that only the artificial
bounds make infeasible: "no solution inside the box" is not "no solution".
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import count
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from repro.smt.linear import Constraint, LinExpr
from repro.smt.simplex import rational_feasible

#: Depth after which artificial bounds are imposed on every variable.
_BOUND_DEPTH = 24
#: Hard recursion limit.
_MAX_DEPTH = 80
#: Magnitude of the artificial bounds.
_BIG_BOUND = 10**7
#: Simplex calls one search may make across its whole tree.
_MAX_SIMPLEX_CALLS = 100


class IntegerFeasibilityUnknown(Exception):
    """Raised when branch-and-bound exceeds its budget without an answer."""


def integer_feasible(constraints: Sequence[Constraint]) -> Optional[Dict[str, int]]:
    """Return an integer model for the conjunction of *constraints*, or None.

    None is a proof of infeasibility.  Raises
    :class:`IntegerFeasibilityUnknown` when the search budget is exhausted,
    or when only the artificial bounds make a branch infeasible (both
    practically unreachable for pipeline-generated VCs).
    """
    return _search(list(constraints), {}, depth=0, box=frozenset(), calls=count(1))


def _search(constraints: List[Constraint], bounds: Dict[Tuple[str, int], Constraint],
            depth: int, box: FrozenSet[int],
            calls: Iterator[int]) -> Optional[Dict[str, int]]:
    """Branch and bound below the rows *constraints* and *bounds*.

    *bounds* maps (variable, direction) to the branch row bounding the
    variable that way.  A deeper branch on the same variable and direction
    is strictly tighter, so its row replaces the old one: a node solves the
    system, its box and one bound per variable and direction, not one row
    per ancestor.  *box* holds the ids of the artificial bound rows, *calls*
    numbers the simplex calls of the whole search.
    """
    if depth > _MAX_DEPTH:
        raise IntegerFeasibilityUnknown(
            f"branch-and-bound exceeded depth {_MAX_DEPTH} "
            f"on {len(constraints) + len(bounds)} constraints")
    rows = constraints + list(bounds.values())
    relaxation = _relaxation(rows, calls)
    if relaxation is None:
        # Below _BOUND_DEPTH an empty relaxation proves only that no
        # solution lies inside the box; it is a proof when the branch is
        # infeasible without the artificial rows too.
        if box and _relaxation([row for row in rows if id(row) not in box],
                               calls) is not None:
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
        box_rows = []
        for var_name in relaxation:
            box_rows.append(Constraint(LinExpr.var(var_name).shift(-_BIG_BOUND)))
            box_rows.append(Constraint(LinExpr.var(var_name, -1).shift(-_BIG_BOUND)))
        constraints = constraints + box_rows
        box = frozenset(map(id, box_rows))
    floor_val = math.floor(value)
    ceil_val = floor_val + 1
    # Branch x <= floor(v):  x - floor <= 0
    lower = Constraint(LinExpr.var(name).shift(-floor_val))
    result = _search(constraints, {**bounds, (name, 1): lower}, depth + 1, box, calls)
    if result is not None:
        return result
    # Branch x >= ceil(v):  ceil - x <= 0
    upper = Constraint(LinExpr.var(name, -1).shift(ceil_val))
    return _search(constraints, {**bounds, (name, -1): upper}, depth + 1, box, calls)


def _relaxation(constraints: List[Constraint],
                calls: Iterator[int]) -> Optional[Dict[str, Fraction]]:
    if next(calls) > _MAX_SIMPLEX_CALLS:
        raise IntegerFeasibilityUnknown(
            f"branch-and-bound exceeded {_MAX_SIMPLEX_CALLS} simplex calls "
            f"on {len(constraints)} constraints")
    return rational_feasible(constraints)


def _first_fractional(model: Dict[str, Fraction]) -> Optional[tuple]:
    for name in sorted(model):
        value = model[name]
        if value.denominator != 1:
            return name, value
    return None
