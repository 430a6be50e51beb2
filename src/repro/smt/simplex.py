"""Exact-rational feasibility of linear constraint systems (Phase-1 simplex).

This is the arithmetic core of the SMT solver.  Given a conjunction of
constraints ``t_j <= 0`` over free (unbounded-sign) variables, it either
produces a rational satisfying assignment or reports infeasibility.  The
result is exact; Bland's rule guarantees termination.

The construction is the textbook one:

* each free variable ``x`` is split into ``x = x⁺ - x⁻`` with ``x⁺, x⁻ >= 0``;
* each constraint ``a·x + k <= 0`` becomes ``a·x + s = -k`` with a slack
  ``s >= 0`` (rows are scaled so the right-hand side is non-negative);
* an artificial variable is added per row and the Phase-1 objective
  (sum of artificials) is minimized; feasibility holds iff the optimum is 0.

The tableau is fraction-free and sparse.  Each row, the objective row
included, is a map ``{column: int}`` holding only non-zero entries, an
integer right-hand side, and one positive integer denominator: the rational
row is the integer row divided by its denominator.  A pivot on column ``p``
with pivot row ``r`` (entry ``a_r``) replaces every other row ``i`` (entry
``a_i``) by ``row_i·a_r − a_i·row_r`` over the product of the two
denominators, and the pivot row takes ``a_r`` as its denominator; each
touched row is then divided through by the gcd of its entries, right-hand
side and denominator, which keeps the integers small.

Because every denominator is positive, the sign of an integer entry is the
sign of the rational one, and a ratio ``rhs_i / a_i`` is the same whether
read from the integer or the rational row (the denominator cancels), so
ratios are compared by integer cross-multiplication.  The entering column
(Bland: the lowest column with a negative reduced cost) and the leaving row
(the minimum ratio, ties to the lowest basic column) are therefore the ones
the textbook rational tableau picks, pivot for pivot, and the final basis,
model and Farkas support are identical to it.  The Farkas multiplier of row
``i`` is ``1 - c̄`` for the reduced cost ``c̄`` of its artificial column,
so row ``i`` is in the support exactly when that column's objective entry
differs from the objective row's denominator.  The model is read off once
at the end, as ``Fraction(rhs, denominator)`` per basic column.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Dict, List, Optional, Sequence, Tuple

from repro.smt.linear import Constraint

_ZERO = Fraction(0)


class SimplexInvariantError(RuntimeError):
    """Raised when the ratio test finds no leaving row.

    The Phase-1 objective is bounded below by 0, so in exact arithmetic the
    ratio test always finds a row.  Reaching this point means a defect, and
    the simplex raises rather than report "infeasible": an infeasible answer
    is what licenses dropping a signal.
    """


def _interval_feasible(rows: Sequence[Constraint], variables: Sequence[str],
                       row_indices: Sequence[int]) -> "_Outcome":
    """Decide a system of single-variable constraints by interval intersection."""
    lower: Dict[str, Fraction] = {}
    upper: Dict[str, Fraction] = {}
    lower_source: Dict[str, int] = {}
    upper_source: Dict[str, int] = {}
    for row_pos, constraint in enumerate(rows):
        (name, coefficient), = constraint.expr.coeffs
        bound = Fraction(-constraint.expr.constant, coefficient)
        if coefficient > 0:
            # coefficient * x + k <= 0  ==>  x <= -k / coefficient
            if name not in upper or bound < upper[name]:
                upper[name] = bound
                upper_source[name] = row_indices[row_pos]
        else:
            # coefficient < 0  ==>  x >= -k / coefficient
            if name not in lower or bound > lower[name]:
                lower[name] = bound
                lower_source[name] = row_indices[row_pos]
    model: Dict[str, Fraction] = {}
    for name in variables:
        low = lower.get(name)
        high = upper.get(name)
        if low is not None and high is not None and low > high:
            return _Outcome(None, [lower_source[name], upper_source[name]])
        if low is not None:
            model[name] = low
        elif high is not None:
            model[name] = high
        else:
            model[name] = Fraction(0)
    return _Outcome(model, None)


class _Outcome:
    """Feasibility outcome: a model, or an infeasible subset of row indices."""

    __slots__ = ("model", "core")

    def __init__(self, model: Optional[Dict[str, Fraction]],
                 core: Optional[List[int]]):
        self.model = model
        self.core = core


def rational_feasible(constraints: Sequence[Constraint]) -> Optional[Dict[str, Fraction]]:
    """Return a rational model for the conjunction of *constraints*, or None.

    Constraints whose linear part is empty are checked directly; an empty or
    trivially-true system yields the empty assignment (callers fill defaults).
    Systems in which every constraint mentions a single variable are decided
    by interval intersection (the common case for monitor VCs, and orders of
    magnitude cheaper than the tableau); everything else goes to the simplex.
    """
    return _solve(constraints).model


def rational_infeasible_subset(
        constraints: Sequence[Constraint]) -> Optional[List[int]]:
    """Return indices of an infeasible subset of *constraints*, or None.

    None means the system is rationally feasible.  The subset is the support
    of an infeasibility certificate — the two clashing bounds on the interval
    fast path, or the constraints with a non-zero Farkas multiplier at the
    Phase-1 optimum of the simplex.  It is small but not necessarily minimal;
    callers that need irreducible cores shrink it with deletion probes, which
    is far cheaper than probing the full system.
    """
    return _solve(constraints).core


def _solve(constraints: Sequence[Constraint]) -> _Outcome:
    variables: List[str] = []
    seen = set()
    rows: List[Constraint] = []
    row_indices: List[int] = []
    single_variable_only = True
    for index, constraint in enumerate(constraints):
        if constraint.expr.is_constant():
            if constraint.expr.constant > 0:
                return _Outcome(None, [index])
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
        return _Outcome({}, None)
    if single_variable_only:
        return _interval_feasible(rows, variables, row_indices)

    num_vars = len(variables)
    num_rows = len(rows)
    var_index = {name: idx for idx, name in enumerate(variables)}

    # Column layout: [x⁺ (n), x⁻ (n), slack (m), artificial (m)].
    art_base = 2 * num_vars + num_rows
    tableau: List[Dict[int, int]] = []
    rhs: List[int] = []
    dens: List[int] = []
    basis: List[int] = []
    # Phase-1 objective: minimize the sum of artificial variables, priced
    # out against the starting basis (each artificial's 1 cancels against
    # its own row, so only the other columns remain).
    objective: Dict[int, int] = {}
    obj_value = 0
    obj_den = 1

    for row_idx, constraint in enumerate(rows):
        # a·x + k <= 0  ==>  a·x + s = -k, negated when -k < 0.
        b = -constraint.expr.constant
        sign = -1 if b < 0 else 1
        # A LinExpr names each variable once, with a non-zero coefficient.
        row: Dict[int, int] = {}
        for name, coef in constraint.expr.coeffs:
            col = var_index[name]
            row[col] = sign * coef
            row[num_vars + col] = -sign * coef
        row[2 * num_vars + row_idx] = sign  # slack
        for col, value in row.items():
            objective[col] = objective.get(col, 0) - value
        obj_value -= sign * b
        row[art_base + row_idx] = 1
        tableau.append(row)
        rhs.append(sign * b)
        dens.append(1)
        basis.append(art_base + row_idx)
    objective = {col: value for col, value in objective.items() if value}

    # Primal simplex with Bland's rule (anti-cycling).
    while True:
        entering = min((col for col, value in objective.items() if value < 0),
                       default=None)
        if entering is None:
            break
        pivot_row = _leaving_row(tableau, rhs, basis, entering)
        if pivot_row is None:
            raise SimplexInvariantError(
                f"no leaving row for entering column {entering}")
        # The pivot row keeps its integers over the pivot entry as its new
        # denominator; every other row r becomes r·a_p − a_r·row_p.
        prow = tableau[pivot_row]
        pivot_val = prow[entering]
        prhs = rhs[pivot_row]
        divisor = gcd(pivot_val, prhs, *prow.values())
        if divisor > 1:
            prow = {col: value // divisor for col, value in prow.items()}
            prhs //= divisor
            pivot_val //= divisor
            tableau[pivot_row] = prow
            rhs[pivot_row] = prhs
        dens[pivot_row] = pivot_val
        for row_idx, row in enumerate(tableau):
            factor = row.get(entering)
            if factor is None or row_idx == pivot_row:
                continue
            tableau[row_idx], rhs[row_idx], dens[row_idx] = _eliminate(
                row, rhs[row_idx], dens[row_idx], factor, prow, prhs, pivot_val)
        factor = objective.get(entering)
        if factor is not None:
            objective, obj_value, obj_den = _eliminate(
                objective, obj_value, obj_den, factor, prow, prhs, pivot_val)
        basis[pivot_row] = entering

    # Optimum of the Phase-1 objective is -obj_value / obj_den (we maintained
    # the negated row).
    if obj_value < 0:
        # Farkas support: the dual multiplier of row i is recovered from the
        # reduced cost of its artificial column (c̄ = 1 - y_i); rows with a
        # non-zero multiplier witness the infeasibility.
        core = [
            row_indices[row_idx]
            for row_idx in range(num_rows)
            if objective.get(art_base + row_idx, 0) != obj_den
        ]
        return _Outcome(None, core or list(row_indices))

    values: Dict[int, Fraction] = {}
    for row_idx, col in enumerate(basis):
        if col < 2 * num_vars:
            values[col] = Fraction(rhs[row_idx], dens[row_idx])
    model: Dict[str, Fraction] = {}
    for name, idx in var_index.items():
        model[name] = values.get(idx, _ZERO) - values.get(num_vars + idx, _ZERO)
    return _Outcome(model, None)


def _leaving_row(tableau: Sequence[Dict[int, int]], rhs: Sequence[int],
                 basis: Sequence[int], entering: int) -> Optional[int]:
    """The minimum-ratio row for *entering*, ties to the lowest basic column.

    ``rhs_i / a_i < rhs_j / a_j`` is decided as ``rhs_i·a_j < rhs_j·a_i``
    (both coefficients are positive); None when no coefficient is positive.
    """
    best_row = None
    best_rhs = best_coef = 0
    for row_idx, row in enumerate(tableau):
        coef = row.get(entering, 0)
        if coef > 0:
            if best_row is None:
                best_row, best_rhs, best_coef = row_idx, rhs[row_idx], coef
                continue
            left = rhs[row_idx] * best_coef
            right = best_rhs * coef
            if left < right or (left == right and basis[row_idx] < basis[best_row]):
                best_row, best_rhs, best_coef = row_idx, rhs[row_idx], coef
    return best_row


def _eliminate(row: Dict[int, int], row_rhs: int, row_den: int, factor: int,
               prow: Dict[int, int], prhs: int,
               pivot_val: int) -> Tuple[Dict[int, int], int, int]:
    """``row·pivot_val − factor·prow`` over ``row_den·pivot_val``, reduced.

    Returns the new ``(row, rhs, denominator)``; the pivot column drops out.
    """
    new = {col: value * pivot_val for col, value in row.items()}
    for col, value in prow.items():
        value = new.get(col, 0) - factor * value
        if value:
            new[col] = value
        else:
            del new[col]
    new_rhs = row_rhs * pivot_val - factor * prhs
    new_den = row_den * pivot_val
    divisor = gcd(new_den, new_rhs, *new.values())
    if divisor > 1:
        new = {col: value // divisor for col, value in new.items()}
        new_rhs //= divisor
        new_den //= divisor
    return new, new_rhs, new_den
