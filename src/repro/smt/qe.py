"""Quantifier elimination for the abduction engine.

Existential quantifiers over booleans are eliminated by Shannon expansion;
existential quantifiers over integers by Fourier–Motzkin elimination on the
DNF of the body.  Universal quantification is handled by duality
(``∀x.φ = ¬∃x.¬φ``).

Integer steps run on cubes of literal ids.  The body is preprocessed
(:func:`repro.smt.preprocess.preprocess`) and converted to DNF once; each
distinct literal of a cube — a :class:`Constraint` (a canonical ``t <= 0``
atom, told apart by its coefficients and constant) or a boolean literal
(``b`` or ``!b``) — gets a small integer id from the eliminator's literal
table, so a cube is a tuple of ints and the DNF expansion
(:func:`repro.logic.nnf.to_dnf_clauses`) emits those tuples directly.  Each
integer variable is eliminated from every cube directly on the table's
coefficients, and between steps the cube list gets exactly the clean-up
that rebuilding the disjunction, simplifying it and converting it back to
DNF would apply: duplicate literals and cubes are dropped, a cube holding a
false constraint or both ``b`` and ``!b`` is dropped, and an empty cube or
two complementary single-literal cubes make the result ``true``.  A cube's
projection (or its strict-mode error) is memoized per variable and cube for
the eliminator's life, so a cube that several variable lists reach is
projected once.  Formulas are built only for a boolean step, which
substitutes into a formula, and for the result.  Fourier–Motzkin never adds
cubes, so the 4096-cube DNF budget (a :class:`ValueError` beyond it) binds
only where a formula is converted: the body, and the result of a boolean
step.  The budget is checked before conversion (``to_dnf_clauses`` counts
the cubes first), so a formula over it costs one pass over its NNF and no
cube list.

**Output identity.**  The results are ``==`` to — and the errors of the same
class as — those of the step-by-step formulation that rebuilds the formula
after every variable and preprocesses and converts it again for the next
one.  ``tests/test_qe_reference.py`` keeps that formulation as the
reference and checks the two against each other on every elimination the
abduction engine makes for several suite monitors and on generated mixed
boolean/integer formulas.

:class:`QuantifierEliminator` eliminates several variable lists from one
formula.  Its steps are shared by prefix: a step's result (or error) is
memoized per body and list of variables eliminated so far, so a list that
starts with an earlier list's first *k* variables resumes after them.  Each
formula it meets — the body, and the result of a boolean step — is
converted to DNF at most once for all lists.  Abduction uses one per
obligation for its variable subsets.  Their eliminated lists are the
complements of small kept sets with the variables outside the invariant's
vocabulary (parameters, locals, ``$theta`` copies) first, so all lists of
an obligation share that whole prefix and its steps run once
(:mod:`repro.analysis.abduction`, *Elimination order*).

Fourier–Motzkin over the integers is exact whenever the eliminated variable
appears with coefficient ±1 in every constraint (the only case the monitor
analyses produce, since guards and updates use unit coefficients).  When a
larger coefficient appears, the real shadow is returned, which
over-approximates satisfiability; abduction candidates derived from it are
still filtered by Algorithm 2's validity checks, so soundness of the overall
pipeline is preserved.  Callers that need exactness can pass ``strict=True``
to raise instead.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.logic import build
from repro.logic.free_vars import ordered_free_vars
from repro.logic.memo import RewriteMemo
from repro.logic.nnf import to_dnf_clauses
from repro.logic.simplify import simplify
from repro.logic.substitute import substitute
from repro.logic.terms import BOOL, And, BoolConst, Expr, IntConst, Le, Not, Or, Var
from repro.smt.linear import Constraint, LinExpr
from repro.smt.preprocess import atom_constraint, preprocess

if TYPE_CHECKING:  # for type checkers only (see repro.logic.build)
    #: A cube: the ids of its literals in the eliminator's literal table.
    Cube = Tuple[int, ...]
    #: A partial result: a formula, or a non-empty disjunction of cubes.
    State = Union[Expr, List[Cube]]

#: The value of a memo key not computed yet.
_MISSING = object()


class QuantifierEliminationError(ValueError):
    """Raised in strict mode when elimination would be inexact, or on bad input."""


def eliminate_exists(variables: Sequence[Var], formula: Expr, *, strict: bool = False) -> Expr:
    """Compute a quantifier-free equivalent of ``exists variables. formula``."""
    return QuantifierEliminator(formula, strict=strict).exists(variables)


def eliminate_forall(variables: Sequence[Var], formula: Expr, *, strict: bool = False) -> Expr:
    """Compute a quantifier-free equivalent of ``forall variables. formula``."""
    return QuantifierEliminator(formula, strict=strict).forall(variables)


class QuantifierEliminator:
    """Eliminates different variable sets from one formula.

    Every step — eliminating one variable from the state the earlier ones
    left — is memoized per (body, variables eliminated so far), its
    :class:`ValueError` included, so a call resumes after the longest
    prefix of its variable list that an earlier call already eliminated.
    The body is the formula (for :meth:`exists`) or its negation (for
    :meth:`forall`).  A state is never mutated once produced, which is what
    lets steps share it.  Every formula a step meets is also converted to
    DNF at most once, for whichever prefix reaches it first, and every cube
    is projected at most once per variable.  The memos and the literal
    table live as long as the eliminator.  Preprocessing and
    simplification go through *memo* (a solver's
    :meth:`~repro.smt.solver.Solver.rewrite_memo`), or through a memo of
    the eliminator's own; preprocessing's output is already NNF, which is
    what the DNF conversion takes.
    """

    def __init__(self, formula: Expr, *, strict: bool = False,
                 memo: Optional[RewriteMemo] = None) -> None:
        self.formula = formula
        self.strict = strict
        self.memo = memo if memo is not None else RewriteMemo()
        self._negated: Optional[Expr] = None
        self._converted: Dict[Expr, Union[State, ValueError]] = {}
        self._steps: Dict[Tuple[Expr, Tuple[Var, ...]], Union[State, ValueError]] = {}
        self._projections: Dict[Tuple[str, Cube], Union[Optional[Cube], ValueError]] = {}
        # The literal table.  A constraint is keyed by its (coeffs,
        # constant), a boolean literal and a converted leaf atom by their
        # Expr.  Per id: the Constraint or boolean literal, its ({name:
        # coef}, constant) (None for a boolean), and lazily its formula and,
        # for a boolean, the id of its negation.
        self._ids: Dict[object, int] = {}
        self._literals: List[Union[Constraint, Expr]] = []
        self._linear: List[Optional[Tuple[Dict[str, int], int]]] = []
        self._formulas: Dict[int, Expr] = {}
        self._negations: Dict[int, int] = {}

    def exists(self, variables: Sequence[Var]) -> Expr:
        """A quantifier-free equivalent of ``exists variables. formula``."""
        return self._exists(variables, self.formula)

    def forall(self, variables: Sequence[Var]) -> Expr:
        """A quantifier-free equivalent of ``forall variables. formula``."""
        if self._negated is None:
            self._negated = build.lnot(self.formula)
        return simplify(build.lnot(self._exists(variables, self._negated)), self.memo)

    def _exists(self, variables: Sequence[Var], body: Expr) -> Expr:
        state: State = body
        prefix: Tuple[Var, ...] = ()
        for var in variables:
            prefix += (var,)
            state = _memoized(self._steps, (body, prefix),
                              partial(self._step, var, state))
        return simplify(self._formula(state), self.memo)

    def _step(self, var: Var, state: State) -> State:
        """Eliminate *var* from *state*; the result is a new state."""
        if var.var_sort is BOOL:
            return _eliminate_bool_exists(var, self._formula(state), self.memo)
        # A variable that does not occur leaves the result as it is,
        # unsimplified and in its current literal order.
        if isinstance(state, Expr):
            if var not in ordered_free_vars(state):
                return state
            cubes = _memoized(self._converted, state, partial(self._convert, state))
        else:
            if not any(self._mentions(cube, var.name) for cube in state):
                return state
            cubes = self._reconverted(state)
        return cubes if isinstance(cubes, Expr) else self._project(var.name, cubes)

    # -- the literal table ----------------------------------------------------

    def _add(self, key: object, literal: Union[Constraint, Expr],
             linear: Optional[Tuple[Dict[str, int], int]]) -> int:
        lit = self._ids[key] = len(self._literals)
        self._literals.append(literal)
        self._linear.append(linear)
        return lit

    def _constraint_id(self, expr: LinExpr) -> int:
        key = (expr.coeffs, expr.constant)
        lit = self._ids.get(key)
        if lit is None:
            lit = self._add(key, Constraint(expr), (dict(expr.coeffs), expr.constant))
        return lit

    def _leaf_id(self, leaf: Expr) -> int:
        """The id of a DNF leaf: a canonical atom's constraint, else the leaf."""
        lit = self._ids.get(leaf)
        if lit is None:
            # After preprocessing only boolean variables appear negated.
            constraint = None if isinstance(leaf, Not) else atom_constraint(leaf)
            if constraint is None:
                lit = self._add(leaf, leaf, None)
            else:
                lit = self._ids[leaf] = self._constraint_id(constraint.expr)
        return lit

    def _negation(self, lit: int) -> int:
        negation = self._negations.get(lit)
        if negation is None:
            literal = self._literals[lit]
            assert isinstance(literal, Expr)
            negation = self._negations[lit] = self._leaf_id(build.lnot(literal))
        return negation

    # -- formulas <-> cubes ---------------------------------------------------

    def _convert(self, formula: Expr) -> State:
        """Preprocess *formula* and convert it to cubes (or a constant)."""
        processed = preprocess(formula, self.memo)
        if isinstance(processed, BoolConst):
            return processed
        return to_dnf_clauses(processed, literal=self._leaf_id)

    def _formula(self, state: State) -> Expr:
        """The formula ``build.lor`` of ``build.land``s would make of *state*."""
        if isinstance(state, Expr):
            return state
        disjuncts = [self._cube_formula(cube) for cube in state]
        return disjuncts[0] if len(disjuncts) == 1 else Or(tuple(disjuncts))

    def _cube_formula(self, cube: Cube) -> Expr:
        literals = [self._literal_formula(lit) for lit in cube]
        return literals[0] if len(literals) == 1 else And(tuple(literals))

    def _literal_formula(self, lit: int) -> Expr:
        formula = self._formulas.get(lit)
        if formula is None:
            literal = self._literals[lit]
            formula = self._formulas[lit] = (
                Le(literal.expr.to_expr(), IntConst(0)) if isinstance(literal, Constraint)
                else literal)
        return formula

    def _reconverted(self, cubes: List[Cube]) -> State:
        """What preprocessing the formula of *cubes* and converting it back yields.

        The literals are already canonical, so of the preprocessing only
        :func:`simplify` has an effect: it drops cubes holding both ``b``
        and ``!b``, and turns complementary single-literal cubes into
        ``true``.
        """
        survivors = [cube for cube in cubes if not self._contradictory(cube)]
        if not survivors:
            return build.FALSE
        linear = self._linear
        units = {cube[0] for cube in survivors
                 if len(cube) == 1 and linear[cube[0]] is None}
        if any(self._negation(unit) in units for unit in units):
            return build.TRUE
        return survivors

    def _mentions(self, cube: Cube, name: str) -> bool:
        return any(linear is not None and name in linear[0]
                   for linear in (self._linear[lit] for lit in cube))

    def _contradictory(self, cube: Cube) -> bool:
        linear = self._linear
        booleans = {lit for lit in cube if linear[lit] is None}
        return len(booleans) > 1 and any(self._negation(lit) in booleans
                                         for lit in booleans)

    # -- Fourier–Motzkin ------------------------------------------------------

    def _project(self, name: str, cubes: Sequence[Cube]) -> State:
        """Eliminate the integer variable *name* from a disjunction of cubes."""
        projected: Dict[Cube, None] = {}
        true = False
        for cube in cubes:
            result = _memoized(self._projections, (name, cube),
                               partial(self._project_cube, name, cube))
            if result is None:
                continue
            if result:
                projected.setdefault(result)
            else:
                # Keep going: a later cube may still be inexact under ``strict``.
                true = True
        if true:
            return build.TRUE
        return list(projected) if projected else build.FALSE

    def _project_cube(self, name: str, cube: Cube) -> Optional[Cube]:
        """Fourier–Motzkin elimination of *name* from one cube; None if false.

        The result lists the constraints without *name*, then the boolean
        literals, then the combination of every lower with every upper
        bound, without duplicates.
        """
        unrelated: List[int] = []
        booleans: List[int] = []
        # A constraint a*var + rest <= 0 is a lower bound on var for a < 0
        # and an upper bound for a > 0; both are kept as (|a|, coefficients
        # of a*var + rest, constant).
        lowers: List[Tuple[int, Dict[str, int], int]] = []
        uppers: List[Tuple[int, Dict[str, int], int]] = []
        for lit in cube:
            linear = self._linear[lit]
            if linear is None:
                booleans.append(lit)
                continue
            coefs, constant = linear
            coef = coefs.get(name, 0)
            if coef == 0:
                unrelated.append(lit)
                continue
            if self.strict and abs(coef) != 1:
                raise QuantifierEliminationError(
                    f"non-unit coefficient {coef} for {name}; elimination would be inexact"
                )
            if coef > 0:
                uppers.append((coef, coefs, constant))
            else:
                lowers.append((-coef, coefs, constant))

        combined: Dict[int, None] = dict.fromkeys(unrelated)
        combined.update(dict.fromkeys(booleans))
        for low_coef, low, low_constant in lowers:
            for up_coef, up, up_constant in uppers:
                # rest_low <= low_coef*var and up_coef*var <= -rest_up
                # combine to up_coef*rest_low + low_coef*rest_up <= 0: the
                # var terms of up_coef*low + low_coef*up cancel.
                coeffs = {n: up_coef * c for n, c in low.items() if n != name}
                for n, c in up.items():
                    if n != name:
                        coeffs[n] = coeffs.get(n, 0) + low_coef * c
                bound = LinExpr.of(coeffs, up_coef * low_constant + low_coef * up_constant)
                if bound.is_constant():
                    if bound.constant > 0:
                        return None
                    continue
                combined.setdefault(self._constraint_id(bound))
        return tuple(combined)


def _memoized(table: Dict, key, compute: Callable[[], object]):
    """``compute()``, or its stored result; a stored error is raised again."""
    result = table.get(key, _MISSING)
    if result is _MISSING:
        try:
            result = compute()
        except ValueError as exc:
            result = exc
        table[key] = result
    if isinstance(result, ValueError):
        # Each raise would extend the stored error's traceback and keep the
        # frames of every earlier raise alive; start from none.
        raise result.with_traceback(None)
    return result


def _eliminate_bool_exists(var: Var, formula: Expr, memo: RewriteMemo) -> Expr:
    true_case = substitute(formula, {var: build.TRUE})
    false_case = substitute(formula, {var: build.FALSE})
    return build.lor(simplify(true_case, memo), simplify(false_case, memo))
