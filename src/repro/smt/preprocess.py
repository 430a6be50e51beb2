"""Formula preprocessing for the SMT solver.

The solver core only understands two kinds of atoms:

* boolean variables, and
* canonical arithmetic atoms of the form ``t <= 0`` where ``t`` is a linear
  integer term.

:func:`preprocess` rewrites a quantifier-free formula into negation normal
form over those atoms.  It simplifies the formula
(:func:`~repro.logic.simplify.simplify`), then makes one recursive pass
``R(node, positive)`` over the result, which rewrites the node itself when
*positive* is true and its negation otherwise:

* ``Implies``, ``Iff`` and boolean ``ite`` are expanded and negation is
  pushed down by polarity, so ``Not`` ends up wrapping boolean variables
  only;
* every integer comparison becomes non-strict ``<= 0`` constraints, which is
  exact for integers (``a < b`` becomes ``a - b + 1 <= 0``, ``a == b`` a
  conjunction and ``a != b`` a disjunction of two sides); one whose sides
  differ by a constant becomes ``true`` or ``false``;
* the parts are joined with :func:`~repro.logic.simplify.junction`, the
  simplifier's own smart constructors and complementary-literal check, so
  the result needs no further simplification.

Two kinds of comparison are first rewritten whole, before any negation
reaches them, and ``R`` continues on the result: an ``Eq``/``Ne`` between
booleans becomes ``Iff`` structure (:func:`rewrite_bool_equalities`), and
one that holds an integer ``ite`` becomes a boolean case split
(:func:`lift_int_ite`).  The order matters for the exact output: the
negation of ``x != ite(p, x, y)`` is its case split at negative polarity,
which differs from the case split of ``x == ite(p, x, y)``.

The output is node for node the one of the step-by-step chain simplify,
boolean equalities to ``Iff``, integer ``ite`` lifting, boolean ``ite``
elimination and NNF, atom normalization, simplify.
``tests/test_preprocess_reference.py`` keeps that chain as the reference.

**Memoization.**  ``simplify`` and ``R`` are pure functions of their input
node (and polarity), and record their results per node in a
:class:`~repro.logic.memo.RewriteMemo`: ``R`` in its ``canonical`` table,
keyed by ``(node, positive)``.  Keys are interned nodes, so a memo hit is
exactly the result the rewrite would compute: the output is
identical with or without a memo, warm or cold.  The pipeline's queries
overlap almost entirely (abduction asks whether ``pre && psi`` is
satisfiable and whether it entails ``goal``, with one ``pre`` for every
candidate), so a memo that outlives one query rewrites each shared
subformula once.  The solver asks :func:`preprocess_conjuncts`, which
rewrites a query conjunct by conjunct, and no node for the whole query is
built, walked or stored.  Abduction passes ``pre`` as the query's first
hypothesis (``check_sat(psi, hyps=(pre,))``,
``check_valid(goal, hyps=(pre, psi))``): :func:`prepare` keeps ``pre``'s
simplified and canonical conjuncts, with the sets that deduplicate and
check them, in the memo's ``hypotheses`` table, so each query walks only
``psi`` and ``goal``.

The memo's owner is the :class:`~repro.smt.solver.Solver`, which keeps one
for its lifetime and clears it at a cap (see that module); abduction hands
the same memo to its quantifier eliminator.  Called without a memo,
:func:`preprocess` uses a fresh one for that call.
"""

from __future__ import annotations

from typing import Collection, Dict, List, Optional, Sequence, Tuple

from repro.logic import build
from repro.logic.memo import RewriteMemo
from repro.logic.simplify import junction, junction_args, simplify
from repro.logic.terms import (
    BOOL,
    And,
    BoolConst,
    Eq,
    Exists,
    Expr,
    Forall,
    Ge,
    Gt,
    INT,
    Iff,
    Implies,
    IntConst,
    Ite,
    Le,
    Lt,
    Ne,
    Not,
    Or,
    Var,
    rebuild,
    sort_of,
)
from repro.smt.linear import Constraint, LinExpr, linearize

_COMPARISONS = (Eq, Ne, Lt, Le, Gt, Ge)


def preprocess(expr: Expr, memo: Optional[RewriteMemo] = None) -> Expr:
    """The solver's form of a quantifier-free formula (see the module docstring).

    Both steps are memoized per node in *memo*; without one, in a fresh memo
    that lives for this call.
    """
    if memo is None:
        memo = RewriteMemo()
    return _canonical(simplify(expr, memo), True, memo.canonical)


#: :func:`preprocess_conjuncts`' form of ``false``.
FALSE_CONJUNCTS = (build.FALSE,)


class Prepared:
    """A hypothesis's share of every query it starts (:func:`prepare`).

    ``held`` are its simplified conjuncts after ``junction_args``, with
    their seen-set ``held_seen``, or None when they contradict each other.
    ``conjuncts`` are the canonical forms of ``held`` after
    ``junction_args``, with their seen-set ``seen``, or None when they
    contradict each other; both are computed when a query first needs them
    (``seen`` is None until then).  ``encoded`` belongs to the solver: the
    roots, atoms and cone of ``conjuncts``, kept after their first solve.
    """

    __slots__ = ("held", "held_seen", "conjuncts", "seen", "encoded")

    def __init__(self, hypothesis: Expr, memo: RewriteMemo) -> None:
        self.held = junction_args((simplify(part, memo)
                                   for part in build.conjuncts(hypothesis)), True)
        self.held_seen: Collection[Expr] = set(self.held or ())
        self.conjuncts: Optional[List[Expr]] = None
        self.seen: Optional[Collection[Expr]] = None
        self.encoded: Optional[tuple] = None

    def canonical(self, table: Dict[Tuple[Expr, bool], Expr]) -> Optional[List[Expr]]:
        """``conjuncts``, computed on first use."""
        if self.seen is None:
            if self.held is not None:
                self.conjuncts = junction_args(
                    [_canonical(part, True, table) for part in self.held], True)
            self.seen = set(self.conjuncts or ())
        return self.conjuncts


#: The prefix of a query without hypotheses.
_NO_PREFIX = Prepared(build.TRUE, RewriteMemo())
_NO_PREFIX.canonical({})


def prepare(hypothesis: Expr, memo: RewriteMemo) -> Prepared:
    """*hypothesis*'s :class:`Prepared` state, kept in *memo* (its
    ``hypotheses`` table)."""
    prepared = memo.hypotheses.get(hypothesis)
    if prepared is None:
        prepared = memo.hypotheses[hypothesis] = Prepared(hypothesis, memo)
    return prepared


def preprocess_conjuncts(expr: Expr, memo: Optional[RewriteMemo] = None,
                         hyps: Sequence[Expr] = ()) -> Tuple[Expr, ...]:
    """``preprocess(land(*hyps, expr))`` as a tuple of conjuncts, rewritten
    one by one.

    The tuple is ``preprocess(...).args`` for a conjunction, ``()`` for
    ``true``, :data:`FALSE_CONJUNCTS` for ``false`` and a 1-tuple otherwise,
    but no node for the whole query is built: an ``And`` splits into its
    arguments and ``!(A ==> B)`` (a validity query) into ``A``'s plus ``!B``,
    and each part goes through the memo by itself.  The hypotheses join a
    validity query's antecedent: the tuple is then that of
    ``!(land(*hyps, A) ==> B)``.  ``junction``'s complementary-literal check
    applies where ``preprocess`` applies it: among the simplified conjuncts
    (the antecedent's only, for a validity query) and among the canonical
    ones.

    ``hyps[0]`` is the prepared prefix (:func:`prepare`): its conjuncts are
    simplified, checked and canonicalized once per memo, and each query
    extends them with those of the later hypotheses and of *expr*.
    """
    if memo is None:
        memo = RewriteMemo()
    table = memo.canonical
    goal = None
    if isinstance(expr, Not) and isinstance(expr.operand, Implies):
        expr, goal = expr.operand.antecedent, simplify(expr.operand.consequent, memo)
    prefix = prepare(hyps[0], memo) if hyps else _NO_PREFIX
    if prefix.held is None:
        return FALSE_CONJUNCTS
    # The simplified conjuncts the rest of the antecedent adds to the prefix's.
    added = junction_args((simplify(part, memo) for node in (*hyps[1:], expr)
                           for part in build.conjuncts(node)), True, prefix.held_seen)
    if added is None:
        return FALSE_CONJUNCTS
    # The cases below are those of ``build.implies(antecedent, goal)``.
    if goal is None or goal == build.FALSE:
        parts = [_canonical(part, True, table) for part in added]
    elif not added and not prefix.held:
        parts = [_canonical(build.lnot(goal), True, table)]
    elif goal == build.TRUE or build.conjuncts(goal) == (*prefix.held, *added):
        return FALSE_CONJUNCTS
    else:
        parts = [_canonical(part, True, table) for part in added]
        parts.append(_canonical(goal, False, table))
    first = prefix.canonical(table)
    rest = None if first is None else junction_args(parts, True, prefix.seen)
    return FALSE_CONJUNCTS if rest is None else (*first, *rest)


def _canonical(expr: Expr, positive: bool, table: Dict[Tuple[Expr, bool], Expr]) -> Expr:
    """``R(expr, positive)``: the canonical NNF of *expr*, or of its negation."""
    if isinstance(expr, BoolConst):
        return expr if positive else BoolConst(not expr.value)
    if isinstance(expr, Var):
        return expr if positive else Not(expr)
    key = (expr, positive)
    result = table.get(key)
    if result is None:
        result = table[key] = _canonical_node(expr, positive, table)
    return result


def _canonical_node(expr: Expr, positive: bool,
                    table: Dict[Tuple[Expr, bool], Expr]) -> Expr:
    if isinstance(expr, Not):
        return _canonical(expr.operand, not positive, table)
    if isinstance(expr, (And, Or)):
        return junction([_canonical(arg, positive, table) for arg in expr.args],
                        isinstance(expr, And) == positive)
    if isinstance(expr, Implies):
        # a ==> b  is  !a || b
        return junction([_canonical(expr.antecedent, not positive, table),
                         _canonical(expr.consequent, positive, table)], not positive)
    if isinstance(expr, Iff):
        # a <==> b  is  (a && b) || (!a && !b)
        return _cases(expr.left, _canonical(expr.right, positive, table),
                      _canonical(expr.right, not positive, table), positive, table)
    if isinstance(expr, Ite):
        # Boolean: integer ``ite`` only occurs inside comparisons.
        return _cases(expr.cond, _canonical(expr.then, positive, table),
                      _canonical(expr.orelse, positive, table), positive, table)
    if isinstance(expr, (Forall, Exists)):
        body = _canonical(expr.body, positive, table)
        universal = isinstance(expr, Forall) == positive
        return build.forall(expr.bound, body) if universal else build.exists(expr.bound, body)
    if not isinstance(expr, _COMPARISONS):
        raise TypeError(f"cannot preprocess node {type(expr).__name__}")
    if sort_of(expr.left) is BOOL or _find_int_ite(expr) is not None:
        return _canonical(lift_int_ite(rewrite_bool_equalities(expr)), positive, table)
    return _normalized(expr if positive else build.lnot(expr))


def _cases(cond: Expr, then: Expr, orelse: Expr, positive: bool,
           table: Dict[Tuple[Expr, bool], Expr]) -> Expr:
    """``R((cond && t) || (!cond && e), positive)``, given *then* and
    *orelse*, the rewrites of ``t`` and ``e`` at *positive*."""
    return junction([junction([_canonical(cond, positive, table), then], positive),
                     junction([_canonical(cond, not positive, table), orelse], positive)],
                    not positive)


def rewrite_bool_equalities(expr: Expr) -> Expr:
    """Rewrite ``Eq``/``Ne`` whose operands are boolean into ``Iff`` structure."""
    return _rewrite_bool_equalities(expr, {})


def _rewrite_bool_equalities(expr: Expr, table: Dict[Expr, Expr]) -> Expr:
    if isinstance(expr, (Var, IntConst, BoolConst)):
        return expr
    result = table.get(expr)
    if result is None:
        children = tuple(_rewrite_bool_equalities(child, table) for child in expr.children())
        if isinstance(expr, (Eq, Ne)) and sort_of(children[0]) is BOOL:
            equiv = build.iff(children[0], children[1])
            result = equiv if isinstance(expr, Eq) else build.lnot(equiv)
        else:
            result = rebuild(expr, children)
        table[expr] = result
    return result


def lift_int_ite(expr: Expr) -> Expr:
    """Lift integer-sorted ``ite`` terms occurring inside atoms to case splits."""
    return _lift_int_ite(expr, {})


def _lift_int_ite(expr: Expr, table: Dict[Expr, Expr]) -> Expr:
    if isinstance(expr, (Var, IntConst, BoolConst)):
        return expr
    result = table.get(expr)
    if result is None:
        result = table[expr] = _lift_node(expr, table)
    return result


def _lift_node(expr: Expr, table: Dict[Expr, Expr]) -> Expr:
    if isinstance(expr, _COMPARISONS):
        found = _find_int_ite(expr)
        if found is None:
            return expr
        cond = _lift_int_ite(found.cond, table)
        then_atom = _replace_node(expr, found, found.then)
        else_atom = _replace_node(expr, found, found.orelse)
        return _lift_int_ite(
            build.lor(
                build.land(cond, then_atom),
                build.land(build.lnot(cond), else_atom),
            ),
            table,
        )
    return rebuild(expr, tuple(_lift_int_ite(child, table) for child in expr.children()))


def _find_int_ite(expr: Expr) -> Optional[Ite]:
    if isinstance(expr, Ite) and sort_of(expr.then) is INT:
        return expr
    for child in expr.children():
        found = _find_int_ite(child)
        if found is not None:
            return found
    return None


def _replace_node(expr: Expr, target: Expr, replacement: Expr) -> Expr:
    if expr == target:
        return replacement
    if isinstance(expr, (Var, IntConst, BoolConst)):
        return expr
    return rebuild(expr, tuple(_replace_node(child, target, replacement)
                               for child in expr.children()))


def _le_zero(lin: LinExpr) -> Expr:
    if lin.is_constant():
        return build.TRUE if lin.constant <= 0 else build.FALSE
    return Le(lin.to_expr(), IntConst(0))


def _normalized(expr: Expr) -> Expr:
    """An integer comparison as ``t <= 0`` atoms (or a boolean constant)."""
    left = linearize(expr.left)
    right = linearize(expr.right)
    diff = left.sub(right)
    if isinstance(expr, Le):
        return _le_zero(diff)
    if isinstance(expr, Lt):
        return _le_zero(diff.shift(1))
    if isinstance(expr, Ge):
        return _le_zero(diff.scale(-1))
    if isinstance(expr, Gt):
        return _le_zero(diff.scale(-1).shift(1))
    if isinstance(expr, Eq):
        return build.land(_le_zero(diff), _le_zero(diff.scale(-1)))
    return build.lor(_le_zero(diff.shift(1)), _le_zero(diff.scale(-1).shift(1)))


def atom_constraint(atom: Expr) -> Optional[Constraint]:
    """Return the :class:`Constraint` for a canonical arithmetic atom, else None."""
    if isinstance(atom, Le) and isinstance(atom.right, IntConst) and atom.right.value == 0:
        return Constraint(linearize(atom.left))
    return None
