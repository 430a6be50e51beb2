"""DNF clause extraction and atom collection.

These feed both the SMT solver (which searches over the boolean skeleton of
a formula's atoms) and the abduction engine (which mines candidate
predicates from clauses of the weakest precondition).  Negation normal form
comes from :func:`repro.smt.preprocess.preprocess`, whose output is NNF.

The DNF conversion has a cube budget.  It counts the cubes of the NNF in one
pass over its nodes before it builds any, so a formula over the budget
raises without a cube list ever being allocated.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.logic.terms import And, BoolConst, Exists, Expr, Forall, Not, Or, is_atom


def to_dnf_clauses(expr: Expr, max_clauses: int = 4096,
                   literal: Optional[Callable[[Expr], Any]] = None) -> List[Tuple[Any, ...]]:
    """Return the DNF of *expr* as a list of literal tuples (cubes).

    *expr* must be quantifier free and in negation normal form, as
    :func:`repro.smt.preprocess.preprocess` returns it: ``And``, ``Or``,
    atoms, and ``Not``, which is taken for a negated atom.  A quantifier
    raises :class:`ValueError`; an ``Implies``, ``Iff`` or ``ite`` raises
    :class:`TypeError`.  A :class:`ValueError` is also raised when the
    expansion would exceed *max_clauses* cubes, protecting the abduction
    engine from exponential blow-up on pathological inputs.  The budget is
    checked before any cube is built: :func:`_dnf_size` counts the cubes and
    raises exactly where the expansion would.

    A cube holds ``literal(leaf)`` for each literal leaf (an atom or a
    ``Not``), the leaf itself by default.  *literal* is applied once per
    distinct leaf node, so a caller can map the leaves into its own
    representation (quantifier elimination maps them to integer ids)
    without a second pass over the cubes.
    """
    _dnf_size(expr, max_clauses, {})
    return _dnf(expr, max_clauses, literal, {})


def _dnf_size(expr: Expr, max_clauses: int, sizes: Dict[Expr, int]) -> int:
    """``len(_dnf(expr, max_clauses))``, without building a cube.

    The expansion never drops a duplicate cube, so an ``Or`` has the sum of
    its arguments' sizes and an ``And`` their product.  Both are checked
    after every argument, in the expansion's order, so this raises the
    same exception at the same point as :func:`_dnf` — including an ``And``
    whose running product passes the budget before a later ``false``
    factor.  Sizes are memoized per node in *sizes*.
    """
    if isinstance(expr, BoolConst):
        return 1 if expr.value else 0
    if is_atom(expr) or isinstance(expr, Not):
        return 1
    size = sizes.get(expr)
    if size is not None:
        return size
    if isinstance(expr, Or):
        size = 0
        for arg in expr.args:
            size += _dnf_size(arg, max_clauses, sizes)
            if size > max_clauses:
                raise ValueError("DNF expansion exceeded clause budget")
    elif isinstance(expr, And):
        size = 1
        for arg in expr.args:
            size *= _dnf_size(arg, max_clauses, sizes)
            if size > max_clauses:
                raise ValueError("DNF expansion exceeded clause budget")
    elif isinstance(expr, (Forall, Exists)):
        raise ValueError("DNF conversion requires a quantifier-free formula")
    else:
        raise TypeError(f"unexpected node in NNF formula: {type(expr).__name__}")
    sizes[expr] = size
    return size


def _dnf(expr: Expr, max_clauses: int, literal: Optional[Callable[[Expr], Any]] = None,
         memo: Optional[Dict[Expr, List[Tuple[Any, ...]]]] = None) -> List[Tuple[Any, ...]]:
    """The cubes of *expr*, each a tuple of ``literal(leaf)`` (of the leaf
    itself when *literal* is None).

    An ``Or`` lists its arguments' cubes in turn; an ``And`` joins every
    cube of its arguments so far with every cube of the next.  *memo* maps
    a node to its cubes for the length of one expansion, so a node the
    formula shares is expanded, and a leaf mapped by *literal*, once.  A
    returned list may be shared and must not be mutated.
    """
    if memo is None:
        memo = {}
    known = memo.get(expr)
    if known is not None:
        return known
    cubes: List[Tuple[Any, ...]]
    if isinstance(expr, BoolConst):
        cubes = [()] if expr.value else []
    elif is_atom(expr) or isinstance(expr, Not):
        cubes = [(expr if literal is None else literal(expr),)]
    elif isinstance(expr, Or):
        cubes = []
        for arg in expr.args:
            cubes.extend(_dnf(arg, max_clauses, literal, memo))
            if len(cubes) > max_clauses:
                raise ValueError("DNF expansion exceeded clause budget")
    elif isinstance(expr, And):
        cubes = [()]
        for arg in expr.args:
            arg_cubes = _dnf(arg, max_clauses, literal, memo)
            cubes = [left + right for left in cubes for right in arg_cubes]
            if len(cubes) > max_clauses:
                raise ValueError("DNF expansion exceeded clause budget")
    elif isinstance(expr, (Forall, Exists)):
        raise ValueError("DNF conversion requires a quantifier-free formula")
    else:
        raise TypeError(f"unexpected node in NNF formula: {type(expr).__name__}")
    memo[expr] = cubes
    return cubes


def atoms_of(expr: Expr) -> FrozenSet[Expr]:
    """Collect the theory atoms / boolean variables occurring in *expr*."""
    return frozenset(ordered_atoms(expr))


def ordered_atoms(expr: Expr) -> List[Expr]:
    """The atoms of :func:`atoms_of`, in order of first occurrence.

    Unlike iterating the frozenset, this order does not depend on the
    process's string hash seed.
    """
    atoms: Dict[Expr, None] = {}
    _atoms(expr, atoms)
    return list(atoms)


def _atoms(expr: Expr, out: Dict[Expr, None]) -> None:
    if isinstance(expr, BoolConst):
        return
    if is_atom(expr):
        out[expr] = None
        return
    for child in expr.children():
        _atoms(child, out)
