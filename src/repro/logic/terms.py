"""Expression AST for quantified linear integer arithmetic with booleans.

Every node is an immutable (frozen) dataclass, so expressions are hashable
and can be used as dictionary keys, cached, and structurally compared.  The
AST deliberately mirrors the fragment used by the Expresso paper: monitor
guards and verification conditions are boolean combinations of linear
integer (in)equalities and boolean variables, occasionally under a
quantifier prefix introduced by abduction.

Two sorts exist, :data:`INT` and :data:`BOOL`.  Sort checking is performed by
the smart constructors in :mod:`repro.logic.build` and by
:func:`sort_of`; constructing ill-sorted nodes directly is considered a
programming error and is caught lazily by :func:`sort_of`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Tuple


class Sort(enum.Enum):
    """The two sorts of the logic: mathematical integers and booleans."""

    INT = "Int"
    BOOL = "Bool"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


INT = Sort.INT
BOOL = Sort.BOOL


class SortError(TypeError):
    """Raised when an expression is ill-sorted."""


@dataclass(frozen=True)
class Expr:
    """Base class for all expression nodes."""


    @property
    def sort(self) -> Sort:
        return sort_of(self)

    def children(self) -> Tuple["Expr", ...]:
        """Return the immediate sub-expressions of this node."""
        return ()

    def __getstate__(self):
        # The memoized hash (see _install_hash_caching) depends on the
        # per-process string hash seed; shipping it to another process —
        # e.g. pickling a benchmark spec to a compile worker — would break
        # dict lookups there.  Recompute on first use instead.
        state = self.__dict__.copy()
        state.pop("_cached_hash", None)
        return state


# ---------------------------------------------------------------------------
# Leaves
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Var(Expr):
    """A variable with an explicit sort.

    Variable identity is the *(name, sort)* pair; the analyses never reuse a
    name at two different sorts, but keeping the sort in the node makes the
    AST self-describing.
    """

    name: str
    var_sort: Sort = INT


    def __str__(self) -> str:  # pragma: no cover - debugging helper
        return self.name


@dataclass(frozen=True)
class IntConst(Expr):
    """An integer literal."""

    value: int


    def __str__(self) -> str:  # pragma: no cover
        return str(self.value)


@dataclass(frozen=True)
class BoolConst(Expr):
    """A boolean literal (``true`` / ``false``)."""

    value: bool


    def __str__(self) -> str:  # pragma: no cover
        return "true" if self.value else "false"


# ---------------------------------------------------------------------------
# Integer-valued nodes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Add(Expr):
    """N-ary integer addition."""

    args: Tuple[Expr, ...]


    def children(self) -> Tuple[Expr, ...]:
        return self.args


@dataclass(frozen=True)
class Sub(Expr):
    """Integer subtraction ``left - right``."""

    left: Expr
    right: Expr


    def children(self) -> Tuple[Expr, ...]:
        return (self.left, self.right)


@dataclass(frozen=True)
class Neg(Expr):
    """Integer negation ``-operand``."""

    operand: Expr


    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,)


@dataclass(frozen=True)
class Mul(Expr):
    """Integer multiplication.

    The analyses only ever produce *linear* terms (one side a constant); the
    linearizer in :mod:`repro.smt.linear` rejects non-linear products.
    """

    left: Expr
    right: Expr


    def children(self) -> Tuple[Expr, ...]:
        return (self.left, self.right)


@dataclass(frozen=True)
class Ite(Expr):
    """If-then-else, polymorphic in the branch sort."""

    cond: Expr
    then: Expr
    orelse: Expr


    def children(self) -> Tuple[Expr, ...]:
        return (self.cond, self.then, self.orelse)


# ---------------------------------------------------------------------------
# Atomic predicates over integers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Comparison(Expr):
    left: Expr
    right: Expr


    def children(self) -> Tuple[Expr, ...]:
        return (self.left, self.right)


@dataclass(frozen=True)
class Eq(_Comparison):
    """Equality. Both sides must share a sort (INT = INT or BOOL = BOOL)."""



@dataclass(frozen=True)
class Ne(_Comparison):
    """Disequality."""



@dataclass(frozen=True)
class Lt(_Comparison):
    """Strict less-than over integers."""


@dataclass(frozen=True)
class Le(_Comparison):
    """Less-than-or-equal over integers."""


@dataclass(frozen=True)
class Gt(_Comparison):
    """Strict greater-than over integers."""


@dataclass(frozen=True)
class Ge(_Comparison):
    """Greater-than-or-equal over integers."""


# ---------------------------------------------------------------------------
# Boolean connectives
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Not(Expr):
    operand: Expr


    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,)


@dataclass(frozen=True)
class And(Expr):
    args: Tuple[Expr, ...]


    def children(self) -> Tuple[Expr, ...]:
        return self.args


@dataclass(frozen=True)
class Or(Expr):
    args: Tuple[Expr, ...]


    def children(self) -> Tuple[Expr, ...]:
        return self.args


@dataclass(frozen=True)
class Implies(Expr):
    antecedent: Expr
    consequent: Expr


    def children(self) -> Tuple[Expr, ...]:
        return (self.antecedent, self.consequent)


@dataclass(frozen=True)
class Iff(Expr):
    left: Expr
    right: Expr


    def children(self) -> Tuple[Expr, ...]:
        return (self.left, self.right)


# ---------------------------------------------------------------------------
# Quantifiers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Forall(Expr):
    bound: Tuple[Var, ...]
    body: Expr


    def children(self) -> Tuple[Expr, ...]:
        return (self.body,)


@dataclass(frozen=True)
class Exists(Expr):
    bound: Tuple[Var, ...]
    body: Expr


    def children(self) -> Tuple[Expr, ...]:
        return (self.body,)


# ---------------------------------------------------------------------------
# Sort computation
# ---------------------------------------------------------------------------

_INT_NODES = (Add, Sub, Neg, Mul, IntConst)
_BOOL_NODES = (Not, And, Or, Implies, Iff, Forall, Exists, BoolConst,
               Eq, Ne, Lt, Le, Gt, Ge)


def sort_of(expr: Expr) -> Sort:
    """Compute the sort of *expr*, raising :class:`SortError` when ill-sorted."""
    if isinstance(expr, Var):
        return expr.var_sort
    if isinstance(expr, Ite):
        then_sort = sort_of(expr.then)
        else_sort = sort_of(expr.orelse)
        if then_sort is not else_sort:
            raise SortError(f"ite branches disagree: {then_sort} vs {else_sort}")
        if sort_of(expr.cond) is not BOOL:
            raise SortError("ite condition must be boolean")
        return then_sort
    if isinstance(expr, _INT_NODES):
        return INT
    if isinstance(expr, _BOOL_NODES):
        return BOOL
    raise SortError(f"unknown expression node {type(expr).__name__}")


def is_atom(expr: Expr) -> bool:
    """Return True when *expr* is a theory atom or boolean leaf.

    Atoms are the leaves of the boolean skeleton: comparisons, boolean
    variables, and boolean constants.  ``Not`` is *not* an atom.
    """
    if isinstance(expr, (Eq, Ne, Lt, Le, Gt, Ge, BoolConst)):
        return True
    if isinstance(expr, Var) and expr.var_sort is BOOL:
        return True
    return False


def rebuild(expr: Expr, children: Tuple[Expr, ...]) -> Expr:
    """Reconstruct the inner node *expr* with *children* in place of its
    ``children()``; a quantifier keeps its binders."""
    if isinstance(expr, (Add, And, Or)):
        return type(expr)(tuple(children))
    if isinstance(expr, (Sub, Mul, _Comparison, Implies, Iff)):
        return type(expr)(children[0], children[1])
    if isinstance(expr, (Neg, Not)):
        return type(expr)(children[0])
    if isinstance(expr, Ite):
        return Ite(children[0], children[1], children[2])
    if isinstance(expr, (Forall, Exists)):
        return type(expr)(expr.bound, children[0])
    raise TypeError(f"cannot rebuild node {type(expr).__name__}")


def walk(expr: Expr):
    """Yield *expr* and every sub-expression in pre-order."""
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children()))


def expr_size(expr: Expr) -> int:
    """Number of AST nodes in *expr* (used by minimality heuristics)."""
    return sum(1 for _ in walk(expr))


def _install_hash_caching() -> None:
    """Memoize ``__hash__`` on every (immutable) node class.

    Expressions are used as dictionary keys throughout the solver stack —
    atom tables, result caches, substitution maps — and the dataclass-
    generated hash walks the whole subtree on every probe, which profiling
    shows dominating large compiles.  Nodes are frozen, so the hash is
    computed once and pinned on the instance.
    """
    node_classes = (Var, IntConst, BoolConst, Add, Sub, Neg, Mul, Ite,
                    Eq, Ne, Lt, Le, Gt, Ge, Not, And, Or, Implies, Iff,
                    Forall, Exists)
    for cls in node_classes:
        structural_hash = cls.__hash__

        def cached_hash(self, _base=structural_hash):
            value = self.__dict__.get("_cached_hash")
            if value is None:
                value = _base(self)
                object.__setattr__(self, "_cached_hash", value)
            return value

        cls.__hash__ = cached_hash


_install_hash_caching()
