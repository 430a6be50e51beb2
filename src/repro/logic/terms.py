"""Expression AST for quantified linear integer arithmetic with booleans.

The AST deliberately mirrors the fragment used by the Expresso paper:
monitor guards and verification conditions are boolean combinations of
linear integer (in)equalities and boolean variables, occasionally under a
quantifier prefix introduced by abduction.

Nodes are immutable and *interned*: every construction, unpickling
included, binds its arguments to the field tuple and looks up ``(class,
*fields)`` in one table, so a structure exists once per process and ``==``
is ``is``.  Its identity is its hash as well: nodes and sorts keep
``object.__hash__``, so no set or dict probe, the table's included, calls
back into Python.  A new node computes its free variables and quantifier
flag once, from its children's.  The table keeps nodes alive; past
``_SWEEP_LIMIT`` nodes, an insertion drops those that nothing else
references.  ``build.lnot`` keeps each node's negation in ``_NEGATIONS``,
which the sweep empties before it looks at reference counts.

Order rule: a set of nodes, or of values that hold nodes (tuples,
statements, notifications), iterates in heap-address order, which differs
between two runs.  Such a set is only probed, counted or compared.  What
is iterated toward a result is a tuple or list in first-occurrence order
(``ordered_free_vars``, ``nnf.ordered_atoms``) or a dict, which keeps
insertion order.  Fingerprints digest ``repr``, never ``hash()``.

Two sorts exist, :data:`INT` and :data:`BOOL`.  Sort checking is performed by
the smart constructors in :mod:`repro.logic.build` and by
:func:`sort_of`; constructing ill-sorted nodes directly is considered a
programming error and is caught lazily by :func:`sort_of`.
"""

from __future__ import annotations

import enum
import inspect
import sys
import threading
from dataclasses import MISSING, FrozenInstanceError, fields
from operator import attrgetter
from typing import Any, Callable, ClassVar, Dict, Optional, Tuple, dataclass_transform

from repro.record import declare_fields


class Sort(enum.Enum):
    """The two sorts of the logic: mathematical integers and booleans."""

    INT = "Int"
    BOOL = "Bool"

    __hash__ = object.__hash__  # members are singletons

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


INT = Sort.INT
BOOL = Sort.BOOL


class SortError(TypeError):
    """Raised when an expression is ill-sorted."""


#: Every live node, keyed by ``(class, *fields)``.
_TABLE: Dict[tuple, "Expr"] = {}
#: Serializes insertions with the sweep; a lookup that hits takes no lock.
_LOCK = threading.Lock()
#: Table size past which an insertion sweeps out unreferenced nodes.
_SWEEP_LIMIT = 100_000
_sweep_at = _SWEEP_LIMIT
#: ``build.lnot``'s result per node, computed once.  The sweep empties it
#: first: its entries are references the refcount test would count.
_NEGATIONS: Dict["Expr", "Expr"] = {}


def _intern(cls: Any, key: tuple, args: tuple) -> "Expr":
    """Build the node for a missed *key* and insert it (or a racing thread's)."""
    if cls._coerce is not None:
        args = (cls._coerce(args[0]),)
    node = object.__new__(cls)
    for name, value in zip(cls._fields, args):
        object.__setattr__(node, name, value)
    object.__setattr__(node, "_free", _free_vars(node))
    object.__setattr__(node, "_quantified", isinstance(node, (Forall, Exists)) or any(
        child._quantified for child in node.children()))
    with _LOCK:
        node = _TABLE.setdefault(key, node)
        if len(_TABLE) > _sweep_at:
            _sweep()
    return node


def _free_vars(node: "Expr") -> Optional[Tuple["Var", ...]]:
    """The free variables of a new *node* in order of first occurrence,
    sharing a child's tuple when it covers the others.  A :class:`Var` keeps
    None: its own tuple would reference it."""
    if isinstance(node, Var):
        return None
    free: Tuple[Var, ...] = ()
    for child in node.children():
        part = (child,) if isinstance(child, Var) else child._free
        if part is free or not part:
            continue
        if not free:
            free = part
        else:
            free += tuple(var for var in part if var not in free)
    if isinstance(node, (Forall, Exists)) and any(var in node.bound for var in free):
        free = tuple(var for var in free if var not in node.bound)
    return free


def _sweep() -> None:
    """Drop every node that only the table references; ``_LOCK`` is held.

    It goes newest first.  Children are inserted before their parents, so
    a dropped parent frees its children for the same sweep.
    """
    global _sweep_at
    _NEGATIONS.clear()
    keys = list(_TABLE)
    while keys:
        key = keys.pop()
        node = _TABLE[key]
        if sys.getrefcount(node) <= 3:  # the table, ``node``, the argument
            del _TABLE[key]
            if sys.getrefcount(node) > 2:
                # A lookup took it in between: keep it.  Insertions wait
                # for the lock, so nothing can have replaced it.
                _TABLE[key] = node
    _sweep_at = max(_SWEEP_LIMIT, 2 * len(_TABLE))


@dataclass_transform(eq_default=False, frozen_default=True)
def node_class(cls):
    """Make *cls* a frozen, slotted dataclass node whose children are its
    ``Expr`` fields in order, or its one ``Tuple[Expr, ...]`` field.  It
    gets no method of its own: ``Expr`` constructs, prints and guards every
    node."""
    cls = declare_fields(cls, init=False, eq=False, frozen=True, slots=True)
    specs = fields(cls)
    cls._signature = inspect.Signature([
        inspect.Parameter(spec.name, inspect.Parameter.POSITIONAL_OR_KEYWORD,
                          default=inspect.Parameter.empty if spec.default is MISSING
                          else spec.default)
        for spec in specs])
    cls._fields = tuple(cls._signature.parameters)
    cls._arity = len(specs)
    listed = [spec.name for spec in specs if spec.type == "Tuple[Expr, ...]"]
    single = [spec.name for spec in specs if spec.type == "Expr"]
    if listed:
        cls._children = staticmethod(attrgetter(*listed))
    elif len(single) == 1:
        cls._children = staticmethod(lambda node, get=attrgetter(*single): (get(node),))
    elif single:
        cls._children = staticmethod(attrgetter(*single))
    return cls


class Expr:
    """Base class for all expression nodes."""

    __slots__ = ("_free", "_quantified")
    #: The free variables in order of first occurrence (None for a Var).
    _free: Optional[Tuple["Var", ...]]
    _quantified: bool
    #: Normalizes a one-field node's value before it is interned.
    _coerce: ClassVar[Optional[Callable[[Any], Any]]] = None
    _children = staticmethod(lambda node: ())

    @property
    def sort(self) -> Sort:
        return sort_of(self)

    def __new__(cls, *args, **kwargs):
        # The one construction path.  (A metaclass ``__call__`` would do the
        # same, but ``isinstance`` against a class with a custom metaclass
        # is more than twice as slow.)
        if kwargs or len(args) != cls._arity:
            bound = cls._signature.bind(*args, **kwargs)
            bound.apply_defaults()
            args = tuple(bound.arguments.values())
        key = (cls, *args)
        node = _TABLE.get(key)
        if node is None:
            node = _intern(cls, key, args)
        return node

    def children(self) -> Tuple["Expr", ...]:
        """Return the immediate sub-expressions of this node."""
        return self._children(self)

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        # The dataclass format; a node cannot contain itself.
        shown = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name: str, value: Any) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")


# ---------------------------------------------------------------------------
# Leaves
# ---------------------------------------------------------------------------


@node_class
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


@node_class
class IntConst(Expr):
    """An integer literal."""

    value: int
    _coerce = int

    def __str__(self) -> str:  # pragma: no cover
        return str(self.value)


@node_class
class BoolConst(Expr):
    """A boolean literal (``true`` / ``false``)."""

    value: bool
    _coerce = bool

    def __str__(self) -> str:  # pragma: no cover
        return "true" if self.value else "false"


# ---------------------------------------------------------------------------
# Integer-valued nodes
# ---------------------------------------------------------------------------


@node_class
class Add(Expr):
    """N-ary integer addition."""

    args: Tuple[Expr, ...]


@node_class
class Sub(Expr):
    """Integer subtraction ``left - right``."""

    left: Expr
    right: Expr


@node_class
class Neg(Expr):
    """Integer negation ``-operand``."""

    operand: Expr


@node_class
class Mul(Expr):
    """Integer multiplication.

    The analyses only ever produce *linear* terms (one side a constant); the
    linearizer in :mod:`repro.smt.linear` rejects non-linear products.
    """

    left: Expr
    right: Expr


@node_class
class Ite(Expr):
    """If-then-else, polymorphic in the branch sort."""

    cond: Expr
    then: Expr
    orelse: Expr


# ---------------------------------------------------------------------------
# Atomic predicates over integers
# ---------------------------------------------------------------------------


@node_class
class _Comparison(Expr):
    left: Expr
    right: Expr


@node_class
class Eq(_Comparison):
    """Equality. Both sides must share a sort (INT = INT or BOOL = BOOL)."""


@node_class
class Ne(_Comparison):
    """Disequality."""


@node_class
class Lt(_Comparison):
    """Strict less-than over integers."""


@node_class
class Le(_Comparison):
    """Less-than-or-equal over integers."""


@node_class
class Gt(_Comparison):
    """Strict greater-than over integers."""


@node_class
class Ge(_Comparison):
    """Greater-than-or-equal over integers."""


# ---------------------------------------------------------------------------
# Boolean connectives
# ---------------------------------------------------------------------------


@node_class
class Not(Expr):
    operand: Expr


@node_class
class And(Expr):
    args: Tuple[Expr, ...]


@node_class
class Or(Expr):
    args: Tuple[Expr, ...]


@node_class
class Implies(Expr):
    antecedent: Expr
    consequent: Expr


@node_class
class Iff(Expr):
    left: Expr
    right: Expr


# ---------------------------------------------------------------------------
# Quantifiers
# ---------------------------------------------------------------------------


@node_class
class Forall(Expr):
    bound: Tuple[Var, ...]
    body: Expr


@node_class
class Exists(Expr):
    bound: Tuple[Var, ...]
    body: Expr


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


def contains_quantifier(expr: Expr) -> bool:
    """Whether *expr* has a ``Forall`` or ``Exists`` node (kept per node)."""
    return expr._quantified


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
