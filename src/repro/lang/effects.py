"""What monitor code reads and writes: the one effect walker.

Every "which names does this code touch" question in the tool chain asks
this module: the §4.3 commutativity checks and their static independence
pre-filter, the lint signal-obligation map, the DPOR method footprints,
``wp``'s loop havoc and the thread-local name sets.  :func:`stmt_exprs`
yields the expressions a statement evaluates (loop invariants included);
:func:`stmt_effects` summarizes a statement as may-read / may-write name
sets over the same walk.

The sets are flow-insensitive over-approximations: a name is read when any
evaluated expression mentions it and written when any assignment, local
declaration or array store targets it.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Iterator, Mapping, Optional, Set, Tuple

from repro.logic.free_vars import ordered_free_vars
from repro.logic.terms import Expr
from repro.lang.arrays import cell_name
from repro.lang.ast import ArrayAssign, Assign, If, LocalDecl, Seq, Skip, Stmt, While
from repro.record import record


@record(frozen=True)
class EffectSummary:
    """May-read / may-write name sets of one piece of code.

    ``summarizable`` is False when the code contains constructs forward
    symbolic execution cannot summarize (loops, unscalarized array stores);
    the commutativity pre-filter refuses to decide such pairs statically so
    its verdicts stay exactly those of the symbolic path.
    """

    reads: FrozenSet[str]
    writes: FrozenSet[str]
    summarizable: bool = True

    def __init__(self, reads: FrozenSet[str], writes: FrozenSet[str],
                 summarizable: bool = True) -> None:
        # Spelled out: a fuzz pass builds ~9,300 (see ``repro.record``).
        object.__setattr__(self, "reads", reads)
        object.__setattr__(self, "writes", writes)
        object.__setattr__(self, "summarizable", summarizable)

    @property
    def names(self) -> FrozenSet[str]:
        """Everything the code mentions (reads and writes)."""
        return self.reads | self.writes

    def field_writes(self, fields: FrozenSet[str]) -> FrozenSet[str]:
        return self.writes & fields

    def disjoint_from(self, other: "EffectSummary") -> bool:
        """Neither side writes anything the other mentions."""
        return not (self.writes & other.names) and not (other.writes & self.names)

    def union(self, other: "EffectSummary") -> "EffectSummary":
        return EffectSummary(self.reads | other.reads,
                             self.writes | other.writes,
                             self.summarizable and other.summarizable)


EMPTY_EFFECTS = EffectSummary(frozenset(), frozenset())


def expr_reads(expr: Expr) -> FrozenSet[str]:
    """The variable names an expression may read."""
    return frozenset(var.name for var in ordered_free_vars(expr))


def _node_effects(stmt: Stmt, sizes: Mapping[str, int]
                  ) -> Tuple[Tuple[Expr, ...], Tuple[str, ...], bool]:
    """What *stmt* itself does, children excluded: the expressions it
    evaluates, the names it writes, and whether forward symbolic execution
    can summarize it.  Every statement kind is decided here and only here."""
    if isinstance(stmt, Assign):
        return (stmt.value,), (stmt.target,), True
    if isinstance(stmt, LocalDecl):
        return (stmt.init,), (stmt.name,), True
    if isinstance(stmt, ArrayAssign):
        cells = tuple(cell_name(stmt.array, index)
                      for index in range(sizes.get(stmt.array, 0)))
        # Symbolic execution rejects unscalarized stores.
        return (stmt.index, stmt.value), (stmt.array,) + cells, False
    if isinstance(stmt, If):
        return (stmt.cond,), (), True
    if isinstance(stmt, While):
        exprs = (stmt.cond,) if stmt.invariant is None else (stmt.cond, stmt.invariant)
        return exprs, (), False  # loops defeat forward symbolic execution
    # Skip and Seq do nothing themselves; an unknown statement type claims
    # nothing and decides nothing statically.
    return (), (), isinstance(stmt, (Skip, Seq))


def _nodes(stmt: Stmt) -> Iterator[Stmt]:
    """*stmt* and every statement nested in it, in pre-order."""
    yield stmt
    for child in stmt.children():
        yield from _nodes(child)


def stmt_exprs(stmt: Stmt) -> Iterator[Expr]:
    """Every expression evaluated anywhere inside *stmt*, in source order.

    A loop's invariant annotation counts: it is evaluated on entry and after
    each iteration.
    """
    for node in _nodes(stmt):
        yield from _node_effects(node, {})[0]


def stmt_effects(stmt: Stmt,
                 array_sizes: Optional[Mapping[str, int]] = None) -> EffectSummary:
    """The may-read/may-write summary of a statement.

    *array_sizes* maps pre-scalarization array field names to their declared
    sizes so an ``ArrayAssign`` can be attributed to every cell scalar it may
    target; without it the write is attributed to the bare array name only.
    """
    sizes = array_sizes or {}
    reads: Set[str] = set()
    writes: Set[str] = set()
    summarizable = True
    for node in _nodes(stmt):
        exprs, written, node_summarizable = _node_effects(node, sizes)
        for expr in exprs:
            reads.update(expr_reads(expr))
        writes.update(written)
        summarizable = summarizable and node_summarizable
    return EffectSummary(frozenset(reads), frozenset(writes), summarizable)


def guarded_effects(guard: Expr, body: Stmt,
                    predicates: Iterable[Expr] = ()) -> EffectSummary:
    """A CCR segment's effects: its body, plus reads of its guard and of the
    notification *predicates* evaluated after the body."""
    reads = expr_reads(guard).union(*(expr_reads(p) for p in predicates))
    return stmt_effects(body).union(EffectSummary(reads, frozenset()))
