"""Per-node memo tables for the pure formula rewrites.

Simplification, NNF conversion and the SMT preprocessing passes are pure,
bottom-up functions of their input node.  A :class:`RewriteMemo` maps each
node a pass has rewritten to the pass's result, one table per pass, so a
subformula shared by many formulas is rewritten once.  Keys are nodes
compared by structural equality, so a memo hit returns exactly what the
pass would have computed.

Whoever owns a memo decides how long it lives: a
:class:`~repro.smt.solver.Solver` keeps one for its lifetime (capped), and a
pass called without a memo uses a fresh table for that call.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.logic.terms import Expr


class RewriteMemo:
    """One result table per memoized pass."""

    __slots__ = ("simplify", "bool_equalities", "int_ite", "bool_ite", "nnf",
                 "atoms", "quantified")

    def __init__(self) -> None:
        self.simplify: Dict[Expr, Expr] = {}
        self.bool_equalities: Dict[Expr, Expr] = {}
        self.int_ite: Dict[Expr, Expr] = {}
        self.bool_ite: Dict[Expr, Expr] = {}
        #: Keyed by ``(node, positive)``: NNF of the node or of its negation.
        self.nnf: Dict[Tuple[Expr, bool], Expr] = {}
        self.atoms: Dict[Expr, Expr] = {}
        #: Whether the node contains a quantifier.
        self.quantified: Dict[Expr, bool] = {}

    def __len__(self) -> int:
        """Entries over all tables."""
        return sum(len(getattr(self, name)) for name in self.__slots__)

    def clear(self) -> None:
        for name in self.__slots__:
            getattr(self, name).clear()
