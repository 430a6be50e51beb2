"""Per-node memo tables for the pure formula rewrites.

Simplification and SMT preprocessing's canonicalizing rewrite are pure,
bottom-up functions of their input node.  A :class:`RewriteMemo` maps each
node a rewrite has visited to its result, one table per rewrite, so a
subformula shared by many formulas is rewritten once.  Keys are interned
nodes (see :mod:`repro.logic.terms`): a structure is one object, so a key
compares by identity, and a memo hit returns exactly what the rewrite would
have computed.

Two more tables hold whole results built from those rewrites:

* ``wp``: :func:`repro.analysis.wp.weakest_precondition` per statement and
  postcondition.  Statements are frozen dataclasses whose hash walks the
  whole body, so the key is ``(id(stmt), post)`` and the entry holds the
  statement, which keeps its id from being reused while the entry lives;
* ``hypotheses``: a query hypothesis's preprocessing, keyed by the
  hypothesis node (:func:`repro.smt.preprocess.prepare`).

Whoever owns a memo decides how long it lives: a
:class:`~repro.smt.solver.Solver` keeps one for its lifetime (capped), and a
rewrite called without a memo uses a fresh table for that call.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Tuple

from repro.logic.terms import Expr

if TYPE_CHECKING:  # for type checkers only (see repro.logic.build)
    from repro.lang.ast import Stmt


class RewriteMemo:
    """One result table per memoized rewrite."""

    __slots__ = ("simplify", "canonical", "wp", "hypotheses")

    def __init__(self) -> None:
        self.simplify: Dict[Expr, Expr] = {}
        #: :func:`repro.smt.preprocess.preprocess`'s rewrite, keyed by
        #: ``(node, positive)``: the node's canonical NNF, or its negation's.
        self.canonical: Dict[Tuple[Expr, bool], Expr] = {}
        #: ``(id(stmt), post) -> (stmt, wp(stmt, post))``.
        self.wp: Dict[Tuple[int, Expr], Tuple["Stmt", Expr]] = {}
        #: A hypothesis node -> its :class:`repro.smt.preprocess.Prepared`.
        self.hypotheses: Dict[Expr, Any] = {}

    def __len__(self) -> int:
        """Entries over all tables."""
        return sum(len(getattr(self, name)) for name in self.__slots__)

    def clear(self) -> None:
        for name in self.__slots__:
            getattr(self, name).clear()
