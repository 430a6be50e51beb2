"""Per-node memo tables for the pure formula rewrites.

Simplification and SMT preprocessing's canonicalizing rewrite are pure,
bottom-up functions of their input node.  A :class:`RewriteMemo` maps each
node a rewrite has visited to its result, one table per rewrite, so a
subformula shared by many formulas is rewritten once.  Keys are interned
nodes (see :mod:`repro.logic.terms`): a structure is one object, so a key
compares by identity, and a memo hit returns exactly what the rewrite would
have computed.

Whoever owns a memo decides how long it lives: a
:class:`~repro.smt.solver.Solver` keeps one for its lifetime (capped), and a
rewrite called without a memo uses a fresh table for that call.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.logic.terms import Expr


class RewriteMemo:
    """One result table per memoized rewrite."""

    __slots__ = ("simplify", "canonical")

    def __init__(self) -> None:
        self.simplify: Dict[Expr, Expr] = {}
        #: :func:`repro.smt.preprocess.preprocess`'s rewrite, keyed by
        #: ``(node, positive)``: the node's canonical NNF, or its negation's.
        self.canonical: Dict[Tuple[Expr, bool], Expr] = {}

    def __len__(self) -> int:
        """Entries over all tables."""
        return sum(len(getattr(self, name)) for name in self.__slots__)

    def clear(self) -> None:
        for name in self.__slots__:
            getattr(self, name).clear()
