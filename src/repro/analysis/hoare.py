"""Hoare triples and their discharge via weakest preconditions.

Expresso reduces every placement decision to the validity of Hoare triples
of the form ``{P} s {Q}`` over monitor statements (paper §4).  A triple is
valid iff ``P ==> wp(s, Q)`` is valid, which the SMT substrate decides.
:func:`check_triple` asks it as ``wp(s, Q)`` under the hypothesis ``P``
(``Solver.check_valid(wp, hyps=(P,))``), so the triples that share a
precondition rewrite it once, and takes ``wp(s, Q)`` from the solver's
rewrite memo, where it is kept per statement and postcondition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.logic.pretty import pretty
from repro.logic.terms import Expr
from repro.lang.ast import Stmt
from repro.lang.pretty import pretty_stmt
from repro.analysis.wp import weakest_precondition

if TYPE_CHECKING:
    from repro.smt.solver import Solver


@dataclass(frozen=True)
class HoareTriple:
    """``{pre} stmt {post}`` with an optional human-readable purpose tag."""

    pre: Expr
    stmt: Stmt
    post: Expr
    purpose: str = ""

    def describe(self) -> str:
        """Single-line rendering used in reports and error messages."""
        body = pretty_stmt(self.stmt).replace("\n", " ")
        tag = f" [{self.purpose}]" if self.purpose else ""
        return f"{{{pretty(self.pre)}}} {body} {{{pretty(self.post)}}}{tag}"


def check_triple(triple: HoareTriple, solver: Optional[Solver] = None) -> bool:
    """Return True iff *triple* is valid (conservatively False on solver UNKNOWN)."""
    if solver is None:
        from repro.smt.solver import Solver

        solver = Solver()
    goal = weakest_precondition(triple.stmt, triple.post, solver.rewrite_memo())
    return solver.check_valid(goal, hyps=(triple.pre,))
