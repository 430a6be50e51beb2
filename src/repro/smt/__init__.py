"""A from-scratch SMT decision procedure for QF-LIA + booleans.

The paper's Expresso tool discharges verification conditions with Z3; this
environment has no Z3, so the reproduction ships its own solver for exactly
the fragment the pipeline needs:

* boolean structure (arbitrary ``&&``/``||``/``!``/``==>``/``<==>``);
* linear integer arithmetic atoms (``=``, ``!=``, ``<``, ``<=``, ``>``, ``>=``
  over linear terms);
* integer-sorted ``ite`` terms (lifted to boolean case splits);
* quantifier elimination for the abduction engine (Fourier–Motzkin).

Architecture (classic lazy DPLL(T)):

1. :mod:`repro.smt.preprocess` normalizes every arithmetic atom into a
   non-strict ``t <= 0`` constraint (exact over the integers) and removes
   boolean equalities and integer ``ite`` terms;
2. :mod:`repro.smt.cnf` performs a Tseitin encoding of the boolean skeleton;
3. :mod:`repro.smt.sat` is an incremental CDCL solver queried under assumptions;
4. :mod:`repro.smt.simplex` + :mod:`repro.smt.intfeas` decide conjunctions of
   linear integer constraints with an exact-rational simplex and
   branch-and-bound;
5. :mod:`repro.smt.solver` ties these together and exposes
   :class:`~repro.smt.solver.Solver` with ``check_sat`` / ``check_valid``.
"""

from repro.smt.solver import Solver, SatResult, SatStatus, check_valid, check_sat, get_model
from repro.smt.qe import (
    QuantifierEliminationError,
    QuantifierEliminator,
    eliminate_exists,
    eliminate_forall,
)

__all__ = [
    "Solver",
    "SatResult",
    "SatStatus",
    "check_valid",
    "check_sat",
    "get_model",
    "eliminate_exists",
    "eliminate_forall",
    "QuantifierEliminationError",
    "QuantifierEliminator",
]
