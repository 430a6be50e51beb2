"""Memoization of satisfiability results across the pipeline's queries.

Every stage of the Expresso pipeline — invariant inference, Algorithm 1
placement, the §4.3 commutativity checks — funnels through
``Solver.check_sat`` / ``check_valid``, and the verification conditions they
generate are heavily repetitive: the same Hoare-triple obligations are
re-proved while abduction probes candidate invariants, and ``check_valid``
re-derives the same negated formulas.  A compile of a single benchmark
already issues ~35% duplicate queries; batch suite compiles repeat whole
families across configurations.

:class:`FormulaCache` removes that redundancy.  It is keyed at two levels:

* the **raw formula**, or for a query with hypotheses the tuple
  ``(*hyps, formula)`` (expression nodes are interned, one object per
  structure, so a probe hashes and compares by identity, in C) — a hit at
  this level also skips the preprocessing pass entirely;
* the **canonical form**: the tuple of the query's preprocessed
  conjuncts, NNF skeletons with normalized ``t <= 0`` atoms, in the
  caller's order (:func:`~repro.smt.preprocess.preprocess_conjuncts`) — so
  syntactically different queries that canonicalize identically share one
  solver run.  The key is a tuple, never a set: nodes hash by identity, so
  a set of them iterates in heap-address order.  On a canonical hit the raw
  formula is back-filled so the next occurrence hits the fast path.

Cached entries store the *ingredients* of a result (status, theory model,
boolean assignment) rather than a finished :class:`SatResult`, because models
must be rebuilt against each caller's free variables: two formulas with the
same canonical form can mention different (simplified-away) variables.

``UNKNOWN`` results are never cached — they depend on the querying solver's
iteration budget, not on the formula.

Above the formula level the cache keeps *procedure memos*: answers of whole
procedures that fold several queries into one result.  ``"commute"`` holds
commutativity/independence verdicts (keyed by the statement pair plus
the shared-name set) and ``"abduce"`` holds abduction
candidate lists (keyed by ``(pre, goal)`` plus the abducer's limits), so a
campaign-wide cache answers an obligation a mutant shares with its parent
without a single query.  Both go through
:meth:`repro.smt.solver.Solver.memoized`, which applies the same rule as
above: a procedure in which any query returned UNKNOWN is not stored.

The cache is shared freely: per-solver, per-pipeline, or across a whole
suite or campaign.  Every table is bounded by
``max_entries`` with FIFO eviction, which is enough for compile-shaped
workloads where the working set is the current benchmark's VC family.

The cache counts nothing itself: hits and misses are counted by the solver
that asks (``smt.cache.*``, ``smt.<table>.cache_*`` in ``Solver.metrics``),
so a cache shared by several solvers reports each one's own share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Hashable, Optional, Tuple

from repro.logic.terms import Expr

#: The procedure memos every cache keeps.
PROCEDURE_TABLES = ("commute", "abduce")


@dataclass(frozen=True)
class CachedResult:
    """The solver-independent ingredients of a satisfiability answer.

    ``status_sat`` is True for SAT, False for UNSAT.  For SAT entries,
    ``theory_model`` maps integer variable names to values and
    ``bool_values`` maps boolean variable names to truth values; callers
    rebuild a full model over their own formula's free variables.
    """

    status_sat: bool
    theory_model: Optional[Dict[str, int]] = None
    bool_values: Optional[Dict[str, bool]] = None


class FormulaCache:
    """Two-level (raw + canonical) cache of satisfiability results."""

    def __init__(self, max_entries: int = 100_000):
        self.max_entries = max_entries
        self._raw: Dict[Hashable, CachedResult] = {}
        self._canonical: Dict[Tuple[Expr, ...], CachedResult] = {}
        # Whole *procedures* — several queries folded into one answer —
        # memoize above the formula level, one table per kind (see
        # :meth:`repro.smt.solver.Solver.memoized`).
        self._procedures: Dict[str, Dict[Hashable, object]] = {
            table: {} for table in PROCEDURE_TABLES}

    # -- lookups -------------------------------------------------------------

    def lookup_raw(self, raw: Hashable) -> Optional[CachedResult]:
        """Fast-path lookup keyed on the unprocessed query: its formula, or
        ``(*hyps, formula)``."""
        return self._raw.get(raw)

    def lookup_canonical(self, raw: Hashable,
                         canonical: Tuple[Expr, ...]) -> Optional[CachedResult]:
        """Second-chance lookup keyed on the preprocessed conjunct tuple.

        On a hit the *raw* key is back-filled so the caller's next identical
        query skips preprocessing altogether.
        """
        entry = self._canonical.get(canonical)
        if entry is not None:
            self._store(self._raw, raw, entry)
        return entry

    # -- insertion -----------------------------------------------------------

    def store(self, raw: Hashable, canonical: Tuple[Expr, ...], entry: CachedResult) -> None:
        """Record a freshly computed result under both keys."""
        self._store(self._raw, raw, entry)
        self._store(self._canonical, canonical, entry)

    def _store(self, table: Dict[Hashable, Any], key: Hashable, entry: Any) -> None:
        if key in table:
            table[key] = entry
            return
        if len(table) >= self.max_entries:
            # FIFO eviction: drop the oldest insertion (dicts preserve order).
            table.pop(next(iter(table)))
        table[key] = entry

    # -- procedure memos -----------------------------------------------------

    def lookup_procedure(self, table: str, key: Hashable) -> Optional[Any]:
        """Memoized answer of one procedure in *table*, or None."""
        return self._procedures[table].get(key)

    def store_procedure(self, table: str, key: Hashable, value: Any) -> None:
        self._store(self._procedures[table], key, value)

    # -- maintenance / reporting ---------------------------------------------

    def clear(self) -> None:
        self._raw.clear()
        self._canonical.clear()
        for table in PROCEDURE_TABLES:
            self._procedures[table].clear()

    def __len__(self) -> int:
        return len(self._canonical)

    def entries(self, table: str) -> int:
        """Entries held by procedure memo *table* (``len(cache)`` counts
        canonical formula entries)."""
        return len(self._procedures[table])
