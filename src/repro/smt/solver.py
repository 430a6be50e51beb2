"""The lazy DPLL(T) solver tying together SAT search and integer arithmetic.

:class:`Solver` answers satisfiability and validity queries for
quantifier-free formulas over linear integer arithmetic and booleans:

1. split the formula into its top-level conjuncts (``!(A ==> B)``, which
   :meth:`Solver.check_valid` asks, gives ``A``'s conjuncts and ``!B``;
   the query's hypotheses, ``hyps=``, join ``A``) and preprocess each into
   NNF with canonical ``t <= 0`` atoms
   (:func:`~repro.smt.preprocess.preprocess_conjuncts`);
2. Tseitin-encode each conjunct's boolean skeleton; give each new atom its
   theory form and its *bound axioms*, the two-literal clauses that relate
   it to every earlier atom over the same linear term or its negation (a
   tighter bound implies a looser one; two opposite bounds cannot both
   hold, or cannot both fail); each axiom's certificate is the sum of the
   two rows, with multipliers (1, 1), in their integer-negation forms;
3. search the skeletons and the axioms with the CDCL core, under one
   assumption per conjunct (its root literal), and check each complete
   assignment's conjunction of integer constraints with branch-and-bound
   over the rational simplex;
4. on a theory conflict the axioms missed, hand the search a lemma built
   from the simplex's Farkas certificate (shrunk by deletion probes); it
   backjumps and goes on.

A solver is *incremental*, and designed to be shared by a whole compilation
pipeline:

* one :class:`~repro.smt.cnf.AtomTable` and one
  :class:`~repro.smt.sat.SatSolver` live as long as the solver: an atom or
  node keeps its SAT variable, its definition clauses and bound axioms are
  loaded once, and learned clauses and theory lemmas — valid whatever the
  assumptions — serve every later query.  A conjunct shared by many
  queries is encoded once and the query itself adds no clause.  A first
  hypothesis shared by many queries (``hyps[0]``) is also rewritten once,
  and its roots, atoms and cone are collected at its first solve and
  copied after that; a query answered from the cache encodes nothing.  A query's
  cone (the variables :func:`~repro.smt.cnf.encode` walks) is all it
  branches on, and only its own atoms reach the theory check, each with the
  :class:`~repro.smt.linear.Constraint` and integer negation kept for it
  since its first query;
* an optional :class:`~repro.smt.cache.FormulaCache` memoizes whole query
  results (see that module for the canonicalization story), and
  conjunction-level theory verdicts are memoized too;
* a :class:`~repro.logic.memo.RewriteMemo` memoizes preprocessing (its
  simplification and its canonicalizing rewrite) per node, and the prepared
  first hypotheses; abduction, invariant inference and
  :func:`~repro.analysis.hoare.check_triple` rewrite through it, weakest
  preconditions included (:meth:`Solver.rewrite_memo`);
* the memo and the clause database are cleared together once either
  reaches ``_REWRITE_MEMO_LIMIT`` entries (clauses or variables for the
  database), which bounds long-lived solvers (``ExpressoPipeline(solver=...)``,
  the commutativity checker's shared one); :meth:`Solver.clear_state` drops
  both on request;
* :meth:`Solver.check_valid` can hand back the counterexample it found, and
  :meth:`Solver.memoized` runs a whole query procedure (a commutativity
  verdict, an abduction) through one of the cache's procedure memos,
  storing its answer only when no query inside returned UNKNOWN.

All of this changes speed and models, never verdicts.  Unknown results are
reported explicitly so that callers can degrade conservatively: the
iteration budget, ``timeout_seconds`` (a per-query wall clock, counted under
``smt.timeouts``/``smt.unknown`` and flagged via
:meth:`Solver.consume_unknown`), the ``solver.query`` fault site, and a
simplex that breaks its own invariant
(:class:`~repro.smt.simplex.SimplexInvariantError`), which yields
``UNKNOWN("theory")`` so a defect there never passes for an UNSAT answer.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass
from typing import (
    Callable, Dict, Hashable, List, Optional, Sequence, Set, Tuple, TypeVar, Union,
)

from repro import obs
from repro.logic import build
from repro.obs.metrics import MetricsRegistry, SOLVER_METRIC_NAMES
from repro.logic.free_vars import ordered_free_vars
from repro.logic.memo import RewriteMemo
from repro.logic.terms import (
    BOOL, Expr, Implies, Not, Var, contains_quantifier,
)
from repro.smt.cache import CachedResult, FormulaCache
from repro.smt.cnf import AtomTable, encode
from repro.smt.intfeas import IntegerFeasibilityUnknown, integer_feasible
from repro.smt.linear import Constraint
from repro.resilience.faults import fault_check
from repro.smt.preprocess import (
    FALSE_CONJUNCTS, Prepared, atom_constraint, prepare, preprocess_conjuncts,
)
from repro.smt.sat import SatSolver
from repro.smt.simplex import (
    SimplexInvariantError, rational_feasible, rational_infeasible_subset,
)

Value = Union[int, bool]
Model = Dict[str, Value]
T = TypeVar("T")

#: Cap on memoized theory-conjunction verdicts per solver.
_THEORY_CACHE_LIMIT = 50_000
#: Cap on a solver's memo entries, clauses and variables (all cleared past it).
_REWRITE_MEMO_LIMIT = 100_000
#: Theory checks one query may spend before it answers UNKNOWN("iterations").
_MAX_THEORY_ITERATIONS = 2000
#: Sentinel distinguishing "theory said infeasible" from "not memoized".
_INFEASIBLE = object()


class SatStatus(enum.Enum):
    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class SatResult:
    """Outcome of a satisfiability query."""

    status: SatStatus
    model: Optional[Model] = None

    @property
    def is_sat(self) -> bool:
        return self.status is SatStatus.SAT

    @property
    def is_unsat(self) -> bool:
        return self.status is SatStatus.UNSAT


class SolverError(RuntimeError):
    """Raised on malformed queries (e.g. quantified input to check_sat)."""


class _OutOfBudget(Exception):
    """Ends a search whose theory iterations or wall clock ran out."""


class Solver:
    """Decision procedure for QF-LIA + booleans.

    Instances carry configuration (result cache, wall-clock budget), the
    counters the evaluation harness reports (``metrics``, under the names of
    :data:`~repro.obs.metrics.SOLVER_METRIC_NAMES`), and reusable solver
    state (rewrite memo, atom table, clause database).  That state changes
    speed and models only: a fresh solver reaches the same verdict on every
    query.
    """

    def __init__(self, cache: Optional[FormulaCache] = None,
                 timeout_seconds: Optional[float] = None):
        self.timeout_seconds = timeout_seconds
        self.cache = cache
        #: Reason the most recent query returned UNKNOWN (``"timeout"``,
        #: ``"iterations"``, ``"theory"``, ``"injected"``) — ``None`` after
        #: a decided query.  Callers that only see a boolean surface
        #: (:meth:`check_valid`) read it via :meth:`consume_unknown` to
        #: drive their degradation paths.
        self.last_unknown: Optional[str] = None
        #: This solver's counters; :meth:`snapshot_statistics` reads them.
        self.metrics = MetricsRegistry()
        self._theory_verdicts: Dict[frozenset, object] = {}
        self._rewrites = RewriteMemo()
        self.clear_state()

    def clear_state(self) -> None:
        """Drop the rewrite memo and the SAT database (atoms, definitions,
        bound axioms, learned clauses, lemmas); the cache and the theory
        verdicts stay.

        For a solver that moves on to unrelated formulas.  Answers do not
        change, only the speed of queries that share structure.
        """
        self._rewrites.clear()
        self._atom_table = AtomTable()
        #: Theory form of each atom variable of ``_atom_table``:
        #: ``(constraint, negated constraint)``, or None for a boolean atom.
        self._atom_forms: Dict[int, Optional[Tuple[Constraint, Constraint]]] = {}
        #: Every theory form of those atoms as ``(literal, constant)``, keyed
        #: by its coefficient vector: the other sides of the bound axioms.
        self._bounds: Dict[Tuple[Tuple[str, int], ...], List[Tuple[int, int]]] = {}
        self._sat = SatSolver()

    # -- public API ---------------------------------------------------------

    def check_sat(self, formula: Expr, *, hyps: Sequence[Expr] = ()) -> SatResult:
        """Decide satisfiability of the quantifier-free ``hyps && formula``.

        A model covers the free variables of the hypotheses, then those of
        *formula*.  ``hyps[0]`` is prepared once per solver: queries that
        share it (abduction's ``pre``, say) rewrite and encode its
        conjuncts once (:func:`~repro.smt.preprocess.preprocess_conjuncts`).

        When an SMT profiler is active (``expresso profile``, or any
        ``repro.obs.observe(profile=True)`` session) the query's wall time,
        cache outcome, and status are reported to it, attributed to the
        tracer's current phase and the calling site.
        """
        profiler = obs.active_profiler()
        if profiler is None:
            return self._check_sat(formula, tuple(hyps))
        hits_before = self.metrics.value("smt.cache.hits")
        start = time.perf_counter()
        result = self._check_sat(formula, tuple(hyps))
        elapsed = time.perf_counter() - start
        profiler.record(
            (*hyps, formula) if hyps else formula, elapsed,
            cached=self.metrics.value("smt.cache.hits") > hits_before,
            status=result.status.value,
            phase=obs.tracer().phase_path(),
        )
        return result

    def rewrite_memo(self) -> RewriteMemo:
        """This solver's preprocessing memo, for rewrites done on its behalf.

        Memo and SAT database are cleared first once either holds
        ``_REWRITE_MEMO_LIMIT`` entries (clauses or variables, for the
        database).
        """
        if max(len(self._rewrites), self._sat.num_clauses,
               self._atom_table.num_vars) >= _REWRITE_MEMO_LIMIT:
            self.clear_state()
        return self._rewrites

    def _check_sat(self, formula: Expr, hyps: Tuple[Expr, ...]) -> SatResult:
        self.metrics.inc("smt.sat.queries")
        self.last_unknown = None
        memo = self.rewrite_memo()
        if contains_quantifier(formula) or any(map(contains_quantifier, hyps)):
            raise SolverError("check_sat expects a quantifier-free formula; "
                              "use repro.smt.qe to eliminate quantifiers first")
        if fault_check("solver.query") == "unknown":
            # Injected budget expiry: behaves exactly like a wall-clock
            # timeout (uncached, counted, flagged), but deterministically.
            return self._unknown("injected")
        raw = (*hyps, formula) if hyps else formula
        if self.cache is not None:
            entry = self.cache.lookup_raw(raw)
            if entry is not None:
                self.metrics.inc("smt.cache.hits")
                return _result(hyps, formula, entry)
        conjuncts = preprocess_conjuncts(formula, memo, hyps)
        if self.cache is not None:
            entry = self.cache.lookup_canonical(raw, conjuncts)
            if entry is not None:
                self.metrics.inc("smt.cache.hits")
                return _result(hyps, formula, entry)
            self.metrics.inc("smt.cache.misses")
        entry = self._solve_processed(conjuncts, prepare(hyps[0], memo) if hyps else None)
        if entry is None:
            return SatResult(SatStatus.UNKNOWN)
        if self.cache is not None:
            self.cache.store(raw, conjuncts, entry)
        return _result(hyps, formula, entry)

    def _unknown(self, reason: str) -> SatResult:
        """Account one UNKNOWN outcome (never cached: budgets are not
        semantic verdicts, and a later, larger-budget query must re-try)."""
        self.last_unknown = reason
        self.metrics.inc("smt.unknown")
        if reason in ("timeout", "injected"):
            self.metrics.inc("smt.timeouts")
        obs.tracer().instant("smt.unknown", cat="smt", reason=reason)
        return SatResult(SatStatus.UNKNOWN)

    def consume_unknown(self) -> Optional[str]:
        """Return-and-clear the last query's UNKNOWN reason.

        The degradation idiom for boolean surfaces::

            proved = solver.check_valid(vc)
            if not proved and solver.consume_unknown():
                ...  # degraded, not refuted: take the conservative branch
        """
        reason, self.last_unknown = self.last_unknown, None
        return reason

    def memoized(self, table: str, key: Hashable,
                 compute: Callable[[], T]) -> Tuple[T, bool]:
        """``(value, hit)`` of a whole query procedure, memoized per cache.

        *table* names one of the cache's procedure memos (``"commute"``,
        ``"abduce"``); hits and misses count under ``smt.<table>.cache_hits`` /
        ``smt.<table>.cache_misses``.  A computation during which any query of
        this solver returned UNKNOWN is not stored, so a budget- or
        fault-degraded answer is never replayed once the cause is gone.
        Without a cache every call computes.
        """
        cache = self.cache
        if cache is None:
            return compute(), False
        value = cache.lookup_procedure(table, key)
        if value is not None:
            self.metrics.inc(f"smt.{table}.cache_hits")
            return value, True
        self.metrics.inc(f"smt.{table}.cache_misses")
        unknowns = self.metrics.value("smt.unknown")
        value = compute()
        if self.metrics.value("smt.unknown") == unknowns:
            cache.store_procedure(table, key, value)
        return value, False

    def check_valid(self, goal: Expr,
                    counterexample: Optional[List[Model]] = None, *,
                    hyps: Sequence[Expr] = ()) -> bool:
        """Return True iff *goal* follows from the hypotheses, i.e.
        ``hyps && !goal`` is unsatisfiable (without hypotheses: *goal* is
        valid).

        UNKNOWN results are treated as "not proven" — the conservative answer
        for every use in the signal-placement pipeline.  When *counterexample*
        is a list and ``hyps && !goal`` is SAT, its model (over the free
        variables of the hypotheses, then of *goal*) is appended to it.

        With hypotheses the query is ``check_sat(!(true ==> goal), hyps=hyps)``,
        whose preprocessing puts the hypotheses in the antecedent: it
        rewrites like ``!(land(*hyps) ==> goal)`` would.
        """
        self.metrics.inc("smt.validity.queries")
        result = self.check_sat(Not(Implies(build.TRUE, goal)), hyps=hyps) if hyps \
            else self.check_sat(build.lnot(goal))
        if counterexample is not None and result.is_sat:
            counterexample.append(result.model)
        return result.status is SatStatus.UNSAT

    def check_implies(self, antecedent: Expr, consequent: Expr) -> bool:
        """Validity of ``antecedent ==> consequent``."""
        return self.check_valid(consequent, hyps=(antecedent,))

    def check_equivalent(self, left: Expr, right: Expr) -> bool:
        """Validity of ``left <==> right``."""
        return self.check_valid(build.iff(left, right))

    def get_model(self, formula: Expr) -> Optional[Model]:
        """Return a model of *formula* or None when unsatisfiable/unknown."""
        result = self.check_sat(formula)
        return result.model if result.is_sat else None

    def snapshot_statistics(
            self, since: Optional[Dict[str, int]] = None) -> Dict[str, int]:
        """The counters under their flat keys, in
        :data:`~repro.obs.metrics.SOLVER_METRIC_NAMES` order, minus an
        earlier snapshot *since* (a shared solver's per-run share)."""
        base = since or {}
        return {key: self.metrics.value(name) - base.get(key, 0)
                for key, name in SOLVER_METRIC_NAMES.items()}

    # -- internals ----------------------------------------------------------

    def _solve_processed(self, conjuncts: Tuple[Expr, ...],
                         prefix: Optional[Prepared] = None) -> Optional[CachedResult]:
        """Run the DPLL(T) search on a query's canonical conjuncts; the
        result in cacheable form, or None after accounting an UNKNOWN.

        *prefix* is the first hypothesis's state, whose canonical conjuncts
        start *conjuncts*: their roots, atoms and cone are computed at its
        first solve and copied at every later one.
        """
        if conjuncts == FALSE_CONJUNCTS:
            return CachedResult(False)
        if not conjuncts:
            return CachedResult(True, {}, {})

        # Only this query's atoms feed the theory check: the SAT values of
        # other queries' atoms are arbitrary.
        query_atoms: Dict[Expr, int] = {}
        cone: Set[int] = set()
        sat = self._sat
        roots: List[int] = []
        if prefix is not None:
            if prefix.encoded is None:
                self._encode(prefix.conjuncts, roots, query_atoms, cone)
                prefix.encoded = (tuple(roots), dict(query_atoms), frozenset(cone))
            else:
                prefix_roots, prefix_atoms, prefix_cone = prefix.encoded
                roots.extend(prefix_roots)
                query_atoms.update(prefix_atoms)
                cone.update(prefix_cone)
        self._encode(conjuncts[len(roots):], roots, query_atoms, cone)
        # Decisions go to the cone variables with the most input occurrences,
        # and an And node's definition gives each of its conjuncts one.  A
        # query's conjunction is no node, so its roots get that occurrence
        # here, once per database and not again for a conjunction already
        # encoded as a node: decisions follow the order an And-node root
        # over the same conjuncts would give them.
        if len(roots) > 1 and self._atom_table.first_conjunction(conjuncts):
            sat.add_occurrences(roots)
        theory_atoms: List[Tuple[int, Constraint, Constraint]] = []
        bool_atoms: List[Tuple[str, int]] = []
        atom_forms = self._atom_forms
        for atom, var_id in query_atoms.items():
            if var_id in atom_forms:
                forms = atom_forms[var_id]
            else:
                constraint = atom_constraint(atom)
                forms = atom_forms[var_id] = None if constraint is None \
                    else (constraint, constraint.negate())
                if constraint is not None:
                    axioms = self._bound_axioms(var_id, constraint)
                    sat.add_axioms(axioms)
                    self.metrics.inc("smt.sat.clauses", len(axioms))
            if forms is not None:
                theory_atoms.append((var_id, *forms))
            elif isinstance(atom, Var) and atom.var_sort is BOOL:
                bool_atoms.append((atom.name, var_id))

        deadline = (time.monotonic() + self.timeout_seconds
                    if self.timeout_seconds is not None else None)
        found: List[Tuple[Dict[str, int], Dict[str, bool]]] = []
        checks = 0

        def spend() -> None:
            if checks >= _MAX_THEORY_ITERATIONS:
                raise _OutOfBudget("iterations")
            if deadline is not None and time.monotonic() > deadline:
                raise _OutOfBudget("timeout")

        def theory_check(assignment: Dict[int, bool]) -> Optional[Tuple[int, ...]]:
            """Accept a T-consistent assignment, or return a lemma against it."""
            nonlocal checks
            checks += 1
            constraints = [(var_id, positive) if assignment[var_id]
                           else (-var_id, negative)
                           for var_id, positive, negative in theory_atoms]
            bool_values = {name: assignment[var_id] for name, var_id in bool_atoms}
            self.metrics.inc("smt.theory.checks")
            theory_model = self._theory_feasible([c for _, c in constraints])
            if theory_model is not None:
                found.append((theory_model, bool_values))
                return None
            lemma = tuple(-literal for literal, _ in self._minimize_core(constraints))
            self.metrics.inc("smt.theory.lemmas")
            spend()
            self.metrics.inc("smt.sat.clauses")
            return lemma

        conflicts = sat.conflicts
        try:
            spend()
            assignment = sat.solve(roots, cone, theory_check)
        except _OutOfBudget as exhausted:
            self._unknown(exhausted.args[0])
            return None
        except (IntegerFeasibilityUnknown, SimplexInvariantError):
            self._unknown("theory")
            return None
        finally:
            self.metrics.inc("smt.sat.conflicts", sat.conflicts - conflicts)
        if assignment is None:
            return CachedResult(False)
        theory_model, bool_values = found[-1]
        return CachedResult(True, dict(theory_model), bool_values)

    def _encode(self, conjuncts: Sequence[Expr], roots: List[int],
                atoms: Dict[Expr, int], cone: Set[int]) -> None:
        """Encode *conjuncts* in order, loading their new clauses, and collect
        their roots, atoms and cone."""
        for conjunct in conjuncts:
            root, clauses = encode(conjunct, self._atom_table, atoms, cone)
            self._sat.add_clauses(clauses)
            self.metrics.inc("smt.sat.clauses", len(clauses))
            roots.append(root)

    def _bound_axioms(self, var_id: int, constraint: Constraint) -> List[Tuple[int, int]]:
        """Register a new atom's theory forms; return its bound axioms.

        The atom's literal has the form ``e + c <= 0`` and its negation the
        integer negation ``-e + 1 - c <= 0``.  A literal's form ``e + c <= 0``
        and an earlier one's ``-e + d <= 0`` sum, with multipliers (1, 1), to
        ``c + d <= 0``: when ``c + d > 0`` the two cannot both hold.
        """
        expr = constraint.expr
        term = expr.coeffs
        opposite = tuple((name, -coef) for name, coef in term)
        forms = ((var_id, term, opposite, expr.constant),
                 (-var_id, opposite, term, 1 - expr.constant))
        axioms = [(-literal, -other)
                  for literal, _key, other_key, constant in forms
                  for other, other_constant in self._bounds.get(other_key, ())
                  if constant + other_constant > 0]
        for literal, key, _other_key, constant in forms:
            self._bounds.setdefault(key, []).append((literal, constant))
        return axioms

    def _theory_feasible(
        self, constraints: List[Constraint]
    ) -> Optional[Dict[str, int]]:
        """Memoized integer feasibility of a constraint conjunction."""
        key = frozenset(constraints)
        verdict = self._theory_verdicts.get(key)
        if verdict is _INFEASIBLE:
            return None
        if verdict is not None:
            return verdict  # a cached model
        model = integer_feasible(constraints)
        if len(self._theory_verdicts) >= _THEORY_CACHE_LIMIT:
            self._theory_verdicts.clear()
        self._theory_verdicts[key] = _INFEASIBLE if model is None else model
        return model

    def _minimize_core(
        self, constraints: List[Tuple[int, Constraint]]
    ) -> List[Tuple[int, Constraint]]:
        """Extract a small infeasible subset to use as a blocking clause.

        The Farkas certificate of the Phase-1 simplex pins down the (usually
        2–4) constraints that witness rational infeasibility; greedy deletion
        then shrinks that support to an irreducible core.  Probing only the
        certificate support instead of the full constraint set is the
        difference between O(|core|) and O(n) simplex runs per conflict.  If
        the conflict is integer-only (rationally feasible), the full set is
        used as the core.  Small cores are essential: they block whole
        families of propositional assignments at once (e.g. ``x == 0`` with
        ``x == 1``).
        """
        subset = rational_infeasible_subset([c for _, c in constraints])
        if subset is None:
            return constraints
        core = [constraints[index] for index in subset]
        if rational_feasible([c for _, c in core]) is not None:
            # Certificate support failed verification (defensive; unseen in
            # practice) — fall back to deletion over the full set.
            core = list(constraints)
        index = 0
        while index < len(core) and len(core) > 1:
            candidate = core[:index] + core[index + 1:]
            if rational_feasible([c for _, c in candidate]) is None:
                core = candidate
            else:
                index += 1
        return core


def _result(hyps: Tuple[Expr, ...], formula: Expr, entry: CachedResult) -> SatResult:
    """The answer an entry gives ``hyps && formula``; a model covers their
    free variables, in order."""
    if not entry.status_sat:
        return SatResult(SatStatus.UNSAT)
    variables = ordered_free_vars(formula) if not hyps else dict.fromkeys(
        var for node in (*hyps, formula) for var in ordered_free_vars(node))
    model: Model = {}
    for var in variables:
        if var.var_sort is BOOL:
            model[var.name] = (entry.bool_values or {}).get(var.name, False)
        else:
            model[var.name] = int((entry.theory_model or {}).get(var.name, 0))
    return SatResult(SatStatus.SAT, model)
