"""Abductive inference of candidate strengthenings (paper §5, Equation 3).

Given a precondition ``P`` and a goal ``phi`` (the weakest precondition of a
statement with respect to a desired postcondition), abduction finds formulas
``psi`` such that

1. ``P && psi |= phi``   (the strengthened triple becomes valid), and
2. ``P && psi`` is satisfiable (the speculation is consistent).

The paper delegates this to the Explain tool of Dillig & Dillig; this
reproduction implements the same contract with a quantifier-elimination based
abducer:

* for every small subset ``V`` of the free variables (preferring fewer
  variables, i.e. "simpler explanations"), the candidate
  ``psi_V = forall (Vars \\ V). (P ==> phi)`` is computed by Fourier–Motzkin /
  Shannon elimination.  One :class:`repro.smt.qe.QuantifierEliminator` serves
  all subsets of an obligation: the negated obligation is preprocessed and
  converted to DNF once (as is any formula a boolean step produces), and a
  subset whose eliminated variables start with another's reuses that
  subset's Shannon and Fourier–Motzkin steps (see *Elimination order*
  below for the prefix they share).  The
  eliminator lives for one :func:`abduce` call, and its results are
  identical to eliminating each subset on its own (``tests/test_qe_reference.py``);
* candidates are simplified and validated against conditions (1) and (2);
  the eliminator and every simplification rewrite through the solver's
  preprocessing memo (:meth:`repro.smt.solver.Solver.rewrite_memo`), which
  the validity queries on ``pre`` share;
* validation is *model-guided*: every SAT answer one call receives (the
  obligation's counterexample first) is a model of ``P``, and each distinct
  candidate is evaluated under those models (:mod:`repro.logic.evaluate`)
  before any query.  A model satisfying ``psi`` proves (2), one that also
  falsifies ``phi`` refutes (1); UNSAT verdicts always come from the solver,
  and a model that cannot decide a formula just leads to the query;
* each surviving candidate is additionally *generalized* into atomic
  half-space predicates (e.g. a disequality ``x != -1`` contributes ``x >= 0``
  and ``x <= -2``), because monitor invariants are usually inequalities; the
  generalizations are validated the same way.

Abduction is told the *vocabulary* of its caller: the variable names a
candidate may mention (Algorithm 2 passes the monitor's fields, since by
§3.1 the invariant ranges over shared state only).  It returns only
candidates inside the vocabulary and skips every query whose answer cannot
reach them:

1. an obligation with no vocabulary variable returns no candidates before
   its first query — every candidate it could yield mentions only
   variables of the obligation;
2. a split candidate that mentions a variable outside the vocabulary is not
   validated when :func:`_generalize_atoms` mines no in-vocabulary
   generalization from it (the same function, not a syntactic test: a
   linearized difference can cancel variables), because its verdict could
   only add an out-of-vocabulary candidate;
3. an out-of-vocabulary candidate that does have in-vocabulary
   generalizations is still validated and, when useful, stays a
   generalization source — an in-vocabulary half-space may be first mined
   from it;
4. out-of-vocabulary generalizations are not validated;
5. a kept set ``V`` with no vocabulary variable is not eliminated at all.
   This is exact: ``psi_V`` mentions only ``V``'s variables, and so does
   each of its conjuncts; each half-space :func:`_generalize_atoms` mines
   from them is a linear combination of ``V``'s variables, or a constant
   that it drops.  So every candidate such a ``V`` could give is outside
   the vocabulary with no in-vocabulary generalization, rule 2 would
   return before any query for it, and it never counts toward
   ``max_candidates``.  The ``max_subsets`` slice is taken before this
   skip, so the kept sets tried are the unrestricted ones minus the
   skipped ones.

**Elimination order.**  A kept set's eliminated list is the
out-of-vocabulary variables first, then the vocabulary ones, each group
sorted by name.  A kept set keeps at most ``max_kept_vars`` variables (or
all of them), so the lists of one obligation share the whole
out-of-vocabulary prefix — the parameters, locals and ``$theta`` copies —
and the eliminator's step memo runs those steps once for all of them.  The
order is part of abduction's definition: Fourier–Motzkin's output syntax
depends on it (for non-unit coefficients, a different order can give a
different formula for the same set).  That the candidates equal those of
the sorted-by-name order of ``reference_abduce`` is pinned on every suite
and generated test obligation (``tests/test_invariants_reference.py``),
not proven.

Every verdict is a function of the candidate alone, so a skipped query's
lost SAT witness changes query counts, never answers: the result is the
unrestricted candidate list filtered to the vocabulary, order preserved.
The one exception is the ``max_candidates`` cap, which counts the
validated candidates (the returned ones plus the rule-3 sources) and not
the skipped ones, so where the unrestricted cap would bind, more
in-vocabulary candidates can survive.  No obligation of the suite or of
the generated monitors in the tests reaches the cap.

Results are memoized per ``(pre, goal, vocabulary, limits)``, with the
vocabulary cut down to the obligation's variables (the only ones a
candidate can mention), in the solver's
:class:`~repro.smt.cache.FormulaCache` (its ``"abduce"`` procedure memo),
unless a query of the computation returned UNKNOWN, so a campaign-wide
cache answers an obligation a mutant shares with its parent in O(1), even
when their fields differ.  The candidates are identical to validating each
one with two fresh queries (``tests/test_invariants_reference.py``).

The caller (Algorithm 2) re-checks every candidate for initiation and
consecution, so the abducer only has to be useful, never complete.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Collection, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.logic import build
from repro.logic.evaluate import truth_value
from repro.logic.free_vars import ordered_free_vars
from repro.logic.memo import RewriteMemo
from repro.logic.nnf import atoms_of, ordered_atoms
from repro.logic.simplify import simplify
from repro.logic.terms import BoolConst, Eq, Expr, Ge, Gt, Le, Lt, Ne, Var
from repro.smt.linear import linearize
from repro.smt.qe import QuantifierEliminator
from repro.smt.solver import Model, Solver


@dataclass(frozen=True)
class AbductionResult:
    """The candidates produced for one abduction query."""

    pre: Expr
    goal: Expr
    candidates: Tuple[Expr, ...]

    def __iter__(self):
        return iter(self.candidates)


def abduce(pre: Expr, goal: Expr, solver: Optional[Solver] = None, *,
           vocabulary: Collection[str], max_kept_vars: int = 2,
           max_candidates: int = 24, max_subsets: int = 16,
           max_obligation_atoms: int = 20) -> AbductionResult:
    """Produce candidate strengthenings ``psi`` with ``pre && psi |= goal``
    that mention only variables named in *vocabulary*.

    The part of *vocabulary* the obligation mentions is part of the memo
    key; the obligation's own variables restrict nothing.

    ``max_kept_vars`` bounds the size of the variable subsets over which
    explanations are sought (the Explain tool's minimality bias).  The
    subsets are tried smallest first with the full variable set last, and
    only the first ``max_subsets`` of them are tried: with the defaults
    the full set is tried for obligations of at most five variables, and
    dropped for larger ones.  Of those, the ones that keep no vocabulary
    variable are skipped (skip rule 5).  ``max_subsets`` and
    ``max_obligation_atoms`` bound the work spent on quantifier elimination
    for large obligations (e.g. scalarized array guards): past those limits
    abduction falls back to atom mining alone, which keeps the pipeline fast
    while Algorithm 2 still filters the resulting candidates for soundness.
    """
    solver = solver or Solver()
    # A candidate mentions only the obligation's variables, so the rest of
    # the vocabulary cannot change the result: leaving it out of the memo
    # key lets monitors with different fields share an obligation's entry.
    own = {var.name for var in ordered_free_vars(build.implies(pre, goal))}
    vocabulary = frozenset(own.intersection(vocabulary))
    limits = (max_kept_vars, max_candidates, max_subsets, max_obligation_atoms)
    result, _hit = solver.memoized(
        "abduce", (pre, goal, vocabulary, limits),
        lambda: _abduce(pre, goal, solver, vocabulary, *limits))
    return result


def _abduce(pre: Expr, goal: Expr, solver: Solver, vocabulary: FrozenSet[str],
            max_kept_vars: int, max_candidates: int, max_subsets: int,
            max_obligation_atoms: int) -> AbductionResult:
    memo = solver.rewrite_memo()
    obligation = build.implies(pre, goal)
    variables = sorted(ordered_free_vars(obligation), key=lambda var: var.name)
    # Validated candidates, in-vocabulary or kept as generalization sources.
    candidates: List[Expr] = []
    tested: Set[Expr] = set()
    found: List[Model] = []

    def in_vocabulary(psi: Expr) -> bool:
        return all(var.name in vocabulary for var in ordered_free_vars(psi))

    if not vocabulary:
        return AbductionResult(pre, goal, ())  # skip rule 1
    if solver.check_valid(obligation, found):
        # Nothing to strengthen; report no candidates (TRUE adds no information).
        return AbductionResult(pre, goal, ())
    witnesses: List[Model] = []
    _admit(witnesses, pre, found)

    def consider(psi: Expr, source: bool) -> None:
        # Each distinct psi is decided once: the verdict is a function of psi.
        if psi in tested:
            return
        tested.add(psi)
        if not in_vocabulary(psi):
            # Skip rules 2 and 4: only a generalization source can still
            # lead to an in-vocabulary candidate.
            generalized = _generalize_atoms([psi], memo) if source else []
            if not any(map(in_vocabulary, generalized)):
                return
        if _is_useful(psi, pre, goal, solver, witnesses):
            candidates.append(psi)

    if len(atoms_of(obligation)) > max_obligation_atoms:
        subsets: List[Tuple[Var, ...]] = []
    else:
        subsets = _variable_subsets(variables, max_kept_vars)[:max_subsets]
    # Order rule: out-of-vocabulary variables first, so every kept set of
    # the obligation resumes after one shared elimination of them.
    order = sorted(variables, key=lambda var: var.name in vocabulary)
    eliminator = QuantifierEliminator(obligation, memo=memo)
    for kept in subsets:
        if not any(var.name in vocabulary for var in kept):
            continue  # skip rule 5
        eliminated = [var for var in order if var not in kept]
        if not eliminated:
            candidate = simplify(obligation, memo)
        else:
            try:
                candidate = eliminator.forall(eliminated)
            except ValueError:
                continue
        for psi in _split_candidate(candidate, memo):
            consider(psi, source=True)
        if len(candidates) >= max_candidates:
            break

    if len(atoms_of(obligation)) <= max_obligation_atoms:
        for generalized in _generalize_atoms(candidates + [goal], memo):
            if len(candidates) >= max_candidates:
                break
            consider(generalized, source=False)

    return AbductionResult(pre, goal, tuple(filter(in_vocabulary, candidates)))


# ---------------------------------------------------------------------------
# Candidate generation helpers
# ---------------------------------------------------------------------------


def _variable_subsets(variables: Sequence[Var], max_kept_vars: int):
    """Subsets of the free variables, smallest first, full set last."""
    subsets: List[Tuple[Var, ...]] = []
    for size in range(1, min(max_kept_vars, len(variables)) + 1):
        subsets.extend(itertools.combinations(variables, size))
    full = tuple(variables)
    if full and full not in subsets:
        subsets.append(full)
    return subsets


def _split_candidate(candidate: Expr, memo: RewriteMemo) -> List[Expr]:
    """Split a conjunction into conjuncts; drop trivial pieces."""
    candidate = simplify(candidate, memo)
    if isinstance(candidate, BoolConst):
        return []
    parts = list(build.conjuncts(candidate))
    if candidate not in parts:
        parts.append(candidate)
    return [part for part in parts if not isinstance(part, BoolConst)]


def _is_useful(psi: Expr, pre: Expr, goal: Expr, solver: Solver,
               witnesses: List[Model]) -> bool:
    """Conditions (1) and (2) of Equation 3, plus non-triviality.

    *witnesses* are models of ``pre`` (see :func:`_admit`).  One that
    satisfies ``psi`` proves (2) without a query, and one that also falsifies
    ``goal`` refutes (1); the SAT answers obtained here join them.  Only the
    verdicts no model can give — UNSAT, i.e. (2) failing or (1) holding —
    always come from the solver.
    """
    if isinstance(psi, BoolConst):
        return False
    settled = _settle(psi, goal, witnesses)
    if settled is False:
        return False
    strengthened = build.land(pre, psi)
    if settled is None:
        result = solver.check_sat(strengthened)
        if not result.is_sat:
            return False
        if _settle(psi, goal, _admit(witnesses, pre, [result.model])) is False:
            return False
    found: List[Model] = []
    valid = solver.check_valid(build.implies(strengthened, goal), found)
    _admit(witnesses, pre, found)
    return valid


def _settle(psi: Expr, goal: Expr, models: Sequence[Model]) -> Optional[bool]:
    """What *models* (each satisfying ``pre``) decide about *psi*.

    False when one satisfies ``psi`` but not ``goal`` (``pre && psi`` is
    consistent, yet does not entail ``goal``); True when one satisfies
    ``psi`` and none refutes; None when none satisfies ``psi``.
    """
    consistent = None
    for model in models:
        if truth_value(psi, model):
            if truth_value(goal, model) is False:
                return False
            consistent = True
    return consistent


def _admit(witnesses: List[Model], pre: Expr, found: Sequence[Model]) -> List[Model]:
    """Append to *witnesses* the models in *found* that evaluate *pre* to
    true, and return them.

    Every SAT answer abduction receives is meant to be a model of ``pre``:
    the obligation's counterexample (``pre && !goal``), a consistency witness
    (``pre && psi``) or a usefulness counterexample (``pre && psi && !goal``).
    Evaluation checks that before a model decides anything.
    """
    admitted = [model for model in found if truth_value(pre, model)]
    witnesses.extend(admitted)
    return admitted


def _generalize_atoms(sources: Sequence[Expr], memo: RewriteMemo) -> List[Expr]:
    """Mine inequality generalizations from the atoms of candidate formulas.

    A disequality ``t != c`` over the integers splits the line into the two
    half-spaces ``t >= c + 1`` and ``t <= c - 1``; equalities contribute the
    two adjacent non-strict inequalities.  Monitor invariants are almost
    always half-spaces (``readers >= 0``, ``count <= capacity``), so these
    generalizations give Algorithm 2 exactly the candidates it needs even
    when quantifier elimination produces a punctured-line disequality.
    """
    generalizations: List[Expr] = []
    seen: Set[Expr] = set()

    def emit(expr: Expr) -> None:
        expr = simplify(expr, memo)
        if not isinstance(expr, BoolConst) and expr not in seen:
            seen.add(expr)
            generalizations.append(expr)

    for source in sources:
        # First-occurrence order: the candidate order, and so the inferred
        # invariant's conjunct order, must not follow node addresses.
        for atom in ordered_atoms(source):
            if not isinstance(atom, (Eq, Ne, Le, Lt, Ge, Gt)):
                continue
            try:
                left = linearize(atom.left)
                right = linearize(atom.right)
            except ValueError:
                continue
            diff = left.sub(right)  # atom relates diff to 0
            diff_expr = diff.to_expr()
            zero = build.i(0)
            if isinstance(atom, (Ne, Eq)):
                emit(build.ge(diff_expr, zero))
                emit(build.le(diff_expr, zero))
                emit(build.ge(diff_expr, build.i(1)))
                emit(build.le(diff_expr, build.i(-1)))
            else:
                emit(build.ge(diff_expr, zero))
                emit(build.le(diff_expr, zero))
    return generalizations
