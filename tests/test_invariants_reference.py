"""Differential tests: model-guided invariant inference vs. the reference.

``repro.analysis.abduction`` settles abduction's consistency and usefulness
questions under SAT models it already holds, memoizes whole abductions in
the formula cache, and ``repro.analysis.invariants`` runs its consecution
check as a model-guided Houdini loop (one conjunction query per round and
CCR).  Their contract is output identity with the textbook formulation kept
below as the reference: two fresh queries per abduction candidate, and one
validity query per (candidate, CCR) in every round of the fixed point.
Abduction is told the invariant's vocabulary; against the reference it
either gets the obligation's own variables (no restriction) or the
monitor's fields, and then must return the reference's candidates over
those fields, in order.
"""

from collections import Counter

import pytest

from repro.analysis import abduction, invariants
from repro.analysis.abduction import AbductionResult, abduce
from repro.analysis.commutativity import ccr_commutes_with_all
from repro.analysis.invariants import InvariantInferenceResult, infer_monitor_invariant
from repro.analysis.wp import weakest_precondition
from repro.benchmarks_lib import ALL_BENCHMARKS
from repro.fuzz.generate import random_monitor
from repro.lang import load_monitor
from repro.logic import INT, build, v
from repro.logic.free_vars import free_vars
from repro.logic.nnf import atoms_of
from repro.logic.simplify import simplify
from repro.logic.terms import BoolConst, Var
from repro.placement.algorithm import generate_placement_triples
from repro.placement.pipeline import ExpressoPipeline
from repro.resilience.faults import FaultPlan, FaultRule, injected
from repro.smt.cache import FormulaCache
from repro.smt.qe import QuantifierEliminator
from repro.smt.solver import Solver

# ---------------------------------------------------------------------------
# The reference: two queries per candidate, one query per (candidate, CCR)
# ---------------------------------------------------------------------------


def reference_is_useful(psi, pre, goal, solver):
    if isinstance(psi, BoolConst):
        return False
    if not solver.check_sat(build.land(pre, psi)).is_sat:
        return False
    return solver.check_valid(build.implies(build.land(pre, psi), goal))


def reference_abduce(pre, goal, solver, max_kept_vars=2, max_candidates=24,
                     max_subsets=16, max_obligation_atoms=20):
    memo = solver.rewrite_memo()
    obligation = build.implies(pre, goal)
    variables = sorted(free_vars(obligation), key=lambda var: var.name)
    candidates = []
    if solver.check_valid(obligation):
        return AbductionResult(pre, goal, ())
    if len(atoms_of(obligation)) > max_obligation_atoms:
        subsets = []
    else:
        subsets = abduction._variable_subsets(variables, max_kept_vars)[:max_subsets]
    eliminator = QuantifierEliminator(obligation, memo=memo)
    for kept in subsets:
        eliminated = [var for var in variables if var not in kept]
        if not eliminated:
            candidate = simplify(obligation, memo)
        else:
            try:
                candidate = eliminator.forall(eliminated)
            except ValueError:
                continue
        for psi in abduction._split_candidate(candidate, memo):
            if reference_is_useful(psi, pre, goal, solver) and psi not in candidates:
                candidates.append(psi)
        if len(candidates) >= max_candidates:
            break
    if len(atoms_of(obligation)) <= max_obligation_atoms:
        for generalized in abduction._generalize_atoms(candidates + [goal], memo):
            if len(candidates) >= max_candidates:
                break
            if (generalized not in candidates
                    and reference_is_useful(generalized, pre, goal, solver)):
                candidates.append(generalized)
    return AbductionResult(pre, goal, tuple(candidates))


def reference_infer(monitor, triples, solver, extra_candidates=()):
    shared_names = frozenset(monitor.field_names())
    pool = []

    def add_candidate(candidate):
        candidate = simplify(candidate)
        if isinstance(candidate, BoolConst):
            return
        if any(var.name not in shared_names for var in free_vars(candidate)):
            return
        if candidate not in pool:
            pool.append(candidate)

    for triple in triples:
        goal = weakest_precondition(triple.stmt, triple.post)
        for candidate in reference_abduce(triple.pre, goal, solver):
            add_candidate(candidate)
    for decl in monitor.fields:
        if decl.unsigned and decl.sort is INT:
            add_candidate(build.ge(Var(decl.name, INT), build.i(0)))
    for candidate in extra_candidates:
        add_candidate(candidate)

    kept = list(pool)
    constructor = monitor.constructor()
    iterations = 0
    changed = True
    while changed:
        iterations += 1
        changed = False
        surviving = []
        for psi in kept:
            vc = build.implies(build.TRUE, weakest_precondition(constructor, psi))
            if solver.check_valid(vc):
                surviving.append(psi)
            else:
                changed = True
        kept = surviving
        invariant = build.land(*kept) if kept else build.TRUE
        surviving = []
        for psi in kept:
            preserved = True
            for _method, ccr in monitor.ccrs():
                pre = build.land(invariant, ccr.guard)
                vc = build.implies(pre, weakest_precondition(ccr.body, psi))
                if not solver.check_valid(vc):
                    preserved = False
                    break
            if preserved:
                surviving.append(psi)
            else:
                changed = True
        kept = surviving
    invariant = simplify(build.land(*kept)) if kept else build.TRUE
    return InvariantInferenceResult(invariant, tuple(kept), tuple(pool), iterations)


# ---------------------------------------------------------------------------
# Solvers that hand back wrong or no counterexamples
# ---------------------------------------------------------------------------


class LyingSolver(Solver):
    """Prepends a bogus "counterexample" to every real one: a model of the
    negated hypotheses, which satisfies the implication.  Every such model
    violates the ``pre`` it is about to be evaluated against, so only the
    concrete check that a model satisfies ``pre`` keeps it from deciding."""

    def check_valid(self, goal, counterexample=None, *, hyps=()):
        if counterexample is not None and hyps:
            bogus = self.check_sat(build.lnot(build.land(*hyps)))
            if bogus.is_sat:
                counterexample.append(bogus.model)
        return super().check_valid(goal, counterexample, hyps=hyps)


class ForgetfulSolver(Solver):
    """Answers validity correctly but never hands back a counterexample, so
    every model-guided shortcut must fall back to per-candidate queries."""

    def check_valid(self, goal, counterexample=None, *, hyps=()):
        return super().check_valid(goal, hyps=hyps)


# ---------------------------------------------------------------------------
# Inputs: the suite and a seeded batch of generated monitors
# ---------------------------------------------------------------------------

GENERATED = tuple(random_monitor(1717, index) for index in range(10))


def _monitors():
    for name, benchmark in ALL_BENCHMARKS.items():
        yield name, load_monitor(benchmark.source)
    for generated in GENERATED:
        yield generated.name, load_monitor(generated.source)


@pytest.fixture(scope="module")
def monitors():
    return list(_monitors())


@pytest.fixture(scope="module")
def references(monitors):
    """The reference inference of every monitor, with its triples."""
    results = []
    for name, monitor in monitors:
        triples = generate_placement_triples(monitor, build.TRUE)
        results.append((name, monitor, triples,
                        reference_infer(monitor, triples, Solver())))
    return results


def _obligations(monitor):
    for triple in generate_placement_triples(monitor, build.TRUE):
        yield triple.pre, weakest_precondition(triple.stmt, triple.post)


def _own(pre, goal):
    """The obligation's own variables: a vocabulary that restricts nothing."""
    return {var.name for var in free_vars(build.implies(pre, goal))}


def _within(candidates, vocabulary):
    return tuple(candidate for candidate in candidates
                 if all(var.name in vocabulary for var in free_vars(candidate)))


# ---------------------------------------------------------------------------
# Output identity
# ---------------------------------------------------------------------------


class TestAbductionIdentity:
    def test_every_abduction_matches_the_reference(self, monitors):
        compared = memo_hits = 0
        mismatches = []
        for name, monitor in monitors:
            # One cache per monitor, as in a compile: repeated obligations
            # are answered by the memo and must still match.
            solver = Solver(cache=FormulaCache())
            for pre, goal in _obligations(monitor):
                expected = reference_abduce(pre, goal, Solver())
                if abduce(pre, goal, solver, vocabulary=_own(pre, goal)) != expected:
                    mismatches.append((name, pre, goal))
                compared += 1
            memo_hits += solver.snapshot_statistics()["abduce_cache_hits"]
        assert compared >= 400 and memo_hits > 0
        assert mismatches == []

    def test_memo_answers_repeated_obligations(self, monitors):
        solver = Solver(cache=FormulaCache())
        name, monitor = monitors[0]
        obligations = list(_obligations(monitor))
        first = [abduce(pre, goal, solver, vocabulary=_own(pre, goal))
                 for pre, goal in obligations]
        before = solver.snapshot_statistics()
        again = [abduce(pre, goal, solver, vocabulary=_own(pre, goal))
                 for pre, goal in obligations]
        assert again == first
        delta = solver.snapshot_statistics(since=before)
        assert delta["sat_queries"] == 0
        assert delta["abduce_cache_hits"] >= len(obligations)

    def test_limits_are_part_of_the_memo_key(self):
        solver = Solver(cache=FormulaCache())
        x, y = v("x"), v("y")
        pre, goal = build.le(x, y), build.ge(build.add(x, 1), build.i(1))
        wide = abduce(pre, goal, solver, vocabulary={"x", "y"})
        narrow = abduce(pre, goal, solver, vocabulary={"x", "y"}, max_candidates=1)
        assert narrow == reference_abduce(pre, goal, Solver(), max_candidates=1)
        assert len(narrow.candidates) <= 1 < len(wide.candidates)


class TestVocabulary:
    def test_abduction_returns_the_reference_within_the_fields(self, monitors):
        """Every suite and generated obligation, told the monitor's fields:
        the reference's candidates over those fields, in the same order."""
        compared = restricted = 0
        mismatches = []
        for name, monitor in monitors:
            fields = monitor.field_names()
            solver = Solver(cache=FormulaCache())
            for pre, goal in _obligations(monitor):
                expected = reference_abduce(pre, goal, Solver()).candidates
                actual = abduce(pre, goal, solver, vocabulary=fields).candidates
                if actual != _within(expected, fields):
                    mismatches.append((name, pre, goal))
                compared += 1
                restricted += len(expected) - len(actual)
        assert compared >= 400 and restricted > 0
        assert mismatches == []

    def test_an_outside_candidate_stays_a_generalization_source(self):
        """``x - 1 >= 0`` and ``x - 1 >= 1`` are mined only from the
        candidate ``x != 1 && z == 0 ==> z - x <= -1``, which mentions ``z``:
        skipping that candidate's validation would lose them."""
        x, z = v("x"), v("z")
        pre = build.land(build.ne(x, build.i(1)), build.eq(z, build.i(0)))
        goal = build.le(build.sub(z, x), build.i(-1))
        solver = Solver()
        expected = _within(reference_abduce(pre, goal, Solver()).candidates, {"x"})
        assert abduce(pre, goal, solver, vocabulary={"x"}).candidates == expected
        memo = solver.rewrite_memo()
        mined = abduction._generalize_atoms([build.ne(x, build.i(1))], memo)
        assert mined[0] in expected and mined[2] in expected
        inside = [candidate for candidate in expected if candidate not in mined]
        from_inside = abduction._generalize_atoms(inside + [goal], memo)
        assert mined[0] not in from_inside and mined[2] not in from_inside

    def test_an_obligation_without_fields_makes_no_query(self, monitors):
        skipped = 0
        for _name, monitor in monitors:
            fields = monitor.field_names()
            for pre, goal in _obligations(monitor):
                if _own(pre, goal) & set(fields):
                    continue
                solver = Solver()
                result = abduce(pre, goal, solver, vocabulary=fields)
                assert result.candidates == ()
                assert solver.snapshot_statistics()["sat_queries"] == 0
                assert _within(reference_abduce(pre, goal, Solver()).candidates,
                               fields) == ()
                skipped += 1
        assert skipped > 0

    def test_vocabulary_is_part_of_the_memo_key(self):
        solver = Solver(cache=FormulaCache())
        x, y = v("x"), v("y")
        pre, goal = build.le(x, y), build.ge(build.add(x, 1), build.i(1))
        both = abduce(pre, goal, solver, vocabulary={"x", "y"})
        only_x = abduce(pre, goal, solver, vocabulary={"x"})
        assert solver.snapshot_statistics()["abduce_cache_hits"] == 0
        full = reference_abduce(pre, goal, Solver()).candidates
        assert both.candidates == full
        assert only_x.candidates == _within(full, {"x"}) != full
        # Names the obligation does not mention cannot change the answer.
        assert abduce(pre, goal, solver, vocabulary=("x", "z")) == only_x
        assert solver.snapshot_statistics()["abduce_cache_hits"] == 1

    def test_houdini_computes_each_wp_once(self, monitors, monkeypatch):
        """``wp(body, psi)`` is computed at most once per (CCR, psi) in one
        inference, however many rounds the fixed point takes: a call the
        rewrite memo answers computes nothing."""
        calls = Counter()
        original = invariants.weakest_precondition

        def counting(stmt, post, memo=None):
            if memo is None or (id(stmt), post) not in memo.wp:
                calls[id(stmt), post] += 1
            return original(stmt, post, memo)

        monkeypatch.setattr(invariants, "weakest_precondition", counting)
        rounds = 0
        for _name, monitor in monitors:
            bodies = {id(ccr.body) for _method, ccr in monitor.ccrs()}
            triples = generate_placement_triples(monitor, build.TRUE)
            # Abduction's goals are wp's of the triples, once per triple.
            abduction_goals = Counter((id(triple.stmt), triple.post)
                                      for triple in triples)
            calls.clear()
            result = infer_monitor_invariant(monitor, triples, Solver())
            rounds = max(rounds, result.iterations)
            repeated = [key for key, count in calls.items()
                        if key[0] in bodies and count - abduction_goals[key] > 1]
            assert repeated == []
        assert rounds > 1


class TestInferenceIdentity:
    @pytest.mark.parametrize("solver_class", [Solver, LyingSolver, ForgetfulSolver])
    def test_inference_matches_the_reference(self, references, solver_class):
        """Invariant, kept predicates, candidate pool and iteration count
        equal the reference, also when counterexamples are wrong (each is
        checked against ``pre`` by evaluation) or missing (each candidate
        is then decided by its own query)."""
        mismatches = []
        for name, monitor, triples, expected in references:
            actual = infer_monitor_invariant(
                monitor, triples, solver_class(cache=FormulaCache()))
            for field in ("invariant", "kept_predicates", "candidate_pool",
                          "iterations"):
                if getattr(actual, field) != getattr(expected, field):
                    mismatches.append((name, field))
        assert mismatches == []

    def test_houdini_drops_several_candidates_per_query(self):
        """One consecution query refutes every candidate its counterexample
        falsifies; the per-candidate loop pays one query each."""
        monitor = load_monitor("""
        monitor Drift {
            int a = 0;
            int b = 0;
            int c = 0;
            atomic void step() { a = a + 1; b = b + 1; c = c + 1; }
        }
        """)
        extra = [build.eq(v(name), build.i(0)) for name in "abc"]
        extra.append(build.ge(v("a"), build.i(0)))
        solver, reference_solver = Solver(cache=FormulaCache()), Solver()
        result = infer_monitor_invariant(monitor, [], solver, extra_candidates=extra)
        assert result == reference_infer(monitor, [], reference_solver,
                                         extra_candidates=extra)
        assert result.kept_predicates == (build.ge(v("a"), build.i(0)),)
        assert (solver.snapshot_statistics()["validity_queries"]
                < reference_solver.snapshot_statistics()["validity_queries"])

    def test_fallback_decides_candidates_the_model_cannot(self):
        """Without a usable counterexample, the remaining candidates are
        queried one by one."""
        x, y = v("x"), v("y")
        pre = build.ge(x, build.i(0))
        goals = {build.ge(x, build.i(0)): build.ge(x, build.i(0)),
                 build.ge(y, build.i(0)): build.ge(y, build.i(0)),
                 build.ge(x, build.i(-1)): build.ge(x, build.i(-1))}
        solver = ForgetfulSolver()
        failed = invariants._not_preserved(pre, goals, solver, solver.check_valid)
        assert failed == {build.ge(y, build.i(0))}


# ---------------------------------------------------------------------------
# Degraded solvers
# ---------------------------------------------------------------------------


def _all_unknown():
    return injected(FaultPlan([FaultRule("solver.query", action="unknown",
                                         attempt=None)]))


class TestDegradation:
    def test_total_unknown_yields_true_and_over_signals(self):
        source = ALL_BENCHMARKS["BoundedBuffer"].source
        with _all_unknown():
            degraded = ExpressoPipeline().compile(source)
        assert degraded.invariant == build.TRUE
        assert degraded.invariant_details.kept_predicates == ()
        for decision in degraded.placement.decisions:
            assert decision.needs_notification
            assert decision.conditional and decision.broadcast

    def test_no_abduction_is_memoized_after_an_unknown(self):
        x, y = v("x"), v("y")
        pre, goal = build.le(x, y), build.ge(build.add(x, 1), build.i(1))
        cache = FormulaCache()
        solver = Solver(cache=cache)
        with _all_unknown():
            assert abduce(pre, goal, solver, vocabulary={"x", "y"}).candidates == ()
        assert cache.entries("abduce") == 0
        precise = abduce(pre, goal, solver, vocabulary={"x", "y"})
        assert precise == reference_abduce(pre, goal, Solver())
        assert precise.candidates
        assert cache.entries("abduce") == 1
        assert abduce(pre, goal, solver, vocabulary={"x", "y"}) == precise
        assert solver.snapshot_statistics()["abduce_cache_hits"] == 1

    def test_one_unknown_query_keeps_the_abduction_out_of_the_memo(self):
        x, y = v("x"), v("y")
        pre, goal = build.le(x, y), build.ge(build.add(x, 1), build.i(1))
        cache = FormulaCache()
        # The obligation's own query decides; the next one degrades.
        plan = FaultPlan([FaultRule("solver.query", action="unknown", at=(1,),
                                    attempt=None)])
        with injected(plan):
            abduce(pre, goal, Solver(cache=cache), vocabulary={"x", "y"})
        assert plan.fired
        assert cache.entries("abduce") == 0

    def test_no_commute_verdict_is_memoized_after_an_unknown(self):
        """A commute verdict degraded to "dependent" by UNKNOWN is recomputed
        once the solver decides again, not replayed from the memo."""
        monitor = load_monitor(ALL_BENCHMARKS["BoundedBuffer"].source)
        ccr = monitor.ccr_by_label("put#0")[1]
        cache = FormulaCache()
        with _all_unknown():
            assert not ccr_commutes_with_all(ccr, monitor, Solver(cache=cache))
        assert cache.entries("commute") == 0
        assert ccr_commutes_with_all(ccr, monitor, Solver(cache=cache))
        again = Solver(cache=cache)
        assert ccr_commutes_with_all(ccr, monitor, again)
        assert again.snapshot_statistics()["commute_cache_hits"] >= 1
