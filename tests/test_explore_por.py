"""Tests for the exploration hot path: DPOR soundness, parallel sharding,
oracle memoization, replay files, and the mutation campaign driver.

The load-bearing property is *verdict preservation*: partial-order reduction
may skip schedules, but never a schedule whose oracle verdict differs from
every schedule it does run.  The cross-checks below compare DPOR-DFS against
the plain PR-2 enumeration on exhaustible bounds — for the clean suite and
for every notification-deletion mutant — and require the exact same verdict
sets.
"""

import json

import pytest

from repro.benchmarks_lib import ALL_BENCHMARKS, get_benchmark
from repro.cli import main as cli_main
from repro.explore import (
    Decision,
    Dependence,
    MethodFootprint,
    OracleCache,
    coop_class_for_explicit,
    coop_monitor_and_class,
    explore_benchmark,
    explore_class,
    explore_explicit,
    footprints_for_explicit,
    mutation_campaign,
    parallel_explore_class,
    run_schedule,
)
from repro.explore.dependence import footprints_independent
from repro.explore.engine import index_symmetry
from repro.harness.report import render_explore_table
from repro.harness.saturation import expresso_result
from repro.lang import Assign, FieldDecl, While, load_monitor
from repro.logic import INT, TRUE
from repro.logic.build import ge, gt, i, sub, v
from repro.placement.pipeline import ExpressoPipeline
from repro.placement.target import ExplicitCCR, ExplicitMethod, ExplicitMonitor
from repro.explore.strategies import FirstStrategy, RandomStrategy, ScheduleStrategy


def _verdict_kinds(result):
    return frozenset(failure.kind for failure in result.failures)


@pytest.fixture(scope="module")
def buffer_spec():
    return get_benchmark("BoundedBuffer")


@pytest.fixture(scope="module")
def buffer_result(buffer_spec):
    return expresso_result(buffer_spec)


class TestFootprints:
    def test_buffer_methods_conflict_on_count(self, buffer_result):
        footprints = footprints_for_explicit(buffer_result.explicit)
        assert set(footprints) == {"put", "take"}
        assert "count" in footprints["put"].writes
        assert "count" in footprints["take"].reads
        assert not footprints_independent(footprints["put"], footprints["take"])

    def test_loop_invariant_fields_are_read(self):
        """A ``while`` invariant is evaluated, so its fields are footprint
        reads even when neither the condition nor the body mentions them."""
        loop = While(gt(v("n"), i(0)), Assign("n", sub(v("n"), i(1))),
                     invariant=ge(v("floor"), i(0)))
        explicit = ExplicitMonitor(
            name="Loop",
            fields=(FieldDecl("n", INT, i(0)), FieldDecl("floor", INT, i(0))),
            methods=(ExplicitMethod("drain", (), (ExplicitCCR(TRUE, loop, "drain#0"),)),),
            condition_vars=(), invariant=TRUE)
        footprint = footprints_for_explicit(explicit)["drain"]
        assert footprint.reads == {"n", "floor"}
        assert footprint.writes == {"n"}

    def test_disjoint_footprints_are_independent(self):
        a = MethodFootprint(frozenset({"x"}), frozenset({"x"}),
                            frozenset({"cx"}), frozenset({"cx"}))
        b = MethodFootprint(frozenset({"y"}), frozenset({"y"}),
                            frozenset({"cy"}), frozenset({"cy"}))
        assert footprints_independent(a, b)
        relation = Dependence(_coop_stub({"a": a, "b": b}), [])
        assert relation.independent(("a", None, None), ("b", None, None))
        assert not relation.independent(("a", None, None), ("a", None, None))
        assert not relation.independent(("a", None, None),
                                        ("unknown", None, None))

    def test_waiting_on_same_condition_does_not_conflict(self):
        a = MethodFootprint(frozenset({"x"}), frozenset({"x"}),
                            frozenset({"c"}), frozenset())
        b = MethodFootprint(frozenset({"y"}), frozenset({"y"}),
                            frozenset({"c"}), frozenset())
        assert footprints_independent(a, b)

    def test_signalling_a_waited_condition_conflicts(self):
        waiter = MethodFootprint(frozenset({"x"}), frozenset({"x"}),
                                 frozenset({"c"}), frozenset())
        signaller = MethodFootprint(frozenset({"y"}), frozenset({"y"}),
                                    frozenset(), frozenset({"c"}))
        assert not footprints_independent(waiter, signaller)


def _coop_stub(footprints, semantic=None, explicit=None):
    """A stand-in coop class carrying only the relation's inputs."""
    attributes = {"_coop_footprints": footprints}
    if semantic is not None:
        attributes["_coop_semantic"] = semantic
    if explicit is not None:
        attributes["_coop_explicit"] = explicit
    return type("CoopStub", (), attributes)


def _footprint(reads=(), writes=(), waits=(), signals=()):
    return MethodFootprint(frozenset(reads), frozenset(writes),
                           frozenset(waits), frozenset(signals))


class TestDependence:
    """One hand-built case per rule of the DPOR dependence relation."""

    def test_matrix_entry_needs_compatible_condition_variables(self):
        both = _footprint(reads={"x"}, writes={"x"}, signals={"c"})
        waiter = _footprint(reads={"x"}, writes={"x"}, waits={"c"})
        footprints = {"inc": both, "add": both, "await": waiter}
        matrix = {(a, b): True for a in footprints for b in footprints}
        relation = Dependence(_coop_stub(footprints, matrix), [])
        # Both write x, so only the proof makes them independent; shared
        # signals are allowed once it holds.
        assert relation.independent(("inc", None, None), ("add", None, None))
        # A signal aimed at the other side's wait stays dependent.
        assert not relation.independent(("inc", None, None),
                                        ("await", None, None))
        syntactic = Dependence(_coop_stub(footprints, matrix), [],
                               semantic=False)
        assert not syntactic.independent(("inc", None, None),
                                         ("add", None, None))

    @pytest.fixture
    def gate(self):
        """``enter`` waits for ``open`` and bumps ``count``; ``reset``
        zeroes ``count``; ``unlock`` sets ``open`` and signals."""
        from repro.placement.target import Notification
        from repro.logic.build import add

        open_ = v("open", INT)
        guard = gt(open_, i(0))
        bump = Assign("count", add(v("count", INT), i(1)))
        explicit = ExplicitMonitor(
            name="Gate",
            fields=(FieldDecl("open", INT, i(0)), FieldDecl("count", INT, i(0))),
            methods=(
                ExplicitMethod("enter", (), (ExplicitCCR(guard, bump, "enter#0"),)),
                ExplicitMethod("reset", (), (ExplicitCCR(
                    TRUE, Assign("count", i(0)), "reset#0"),)),
                ExplicitMethod("unlock", (), (ExplicitCCR(
                    TRUE, Assign("open", i(1)), "unlock#0",
                    (Notification(guard, False, True),)),)),
            ),
            condition_vars=((guard, "enterCond"),), invariant=TRUE)
        return _coop_stub(footprints_for_explicit(explicit), explicit=explicit)

    _PROGRAMS = [[("enter", ())], [("reset", ())], [("unlock", ())]]

    def test_wait_entry_footprint_replaces_the_method(self, gate):
        gate = Dependence(gate, self._PROGRAMS)
        whole = ("enter", (), None)
        entry = ("enter", (), "enterCond")
        reset = ("reset", (), None)
        # Whole methods conflict on count, at any arguments; the wait entry
        # reads only open.
        assert not gate.independent(whole, reset)
        assert gate.independent(entry, reset) and gate.independent(reset, entry)
        # unlock writes open and signals the entry's condition.
        assert not gate.independent(entry, ("unlock", (), None))

    def test_pending_wait_key_comes_from_the_decision_state(self, gate):
        relation = Dependence(gate, self._PROGRAMS)

        def decision(open_value, resumes=(None, None, None)):
            shared = (("count", 0), ("open", open_value))
            return Decision("grant", (0, 1, 2), 0, (shared, ()),
                            ("enter", "reset", "unlock"), op_indices=(0, 0, 0),
                            resumes=resumes)

        closed = decision(0)
        assert relation.transition(closed, 0) == ("enter", (), "enterCond")
        assert relation.transition(closed, 1) == ("reset", (), None)
        assert relation.transition(decision(1), 0) == ("enter", (), None)
        resumed = decision(0, resumes=("enterCond", None, None))
        assert relation.transition(resumed, 0) == ("enter", (), "enterCond")
        syntactic = Dependence(gate, self._PROGRAMS, semantic=False)
        assert syntactic.transition(closed, 0) == ("enter", (), None)

    def test_adjacent_put_downs_commute_at_their_arguments(self):
        """Without the symbolic matrix entry, two adjacent philosophers'
        ``putDown`` calls still commute at their arguments: both reset the
        shared fork 1 to false.  Two ``pickUp`` calls of the same fork do
        not: each disables the other's guard."""
        compiled = expresso_result(get_benchmark("Dining Philosophers"))
        explicit = compiled.explicit
        # Withhold the symbolic entry the relation would otherwise prove.
        withheld = {("putDown", "putDown"): False}
        relation = Dependence(_coop_stub(footprints_for_explicit(explicit),
                                         withheld, explicit), [])
        assert relation.independent(("putDown", (0, 1), None),
                                    ("putDown", (1, 2), None))
        assert not relation.independent(("putDown", None, None),
                                        ("putDown", (1, 2), None))
        assert not relation.independent(("pickUp", (0, 1), None),
                                        ("pickUp", (1, 2), None))

    def test_relation_is_symmetric_over_the_suite(self):
        """independent(a, b) == independent(b, a) for every ordered method
        pair of the suite (129), at every workload argument and wait key."""
        pairs = 0
        for name in sorted(ALL_BENCHMARKS):
            spec = get_benchmark(name)
            _monitor, coop_class = coop_monitor_and_class(spec, "expresso")
            programs = spec.workload(3, 3)
            relation = Dependence(coop_class, programs)
            footprints = coop_class._coop_footprints
            transitions = {
                method: [(method, args, key)
                         for args in {None} | {tuple(call_args)
                                               for program in programs
                                               for called, call_args in program
                                               if called == method}
                         for key in {None} | set(footprint.waits)]
                for method, footprint in footprints.items()}
            for a in footprints:
                for b in footprints:
                    pairs += 1
                    for left in transitions[a]:
                        for right in transitions[b]:
                            assert (relation.independent(left, right)
                                    == relation.independent(right, left)), \
                                (name, left, right)
        assert pairs == 129


def _placements_for_the_lazy_matrix():
    """(label, placement): the suite's Expresso and hand-written placements,
    every notification-deletion mutant and 24 generated monitors."""
    from repro.fuzz.generate import random_monitor

    for name in sorted(ALL_BENCHMARKS):
        spec = get_benchmark(name)
        explicit = expresso_result(spec).explicit
        yield name, explicit
        yield f"{name}/hand-written", spec.handwritten_explicit()
        for site in explicit.notification_sites():
            yield f"{name}/{site}", explicit.without_notification(*site)
    pipeline = ExpressoPipeline()
    for seed in (1717, 2026):
        for index in range(12):
            yield (f"random_monitor({seed}, {index})",
                   pipeline.compile(random_monitor(seed, index).source).explicit)


class TestLazyMatrix:
    def test_every_proven_entry_equals_the_full_matrix(self, monkeypatch):
        """The dependence relation proves exactly the entries DPOR may
        consult (conflicting footprints, compatible condition variables),
        once per pair and in method order, each equal to
        ``semantic_independence_for_explicit``'s entry."""
        import repro.analysis.commutativity as commutativity
        from repro.explore.dependence import condition_vars_compatible
        from repro.smt.cache import FormulaCache
        from repro.smt.solver import Solver

        proofs = []
        real = commutativity.methods_semantically_independent

        def recording(method_a, method_b, shared_names, solver=None):
            proofs.append((method_a.name, method_b.name))
            return real(method_a, method_b, shared_names, solver)

        monkeypatch.setattr(commutativity, "methods_semantically_independent",
                            recording)
        reference_solver = Solver(cache=FormulaCache())
        placements = mutants = proven = 0
        for label, explicit in _placements_for_the_lazy_matrix():
            placements += 1
            mutants += "/(" in label
            coop_class = coop_class_for_explicit(explicit)
            relation = Dependence(coop_class, [])
            footprints = coop_class._coop_footprints
            proofs.clear()
            for a in footprints:
                for b in footprints:
                    relation.independent((a, None, None), (b, None, None))
            entries = coop_class._coop_semantic
            names = [method.name for method in explicit.methods]
            assert all(names.index(a) <= names.index(b) for a, b in proofs), label
            assert len(proofs) == len({frozenset(pair) for pair in entries}), label
            assert set(entries) == {
                (a, b) for a, fp_a in footprints.items()
                for b, fp_b in footprints.items()
                if not footprints_independent(fp_a, fp_b)
                and condition_vars_compatible(fp_a, fp_b, allow_shared_signals=True)
            }, label
            matrix = commutativity.semantic_independence_for_explicit(
                explicit, reference_solver)
            for pair, verdict in entries.items():
                assert verdict == matrix[pair], (label, pair)
            proven += len(entries)
        assert (placements, mutants) == (14 + 14 + 33 + 24, 33)
        assert proven > 0


class TestDporSoundness:
    """DPOR must find the exact verdict set of the plain enumeration."""

    @pytest.mark.parametrize("name", sorted(ALL_BENCHMARKS))
    def test_clean_suite_verdicts_match(self, name):
        spec = get_benchmark(name)
        kwargs = dict(threads=3, ops=2, strategy="dfs", budget=50_000,
                      minimize=False, stop_on_failure=False)
        plain = explore_benchmark(spec, "expresso", por=False, **kwargs)
        por = explore_benchmark(spec, "expresso", por=True, **kwargs)
        assert plain.exhausted and por.exhausted
        assert _verdict_kinds(plain) == _verdict_kinds(por) == frozenset()
        assert por.schedules_run <= plain.schedules_run
        assert por.completed == por.schedules_run - por.stalls

    @pytest.mark.parametrize("name", sorted(ALL_BENCHMARKS))
    def test_mutant_counterexamples_match(self, name):
        """The full notification-deletion soundness sweep: every placed
        notification of every benchmark, dropped, must yield the same
        verdict set under plain enumeration, syntactic DPOR and the full
        semantic DPOR (SMT independence + value sensitivity + symmetry)."""
        spec = get_benchmark(name)
        compiled = expresso_result(spec)
        programs = spec.workload(3, 2)
        kwargs = dict(strategy="dfs", budget=50_000, minimize=False,
                      stop_on_failure=False)
        for site in compiled.explicit.notification_sites():
            mutant = compiled.explicit.without_notification(*site)
            plain = explore_explicit(mutant, compiled.monitor, programs,
                                     por=False, **kwargs)
            syntactic = explore_explicit(mutant, compiled.monitor, programs,
                                         por=True, semantic=False,
                                         symmetry=False, **kwargs)
            por = explore_explicit(mutant, compiled.monitor, programs,
                                   por=True, **kwargs)
            assert plain.exhausted and syntactic.exhausted and por.exhausted, \
                (name, site)
            assert (_verdict_kinds(plain) == _verdict_kinds(syntactic)
                    == _verdict_kinds(por)), (name, site)

    def test_suite_reduction_is_at_least_tenfold(self):
        """The suite's counts at 3 threads x 3 ops for every ``--reduction``
        level: (judged, pruned, por_skipped, symmetry_skipped,
        distinct_states).  Semantic DPOR with symmetry judges 32.0x fewer
        schedules than plain DFS and 2.17x fewer than syntactic DPOR
        (Dining Philosophers' rotations merge its 72 judged schedules to
        24).  Every search is deterministic, so the totals are pinned
        exactly; a change to the dependence relation that moves any of them
        changes what DPOR explores."""
        levels = {
            "none": dict(por=False),
            "syntactic": dict(por=True, semantic=False, symmetry=False),
            "semantic": dict(por=True, semantic=True, symmetry=False),
            "full": dict(por=True, semantic=True, symmetry=True),
        }
        totals = {}
        for level, options in levels.items():
            total = [0] * 5
            for name in ALL_BENCHMARKS:
                result = explore_benchmark(
                    get_benchmark(name), "expresso", threads=3, ops=3,
                    strategy="dfs", budget=50_000, minimize=False,
                    stop_on_failure=False, **options)
                assert result.exhausted and result.ok, (level, name)
                counts = (result.schedules_run, result.pruned,
                          result.por_skipped, result.symmetry_skipped,
                          result.distinct_states)
                total = [a + b for a, b in zip(total, counts)]
            totals[level] = tuple(total)
        assert totals == {
            "none": (6274, 5846, 0, 0, 4201),
            "syntactic": (426, 5759, 70, 0, 4191),
            "semantic": (415, 5196, 553, 0, 4159),
            "full": (196, 2124, 236, 285, 1920),
        }

    def test_symmetry_reduction_preserves_verdicts(self):
        """Identical-thread wake orders collapse; verdict sets survive."""
        spec = get_benchmark("H2O Barrier")
        kwargs = dict(threads=3, ops=3, strategy="dfs", budget=50_000,
                      minimize=False, stop_on_failure=False)
        full = explore_benchmark(spec, "expresso", por=True, **kwargs)
        no_sym = explore_benchmark(spec, "expresso", por=True, symmetry=False,
                                   **kwargs)
        assert full.exhausted and no_sym.exhausted
        assert _verdict_kinds(full) == _verdict_kinds(no_sym)
        assert full.schedules_run <= no_sym.schedules_run
        assert full.symmetry_skipped > 0

    def test_symmetry_skips_catch_mutant_bugs(self, buffer_spec, buffer_result):
        """Symmetric-thread collapsing must not hide an injected bug."""
        mutant = buffer_result.explicit.without_notification("put#0", 0)
        programs = buffer_spec.workload(3, 2)
        full = explore_explicit(mutant, buffer_result.monitor, programs,
                                strategy="dfs", budget=50_000, minimize=False,
                                stop_on_failure=False)
        assert full.exhausted
        assert "lost-wakeup" in _verdict_kinds(full)

    def test_four_thread_config_becomes_exhaustible(self):
        """Readers-Writers 4x3 exceeds a 20k budget plainly; DPOR finishes."""
        spec = get_benchmark("Readers-Writers")
        por = explore_benchmark(spec, "expresso", threads=4, ops=3,
                                strategy="dfs", budget=20_000, minimize=False,
                                por=True)
        assert por.exhausted and por.ok
        # The plain run would need >20k schedules (it explores every state
        # transition as a full judged schedule); cap the probe well below
        # that so the test stays fast while still witnessing infeasibility.
        plain = explore_benchmark(spec, "expresso", threads=4, ops=3,
                                  strategy="dfs", budget=2_000, minimize=False,
                                  por=False)
        assert not plain.exhausted and plain.budget_exhausted
        assert por.schedules_run < plain.schedules_run


_COUNTING_PHILOSOPHERS = """
monitor CountingPhilosophers {
    const int N = 3;
    boolean forks[N];
    int meals = 0;

    atomic void pickUp(int leftFork, int rightFork) {
        waituntil (!forks[leftFork] && !forks[rightFork]) {
            forks[leftFork] = true;
            forks[rightFork] = true;
        }
    }
    atomic void putDown(int leftFork, int rightFork) {
        forks[leftFork] = false;
        forks[rightFork] = false;
        if (leftFork == 0) { meals = meals + 1; }
    }
    atomic void awaitMeal() {
        waituntil (meals > 0) { }
    }
}
"""


class TestIndexSymmetry:
    """Index-permutation automorphisms: Dining Philosophers' rotations."""

    @pytest.fixture(scope="class")
    def dining(self):
        spec = get_benchmark("Dining Philosophers")
        reference, coop_class = coop_monitor_and_class(spec, "expresso")
        return spec, reference, coop_class

    def test_three_philosophers_yield_the_three_rotations(self, dining):
        spec, reference, coop_class = dining
        table = index_symmetry(spec.workload(3, 3), coop_class, reference)
        assert [a.sigma for a in table.automorphisms] == [
            (0, 1, 2), (1, 2, 0), (2, 0, 1)]
        # One philosopher per group: π is the rotation of the threads.
        assert [a.groups for a in table.automorphisms] == [
            (0, 1, 2), (1, 2, 0), (2, 0, 1)]
        assert table.index_params == {
            "pickUp": {0: "leftFork", 1: "rightFork"},
            "putDown": {0: "leftFork", 1: "rightFork"}}

    def test_a_repeated_philosopher_leaves_the_identity_only(self, dining):
        """Thread 3 repeats philosopher 0, so no rotation maps the programs
        onto themselves; the exploration is the one without the layer."""
        spec, reference, coop_class = dining
        programs = spec.workload(4, 2)
        table = index_symmetry(programs, coop_class, reference)
        assert [a.sigma for a in table.automorphisms] == [(0, 1, 2)]
        result = explore_class(reference, coop_class, programs, strategy="dfs",
                               budget=50_000, minimize=False,
                               stop_on_failure=False)
        assert result.exhausted and result.ok
        assert (result.schedules_run, result.pruned, result.por_skipped,
                result.symmetry_skipped, result.distinct_states) == (
                    56, 2348, 316, 142, 1516)

    def test_array_free_and_automatic_classes_get_the_identity(self, buffer_spec):
        reference, coop_class = coop_monitor_and_class(buffer_spec, "expresso")
        programs = buffer_spec.workload(3, 2)
        table = index_symmetry(programs, coop_class, reference)
        assert [a.sigma for a in table.automorphisms] == [()]
        fingerprint = run_schedule(coop_class(), programs, RandomStrategy(0),
                                   fingerprints=True,
                                   symmetry=table).decisions[0].fingerprint
        assert table.canonical(fingerprint) is fingerprint
        spec = get_benchmark("Dining Philosophers")
        reference, autosynch = coop_monitor_and_class(spec, "autosynch")
        table = index_symmetry(spec.workload(3, 2), autosynch, reference)
        assert len(table.automorphisms) == 1

    @pytest.mark.parametrize("ops", [2, 3])
    def test_verdicts_match_and_fewer_schedules_are_judged(self, ops):
        """The clean monitor and its notification-deletion mutant judge the
        same verdict kinds with the layer on and off, and fewer schedules
        with it on."""
        spec = get_benchmark("Dining Philosophers")
        compiled = expresso_result(spec)
        programs = spec.workload(3, ops)
        kwargs = dict(strategy="dfs", budget=50_000, minimize=False,
                      stop_on_failure=False)
        subjects = [compiled.explicit] + [
            compiled.explicit.without_notification(*site)
            for site in compiled.explicit.notification_sites()]
        for subject in subjects:
            on = explore_explicit(subject, compiled.monitor, programs, **kwargs)
            off = explore_explicit(subject, compiled.monitor, programs,
                                   symmetry=False, **kwargs)
            assert on.exhausted and off.exhausted
            assert _verdict_kinds(on) == _verdict_kinds(off)
            assert on.schedules_run < off.schedules_run
        assert _verdict_kinds(on) == {"lost-wakeup"}

    def test_mutants_match_at_three_ops(self):
        """The sweep of ``test_mutant_counterexamples_match`` for Dining
        Philosophers at 3 threads x 3 ops, where rotations merge most."""
        spec = get_benchmark("Dining Philosophers")
        compiled = expresso_result(spec)
        programs = spec.workload(3, 3)
        kwargs = dict(strategy="dfs", budget=50_000, minimize=False,
                      stop_on_failure=False)
        for site in compiled.explicit.notification_sites():
            mutant = compiled.explicit.without_notification(*site)
            plain = explore_explicit(mutant, compiled.monitor, programs,
                                     por=False, **kwargs)
            syntactic = explore_explicit(mutant, compiled.monitor, programs,
                                         por=True, semantic=False,
                                         symmetry=False, **kwargs)
            por = explore_explicit(mutant, compiled.monitor, programs,
                                   por=True, **kwargs)
            assert plain.exhausted and syntactic.exhausted and por.exhausted
            assert (_verdict_kinds(plain) == _verdict_kinds(syntactic)
                    == _verdict_kinds(por) == {"lost-wakeup"}), site

    def test_an_index_dependent_body_rejects_the_rotations(self):
        """``putDown`` counts meals only for philosopher 0: no rotation is
        an automorphism, and the lost wakeup only that philosopher's
        ``putDown`` causes is still found."""
        compiled = ExpressoPipeline().compile(load_monitor(_COUNTING_PHILOSOPHERS))
        programs = [[("pickUp", (p, (p + 1) % 3)), ("putDown", (p, (p + 1) % 3))] * 2
                    for p in range(3)] + [[("awaitMeal", ())]]
        table = index_symmetry(programs, coop_class_for_explicit(compiled.explicit),
                               compiled.monitor)
        assert [a.sigma for a in table.automorphisms] == [(0, 1, 2)]
        meals_site = ("putDown#0", 1)
        assert "meals" in compiled.explicit.method("putDown").ccrs[0] \
            .notifications[1].describe()
        mutant = compiled.explicit.without_notification(*meals_site)
        kwargs = dict(strategy="dfs", budget=50_000, minimize=False,
                      stop_on_failure=False)
        on = explore_explicit(mutant, compiled.monitor, programs, **kwargs)
        off = explore_explicit(mutant, compiled.monitor, programs,
                               symmetry=False, **kwargs)
        assert on.exhausted and off.exhausted
        assert _verdict_kinds(on) == _verdict_kinds(off) == {"lost-wakeup"}

    def test_a_dotted_array_renames_its_mangled_attributes(self, dining):
        """Instance attributes mangle ``table.forks__0`` to
        ``table_forks__0``; the key renames those, so the search is
        Dining Philosophers' own."""
        spec, _reference, _coop_class = dining
        compiled = ExpressoPipeline().compile(
            load_monitor(spec.source.replace("forks", "table.forks")))
        result = explore_explicit(compiled.explicit, compiled.monitor,
                                  spec.workload(3, 3), strategy="dfs",
                                  budget=50_000, minimize=False,
                                  stop_on_failure=False)
        assert result.exhausted and result.ok
        assert (result.schedules_run, result.pruned,
                result.distinct_states) == (24, 413, 320)

    def test_rotated_states_share_a_key_but_not_a_fingerprint(self, dining):
        """Philosopher 0 or philosopher 1 eating first: rotated states with
        one canonical key, while each decision keeps its own fields (the
        segment refiner evaluates guards against them)."""
        spec, reference, coop_class = dining
        programs = spec.workload(3, 3)
        table = index_symmetry(programs, coop_class, reference)
        states = []
        for first in (0, 1):
            run = run_schedule(coop_class(), programs,
                               ScheduleStrategy([first], FirstStrategy()),
                               fingerprints=True, symmetry=table)
            states.append(run.decisions[1].fingerprint)
        assert states[0] != states[1]
        assert table.canonical(states[0]) == table.canonical(states[1])
        assert dict(states[0][0]) == {
            "forks__0": True, "forks__1": True, "forks__2": False}
        assert dict(states[1][0]) == {
            "forks__0": False, "forks__1": True, "forks__2": True}


class TestAccounting:
    def test_pruned_and_por_skipped_are_split(self):
        spec = get_benchmark("Sleeping Barber")
        result = explore_benchmark(spec, "expresso", threads=3, ops=2,
                                   strategy="dfs", budget=50_000,
                                   minimize=False)
        assert result.exhausted
        assert result.pruned > 0            # merge-probe hits
        assert result.por_skipped > 0       # sleep-set / backtrack skips
        payload = result.to_dict()
        assert payload["pruned"] == result.pruned
        assert payload["por_skipped"] == result.por_skipped
        assert payload["budget_exhausted"] is False
        assert payload["threads"] == 3

    def test_budget_exhaustion_is_not_counted_as_pruning(self):
        spec = get_benchmark("Readers-Writers")
        result = explore_benchmark(spec, "expresso", threads=3, ops=3,
                                   strategy="dfs", budget=5, minimize=False,
                                   por=False)
        assert result.budget_exhausted and not result.exhausted
        assert result.schedules_run == 5

    def test_render_table_shows_both_columns(self):
        spec = get_benchmark("BoundedBuffer")
        result = explore_benchmark(spec, "expresso", threads=2, ops=2,
                                   strategy="dfs", budget=100, minimize=False)
        table = render_explore_table([result])
        assert "Pruned" in table and "POR-skip" in table

    def test_oracle_cache_hits_are_reported(self):
        spec = get_benchmark("Readers-Writers")
        result = explore_benchmark(spec, "expresso", threads=3, ops=2,
                                   strategy="dfs", budget=50_000,
                                   minimize=False, por=False)
        assert result.oracle_hits > 0
        assert result.oracle_misses > 0


class TestOracleCache:
    def test_memoized_verdicts_match_uncached(self, buffer_spec):
        from repro.explore import check_run

        monitor, coop_class = coop_monitor_and_class(buffer_spec, "expresso")
        programs = buffer_spec.workload(3, 2)
        cache = OracleCache(monitor, programs)
        for seed in range(30):
            instance = coop_class()
            run = run_schedule(instance, programs, RandomStrategy(seed))
            expected = check_run(monitor, programs, instance, run)
            cached = cache.judge(run, instance)
            again = cache.judge(run, instance)
            assert (cached.ok, cached.kind) == (expected.ok, expected.kind)
            assert (again.ok, again.kind) == (expected.ok, expected.kind)
        assert cache.hits > 0

    def test_guard_violations_memoize_correctly(self, buffer_spec, buffer_result):
        """A failing commit order must fail identically from the trie."""
        import dataclasses

        from repro.lang.ast import Skip
        from repro.placement.target import ExplicitCCR, ExplicitMethod

        explicit = buffer_result.explicit
        methods = []
        for method in explicit.methods:
            ccrs = tuple(
                ExplicitCCR(ccr.guard, Skip(), ccr.label, ccr.notifications)
                if ccr.label == "take#0" else ccr
                for ccr in method.ccrs)
            methods.append(ExplicitMethod(method.name, method.params, ccrs))
        broken = dataclasses.replace(explicit, methods=tuple(methods))
        report = explore_explicit(broken, buffer_result.monitor,
                                  buffer_spec.workload(2, 1),
                                  strategy="random", budget=50, seed=0,
                                  minimize=False)
        assert not report.ok
        assert report.failures[0].kind == "state-divergence"


class TestParallel:
    def test_random_workers_report_the_same_first_failure(self, buffer_spec,
                                                          buffer_result):
        """--workers 4 and --workers 1 agree on the first failure."""
        mutant = buffer_result.explicit.without_notification("put#0", 0)
        coop_class = coop_class_for_explicit(mutant)
        programs = buffer_spec.workload(2, 2)
        campaigns = {
            workers: parallel_explore_class(
                buffer_result.monitor, coop_class, programs,
                strategy="random", budget=400, seed=7, workers=workers,
                benchmark="BoundedBuffer", discipline="mutant")
            for workers in (1, 4)
        }
        first = {w: r.failures[0] for w, r in campaigns.items()}
        assert first[1].kind == first[4].kind == "lost-wakeup"
        assert first[1].seed == first[4].seed
        assert first[1].schedule == first[4].schedule
        assert first[1].minimized == first[4].minimized
        assert campaigns[4].workers == 4

    def test_shared_store_shards_catch_mutant_bugs(self, buffer_spec,
                                                   buffer_result):
        mutant = buffer_result.explicit.without_notification("put#0", 0)
        coop_class = coop_class_for_explicit(mutant)
        programs = buffer_spec.workload(2, 2)
        result = parallel_explore_class(
            buffer_result.monitor, coop_class, programs, strategy="dfs",
            budget=5000, workers=2, benchmark="BoundedBuffer",
            discipline="mutant", stop_on_failure=False, minimize=False)
        assert not result.ok
        assert {f.kind for f in result.failures} == {"lost-wakeup"}

    def test_dfs_sharding_splits_the_budget(self):
        """--schedules caps judged schedules whatever the worker count."""
        spec = get_benchmark("Readers-Writers")
        monitor, coop_class = coop_monitor_and_class(spec, "expresso")
        programs = spec.workload(3, 3)
        sharded = parallel_explore_class(
            monitor, coop_class, programs, strategy="dfs", budget=10,
            minimize=False, workers=2, benchmark="Readers-Writers", por=False)
        assert sharded.budget_exhausted
        assert sharded.schedules_run <= 10

    def test_dfs_sharding_finds_mutant_bug(self, buffer_spec, buffer_result):
        mutant = buffer_result.explicit.without_notification("put#0", 0)
        coop_class = coop_class_for_explicit(mutant)
        programs = buffer_spec.workload(2, 2)
        result = parallel_explore_class(
            buffer_result.monitor, coop_class, programs, strategy="dfs",
            budget=5000, workers=2, benchmark="BoundedBuffer",
            discipline="mutant")
        assert not result.ok
        assert result.failures[0].kind == "lost-wakeup"

    def test_mutation_campaign_recomputes_matrices_per_mutant(self, monkeypatch):
        """Matrix entries may rest on notification-order proofs (the
        monotone-broadcast rule), so no parent matrix may reach a
        notification-deletion mutant: every entry a mutant's exploration
        proves is proven against that mutant."""
        import repro.analysis.commutativity as commutativity
        from repro.explore import dependence

        explorations = []   # (placement, entries it started with, proofs)
        real_init = dependence.Dependence.__init__
        real_proof = commutativity.methods_semantically_independent

        def recording_init(relation, coop_class, programs, semantic=True):
            explorations.append((coop_class._coop_explicit,
                                 getattr(coop_class, "_coop_semantic", None), []))
            real_init(relation, coop_class, programs, semantic)

        def recording_proof(method_a, method_b, shared_names, solver=None):
            explorations[-1][2].append((method_a, method_b))
            return real_proof(method_a, method_b, shared_names, solver)

        monkeypatch.setattr(dependence.Dependence, "__init__", recording_init)
        monkeypatch.setattr(commutativity, "methods_semantically_independent",
                            recording_proof)
        # Each Readers-Writers mutant's DPOR consults matrix entries at 2x2
        # (BoundedBuffer's workload never runs one method twice at once).
        spec = get_benchmark("Readers-Writers")
        report = mutation_campaign([spec], threads=2, ops=2, budget=2000,
                                   workers=1, minimize=False)
        assert report.ok
        sites = list(expresso_result(spec).explicit.notification_sites())
        assert len(explorations) == len(sites)
        for explicit, shipped, proofs in explorations:
            assert len(explicit.notification_sites()) == len(sites) - 1
            assert shipped is None
            assert proofs
            for pair in proofs:
                assert all(any(method is own for own in explicit.methods)
                           for method in pair)

    def test_mutation_campaign_catches_or_proves_benign(self, buffer_spec):
        report = mutation_campaign([buffer_spec], threads=3, ops=2,
                                   budget=5000, workers=2, minimize=False)
        assert report.ok
        assert len(report.mutants) == 2
        statuses = {tuple(m["site"]): m["status"] for m in report.mutants}
        assert statuses[("put#0", 0)] == "caught"
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["survived"] == 0

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP Findings: two puts at 3x2 never fill CAPACITY = 16, so a "
        "deleted notFull signal is judged benign; remove this mark once "
        "exploration reaches the guard boundary"))
    def test_a_deleted_not_full_signal_is_caught(self, buffer_spec):
        report = mutation_campaign([buffer_spec], threads=3, ops=2,
                                   budget=5000, workers=1, minimize=False)
        statuses = {tuple(m["site"]): m["status"] for m in report.mutants}
        assert statuses[("take#0", 0)] == "caught"

    def test_mutate_statuses_and_schedules_are_pinned(self, capsys):
        """16 caught, 17 benign, 0 survived; each mutant's status and judged
        schedule count are deterministic, so a change to the class a mutant
        is explored on, or to the relation it is reduced by, shows here."""
        rc = cli_main(["mutate", "--threads", "3", "--ops", "2",
                       "--workers", "1", "--json"])
        decoded = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert (decoded["caught"], decoded["benign"],
                decoded["survived"]) == (16, 17, 0)
        assert tuple((m["benchmark"], m["site"][0], m["site"][1], m["status"],
                      m["schedules_run"])
                     for m in decoded["mutants"]) == MUTATE_3X2_GOLDEN

    def test_store_worker_rebuild_matches_in_process(self, capsys, tmp_path,
                                                     monkeypatch):
        """A --store dfs explore runs each benchmark as a leased unit on a
        class rebuilt from its shipped source (``_rebuild_class``); its
        untimed results must equal the in-process run's for the whole
        suite."""
        from repro.explore import parallel

        rebuilt = []
        real = parallel._rebuild_class

        def counting(job):
            rebuilt.append(job["benchmark"])
            return real(job)

        monkeypatch.setattr(parallel, "_rebuild_class", counting)
        args = ["explore", "--strategy", "dfs", "--threads", "3",
                "--ops", "3", "--json"]
        documents = []
        for extra in ([], ["--store", str(tmp_path / "campaign.sqlite3")]):
            assert cli_main(args + extra) == 0
            document = json.loads(capsys.readouterr().out)
            for result in document["results"]:
                del result["elapsed_seconds"], result["schedules_per_second"]
            # The store run adds its dispatch counters; results must agree.
            documents.append((document["ok"], document["results"]))
        assert sorted(rebuilt) == sorted(ALL_BENCHMARKS)
        assert documents[1] == documents[0]


#: ``mutate --threads 3 --ops 2`` over the suite: per deleted notification,
#: (benchmark, CCR label, notification index, status, schedules_run).
MUTATE_3X2_GOLDEN = (
    ('BoundedBuffer', 'put#0', 0, 'caught', 2),
    ('BoundedBuffer', 'take#0', 0, 'benign', 4),
    ('H2O Barrier', 'hydrogen#0', 0, 'caught', 2),
    ('Sleeping Barber', 'customerArrives#0', 0, 'caught', 2),
    ('Sleeping Barber', 'cutHair#0', 0, 'caught', 1),
    ('Round Robin', 'takeTurn#0', 0, 'caught', 1),
    ('Ticketed Readers-Writers', 'enterReader#1', 0, 'caught', 2),
    ('Ticketed Readers-Writers', 'exitReader#0', 0, 'caught', 8),
    ('Ticketed Readers-Writers', 'exitWriter#0', 0, 'caught', 2),
    ('Ticketed Readers-Writers', 'exitWriter#0', 1, 'benign', 24),
    ('Parameterized Bounded Buffer', 'put#0', 0, 'benign', 4),
    ('Parameterized Bounded Buffer', 'put#0', 1, 'caught', 2),
    ('Parameterized Bounded Buffer', 'take#0', 0, 'benign', 4),
    ('Parameterized Bounded Buffer', 'take#0', 1, 'benign', 4),
    ('Dining Philosophers', 'putDown#0', 0, 'caught', 2),
    ('Readers-Writers', 'exitReader#0', 0, 'caught', 2),
    ('Readers-Writers', 'exitWriter#0', 0, 'caught', 8),
    ('Readers-Writers', 'exitWriter#0', 1, 'benign', 24),
    ('ConcurrencyThrottle', 'afterAccess#0', 0, 'benign', 4),
    ('PendingPostQueue', 'enqueue#0', 0, 'caught', 2),
    ('AsyncDispatch', 'dispatch#0', 0, 'benign', 5),
    ('AsyncDispatch', 'run#0', 0, 'benign', 6),
    ('AsyncDispatch', 'stop#0', 0, 'benign', 6),
    ('AsyncDispatch', 'stop#0', 1, 'benign', 6),
    ('SimpleBlockingDeployment', 'unblock#0', 0, 'caught', 5),
    ('SimpleDecoder', 'queueInputBuffer#0', 0, 'caught', 2),
    ('SimpleDecoder', 'decode#0', 0, 'caught', 1),
    ('SimpleDecoder', 'releaseOutputBuffer#0', 0, 'benign', 4),
    ('SimpleDecoder', 'release#0', 0, 'benign', 4),
    ('SimpleDecoder', 'release#0', 1, 'benign', 4),
    ('SimpleDecoder', 'release#0', 2, 'benign', 4),
    ('AsyncOperationExecutor', 'enqueueOperation#0', 0, 'benign', 4),
    ('AsyncOperationExecutor', 'completeOperation#0', 0, 'benign', 4),
)


class TestReplayCli:
    def test_replay_minimal_object(self, tmp_path, capsys):
        path = tmp_path / "replay.json"
        path.write_text(json.dumps({
            "benchmark": "BoundedBuffer", "discipline": "expresso",
            "threads": 2, "ops": 2, "schedule": [0, 1, 0, 1]}))
        rc = cli_main(["explore", "--replay", str(path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "BoundedBuffer/expresso" in out and "ok" in out

    def test_replay_full_json_document(self, tmp_path, capsys):
        rc = cli_main(["explore", "--benchmark", "BoundedBuffer",
                       "--strategy", "dfs", "--threads", "2", "--ops", "2",
                       "--schedules", "100", "--json"])
        document = capsys.readouterr().out
        assert rc == 0
        path = tmp_path / "explore.json"
        path.write_text(document)
        # A clean document carries no failures: complain, don't traceback.
        rc = cli_main(["explore", "--replay", str(path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "no schedules to replay" in err

    def test_replay_reports_malformed_files(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        rc = cli_main(["explore", "--replay", str(path)])
        assert rc == 2
        assert "cannot replay" in capsys.readouterr().err

    def test_recorded_ops_round_trips_through_workload(self, capsys):
        """`ops` must be the workload parameter (roles may emit several
        calls per op), or --replay would regenerate different programs."""
        rc = cli_main(["explore", "--benchmark", "Readers-Writers",
                       "--strategy", "dfs", "--threads", "3", "--ops", "2",
                       "--schedules", "2000", "--json"])
        decoded = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert decoded["results"][0]["ops"] == 2
        assert decoded["results"][0]["threads"] == 3

    def test_replay_json_output_mode(self, tmp_path, capsys):
        path = tmp_path / "replay.json"
        path.write_text(json.dumps({
            "benchmark": "BoundedBuffer", "threads": 2, "ops": 1,
            "schedule": []}))
        rc = cli_main(["explore", "--replay", str(path), "--json"])
        decoded = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert decoded["ok"] is True
        assert decoded["replays"][0]["benchmark"] == "BoundedBuffer"

    def test_replay_rejects_benchmark_combination(self, tmp_path, capsys):
        path = tmp_path / "replay.json"
        path.write_text("{}")
        rc = cli_main(["explore", "--replay", str(path),
                       "--benchmark", "BoundedBuffer"])
        assert rc == 2
        assert "cannot be combined with --benchmark" in capsys.readouterr().err


class TestExploreCliFlags:
    def test_no_por_flag_runs_plain_dfs(self, capsys):
        rc = cli_main(["explore", "--benchmark", "BoundedBuffer",
                       "--strategy", "dfs", "--threads", "2", "--ops", "2",
                       "--schedules", "500", "--reduction", "none", "--json"])
        decoded = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert decoded["results"][0]["exhausted"] is True

    def test_semantic_and_symmetry_flags(self, capsys):
        """--reduction syntactic reproduces the syntactic baseline; the
        default (full) run judges no more schedules than it."""
        args = ["explore", "--benchmark", "H2O Barrier", "--strategy", "dfs",
                "--threads", "3", "--ops", "3", "--schedules", "50000",
                "--json"]
        rc = cli_main(args)
        semantic = json.loads(capsys.readouterr().out)["results"][0]
        assert rc == 0
        rc = cli_main(args + ["--reduction", "syntactic"])
        syntactic = json.loads(capsys.readouterr().out)["results"][0]
        assert rc == 0
        assert semantic["exhausted"] and syntactic["exhausted"]
        assert semantic["schedules_run"] <= syntactic["schedules_run"]
        assert semantic["symmetry_skipped"] > 0
        assert syntactic["symmetry_skipped"] == 0

    def test_dfs_json_is_the_same_for_every_worker_count(self, capsys):
        """A benchmark's dfs exploration is one work unit: --workers 2
        reports what --workers 1 does, timing aside."""
        args = ["explore", "--benchmark", "BoundedBuffer",
                "--benchmark", "Readers-Writers", "--strategy", "dfs",
                "--threads", "3", "--ops", "2", "--json"]
        documents = {}
        for workers in ("1", "2"):
            assert cli_main(args + ["--workers", workers]) == 0
            documents[workers] = json.loads(capsys.readouterr().out)
            for result in documents[workers]["results"]:
                del result["elapsed_seconds"], result["schedules_per_second"]
        assert documents["2"] == documents["1"]

    def test_workers_flag_merges_counts(self, capsys):
        rc = cli_main(["explore", "--benchmark", "BoundedBuffer",
                       "--strategy", "random", "--schedules", "40",
                       "--threads", "2", "--ops", "2", "--workers", "2",
                       "--json"])
        decoded = json.loads(capsys.readouterr().out)
        assert rc == 0
        result = decoded["results"][0]
        assert result["schedules_run"] == 40
        assert result["workers"] == 2

    def test_mutate_cli_single_benchmark(self, capsys):
        rc = cli_main(["mutate", "--benchmark", "BoundedBuffer",
                       "--threads", "2", "--ops", "2", "--schedules", "2000",
                       "--workers", "1", "--json"])
        decoded = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert decoded["total"] == 2
        assert decoded["survived"] == 0


class TestStaticPrefilter:
    """The lint dataflow's independence tier must change query counts only —
    never a matrix entry, a placement, or an exploration verdict."""

    def test_matrices_identical_on_vs_off(self):
        from repro.analysis.commutativity import (
            semantic_independence_for_explicit,
            set_static_prefilter,
        )
        from repro.smt.cache import FormulaCache
        from repro.smt.solver import Solver

        solver_on = Solver(cache=FormulaCache())
        solver_off = Solver(cache=FormulaCache())
        for name in sorted(ALL_BENCHMARKS):
            explicit = expresso_result(get_benchmark(name)).explicit
            previous = set_static_prefilter(True)
            try:
                matrix_on = semantic_independence_for_explicit(explicit, solver_on)
                set_static_prefilter(False)
                matrix_off = semantic_independence_for_explicit(explicit, solver_off)
            finally:
                set_static_prefilter(previous)
            assert matrix_on == matrix_off, name
        stats_on = solver_on.snapshot_statistics()
        stats_off = solver_off.snapshot_statistics()
        assert stats_on["commute_static_skips"] > 0
        assert stats_off["commute_static_skips"] == 0
        # The skipped pairs translate into strictly fewer SMT queries.
        assert stats_on["validity_queries"] < stats_off["validity_queries"]

    def test_placement_unchanged_with_prefilter_off(self, buffer_spec,
                                                    buffer_result):
        from repro.analysis.commutativity import set_static_prefilter
        from repro.placement.pipeline import ExpressoPipeline

        previous = set_static_prefilter(False)
        try:
            off = ExpressoPipeline().compile(buffer_spec.monitor())
        finally:
            set_static_prefilter(previous)
        assert off.explicit == buffer_result.explicit
        assert off.solver_statistics.get("commute_static_skips", 0) == 0

    def test_exploration_verdicts_identical_on_vs_off(self, buffer_spec,
                                                      buffer_result):
        from repro.analysis.commutativity import set_static_prefilter

        site = buffer_result.explicit.notification_sites()[0]
        mutant = buffer_result.explicit.without_notification(*site)
        outcomes = {}
        for enabled in (True, False):
            previous = set_static_prefilter(enabled)
            try:
                clean = explore_explicit(buffer_result.explicit,
                                         buffer_result.monitor,
                                         buffer_spec.workload(2, 2),
                                         strategy="dfs", budget=5000)
                broken = explore_explicit(mutant, buffer_result.monitor,
                                          buffer_spec.workload(3, 2),
                                          strategy="dfs", budget=5000)
            finally:
                set_static_prefilter(previous)
            outcomes[enabled] = (clean.ok, clean.schedules_run, clean.exhausted,
                                 broken.ok, _verdict_kinds(broken),
                                 broken.schedules_run)
        assert outcomes[True] == outcomes[False]
        assert outcomes[True][0] and not outcomes[True][3]
