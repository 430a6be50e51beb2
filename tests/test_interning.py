"""Hash-consed expression nodes: one node per structure, so ``==`` is ``is``.

Every construction path — the smart constructors of ``logic/build.py``,
direct constructor calls with defaults or keywords, ``dataclasses.replace``,
``rebuild`` and unpickling — must hand out the one interned node of a
structure.  These tests also pin the intern table's behaviour under threads
and its sweep of unreferenced nodes.
"""

import dataclasses
import gc
import multiprocessing
import pickle
import sys
import threading
import uuid
from concurrent.futures import ProcessPoolExecutor

import pytest
from hypothesis import given, settings, strategies as st

from repro.logic import build
from repro.logic import terms
from repro.logic.free_vars import free_vars, ordered_free_vars
from repro.logic.pretty import pretty
from repro.logic.terms import (
    BOOL,
    INT,
    BoolConst,
    Exists,
    Forall,
    IntConst,
    Le,
    Var,
    rebuild,
    walk,
)

# ---------------------------------------------------------------------------
# Recipes: plain-data descriptions of formulas, built through logic/build.py
# ---------------------------------------------------------------------------

_INT_LEAVES = st.one_of(st.sampled_from([("var", "x"), ("var", "y"), ("var", "z")]),
                        st.integers(-3, 3).map(lambda value: ("int", value)))
_INT_TERMS = st.recursive(
    _INT_LEAVES,
    lambda inner: st.one_of(
        st.tuples(st.just("add"), inner, inner),
        st.tuples(st.just("sub"), inner, inner),
        st.tuples(st.just("neg"), inner),
        st.tuples(st.just("scale"), st.integers(-2, 2), inner),
    ),
    max_leaves=4,
)
_ATOMS = st.one_of(
    st.tuples(st.sampled_from(["le", "lt", "eq", "ne", "ge", "gt"]), _INT_TERMS, _INT_TERMS),
    st.sampled_from([("bvar", "p"), ("bvar", "q"), ("bool", True), ("bool", False)]),
)
RECIPES = st.recursive(
    _ATOMS,
    lambda inner: st.one_of(
        st.tuples(st.just("not"), inner),
        st.tuples(st.sampled_from(["and", "or", "implies", "iff"]), inner, inner),
        st.tuples(st.just("ite"), inner, inner, inner),
        st.tuples(st.just("forall"), inner),
    ),
    max_leaves=8,
)

_BINARY = {"add": build.add, "sub": build.sub, "le": build.le, "lt": build.lt,
           "eq": build.eq, "ne": build.ne, "ge": build.ge, "gt": build.gt,
           "and": build.land, "or": build.lor, "implies": build.implies,
           "iff": build.iff}


def construct(recipe, prefix=""):
    """Build *recipe* through the smart constructors; *prefix* renames its
    variables, so a test can build structures no other test has built."""
    kind = recipe[0]
    if kind == "var":
        return build.v(prefix + recipe[1])
    if kind == "bvar":
        return build.bvar(prefix + recipe[1])
    if kind == "int":
        return build.i(recipe[1])
    if kind == "bool":
        return build.b(recipe[1])
    if kind == "neg":
        return build.neg(construct(recipe[1], prefix))
    if kind == "not":
        return build.lnot(construct(recipe[1], prefix))
    if kind == "scale":
        return build.mul(recipe[1], construct(recipe[2], prefix))
    if kind == "ite":
        return build.ite(*(construct(part, prefix) for part in recipe[1:]))
    if kind == "forall":
        return build.forall([build.v(prefix + "x")], construct(recipe[1], prefix))
    return _BINARY[kind](construct(recipe[1], prefix), construct(recipe[2], prefix))


def _reference_free_vars(expr, bound=frozenset()):
    """The walk ``free_vars`` made before nodes kept their free variables:
    pre-order, first occurrence, binders respected."""
    if isinstance(expr, Var):
        return [] if expr in bound else [expr]
    if isinstance(expr, (Forall, Exists)):
        return _reference_free_vars(expr.body, bound | set(expr.bound))
    found = []
    for child in expr.children():
        found += [var for var in _reference_free_vars(child, bound) if var not in found]
    return found


def _rebuild_in_worker(payload):
    """Spawned worker: is the unpickled node this process's own construction?"""
    recipe, received = payload
    own = construct(recipe)
    return received is own, own


@pytest.fixture(scope="module")
def spawned_pool():
    with ProcessPoolExecutor(max_workers=1,
                             mp_context=multiprocessing.get_context("spawn")) as pool:
        yield pool


class TestOneNodePerStructure:
    @given(RECIPES, RECIPES)
    def test_equal_structures_are_one_object(self, first, second):
        one, again, other = construct(first), construct(first), construct(second)
        assert one is again
        # ``repr`` renders the structure without relying on ``==``.
        assert (one is other) == (repr(one) == repr(other))
        # Every sub-node is interned too: rebuilding from the children
        # hands back the node itself.
        for node in walk(one):
            if node.children():
                assert rebuild(node, node.children()) is node

    @given(RECIPES)
    def test_pickle_and_replace_reintern(self, recipe):
        formula = construct(recipe)
        assert pickle.loads(pickle.dumps(formula)) is formula
        if formula.children() or isinstance(formula, Var):
            fields = {spec.name: getattr(formula, spec.name)
                      for spec in dataclasses.fields(formula)}
            assert dataclasses.replace(formula) is formula
            assert type(formula)(**fields) is formula

    @given(RECIPES)
    @settings(max_examples=25, deadline=None)
    def test_a_spawned_worker_reinterns_what_it_unpickles(self, spawned_pool, recipe):
        formula = construct(recipe)
        was_own, returned = spawned_pool.submit(_rebuild_in_worker, (recipe, formula)).result()
        assert was_own
        assert returned is formula

    def test_defaults_and_keywords_reach_the_same_node(self):
        assert Var("x") is Var("x", INT) is Var(name="x") is Var(var_sort=INT, name="x")
        assert Var("x", BOOL) is not Var("x")
        guard = Le(Var("x"), IntConst(3))
        assert dataclasses.replace(guard, right=IntConst(4)) is Le(Var("x"), IntConst(4))
        assert dataclasses.replace(guard, left=IntConst(0)).left is IntConst(0)
        with pytest.raises(TypeError):
            Var()
        with pytest.raises(TypeError):
            Var("x", INT, "extra")
        with pytest.raises(TypeError):
            Le(Var("x"), IntConst(3), other=IntConst(1))

    def test_nodes_and_sorts_hash_by_identity(self):
        # A Python-level ``__hash__`` would run on every set or dict probe.
        assert "__hash__" not in vars(terms.Expr)
        assert "_hash" not in terms.Expr.__slots__
        for cls in (Var, IntConst, BoolConst, Le, Forall, terms.And, terms.Sort):
            assert cls.__hash__ is object.__hash__

    def test_nodes_are_immutable(self):
        node = Le(Var("x"), IntConst(3))
        with pytest.raises(dataclasses.FrozenInstanceError):
            node.left = Var("y")

    @given(RECIPES)
    def test_per_node_facts_match_a_walk(self, recipe):
        formula = construct(recipe)
        assert list(ordered_free_vars(formula)) == _reference_free_vars(formula)
        assert free_vars(formula) == frozenset(_reference_free_vars(formula))
        assert terms.contains_quantifier(formula) == any(
            isinstance(node, (Forall, Exists)) for node in walk(formula))

    def test_cached_facts(self):
        x, y = build.v("x"), build.v("y")
        body = build.land(build.le(x, y), build.bvar("p"))
        assert free_vars(body) == {x, y, build.bvar("p")}
        quantified = build.forall([x], body)
        assert isinstance(quantified, Forall)
        assert free_vars(quantified) == {y, build.bvar("p")}
        assert terms.contains_quantifier(build.lor(quantified, build.bvar("q")))
        assert not terms.contains_quantifier(body)
        assert free_vars(x) == {x}


#: One recipe of each kind ``construct`` knows, at the top.
KIND_RECIPES = [
    ("le", ("var", "x"), ("int", 1)), ("lt", ("var", "x"), ("var", "y")),
    ("eq", ("add", ("var", "x"), ("int", 1)), ("var", "y")),
    ("ne", ("neg", ("var", "x")), ("int", 0)),
    ("ge", ("scale", 2, ("var", "x")), ("sub", ("var", "y"), ("int", 1))),
    ("gt", ("var", "z"), ("int", -3)),
    ("bvar", "p"), ("bool", True), ("bool", False),
    ("not", ("bvar", "p")), ("not", ("le", ("var", "x"), ("int", 1))),
    ("and", ("bvar", "p"), ("le", ("var", "x"), ("int", 1))),
    ("or", ("bvar", "p"), ("bvar", "q")),
    ("implies", ("bvar", "p"), ("bvar", "q")),
    ("iff", ("bvar", "p"), ("bvar", "q")),
    ("eq", ("bvar", "p"), ("bvar", "q")),
    ("ite", ("bvar", "p"), ("bvar", "q"), ("le", ("var", "x"), ("int", 1))),
    ("forall", ("le", ("var", "x"), ("var", "y"))),
]


class TestCachedNegation:
    """``build.lnot`` computes a node's negation once and then looks it up."""

    @staticmethod
    def _assert_cached_is_uncached(formula):
        terms._NEGATIONS.pop(formula, None)
        uncached = build._negate(formula)
        assert build.lnot(formula) is uncached
        assert terms._NEGATIONS[formula] is uncached
        assert build.lnot(formula) is uncached

    @pytest.mark.parametrize("recipe", KIND_RECIPES, ids=repr)
    def test_every_kind(self, recipe):
        self._assert_cached_is_uncached(construct(recipe))

    @given(RECIPES)
    def test_generated_formulas(self, recipe):
        self._assert_cached_is_uncached(construct(recipe))

    def test_python_constants(self):
        assert build.lnot(True) is build.FALSE
        assert build.lnot(False) is build.TRUE

    @given(st.sampled_from(["le", "lt", "eq", "ne", "ge", "gt"]), _INT_TERMS, _INT_TERMS)
    def test_an_integer_comparison_is_its_double_negation(self, kind, left, right):
        comparison = _BINARY[kind](construct(left), construct(right))
        assert build.lnot(build.lnot(comparison)) is comparison


class TestConstantsKeepTheirValue:
    """``IntConst(True) == IntConst(1)`` and ``BoolConst(1) == BoolConst(True)``
    as dataclasses; interned under one key, whichever was built first would
    decide what the node prints.  The constructor normalizes the value."""

    @pytest.mark.parametrize("cls, values, printed", [
        (IntConst, (True, 1), "1"),
        (IntConst, (False, 0), "0"),
        (BoolConst, (1, True), "true"),
        (BoolConst, (0, False), "false"),
    ])
    def test_value_does_not_depend_on_construction_order(self, monkeypatch, cls,
                                                         values, printed):
        for order in (values, values[::-1]):
            monkeypatch.setattr(terms, "_TABLE", {})  # a process that built nothing
            nodes = [cls(value) for value in order]
            assert nodes[0] is nodes[1]
            assert [pretty(node) for node in nodes] == [printed, printed]
            assert type(nodes[0].value) is type(values[1])

    def test_in_process(self):
        assert IntConst(True) is IntConst(1)
        assert BoolConst(1) is BoolConst(True) is build.TRUE
        assert BoolConst(0) is build.FALSE


class TestInternTable:
    def test_threads_get_one_object_per_structure(self):
        prefix = f"t{uuid.uuid4().hex[:8]}_"
        kept = _build_in_threads(_shapes(1000), prefix, keeps=lambda slot, round_: True)
        built = [formulas for _slot, _round, formulas in kept]
        assert len(built) == 8
        for index in range(1000):
            first = built[0][index]
            assert all(result[index] is first for result in built)
            for node in walk(first):
                assert terms._TABLE[(type(node), *_fields(node))] is node

    def test_sweeps_racing_with_lookups_keep_one_object(self, monkeypatch):
        # A small limit makes threads sweep while the others look up and
        # insert.  Each round builds new structures; some threads keep them,
        # the others build and drop them, so lookups keep taking nodes that
        # only the table referenced.  A kept node stays alive, so another
        # kept node of its structure is a duplicate.
        monkeypatch.setattr(terms, "_SWEEP_LIMIT", 300)
        monkeypatch.setattr(terms, "_sweep_at", 300)
        prefix = f"r{uuid.uuid4().hex[:8]}_"
        kept = _build_in_threads(_shapes(100), prefix, rounds=8,
                                 keeps=lambda slot, round_: (slot + round_) % 4 == 0)
        for round_index in range(8):
            built = [formulas for _slot, round_, formulas in kept if round_ == round_index]
            assert len(built) == 2
            for index in range(100):
                assert built[0][index] is built[1][index]

    def test_a_lookup_between_the_sweeps_check_and_its_deletion_keeps_its_node(
            self, monkeypatch):
        # Deterministic form of the race: another thread's lookup takes the
        # node after the sweep found only the table referencing it.
        prefix = f"l{uuid.uuid4().hex[:8]}_"
        recipe = ("le", ("var", "a"), ("int", 3))
        node = construct(recipe, prefix)
        target = (type(node), *_fields(node))
        del node
        grabbed = []

        class RacyTable(dict):
            def __delitem__(self, key):
                if key == target and not grabbed:
                    grabbed.append(construct(recipe, prefix))
                super().__delitem__(key)

        # The racy table takes the entries over, so the node has one
        # reference from a table; they go back when the test ends.
        original = terms._TABLE
        racy = RacyTable(original)
        original.clear()
        monkeypatch.setattr(terms, "_TABLE", racy)
        try:
            with terms._LOCK:
                terms._sweep()
            assert grabbed
            assert construct(recipe, prefix) is grabbed[0]
        finally:
            original.update(racy)

    def test_sweep_drops_unreferenced_nodes_and_keeps_live_ones(self, monkeypatch):
        prefix = f"s{uuid.uuid4().hex[:8]}_"
        kept = construct(("and", ("le", ("var", "a"), ("var", "b")), ("bvar", "p")), prefix)
        child_key = (type(kept.args[0]), *_fields(kept.args[0]))
        gc.collect()
        with terms._LOCK:
            terms._sweep()
        live = len(terms._TABLE)
        # A comparison and its negation that only the negation cache holds.
        negated = build.lnot(build.le(build.v(prefix + "negated"), 3))
        pair_keys = [(type(node), *_fields(node))
                     for node in (negated, build.lnot(negated))]
        del negated
        monkeypatch.setattr(terms, "_SWEEP_LIMIT", 1000)
        monkeypatch.setattr(terms, "_sweep_at", 1000)
        for index in range(20_000):
            build.le(build.v(f"{prefix}short{index}"), index)
        assert [key for key in pair_keys if key in terms._TABLE] == []
        # Without the sweep the table would hold 40,000 more nodes.
        assert len(terms._TABLE) <= max(1000, 2 * live) + 3
        assert construct(("and", ("le", ("var", "a"), ("var", "b")), ("bvar", "p")),
                         prefix) is kept
        # A child only the kept parent references survives with it.
        assert terms._TABLE[child_key] is kept.args[0]
        assert build.le(build.v(prefix + "short7"), 7) is build.le(build.v(prefix + "short7"), 7)


def _fields(node):
    return tuple(getattr(node, spec.name) for spec in dataclasses.fields(node))


def _shapes(count):
    return [("and", ("le", ("var", f"v{index}"), ("int", index % 5)),
             ("or", ("bvar", f"p{index % 7}"),
              ("not", ("lt", ("add", ("var", "x"), ("var", f"v{index}")), ("int", 1)))))
            for index in range(count)]


def _build_in_threads(shapes, prefix, keeps, threads=8, rounds=1):
    """Every thread builds each round's own copy of *shapes*: it keeps the
    list when ``keeps(thread, round)``, else it builds and drops each
    formula three times.  Returns the ``(thread, round, formulas)`` kept.  A
    short switch interval makes threads interleave inside constructions."""
    barrier = threading.Barrier(threads)
    kept = []

    def run(slot):
        barrier.wait()
        for round_index in range(rounds):
            tag = f"{prefix}{round_index}_"
            if keeps(slot, round_index):
                kept.append((slot, round_index, [construct(shape, tag) for shape in shapes]))
            else:
                for _ in range(3):
                    for shape in shapes:
                        construct(shape, tag)
            for index in range(100):  # garbage for the sweeps to drop
                build.le(build.v(f"{tag}{slot}_{index}"), index)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=run, args=(slot,)) for slot in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    return kept
