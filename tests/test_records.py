"""Every record class behaves as a standard ``@dataclass`` would.

The records (the classes with ``__dataclass_fields__``) are collected from
four runs: compiling the 14 suite monitors, one 3-thread x 2-op DPOR
exploration, one toy fuzz campaign and one saturation run per discipline.
While the runs go, every record class's ``__init__`` keeps the first
instances it builds; afterwards the run results and those instances are
walked for more records (expression nodes included).  Each instance then
has to match the dataclass rules, computed here from
``dataclasses.fields`` alone:

* ``repr`` is ``Name(f=v!r, ...)`` over the ``repr=True`` fields;
* ``==`` and ``hash`` follow the tuple of ``compare=True`` fields (a
  mutable record is unhashable; an ``eq=False`` one keeps identity);
* ``dataclasses.replace(x) == x``, and ``fields``/``asdict`` agree with it;
* ``pickle`` round-trips it;
* assigning or deleting a field of a frozen record raises
  ``FrozenInstanceError``, and a mutable record takes the assignment.

A method written in the class's own module (``Token.__repr__``, a
hand-written ``__init__``) is the class's choice and is not checked against
the rule it replaces.
"""

from __future__ import annotations

import dataclasses
import importlib
import pickle
import pkgutil
import sys
from collections import defaultdict

import pytest

import repro
from repro.benchmarks_lib import ALL_BENCHMARKS, get_benchmark

#: Instances kept per class, from construction and from the walk each.
PER_CLASS = 40
#: Classes whose hand-written ``__init__`` does not take every field, so
#: ``dataclasses.replace`` cannot rebuild them.
NOT_REPLACEABLE = {"FaultPlan"}
#: Classes that hold a lock and a predicate closure, which neither pickle
#: nor ``asdict``'s deep copy can take.
NOT_COPYABLE = {"_Waiter"}
#: Classes the four runs must reach: every class built often enough in a
#: pass to write its own ``__init__``, and a sample of the rest.
MUST_REACH = {
    "LinExpr", "Constraint", "SatResult", "Token", "CachedResult",
    "MonitorState", "RunResult", "MonitorMetrics", "OracleVerdict",
    "HoareTriple", "AbductionResult", "ExpressoResult", "ExplorationResult",
    "SaturationMeasurement", "FuzzCampaignResult", "Monitor", "Assign",
    "Var", "Le", "Notification",
}


def _import_everything():
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)


def _record_classes():
    classes = []
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")):
            continue
        for value in vars(module).values():
            if (isinstance(value, type) and value.__module__ == name
                    and "__dataclass_fields__" in vars(value)):
                classes.append(value)
    return classes


def _own(cls, name):
    """True when *cls* itself defines dunder *name* in its module's source."""
    function = vars(cls).get(name)
    code = getattr(function, "__code__", None)
    return code is not None and code.co_filename == sys.modules[cls.__module__].__file__


def _run_everything():
    """The four runs; returns their results."""
    from repro.explore.engine import explore_benchmark
    from repro.fuzz.campaign import FuzzConfig, run_campaign
    from repro.harness.saturation import run_saturation
    from repro.placement.pipeline import ExpressoPipeline

    results = []
    for name in sorted(ALL_BENCHMARKS):
        pipeline = ExpressoPipeline()
        results.append(pipeline.compile(get_benchmark(name).source))
        results.append(pipeline)
    results.append(explore_benchmark(
        get_benchmark("BoundedBuffer"), "expresso", threads=3, ops=2,
        strategy="dfs", budget=50_000, minimize=False, stop_on_failure=False))
    results.append(run_campaign(FuzzConfig(seed=6, budget=12, per_run_budget=6,
                                           batch_size=2, bootstrap=2, workers=1)))
    for discipline in ("expresso", "explicit", "autosynch"):
        results.append(run_saturation(get_benchmark("BoundedBuffer"), discipline,
                                      threads=2, ops_per_thread=40, seed=3))
    return results


def _spy(cls, kept):
    init = cls.__init__

    def __init__(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if type(self) is cls and len(kept[cls]) < PER_CLASS:
            kept[cls].append(self)

    return __init__


def _walk(roots, kept):
    """Add the records reachable from *roots* to *kept*, up to the cap."""
    seen = set()
    known = {id(value) for group in kept.values() for value in group}
    stack = list(roots)
    while stack:
        value = stack.pop()
        if id(value) in seen or isinstance(value, (str, bytes, int, float, type)):
            continue
        seen.add(id(value))
        cls = type(value)
        if "__dataclass_fields__" in vars(cls):
            if id(value) not in known and len(kept[cls]) < PER_CLASS:
                known.add(id(value))
                kept[cls].append(value)
            stack.extend(getattr(value, spec.name, None)
                         for spec in dataclasses.fields(value))
        elif isinstance(value, dict):
            stack.extend(value.keys())
            stack.extend(value.values())
        elif isinstance(value, (list, tuple, set, frozenset)):
            stack.extend(value)
        elif hasattr(value, "__dict__") and cls.__module__.startswith("repro"):
            stack.extend(vars(value).values())


@pytest.fixture(scope="module")
def instances():
    _import_everything()
    classes = _record_classes()
    kept = defaultdict(list)
    spied = [cls for cls in classes if cls.__init__ is not object.__init__]
    saved = {cls: vars(cls).get("__init__") for cls in spied}
    for cls in spied:
        cls.__init__ = _spy(cls, kept)
    try:
        results = _run_everything()
    finally:
        for cls, init in saved.items():
            if init is None:
                del cls.__init__
            else:
                cls.__init__ = init
    _walk(results + [x for group in list(kept.values()) for x in group], kept)
    return {cls: group for cls, group in kept.items() if group}


def _compare_tuple(value):
    return tuple(getattr(value, spec.name) for spec in dataclasses.fields(value)
                 if spec.compare)


def _outcome(thunk):
    try:
        return ("value", thunk())
    except Exception as exc:  # the kind of failure must match too
        return ("raises", type(exc))


def _each(instances):
    for cls, group in sorted(instances.items(), key=lambda item: item[0].__qualname__):
        for value in group:
            yield cls, value


def test_the_runs_reach_the_record_classes(instances):
    reached = {cls.__name__ for cls in instances}
    assert MUST_REACH <= reached, sorted(MUST_REACH - reached)
    assert len(instances) >= 60


def test_repr_is_the_dataclass_format(instances):
    for cls, value in _each(instances):
        if _own(cls, "__repr__"):
            continue
        shown = ", ".join(f"{spec.name}={getattr(value, spec.name)!r}"
                          for spec in dataclasses.fields(value) if spec.repr)
        assert repr(value) == f"{cls.__qualname__}({shown})", cls


def test_eq_and_hash_follow_the_compare_fields(instances):
    for cls, group in instances.items():
        params = cls.__dataclass_params__
        for index, value in enumerate(group):
            other = group[index - 1]
            if not params.eq:
                assert (value == other) is (value is other), cls
                assert hash(value) == object.__hash__(value), cls
                continue
            assert value.__eq__(object()) is NotImplemented, cls
            assert value == value, cls
            assert (value == other) == (_compare_tuple(value) == _compare_tuple(other)), cls
            assert (value != other) == (_compare_tuple(value) != _compare_tuple(other)), cls
            if params.frozen:
                assert _outcome(lambda: hash(value)) == _outcome(
                    lambda: hash(_compare_tuple(value))), cls
            elif not _own(cls, "__hash__"):
                assert cls.__hash__ is None, cls


def test_replace_fields_and_asdict_agree(instances):
    for cls, value in _each(instances):
        names = [spec.name for spec in dataclasses.fields(value)]
        assert names == [spec.name for spec in dataclasses.fields(cls)], cls
        assert dataclasses.is_dataclass(value) and dataclasses.is_dataclass(cls)
        if cls.__name__ in NOT_REPLACEABLE:
            continue
        copy = dataclasses.replace(value)
        assert type(copy) is cls
        assert copy == value or not cls.__dataclass_params__.eq, cls
        assert repr(copy) == repr(value), cls
        if cls.__name__ in NOT_COPYABLE:
            continue
        as_dict = dataclasses.asdict(value)
        assert list(as_dict) == names, cls
        assert dataclasses.asdict(copy) == as_dict, cls


def test_pickle_round_trips(instances):
    for cls, value in _each(instances):
        if cls.__name__ in NOT_COPYABLE:
            continue
        copy = pickle.loads(pickle.dumps(value))
        assert type(copy) is cls
        if cls.__dataclass_params__.eq:
            assert copy == value, cls
        else:  # a set field may print in another order after a round trip
            assert repr(copy) == repr(value), cls


def test_frozen_records_refuse_assignment(instances):
    for cls, value in _each(instances):
        if not dataclasses.fields(value):
            continue
        name = dataclasses.fields(value)[0].name
        current = getattr(value, name)
        if cls.__dataclass_params__.frozen:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, name, current)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(value, name)
            # A frozen dataclass with slots raises TypeError here.
            with pytest.raises((AttributeError, TypeError)):
                value.not_a_field = 1
            assert getattr(value, name) is current
        else:
            setattr(value, name, current)
            assert getattr(value, name) is current
