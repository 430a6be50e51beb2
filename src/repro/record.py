"""Records: dataclass fields without generated code.

``@record`` and ``@record(frozen=True)`` stand in for ``@dataclass`` and
``@dataclass(frozen=True)``.  The standard library still decides the
fields, their defaults, ``field(...)`` options and ``ClassVar``s, so
``dataclasses.fields``, ``replace``, ``asdict`` and ``is_dataclass`` work on
every record.  But it is asked for no method: ``@dataclass`` writes each
method as source text and ``exec``s it, about 0.85 ms per class, which a
process paid again for every class it imported.  A record gets its
methods from the factories below instead, as closures over the class's
field names, with the rules of the methods ``@dataclass`` would write:

* ``__init__(self, f1, f2=default, ...)`` over the fields, calling
  a ``default_factory`` for an omitted field and then ``__post_init__``;
* ``__repr__`` as ``Name(f1=v1!r, ...)`` over the ``repr`` fields;
* ``__eq__`` over the tuple of ``compare`` fields of two instances of one
  class, and ``__hash__`` as that tuple's hash for a frozen record (a
  mutable one is unhashable);
* for a frozen record, ``__setattr__`` and ``__delattr__`` that raise
  ``FrozenInstanceError``.

A method the class body defines is kept, as ``@dataclass`` keeps it.  A
class built thousands of times per pass writes its own ``__init__``: a
closure ``__init__`` takes ``*args, **kwargs`` and sets the fields in a
loop, which costs 1.5 to 6 times a spelled-out one, the most when it
binds defaults or keywords.
``InitVar``, ``kw_only`` and ``init=False`` fields are not supported.
"""

from __future__ import annotations

import dataclasses
from _thread import get_ident
from dataclasses import MISSING, FrozenInstanceError
from operator import attrgetter
from typing import Any, Callable, Optional, Tuple, TypeVar, dataclass_transform

T = TypeVar("T", bound=type)


def declare_fields(cls: T, *, init: bool, eq: bool, frozen: bool,
                   slots: bool = False) -> T:
    """Make *cls* a dataclass that generated no method.

    ``__dataclass_params__`` then says what the caller provides: an
    ``__init__`` (*init*), a ``__repr__``, an ``__eq__`` (*eq*) and
    *frozen*-ness.  The standard library is told ``frozen=False``, and it
    refuses a non-frozen class under a frozen base, so a frozen base's
    params read non-frozen while it runs.
    """
    bases = [vars(base)["__dataclass_params__"] for base in cls.__mro__[1:]
             if "__dataclass_params__" in vars(base)]
    if bases and any(params.frozen != frozen for params in bases):
        raise TypeError(f"{cls.__name__}: a frozen dataclass and its dataclass "
                        "bases are all frozen or all mutable")
    for params in bases:
        params.frozen = False
    try:
        cls = dataclasses.dataclass(cls, init=False, repr=False, eq=False, slots=slots)
    finally:
        for params in bases:
            params.frozen = frozen
    params = cls.__dataclass_params__
    params.init, params.repr, params.eq, params.frozen = init, True, eq, frozen
    return cls


@dataclass_transform(field_specifiers=(dataclasses.field, dataclasses.Field))
def record(cls: Optional[T] = None, /, *, frozen: bool = False) -> Any:
    """Make *cls* a record; see the module docstring."""

    def wrap(cls: T) -> T:
        # Python sets ``__hash__ = None`` on a class body that defines
        # ``__eq__``; that is not an explicit hash.
        own_hash = vars(cls).get("__hash__", MISSING)
        explicit_hash = not (own_hash is MISSING
                             or (own_hash is None and "__eq__" in vars(cls)))
        cls = declare_fields(cls, init=True, eq=True, frozen=frozen)
        specs = dataclasses.fields(cls)
        if any(spec.kw_only or not spec.init for spec in specs):
            raise TypeError(f"{cls.__name__}: a record's fields are all init, none kw_only")
        compared = tuple(spec.name for spec in specs if spec.compare)
        for name, make in (("__init__", lambda: _init(cls, specs, frozen)),
                           ("__repr__", lambda: _repr(tuple(
                               spec.name for spec in specs if spec.repr))),
                           ("__eq__", lambda: _eq(compared))):
            if name not in vars(cls):
                _install(cls, name, make())
        if not explicit_hash:
            _install(cls, "__hash__", _hash(compared) if frozen else None)
        if frozen:
            for name, method in _frozen_guards(cls, {spec.name for spec in specs}):
                if name in vars(cls):
                    raise TypeError(f"Cannot overwrite attribute {name} "
                                    f"in class {cls.__name__}")
                _install(cls, name, method)
        return cls

    return wrap if cls is None else wrap(cls)


def _install(cls: type, name: str, method: Optional[Callable]) -> None:
    if method is not None:
        method.__qualname__ = f"{cls.__qualname__}.{name}"
    setattr(cls, name, method)


def _init(cls: type, specs: Tuple[dataclasses.Field, ...], frozen: bool) -> Callable:
    """``__init__``: all fields given positionally is the fast path;
    anything else is bound to the fields first."""
    names = tuple(spec.name for spec in specs)
    count = len(names)
    position = {name: index for index, name in enumerate(names)}
    defaults = [spec.default for spec in specs]
    factories = {index: spec.default_factory for index, spec in enumerate(specs)
                 if spec.default_factory is not MISSING}
    # The fields without a plain default: required ones, and those a
    # factory builds.
    needs = tuple(index for index, default in enumerate(defaults) if default is MISSING)
    assign = object.__setattr__ if frozen else setattr
    post_init = hasattr(cls, "__post_init__")

    def bind(args: tuple, kwargs: dict) -> list:
        given = len(args)
        if given > count:
            raise TypeError(f"__init__() takes {count + 1} positional arguments "
                            f"but {given + 1} were given")
        values = [*args, *defaults[given:]]
        for name, value in kwargs.items():
            index = position.get(name, -1)
            if index < 0:
                raise TypeError(f"__init__() got an unexpected keyword argument {name!r}")
            if index < given:
                raise TypeError(f"__init__() got multiple values for argument {name!r}")
            values[index] = value
        for index in needs:
            if values[index] is MISSING:
                if index not in factories:
                    raise TypeError(f"__init__() missing required argument: "
                                    f"{names[index]!r}")
                values[index] = factories[index]()
        return values

    def __init__(self: Any, *args: Any, **kwargs: Any) -> None:
        if kwargs or len(args) != count:
            args = bind(args, kwargs)
        for name, value in zip(names, args):
            assign(self, name, value)
        if post_init:
            self.__post_init__()

    return __init__


def _repr(names: Tuple[str, ...]) -> Callable:
    """``__repr__``; a record that contains itself prints ``...`` there."""
    running = set()

    def __repr__(self: Any) -> str:
        key = id(self), get_ident()
        if key in running:
            return "..."
        running.add(key)
        try:
            shown = ", ".join([f"{name}={getattr(self, name)!r}" for name in names])
        finally:
            running.discard(key)
        return f"{self.__class__.__qualname__}({shown})"

    return __repr__


def _eq(names: Tuple[str, ...]) -> Callable:
    """``__eq__``: ``attrgetter`` of two or more names builds the field
    tuple in C; one field compares as its one-tuple would (identity, then
    ``==``) without building it."""
    if len(names) == 1:
        get = attrgetter(names[0])

        def __eq__(self: Any, other: Any) -> Any:
            if other.__class__ is self.__class__:
                mine, theirs = get(self), get(other)
                return mine is theirs or bool(mine == theirs)
            return NotImplemented
    else:
        get = attrgetter(*names) if names else (lambda value: ())

        def __eq__(self: Any, other: Any) -> Any:
            if other.__class__ is self.__class__:
                return get(self) == get(other)
            return NotImplemented

    return __eq__


def _hash(names: Tuple[str, ...]) -> Callable:
    """``__hash__``: the hash of the compare-field tuple."""
    if len(names) == 1:
        get = attrgetter(names[0])

        def __hash__(self: Any) -> int:
            return hash((get(self),))
    else:
        get = attrgetter(*names) if names else (lambda value: ())

        def __hash__(self: Any) -> int:
            return hash(get(self))

    return __hash__


def _frozen_guards(cls: type, names: set) -> Tuple[Tuple[str, Callable], ...]:
    """``__setattr__``/``__delattr__`` of a frozen record: a field, or any
    name on an instance of *cls* itself, is refused."""

    def __setattr__(self: Any, name: str, value: Any) -> None:
        if type(self) is cls or name in names:
            raise FrozenInstanceError(f"cannot assign to field {name!r}")
        super(cls, self).__setattr__(name, value)

    def __delattr__(self: Any, name: str) -> None:
        if type(self) is cls or name in names:
            raise FrozenInstanceError(f"cannot delete field {name!r}")
        super(cls, self).__delattr__(name)

    return ("__setattr__", __setattr__), ("__delattr__", __delattr__)
