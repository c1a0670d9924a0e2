"""One shared implementation of the frozen value types' methods.

Every public value type in raccess is declared as

    @frozen
    class Name(Frozen):
        field: type = default

``frozen`` applies ``dataclasses.dataclass(init=False, repr=False,
eq=False)``, so ``dataclasses.fields``, ``replace`` and ``asdict`` work
as on any dataclass, but it generates no method. The six methods that
``@dataclass(frozen=True)`` would build and ``exec`` for each class at
import (``__init__``, ``__repr__``, ``__eq__``, ``__hash__``,
``__setattr__`` and ``__delattr__``) are ``Frozen``'s, shared by every
type, and behave as the generated ones do: ``__init__`` binds positional
and keyword arguments to the fields in order, fills the defaults, raises
the TypeError a generated ``__init__`` would and then calls
``__post_init__``; ``==`` and ``hash`` compare the tuple of the fields
between objects of one class; ``repr`` is ``Name(field=value, ...)``; and
assigning or deleting an attribute raises ``FrozenInstanceError``.
``__post_init__`` sets normalized fields with ``object.__setattr__``, as
on a frozen dataclass. ``make`` builds an object from a dict of all its
fields without binding call arguments, for the config reader, which
builds three objects per channel.
"""

import dataclasses
import functools
from dataclasses import FrozenInstanceError
from reprlib import recursive_repr

__all__ = ["Frozen", "frozen", "make"]

# Fields are set past Frozen.__setattr__ into the object's own storage:
# filling a materialized __dict__ would be cheaper, but then CPython 3.11
# cannot specialize method calls on the object, which the design loop
# makes on channels, fade laws and curves every period.
_new = object.__new__
_set = object.__setattr__


class Frozen:
    """Base of the frozen value types; see the module docstring."""

    # (set of field names, whether the class has __post_init__, field
    # names in order, {name: default or None} in field order, number of
    # fields without a default), set by ``frozen``.
    _value_spec = (frozenset(), False, (), {}, 0)

    def __init__(self, *args, **kwargs):
        fields, post, _, _, _ = type(self)._value_spec
        # The common call names every field by keyword; any other is bound here.
        if args or kwargs.keys() != fields:
            kwargs = _bind(type(self), args, kwargs)
        for name, value in kwargs.items():
            _set(self, name, value)
        if post:
            self.__post_init__()

    @recursive_repr()
    def __repr__(self):
        items = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._value_spec[2])
        return f"{type(self).__qualname__}({items})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return _values(self) == _values(other)
        return NotImplemented

    def __hash__(self):
        return hash(_values(self))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


def _values(obj):
    """The tuple of ``obj``'s fields, which ``==`` and ``hash`` compare."""
    return tuple([getattr(obj, name) for name in obj._value_spec[2]])


def frozen(cls):
    """Make the ``Frozen`` subclass ``cls`` a dataclass that uses ``Frozen``'s methods."""
    cls = dataclasses.dataclass(init=False, repr=False, eq=False)(cls)
    fields = dataclasses.fields(cls)
    names = tuple(f.name for f in fields)
    defaults = {f.name: f.default for f in fields if f.default is not dataclasses.MISSING}
    cls._value_spec = (
        frozenset(names),
        hasattr(cls, "__post_init__"),
        names,
        {name: defaults.get(name) for name in names},
        len(names) - len(defaults),  # a field with a default comes last
    )
    return cls


def make(cls, values):
    """``cls(**values)`` for a dict ``values``, without binding call arguments.

    When ``values`` names every field, as a config reader that has
    checked its keys gives them, the object is filled from it directly
    and checked by its ``__post_init__``. That skips packing and binding
    the call's arguments, the part of ``Frozen.__init__`` that a
    generated ``__init__`` does not pay. Any other ``values`` go through
    ``cls(**values)``.
    """
    fields, post, _, _, _ = cls._value_spec
    if values.keys() != fields:
        return cls(**values)
    self = _new(cls)
    for name, value in values.items():
        _set(self, name, value)
    if post:
        self.__post_init__()
    return self


def _bind(cls, args, kwargs):
    """The fields' values in field order, from positional and keyword arguments and defaults."""
    _, _, names, template, n_required = cls._value_spec
    values = dict(template)
    values.update(zip(names, args))
    values.update(kwargs)
    if (
        len(values) != len(names)
        or len(args) > len(names)
        or not kwargs.keys().isdisjoint(names[: len(args)])
        or any(name not in kwargs for name in names[len(args) : n_required])
    ):
        _generated(cls)(*args, **kwargs)  # raises the TypeError a generated __init__ raises
    return values


@functools.cache
def _generated(cls):
    """A frozen dataclass with ``cls``'s name and fields and a generated ``__init__``.

    ``_bind`` calls it only with arguments it rejects, to raise this Python's own TypeError.
    """
    fields = dataclasses.fields(cls)
    fields = [(f.name, f.type, dataclasses.field(default=f.default)) for f in fields]
    return dataclasses.make_dataclass(cls.__qualname__, fields, frozen=True, repr=False, eq=False)
