"""Bases of the value and result classes: repr, read-only fields and field
equality from the parameters of each class's own `__init__`.

They stand in for frozen dataclasses: `dataclasses` imports `inspect`, `ast`
and `dis`, and compiles several methods for every class it decorates, about
20 ms of every fresh `laps` process.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    """A class whose fields are its `__init__` parameters, read-only after
    construction; compared and hashed by identity.

    `__init__` stores the fields in the instance `__dict__` (so a subclass may
    add `functools.cached_property` attributes). repr shows the first
    `_shown` fields, all of them by default.
    """

    __slots__ = ()
    _fields: tuple = ()
    _shown = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "__init__" in vars(cls):
            code = cls.__init__.__code__
            cls._fields = code.co_varnames[1:code.co_argcount]

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r of %s"
                             % (name, type(self).__name__))

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r of %s"
                             % (name, type(self).__name__))

    def __repr__(self) -> str:
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (name, self.__dict__[name])
            for name in self._fields[:self._shown]))


class Value(Record):
    """A Record equal to another of its class with the same shown fields,
    and hashed by the tuple of them."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        shown = cls._fields[:cls._shown]
        get = attrgetter(*shown)
        # One field still makes a 1-tuple: hashes stay hash(tuple of fields).
        cls._key = staticmethod(get if len(shown) > 1
                                else lambda value: (get(value),))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))
