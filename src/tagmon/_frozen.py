"""One base for tagmon's immutable value classes.

Entities' terms, formula nodes, records and rules are plain immutable
values: fields listed as class annotations, positional or keyword
construction, equality and hashing by class and fields, and a
``Name(field=...)`` repr.  The standard ``dataclasses`` generator would give
the same, but it writes each class's methods as source text and ``exec``s it
at import time, and importing it pulls in ``inspect``, ``ast``, ``dis`` and
``tokenize``.  With dozens of such classes that was the largest part of
tagmon's import time, paid by every process.  Here the methods are written
once, no source is generated, and each class only gets its own ``__init__``
closure over its field names.
"""

from __future__ import annotations

_setattr = object.__setattr__


def _bind(cls, args, kwargs):
    """The field values of a call that is not one value per field in order,
    with defaults filled in; TypeError as a function call would raise."""
    name, fields = cls.__qualname__, cls._fields
    if len(args) > len(fields):
        raise TypeError(f"{name}() takes {len(fields)} positional arguments "
                        f"but {len(args)} were given")
    values = dict(zip(fields, args))
    for key in kwargs:
        if key not in fields or key in values:
            raise TypeError(f"{name}() got an unexpected or repeated "
                            f"argument {key!r}")
    values.update(kwargs)
    for field in fields:
        if field not in values:
            if field not in cls._defaults:
                raise TypeError(f"{name}() missing required argument "
                                f"{field!r}")
            values[field] = cls._defaults[field]
    return values


def _make_init(cls):
    fields, keys = cls._fields, frozenset(cls._fields)
    post = getattr(cls, "__post_init__", None)

    def __init__(self, *args, **kwargs):
        # kwargs is a dict of the call's own, so it can become __dict__
        if args:
            kwargs = (dict(zip(fields, args))
                      if len(args) == len(fields) and not kwargs
                      else _bind(cls, args, kwargs))
        elif kwargs.keys() != keys:
            kwargs = _bind(cls, args, kwargs)
        _setattr(self, "__dict__", kwargs)
        if post is not None:
            post(self)
    return __init__


class Frozen:
    """Base of an immutable value class whose fields are its annotations.

    A class attribute is a field's default, and ``__post_init__``, if
    defined, validates a new instance.  Fields named in the class keyword
    ``uncompared`` are left out of equality and hashing.
    """

    _fields = ()
    _defaults = {}

    def __init_subclass__(cls, uncompared=(), **kwargs):
        super().__init_subclass__(**kwargs)
        own = cls.__dict__.get("__annotations__", {})
        cls._fields = cls._fields + tuple(f for f in own
                                          if f not in cls._fields)
        cls._defaults = {**cls._defaults,
                         **{f: cls.__dict__[f] for f in own
                            if f in cls.__dict__}}
        cls._compared = tuple(f for f in cls._fields if f not in uncompared)
        cls.__init__ = _make_init(cls)

    def _key(self):
        return tuple(map(self.__dict__.__getitem__, self._compared))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{f}={self.__dict__[f]!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
