"""Immutable records, the value types of every layer.

A record class lists its fields in `__slots__`, in constructor order, and
the defaults of trailing ones in `_defaults`; a record that caches
properties adds "__dict__" to its slots, which is not a field.  `Record`
gives it what a frozen dataclass has: a constructor taking the fields by
position or keyword, then `__post_init__` (which may normalize a field with
`object.__setattr__`), equality with records of the same class only,
hashing of the field tuple, the repr `Point(q=2, m=1)`, assignment and
deletion that raise AttributeError, and copies and pickles rebuilt through
the constructor.  A record built in bulk may write its own `__init__`,
setting each field with `object.__setattr__`: the generic constructor
costs about 150 ns more per call.  Defining a record costs about 10 us,
where a dataclass builds six methods from source in about 350 us.
"""

from __future__ import annotations

from functools import wraps
from operator import attrgetter

__all__ = ["Record", "kept_per_argument"]


class Record:
    """Base of the immutable records; see the module docstring."""

    __slots__ = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(f for c in cls.__mro__[::-1] for f in vars(c).get("__slots__", ()) if f != "__dict__")
        # the slots' own setters, which assignment through __setattr__ cannot reach
        cls._setters = tuple(getattr(cls, f).__set__ for f in cls._fields)
        # the field tuple, a 1-tuple for one field
        get = attrgetter(*cls._fields) if cls._fields else (lambda self: ())
        cls._values = staticmethod(get if len(cls._fields) != 1 else lambda self: (get(self),))

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._setters):
            args = self._bind(args, kwargs)
        for set_field, value in zip(self._setters, args):
            set_field(self, value)
        self.__post_init__()

    def _bind(self, args, kwargs) -> list:
        """Every field's value from a call that names some or leaves defaults."""
        missing = object()
        values = [*args, *(kwargs.pop(f, self._defaults.get(f, missing)) for f in self._fields[len(args) :])]
        if kwargs or len(args) > len(self._fields) or any(v is missing for v in values):
            raise TypeError(f"{type(self).__name__}() takes ({', '.join(self._fields)}) with defaults {self._defaults}")
        return values

    def __post_init__(self):
        """Checks and normalizes the fields once they are set."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        pairs = (f"{field}={value!r}" for field, value in zip(self._fields, self._values(self)))
        return f"{type(self).__qualname__}({', '.join(pairs)})"

    def __reduce__(self):
        return type(self), self._values(self)


def kept_per_argument(compute):
    """The method `compute(self, x)` of a record with a `__dict__`, run once
    per x and then kept, as `functools.cached_property` keeps a property."""
    kept_as = "_kept_" + compute.__name__

    @wraps(compute)
    def read(self, x):
        kept = self.__dict__.setdefault(kept_as, {})
        if x not in kept:
            kept[x] = compute(self, x)
        return kept[x]

    return read
