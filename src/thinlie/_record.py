"""Plain record classes: the part of ``dataclasses`` this package uses.

Every CLI call is a fresh process, and importing ``dataclasses`` (which
pulls in ``inspect``, ``ast`` and ``dis``) cost more than the rest of
the package.  ``record`` turns a class with annotated fields into a
record of those fields, in order, and compiles no code to do it:

* ``__init__`` takes them as parameters, positional or keyword; a class
  attribute is the field's default.  A missing field, an unknown
  keyword, a field given twice and too many positionals raise
  ``TypeError``.  The fields are set in field order whatever the order
  of the keywords, so ``vars`` of a record lists them in that order.
  ``__post_init__`` runs last if the class has one, and an attribute it
  sets that is no field is not compared or shown;
* ``__eq__`` holds for records of the same class with equal fields;
* ``__repr__`` reads ``Name(field=value, ...)``;
* ``__hash__`` is None, so the record is unhashable, unless the class
  defines its own.

The three methods are closures over the field names, shared by every
instance of the class.
"""

from operator import attrgetter


def record(cls):
    """Make ``cls`` a record of its annotated fields; see the module docstring."""
    names = tuple(cls.__annotations__)
    n = len(names)
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    # the fields a keyword may name after i positionals, for i = 0, ..., n
    free = [frozenset(names[i:]) for i in range(n + 1)]
    post_init = hasattr(cls, "__post_init__")
    key = attrgetter(*names)

    def __init__(self, *args, **kwargs):
        if len(args) > n:
            raise TypeError(f"{cls.__qualname__}() takes {n} fields but {len(args)} were given")
        if not kwargs.keys() <= free[len(args)]:
            odd = ", ".join(sorted(kwargs.keys() - free[len(args)]))
            raise TypeError(f"{cls.__qualname__}() got an unknown or repeated field: {odd}")
        for name, value in zip(names, args):
            setattr(self, name, value)
        for name in names[len(args):]:
            if name in kwargs:
                setattr(self, name, kwargs[name])
            elif name in defaults:
                setattr(self, name, defaults[name])
            else:
                raise TypeError(f"{cls.__qualname__}() missing field {name!r}")
        if post_init:
            self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{self.__class__.__qualname__}({fields})"

    for fn in (__init__, __eq__, __repr__):
        fn.__qualname__ = f"{cls.__qualname__}.{fn.__name__}"
        setattr(cls, fn.__name__, fn)
    if cls.__dict__.get("__hash__") is None:
        cls.__hash__ = None
    return cls
