"""Plain record classes: the part of ``dataclasses`` this package uses.

Every CLI call is a fresh process, and importing ``dataclasses`` (which
pulls in ``inspect``, ``ast`` and ``dis``) cost more than the rest of
the package.  ``record`` turns a class with annotated fields into a
record of those fields, in order:

* ``__init__`` takes them as parameters, positional or keyword, compiled
  once per class; a class attribute is the field's default.  A field
  whose default is ``cache()`` is a cache: it is no parameter, starts
  at None, and ``__eq__`` and ``__repr__`` skip it.
  ``__post_init__`` runs last if the class has one;
* ``__eq__`` holds for records of the same class with equal fields;
* ``__repr__`` reads ``Name(field=value, ...)``;
* ``__hash__`` is None, so the record is unhashable, unless the class
  defines its own.  With ``frozen=True`` assignment raises
  ``AttributeError`` and the hash is that of the fields' tuple.
"""

from operator import attrgetter


class cache:
    """Default of a cache field, which starts at None."""

    __slots__ = ()


def record(cls=None, *, frozen=False):
    """Make ``cls`` a record of its annotated fields; see the module docstring."""
    if cls is None:
        return lambda cls: record(cls, frozen=frozen)
    env = {}
    params, body, shown = ["self"], [], []
    for name in cls.__annotations__:
        default = cls.__dict__.get(name)
        if isinstance(default, cache):
            delattr(cls, name)
            value = "None"
        else:
            shown.append(name)
            value = name
            if name in cls.__dict__:
                env[f"_dflt_{name}"] = default
                params.append(f"{name}=_dflt_{name}")
            else:
                params.append(name)
        body.append(f"_self_dict[{name!r}] = {value}" if frozen else f"self.{name} = {value}")
    if frozen:
        body.insert(0, "_self_dict = self.__dict__")
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    exec(f"def __init__({', '.join(params)}):\n    " + "\n    ".join(body), env)
    key = attrgetter(*shown)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in shown)
        return f"{self.__class__.__qualname__}({fields})"

    methods = {"__init__": env["__init__"], "__eq__": __eq__, "__repr__": __repr__}
    if frozen:

        def __setattr__(self, name, value):
            raise AttributeError(f"cannot assign to field {name!r}")

        def __delattr__(self, name):
            raise AttributeError(f"cannot delete field {name!r}")

        methods.update(__setattr__=__setattr__, __delattr__=__delattr__)
    for name, fn in methods.items():
        fn.__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, fn)
    if cls.__dict__.get("__hash__") is None:
        cls.__hash__ = (lambda self: hash(key(self))) if frozen else None
    return cls
