"""Plain record classes: the part of ``dataclasses`` this package uses.

Every CLI call is a fresh process, and importing ``dataclasses`` (which
pulls in ``inspect``, ``ast`` and ``dis``) cost more than the rest of
the package.  ``record`` turns a class with annotated fields into a
record of those fields, in order:

* ``__init__`` takes them as parameters, positional or keyword, compiled
  once per class; a class attribute is the field's default.
  ``__post_init__`` runs last if the class has one, and an attribute it
  sets that is no field is not compared or shown;
* ``__eq__`` holds for records of the same class with equal fields;
* ``__repr__`` reads ``Name(field=value, ...)``;
* ``__hash__`` is None, so the record is unhashable, unless the class
  defines its own.  With ``frozen=True`` assignment raises
  ``AttributeError`` and the hash is that of the fields' tuple.
"""

from operator import attrgetter


def record(cls=None, *, frozen=False):
    """Make ``cls`` a record of its annotated fields; see the module docstring."""
    if cls is None:
        return lambda cls: record(cls, frozen=frozen)
    env = {}
    params, body = ["self"], []
    names = list(cls.__annotations__)
    for name in names:
        if name in cls.__dict__:
            env[f"_dflt_{name}"] = cls.__dict__[name]
            params.append(f"{name}=_dflt_{name}")
        else:
            params.append(name)
        body.append(f"_self_dict[{name!r}] = {name}" if frozen else f"self.{name} = {name}")
    if frozen:
        body.insert(0, "_self_dict = self.__dict__")
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    exec(f"def __init__({', '.join(params)}):\n    " + "\n    ".join(body), env)
    key = attrgetter(*names)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
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
