"""The base of the package's immutable value classes."""

from __future__ import annotations


class Frozen:
    """An immutable value.

    A subclass annotates its fields; ``fields`` lists them, a base class's
    first.  A plain record, a subclass that neither defines nor inherits an
    ``__init__``, gets one built from ``fields``: one parameter per field in
    this order, defaulting to the field's class-level value if it has one,
    passed on to ``_set``.  A class that checks its arguments writes its own
    ``__init__``, with the fields as its parameters in this order, and passes
    their values in this order to ``_set``, which sets as many fields as it
    is given values.  An object equals another of its own class with equal
    fields, hashes as the tuple of its fields (so a dict field makes it
    unhashable), shows as ``Class(field=value, ...)`` and refuses every
    assignment and deletion.  Pickling restores the ``__dict__`` without
    calling ``__init__``.
    """

    fields = ()  # not annotated: an annotation would make it a field

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.fields = tuple(dict.fromkeys(
            f for c in reversed(cls.__mro__) for f in vars(c).get("__annotations__", ())))
        if cls.__init__ is object.__init__:  # a plain record: its fields are its parameters
            params = ", ".join(f"{f}=_defaults[{f!r}]" if f in vars(cls) else f for f in cls.fields)
            scope = {"_defaults": vars(cls)}
            exec(f"def __init__(self, {params}):\n    self._set({', '.join(cls.fields)})", scope)
            cls.__init__ = scope["__init__"]
            cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def _set(self, *values) -> None:
        # not through ``self.__dict__``, which would cost every later attribute read
        for f, v in zip(self.fields, values):
            object.__setattr__(self, f, v)

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self.fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = ", ".join(f"{f}={v!r}" for f, v in zip(self.fields, self._values()))
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
