"""The one base of the library's immutable value classes.

A record's fields are the annotations of its class, in order, after those
of the record classes it derives from; a class passes ``hidden`` to keep
some of them out of ``==``, ``hash`` and ``repr``.  Each class writes its
own constructor, which stores the fields with ``object.__setattr__``: the
base adds nothing to the cost of building a record, and defining a class
runs no code beyond reading its annotations.  Two records are equal
when they are of one class and their fields are equal; a record hashes as
the tuple of its fields and prints as ``Name(field=value, ...)``.
Assigning or deleting an attribute raises ``AttributeError``;
``functools.cached_property`` still fills the ``__dict__``.  Records
pickle and copy by their ``__dict__`` unless the class says otherwise.
Hash-consed classes (``Space``, ``SubProb``) compare and hash by identity
instead, and formula nodes (``logic``) walk their trees on an explicit
stack.
"""

from __future__ import annotations


class Record:
    """An immutable value with named fields."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, hidden: tuple[str, ...] = ()):
        super().__init_subclass__()
        own = cls.__dict__.get("__annotations__", {})
        cls._fields = (*cls._fields, *(name for name in own if name not in hidden))

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
