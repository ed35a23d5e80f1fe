"""The one base of the library's immutable value classes.

A record's fields are the annotations of its class, in order, after those
of the record classes it derives from.  ``_store`` stores values into the
fields in that order: a class that only holds its fields takes it as its
constructor (``__init__ = Record._store``), and one that checks or derives
them ends its constructor in it; ``_of`` stores fields already checked,
skipping the constructor.  The classes built per measure, per
measure set or per formula node store their fields one by one with
``object.__setattr__`` instead, which costs less than the generic loop;
defining a class runs no code beyond reading its annotations.  Two records
are equal when they are of one class and their fields are equal; a record
hashes as the tuple of its fields and prints as ``Name(field=value, ...)``.
Assigning or deleting an attribute raises ``AttributeError``;
``functools.cached_property`` still fills the ``__dict__``, as does a
constructor that sets an attribute outside the fields, which then takes no
part in ``==``, ``hash`` and ``repr``.  Records pickle and copy by their
``__dict__`` unless the class says otherwise.  Hash-consed classes
(``Space``, ``SubProb``) compare and hash by identity instead, and formula
nodes (``logic``) walk their trees on an explicit stack.
"""

from __future__ import annotations


class Record:
    """An immutable value with named fields."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._fields = (*cls._fields, *cls.__dict__.get("__annotations__", {}))

    def _store(self, *values) -> None:
        """Store ``values`` into the fields, in order."""
        fields = self._fields
        if len(values) != len(fields):
            raise TypeError(
                f"{type(self).__qualname__} takes {len(fields)} fields, got {len(values)}"
            )
        for name, value in zip(fields, values):
            object.__setattr__(self, name, value)

    @classmethod
    def _of(cls, *values):
        """A record from fields already checked, its constructor skipped."""
        record = object.__new__(cls)
        record._store(*values)
        return record

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
