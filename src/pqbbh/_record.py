"""Base of the package's frozen value records.

A record lists its fields in ``_fields`` and keeps them in ``__slots__``.
Its own ``__init__`` stores each argument with ``_set`` (assignment
through the instance raises) and then validates.  The methods below are
written by hand because generating them with the standard library imports
inspect, ast and dis, which cost a one-point command more start-up time
than all of its numerics.
"""

_set = object.__setattr__


class Record:
    """Frozen value: repr, ==, hash and pickle over the fields named in ``_fields``.

    Two records are equal only when they are of the same class and their
    field tuples are equal; the hash is the hash of the field tuple.
    Pickling and copying call the class again on the field values.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), self._values()
