"""``Record``: the immutable value base of every record type in the package.

Factorizations, series parameters, shapes, catalog cases and tableaux all
derive from it. It stands in for ``dataclasses``, whose import (which pulls in
``inspect``) and per-class code generation would cost every CLI call about
25 ms, and it lives in a module of its own so that each record module imports
it without importing any of the counting routes.
"""

__all__ = ["Record"]


class Record:
    """Immutable value whose fields are its class's ``__slots__``, in order.

    Equality (same class only), hashing and the ``Name(field=value, ...)``
    repr go by the field values, as for a frozen dataclass; assignment and
    deletion raise ``AttributeError``. ``__reduce__`` rebuilds an instance
    through its constructor, so a subclass's ``__init__`` takes the fields
    positionally in slot order and stores them with ``_set``. A record class
    is not subclassed to add fields.
    """

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()
