"""Exact counting of standard Young tableaux of battery shapes.

A battery shape [lam, a, k] is a partition diagram with a column of a extra
cells stacked above its k-th column. The package counts tableaux of such
shapes (and of straight, skew, and truncated shapes) with arbitrary-precision
arithmetic, by several mutually checking routes: terminating hypergeometric
series, the pivot decomposition summed as one Hankel determinant, a
closed-form catalog, and a linear-extension dynamic program. A straight
shape's hook length count is checked by Frobenius's formula.

Importing the package loads none of its modules. Each exported name, and each
submodule, is imported on first access (PEP 562), so a program pays only for
the routes it uses.
"""

from importlib import import_module
from itertools import compress
from math import isqrt

__version__ = "0.1.0"

# submodule -> the names the package exports from it; each row is also that
# submodule's __all__
_EXPORTS = {
    "arith": ("Factorization", "FactorizationBudgetError", "factorize", "is_prime"),
    "counting": (
        "CLOSED_FORM_CASES", "COUNT_BY_COLUMN", "NonIntegerCountError", "closed_form",
        "count_general", "count_hyper", "match_closed_form", "rect_syt_count",
    ),
    "frobenius": ("syt_count_frobenius",),
    "hypergeom": (
        "NonTerminatingSeriesError", "ZeroDenominatorFactorError", "eval_multi_pfq", "eval_pfq",
        "termination_index",
    ),
    "oracle": (
        "conjugate_spans", "count_line_convex", "count_linear_extensions", "linear_extension_profile",
    ),
    "shapes": (
        "BatteryShape", "Partition", "SkewShape", "TruncatedShape", "as_partition",
        "conjugate", "hook_lengths", "rotated_complement", "syt_count_straight",
    ),
}
# exported name -> the submodule that defines it
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})


def _lazy(module: str, name: str):
    """A stand-in for the function ``name`` of submodule ``module`` that imports
    the module on its first call and from then on calls the function directly.

    A module binds a route this way so that importing it does not import the
    route; the stand-in stays the binding, so a caller that rebinds the name
    (as span tracing does) keeps its wrapper."""
    target = []

    def call(*args, **kwargs):
        if not target:
            target.append(getattr(import_module(f"{__name__}.{module}"), name))
        return target[0](*args, **kwargs)

    call.__name__ = name
    return call


def _integral(value) -> int:
    """``value`` as an int; ValueError when it is not a whole number (3.5), so a
    shape field or series parameter is never truncated. ``-2.0`` reads as -2."""
    whole = int(value)
    if whole != value:
        raise ValueError(f"expected an integer, got {value!r}")
    return whole


def _product(values: list[int]) -> int:
    """The product of ``values`` by a balanced tree of multiplications (Borwein 1985):
    a running product of many big factors takes time quadratic in their count."""
    while len(values) > 1:
        paired = [values[i] * values[i + 1] for i in range(0, len(values) - 1, 2)]
        if len(values) % 2:
            paired.append(values[-1])
        values = paired
    return values[0] if values else 1


def _primes(limit: int) -> list[int]:
    """The primes up to ``limit``, ascending, by the sieve of Eratosthenes: the
    package's one sieve. A ``limit`` past machine size raises ``OverflowError``
    before any table is built."""
    sieve = bytearray(limit + 1)
    sieve[2:] = b"\1" * (limit - 1)
    for p in range(2, isqrt(limit) + 1):  # a composite to the limit has a factor to its root
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, limit + 1, p)))
    return list(compress(range(limit + 1), sieve))


class Record:
    """Immutable value whose fields are its class's ``__slots__``, in order: the
    base of every record type in the package (factorizations and shapes).

    Equality (same class only), hashing and the ``Name(field=value, ...)``
    repr go by the field values, as for a frozen dataclass; assignment and
    deletion raise ``AttributeError``. ``__reduce__`` rebuilds an instance
    through its constructor, so a subclass's ``__init__`` takes the fields
    positionally in slot order and stores them with ``_set``. A record class
    is not subclassed to add fields. It stands in for ``dataclasses``, whose
    import (which pulls in ``inspect``) and per-class code generation would
    cost every CLI call about 25 ms.
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
