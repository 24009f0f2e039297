"""Value semantics of the package's record types: the behaviour of frozen
dataclasses (equality and hashing by value within one class, immutability,
the ``Name(field=value, ...)`` repr, keyword construction, pickling and
copying) without going through ``dataclasses``."""

import copy
import inspect
import pickle
from fractions import Fraction

import pytest

from battery_syt.arith import Factorization
from battery_syt.shapes import BatteryShape, SkewShape, TruncatedShape
from conftest import BatteryTableau, ContiguousDecomposition

# (record built from keyword arguments, the same fields positionally, its repr)
CASES = [
    (
        Factorization(factors=((2, 3), (5, 1))),
        (((2, 3), (5, 1)),),
        "Factorization(factors=((2, 3), (5, 1)))",
    ),
    (
        ContiguousDecomposition(
            coefficient1=Fraction(-1, 2),
            params1=((1, 2, 0), (2, 0)),
            coefficient2=Fraction(2),
            params2=((1, 2, -1), (2, -1)),
        ),
        (Fraction(-1, 2), ((1, 2, 0), (2, 0)), Fraction(2), ((1, 2, -1), (2, -1))),
        "ContiguousDecomposition(coefficient1=Fraction(-1, 2), "
        "params1=((1, 2, 0), (2, 0)), "
        "coefficient2=Fraction(2, 1), "
        "params2=((1, 2, -1), (2, -1)))",
    ),
    (SkewShape(outer=(3, 2)), ((3, 2), ()), "SkewShape(outer=(3, 2), inner=())"),
    (
        TruncatedShape(base=SkewShape((3, 3)), truncation=(1,)),
        (SkewShape((3, 3), ()), (1,)),
        "TruncatedShape(base=SkewShape(outer=(3, 3), inner=()), truncation=(1,))",
    ),
    (BatteryShape(lam=(3, 3), a=1, k=2), ((3, 3), 1, 2), "BatteryShape(lam=(3, 3), a=1, k=2)"),
    (
        BatteryTableau(battery=(3,), rows=((1, 4), (2, 5))),
        ((3,), ((1, 4), (2, 5))),
        "BatteryTableau(battery=(3,), rows=((1, 4), (2, 5)))",
    ),
]

IDS = [type(record).__name__ for record, _, _ in CASES]


@pytest.mark.parametrize("record, fields, text", CASES, ids=IDS)
def test_equality_and_hash_by_value(record, fields, text):
    cls = type(record)
    twin = cls(*fields)
    assert twin == record and not twin != record
    assert twin is not record
    assert hash(twin) == hash(record)
    assert {record: 1}[twin] == 1


@pytest.mark.parametrize("record, fields, text", CASES, ids=IDS)
def test_unequal_to_another_type_with_the_same_values(record, fields, text):
    lookalike = type(type(record).__name__, (type(record),), {})
    assert lookalike(*fields) != record
    assert record != lookalike(*fields)
    assert record != fields
    assert record != list(fields)


@pytest.mark.parametrize("record, fields, text", CASES, ids=IDS)
def test_assignment_and_deletion_raise(record, fields, text):
    for name in inspect.signature(type(record)).parameters:  # the fields, in order
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert type(record)(*fields) == record  # nothing changed


@pytest.mark.parametrize("record, fields, text", CASES, ids=IDS)
def test_repr_is_the_dataclass_form(record, fields, text):
    assert repr(record) == text


@pytest.mark.parametrize("record, fields, text", CASES, ids=IDS)
def test_pickle_and_copy_round_trips(record, fields, text):
    for clone in (
        pickle.loads(pickle.dumps(record)),
        copy.deepcopy(record),
        copy.copy(record),
    ):
        assert type(clone) is type(record)
        assert clone == record
        assert repr(clone) == text


def test_defaults():
    assert SkewShape((2,)).inner == ()


def test_construction_canonicalizes():
    assert BatteryShape([3, 3, 0], 1, 2).lam == (3, 3)
    assert BatteryShape([3, 3, 0], 1, 2) == BatteryShape((3, 3), 1, 2)
    skew = SkewShape([3, 2, 0], [1, 0])
    assert (skew.outer, skew.inner) == ((3, 2), (1,))
    assert TruncatedShape(SkewShape((3, 3)), [1, 0]).truncation == (1,)


def test_construction_still_validates():
    with pytest.raises(ValueError, match="no column 4"):
        BatteryShape((3,), 1, 4)
    with pytest.raises(ValueError, match="exceeds outer row"):
        SkewShape((1,), (2,))
    with pytest.raises(ValueError, match="not contiguous"):
        TruncatedShape(SkewShape((5, 3, 3)), (2, 2, 1))
    with pytest.raises(ValueError, match="not prime"):
        Factorization(((4, 1),))


def test_shapes_are_not_tuples():
    # the CLI tells a straight partition from every other shape by isinstance(shape, tuple)
    for record, _, _ in CASES:
        assert not isinstance(record, tuple)
