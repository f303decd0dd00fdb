"""The value records: pickling, copying, repr, equality, hashing and immutability."""

import copy
import pickle
from fractions import Fraction

import pytest

from logcave._records import Record
from logcave.bodies import BodyApprox, BrunnMinkowskiResult, DegreeEstimate, MultiPolynomial
from logcave.concavity import ConcavityReport, SaturationRow, SquareComparison
from logcave.partitions import SemistandardTableau, SkewShape
from logcave.symfunc import MonomialExpansion, SchurExpansion
from logcave.toeplitz import FiniteSequence

# one record of each class, with the repr its dataclass gave
SAMPLES = [
    (SkewShape((3, 1), (1,)), "SkewShape(outer=(3, 1), inner=(1,))"),
    (
        SemistandardTableau(SkewShape((2, 1), ()), ((1, 1), (2,))),
        "SemistandardTableau(shape=SkewShape(outer=(2, 1), inner=()), rows=((1, 1), (2,)))",
    ),
    (
        MonomialExpansion(2, {(1,): 1, (1, 1): -2}),
        "MonomialExpansion(num_variables=2, terms={(1,): 1, (1, 1): -2})",
    ),
    (SchurExpansion({(2,): 1, (1, 1): -1}), "SchurExpansion(terms={(2,): 1, (1, 1): -1})"),
    (
        FiniteSequence({0: 1, 1: Fraction(1, 2)}),
        "FiniteSequence(support={0: Fraction(1, 1), 1: Fraction(1, 2)})",
    ),
    (
        MultiPolynomial(2, {(1, 0): 1, (0, 1): Fraction(-1, 2)}),
        "MultiPolynomial(dim=2, terms={(1, 0): Fraction(1, 1), (0, 1): Fraction(-1, 2)})",
    ),
    (
        ConcavityReport(3, [{"a": "1"}], {"bound": 2}),
        "ConcavityReport(checked=3, violations=[{'a': '1'}], params={'bound': 2}, workers=1)",
    ),
    (
        SquareComparison(True, 0, None, (2,), (), 2),
        "SquareComparison(passed=True, min_coeff=0, witness=None, mid_outer=(2,), "
        "mid_inner=(), num_variables=2)",
    ),
    (
        SaturationRow(2, 1, True, False),
        "SaturationRow(k=2, value=1, saturation_ok=True, power_bound_ok=False)",
    ),
    (
        BodyApprox(1, 1, [(0, 0), (1, 0)], [(0, 0), (1, 0)], [(1, 0, 0)], False, [2]),
        "BodyApprox(level=1, scale=1, points=[(0, 0), (1, 0)], hull=[(0, 0), (1, 0)], "
        "lattice=[(1, 0, 0)], stable=False, dims=[2])",
    ),
    (
        DegreeEstimate(Fraction(1, 2), [(1, 3, Fraction(0))], True, [3]),
        "DegreeEstimate(degree=Fraction(1, 2), residuals=[(1, 3, Fraction(0, 1))], "
        "stable=True, dims=[3])",
    ),
    (
        BrunnMinkowskiResult(True, 1, (Fraction(1), Fraction(1), Fraction(4)), (True, True, False)),
        "BrunnMinkowskiResult(passed=True, comparison_sign=1, volumes=(Fraction(1, 1), "
        "Fraction(1, 1), Fraction(4, 1)), degrees_stable=(True, True, False))",
    ),
]
RECORDS = [record for record, _ in SAMPLES]
FROZEN = (SkewShape, SemistandardTableau, MonomialExpansion, SchurExpansion, FiniteSequence, MultiPolynomial)
HASHABLE = (SkewShape, SemistandardTableau)


def _name(record):
    return type(record).__name__


def test_every_record_class_is_sampled():
    assert len({type(r) for r in RECORDS}) == len(RECORDS) == 12
    assert all(isinstance(r, Record) for r in RECORDS)


@pytest.mark.parametrize("record, text", SAMPLES, ids=_name)
def test_repr_is_the_dataclass_text(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("record", RECORDS, ids=_name)
@pytest.mark.parametrize(
    "clone",
    [
        lambda r: pickle.loads(pickle.dumps(r)),
        lambda r: pickle.loads(pickle.dumps(r, protocol=0)),
        copy.copy,
        copy.deepcopy,
    ],
    ids=["pickle", "pickle-protocol-0", "copy", "deepcopy"],
)
def test_pickle_and_copy_round_trip(record, clone):
    twin = clone(record)
    assert type(twin) is type(record)
    assert twin == record and not twin != record
    assert repr(twin) == repr(record)
    if isinstance(record, HASHABLE):
        assert hash(twin) == hash(record)


@pytest.mark.parametrize("record", RECORDS, ids=_name)
def test_deepcopy_shares_no_mutable_field(record):
    twin = copy.deepcopy(record)
    for name in type(record).__slots__:
        value = getattr(record, name)
        if isinstance(value, (dict, list)):
            assert getattr(twin, name) is not value


@pytest.mark.parametrize("record", RECORDS, ids=_name)
def test_equality_is_by_class_and_field_values(record):
    values = [getattr(record, name) for name in type(record).__slots__]
    assert record == type(record)(*values)
    assert record != tuple(values)
    assert record != object()
    others = [r for r in RECORDS if r is not record]
    assert all(record != other for other in others)


def test_equality_sees_each_field():
    shape = SkewShape((3, 1), (1,))
    assert shape == SkewShape([3, 1, 0], [1])
    assert shape != SkewShape((3, 1), ())
    assert shape != SkewShape((3, 2), (1,))
    report = ConcavityReport(3, [], {})
    assert report == ConcavityReport(3, [], {}, workers=1)
    assert report != ConcavityReport(3, [], {}, workers=2)


@pytest.mark.parametrize("record", RECORDS, ids=_name)
def test_hash_only_for_frozen_records_without_dicts(record):
    if isinstance(record, HASHABLE):
        values = tuple(getattr(record, name) for name in type(record).__slots__)
        assert hash(record) == hash(values)
        assert {record: 1}[copy.copy(record)] == 1
    else:
        with pytest.raises(TypeError):
            hash(record)


@pytest.mark.parametrize("record", RECORDS, ids=_name)
def test_frozen_records_refuse_assignment(record):
    name = type(record).__slots__[0]
    before = getattr(record, name)
    if isinstance(record, FROZEN):
        with pytest.raises(AttributeError):
            setattr(record, name, before)
        with pytest.raises(AttributeError):
            delattr(record, name)
        with pytest.raises(AttributeError):
            record.no_such_field = 1
        assert getattr(record, name) is before
    else:
        twin = copy.copy(record)
        setattr(twin, name, 0)
        assert getattr(twin, name) == 0 and twin != record
        with pytest.raises(AttributeError):
            twin.no_such_field = 1


def test_field_only_constructor():
    row = SaturationRow(k=2, value=1, power_bound_ok=False, saturation_ok=True)
    assert row == SaturationRow(2, 1, True, False)
    assert ConcavityReport(checked=0, violations=[], params={}).workers == 1
    with pytest.raises(TypeError):
        SaturationRow(2, 1, True)
    with pytest.raises(TypeError):
        SaturationRow(2, 1, True, False, None)
    with pytest.raises(TypeError):
        SaturationRow(2, 1, True, False, k=3)
    with pytest.raises(TypeError):
        SaturationRow(2, 1, True, False, rank=3)


def test_empty_defaults_are_not_shared():
    a, b = SchurExpansion(), SchurExpansion()
    assert a == b and a.terms == {} and a.terms is not b.terms
    assert MonomialExpansion(2).terms == {} and MonomialExpansion(2).terms is not MonomialExpansion(2).terms
    assert FiniteSequence() == FiniteSequence({})
    assert MultiPolynomial(2) == MultiPolynomial(2, {})

