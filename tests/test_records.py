"""The result records: immutable, hashed as the tuple of their fields, and
printed in the ``Name(field=value, ...)`` form."""

import pytest

from edcert.catalogue import FamilyConstants, GroupSpec
from edcert.certifier import BoundReport, Certificate, ConditionReport
from edcert.comparison import CompareReport, PrimeEntry
from edcert.curvebounds import CastelnuovoInput
from edcert.errors import ValidationError
from edcert.permgroup import SylowReport
from edcert.rhoracle import GeneratingVector, OracleVerdict, Signature

SYLOW = SylowReport(2, 2, 4, "elementary_abelian", 2, ((1, 0, 3, 2), (2, 3, 0, 1)))
RECORDS = [
    GroupSpec("alternating", 5),
    FamilyConstants(min_proper_index=5, simple_nonabelian=True),
    ConditionReport("no_small_index", "certified", "computed", {"min_index": 5}),
    Certificate("A5", 4, "computed", (), "certified", {"order": 60}),
    BoundReport("A5", "computed", 4, 60, 3, 3, "no_small_genus_action", {}, {}),
    PrimeEntry(2, "p<=n", SYLOW, "klein_four_mobius", 4),
    CompareReport("A5", 4, (), 4, False, "certified", ()),
    CastelnuovoInput(2, 0, 3, 1),
    SYLOW,
    Signature(0, (2, 3, 7)),
    GeneratingVector((), ()),
    OracleVerdict("no", reason="none"),
]
# the form each record printed in when it was a frozen dataclass
PINNED_REPRS = {
    GroupSpec: "GroupSpec(kind='alternating', n=5, degree=None, cycles=())",
    Signature: "Signature(orbit_genus=0, periods=(2, 3, 7))",
}


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_record_is_frozen_hashed_and_printed_as_its_fields(record):
    fields = type(record).__match_args__
    values = tuple(getattr(record, f) for f in fields)
    with pytest.raises(AttributeError):
        setattr(record, fields[0], values[0])
    expected = f"{type(record).__name__}(" + ", ".join(f"{f}={v!r}" for f, v in zip(fields, values)) + ")"
    assert repr(record) == PINNED_REPRS.get(type(record), expected) == expected
    try:
        digest = hash(values)
    except TypeError:  # a dict field: the record is unhashable too
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == digest


def test_signature_sorts_any_sequence_of_periods_into_a_tuple():
    sig = Signature(0, [7, 3, 2])
    assert type(sig.periods) is tuple and sig.periods == (2, 3, 7)
    assert sig == Signature(0, (2, 3, 7)) and hash(sig) == hash(Signature(0, (2, 3, 7)))
    assert Signature(orbit_genus=1, periods=[2, 2]) == Signature(1, (2, 2))


def test_signature_replace_and_make_sort_the_periods():
    assert Signature(0, (3, 2))._replace(periods=(5, 2)).periods == (2, 5)
    assert Signature(0, (3, 2))._replace(orbit_genus=1) == Signature(1, (2, 3))
    made = Signature._make([0, (7, 3, 2)])
    assert type(made) is Signature and made.periods == (2, 3, 7)


def test_castelnuovo_replace_and_make_validate():
    with pytest.raises(ValidationError, match="map degrees"):
        CastelnuovoInput(1, 0, 1, 0)._replace(n1=0)
    with pytest.raises(ValidationError, match="map degrees"):
        CastelnuovoInput._make([0, 0, 1, 0])
    with pytest.raises(ValidationError, match="genera"):
        CastelnuovoInput(1, 0, 1, 0)._replace(g2=-1)
    assert CastelnuovoInput(1, 0, 1, 0)._replace(n2=3) == CastelnuovoInput(1, 0, 3, 0)
    assert type(CastelnuovoInput._make([2, 0, 3, 1])) is CastelnuovoInput
