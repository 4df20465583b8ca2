"""Value semantics of the record classes, and the import cost they leave.

Every record is an immutable value: assigning or deleting a field raises
AttributeError, a copy rebuilt from its fields by keyword is equal and
hashes equal, and no object of another class is equal to it, not even a
tuple of the same values.  ``VerificationReport`` alone is mutable and
unhashable.  The classes are written out rather than generated by
``dataclasses``, so importing the CLI loads neither ``dataclasses`` nor
``inspect``.
"""

import pathlib
import subprocess
import sys

import pytest

from sejoin.bott import BottOrbifold, CohClass, c1_orb
from sejoin.catalog import Check, SERecord, VerificationReport, build_record, verify_paper_examples
from sejoin.join import JoinQuotient, JoinSpec, ReebRay
from sejoin.metric import CalabiData, CalabiProfile
from sejoin.topology import TorsionInvariant
from sejoin.ypq import YpqEinstein

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

# each class's fields, in constructor order
FIELDS = {
    YpqEinstein: ("p", "q", "v2_0", "v2_inf", "m2", "m2_0", "m2_inf", "a", "fano_index"),
    JoinSpec: ("ypq", "l1", "l2", "w1", "w2"),
    ReebRay: ("k", "ratio"),
    JoinQuotient: ("a", "b", "c", "m", "s", "m3", "n", "fano_index"),
    BottOrbifold: ("a", "b", "c", "m"),
    CohClass: ("basis", "coeffs", "abc"),
    TorsionInvariant: ("A", "B"),
    CalabiData: ("a", "m2_0", "m2_inf", "fano_index", "v3_0", "v3_inf", "m3", "n", "r3"),
    CalabiProfile: ("r3", "F"),
    SERecord: ("ypq", "w1", "w2", "l1", "l2", "ray", "smooth_witnesses", "torsion",
               "quotient", "profile", "error"),
    Check: ("name", "expected", "got"),
    VerificationReport: ("checks",),
}


def _instances():
    """(id, instance) pairs covering every record class: a quasi-regular
    and an irregular record with their parts, the quotient's Bott orbifold
    and c1, and the paper verification report with one of its checks."""
    regular = build_record(13, 8, k=2)
    irregular = build_record(13, 8, w=(5, 2))
    spec = JoinSpec(ypq=regular.ypq, l1=regular.l1, l2=regular.l2, w1=regular.w1, w2=regular.w2)
    orb = regular.quotient.bott()
    report = verify_paper_examples()
    return [
        ("record-k-2", regular),
        ("record-w-5-2", irregular),
        ("ypq", regular.ypq),
        ("spec", spec),
        ("ray-k-2", regular.ray),
        ("ray-w-5-2", irregular.ray),
        ("quotient", regular.quotient),
        ("bott", orb),
        ("c1-orb", c1_orb(orb)),
        ("torsion", regular.torsion),
        ("calabi-data", CalabiData.from_join(spec, regular.ray, regular.quotient)),
        ("profile", regular.profile),
        ("check", report.checks[0]),
        ("report", report),
    ]


INSTANCES = _instances()
FROZEN = [(i, obj) for i, obj in INSTANCES if not isinstance(obj, VerificationReport)]


def _values(obj):
    return tuple(getattr(obj, f) for f in FIELDS[type(obj)])


def _rebuilt(obj):
    return type(obj)(**{f: getattr(obj, f) for f in FIELDS[type(obj)]})


def test_every_record_class_is_covered():
    assert {type(obj) for _, obj in INSTANCES} == set(FIELDS)


@pytest.mark.parametrize("obj", [o for _, o in FROZEN], ids=[i for i, _ in FROZEN])
def test_fields_cannot_be_set_or_deleted(obj):
    for f in FIELDS[type(obj)]:
        value = getattr(obj, f)
        with pytest.raises(AttributeError):
            setattr(obj, f, value)
        with pytest.raises(AttributeError):
            delattr(obj, f)
        assert getattr(obj, f) is value
    with pytest.raises(AttributeError):
        obj.extra = 1


@pytest.mark.parametrize("obj", [o for _, o in FROZEN], ids=[i for i, _ in FROZEN])
def test_rebuilt_copy_is_equal_with_equal_hash(obj):
    copy = _rebuilt(obj)
    assert copy is not obj
    assert _values(copy) == _values(obj)
    assert copy == obj and not copy != obj
    assert hash(copy) == hash(obj)


@pytest.mark.parametrize("obj", [o for _, o in INSTANCES], ids=[i for i, _ in INSTANCES])
def test_never_equal_to_another_class(obj):
    values = _values(obj)
    assert obj != values and values != obj
    assert obj != list(values)
    assert obj.__eq__(values) is NotImplemented


def test_torsion_is_not_its_tuple():
    torsion = TorsionInvariant(4, 6)
    assert torsion != (4, 6) and (4, 6) != torsion
    assert TorsionInvariant(A=4, B=6) == torsion
    assert TorsionInvariant(6, 4) != torsion
    assert len({torsion, TorsionInvariant(4, 6), (4, 6)}) == 2


def test_classes_with_equal_fields_differ():
    # a BottOrbifold and a JoinQuotient share the field names a, b, c, m
    orb = build_record(13, 8, k=2).quotient.bott()
    assert orb != CohClass(basis="xxx", coeffs=(1, 1, 1), abc=orb.abc)
    assert BottOrbifold(a=orb.a, b=orb.b, c=orb.c, m=orb.m) == orb


def test_record_defaults():
    ypq = build_record(13, 8, k=2).ypq
    bare = SERecord(ypq=ypq, w1=5, w2=2, l1=12, l2=7)
    assert (bare.ray, bare.smooth_witnesses, bare.torsion, bare.quotient,
            bare.profile, bare.error) == (None, (), None, None, None, None)
    assert SERecord(ypq, 5, 2, 12, 7) == bare


def test_report_is_mutable_and_unhashable():
    report = verify_paper_examples()
    copy = _rebuilt(report)
    assert copy == report and copy != VerificationReport()
    assert VerificationReport() == VerificationReport(checks=[])
    with pytest.raises(TypeError):
        hash(report)
    copy.checks = []
    assert copy.checks == [] and copy != report
    copy.add("x", 1, 1)
    assert copy.checks == [Check("x", 1, 1)] and copy.passed


@pytest.mark.parametrize("obj", [o for _, o in INSTANCES], ids=[i for i, _ in INSTANCES])
def test_repr_names_every_field(obj):
    assert repr(obj) == "%s(%s)" % (type(obj).__name__, ", ".join(
        "%s=%r" % (f, getattr(obj, f)) for f in FIELDS[type(obj)]))


def test_pinned_repr():
    assert repr(build_record(13, 8, k=2).quotient) == (
        "JoinQuotient(a=70, b=78540, c=748, m=(1, 1, 91, 65, 255, 165), s=1, m3=15, "
        "n=748, fano_index=12)")
    assert repr(TorsionInvariant(4, 6)) == "TorsionInvariant(A=4, B=6)"


def test_cli_import_loads_no_dataclasses_or_inspect():
    # a fresh isolated interpreter, so no module another test loaded counts
    code = ("import sys; sys.path.insert(0, %r); import sejoin.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))" % str(SRC))
    out = subprocess.run([sys.executable, "-I", "-c", code],
                         capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"
