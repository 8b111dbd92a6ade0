"""The records of speclab are NamedTuples: read-only, hashed by their fields
(a Pattern excepted: its arrays are unhashable), printed as
`Name(field=value, ...)`, and their cached properties computed once."""

import os
import re
import subprocess
import sys

import pytest

import speclab
from speclab.boundary import CheckReport
from speclab.characters import RminVerdict
from speclab.fricke import FrickeError, FrickeVector, SurfaceRep, ValidityReport
from speclab.mobius import BoundaryPoint, Mat2
from speclab.spectrum import LengthSpectrum, Pattern
from speclab.surface_group import Presentation

# name -> (record, its field names, its repr, its cached properties)
RECORDS = {
    "Mat2": (
        Mat2(2, 1, 1, 1),
        ("a", "b", "c", "d"),
        "Mat2(a=2, b=1, c=1, d=1)",
        ("disk", "fixed"),
    ),
    "BoundaryPoint": (BoundaryPoint(0.5), ("theta",), "BoundaryPoint(theta=0.5)", ("u",)),
    "Presentation": (
        Presentation(1, 2),
        ("genus", "punctures"),
        "Presentation(genus=1, punctures=2)",
        (),
    ),
    "FrickeVector": (
        FrickeVector(1, 2, (0.5, 2.0, -1.0, 3.0)),
        ("genus", "punctures", "values"),
        "FrickeVector(genus=1, punctures=2, values=(0.5, 2.0, -1.0, 3.0))",
        (),
    ),
    "SurfaceRep": (
        SurfaceRep.free_rep((Mat2(1, 2, 0, 1), Mat2(1, 0, 2, 1))),
        ("presentation", "matrices"),
        "SurfaceRep(presentation=Presentation(genus=1, punctures=1), matrices=("
        "Mat2(a=1, b=2, c=0, d=1), Mat2(a=1, b=0, c=2, d=1), Mat2(a=-3, b=8, c=-8, d=21)))",
        ("validity",),
    ),
    "ValidityReport": (
        ValidityReport(0.0, True, False, None),
        ("relator_defect", "all_hyperbolic_or_parabolic", "punctures_parabolic",
         "discreteness_certificate"),
        "ValidityReport(relator_defect=0.0, all_hyperbolic_or_parabolic=True, "
        "punctures_parabolic=False, discreteness_certificate=None)",
        (),
    ),
    "RminVerdict": (RminVerdict("equal"), ("kind",), "RminVerdict(kind='equal')", ()),
    "LengthSpectrum": (
        LengthSpectrum((), (), (), "0123", True),
        ("classes", "traces", "lengths", "rep_digest", "exact"),
        "LengthSpectrum(classes=(), traces=(), lengths=(), rep_digest='0123', exact=True)",
        (),
    ),
    "Pattern": (
        Pattern.from_blocks(("x", "y"), [[1], [0]]),
        ("classes", "order", "ends"),
        "Pattern(classes=('x', 'y'), order=array('l', [1, 0]), ends=array('l', [1, 2]))",
        ("labels",),
    ),
    "CheckReport": (
        CheckReport("cocycle_identity", 3, 0.5, 1e-9),
        ("check", "samples", "max_defect", "tolerance"),
        "CheckReport(check='cocycle_identity', samples=3, max_defect=0.5, tolerance=1e-09)",
        (),
    ),
}

# name -> (a call that breaks the record's invariants, the error it raises)
INVALID = {
    "Presentation": (lambda: Presentation(-1, 5), ValueError, "need genus >= 0, got -1"),
    "FrickeVector": (
        lambda: FrickeVector(1, 1, (0.5, 0.0)),
        FrickeError,
        "puncture coordinates need g_j != 0",
    ),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_contract(name):
    rec, fields, text, cached = RECORDS[name]
    values = tuple(getattr(rec, f) for f in fields)
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(rec, f, None)
    assert repr(rec) == text
    # a record is also the tuple of its fields
    assert rec == values and tuple(rec) == values and rec[0] is values[0]
    assert list(rec._asdict()) == list(fields)
    if name == "Pattern":
        with pytest.raises(TypeError):
            hash(rec)
    else:
        assert hash(rec) == hash(values)
    for prop in cached:
        assert prop not in vars(rec)
        first = getattr(rec, prop)
        assert vars(rec)[prop] is first and getattr(rec, prop) is first
    if name in INVALID:
        make, error, message = INVALID[name]
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            make()


def test_mat2_has_no_sum_or_scalar_multiple():
    # a tuple's + and k * would give the 8-tuple or the repeated entries
    m = Mat2(1, 2, 3, 7)
    for combine in (lambda: m + m, lambda: 2 * m, lambda: (0,) + m, lambda: sum([m, m])):
        with pytest.raises(TypeError, match="^a Mat2 has no sum or scalar multiple"):
            combine()
    assert m * m == Mat2(7, 16, 24, 55) and -m == Mat2(-1, -2, -3, -7)
    assert tuple(m) + (0,) == (1, 2, 3, 7, 0)


def test_import_loads_neither_dataclasses_nor_fractions():
    # -S keeps site's imports out; speclab's directory is put on the path by hand
    src = os.path.dirname(os.path.dirname(speclab.__file__))
    code = (
        f"import sys; sys.path.insert(0, {src!r}); "
        "import speclab, speclab.cli; "
        "from speclab.fricke import schottky_sample; "
        "assert schottky_sample(1, 3).validity.discreteness_certificate is not None; "
        "print(*sorted({'dataclasses', 'fractions', 'decimal'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == ""
