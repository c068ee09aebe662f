"""The value contract shared by every ecrank value type (curves.Value):
fields are fixed at construction, equality is by exact type and fields,
the hash is that of the field tuple, copy and pickle round-trip, the
repr is Name(field=value, ...) in field order, and _replace rebuilds
through the constructor with the named fields changed."""
import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from ecrank.curves import INFINITY, Curve, Point, Value
from ecrank.descent import class_is_nonzero, rank_ge2_certificate, rank_ge3_probe
from ecrank.errors import NotPrime
from ecrank.family import (
    CongruenceEvidence,
    FamilyParams,
    HypothesisReport,
    ObstructionVerdict,
    canonical_points,
)
from ecrank.records import SweepSpec
from ecrank.reduction import reduce_curve
from ecrank.torsion import RootVerdict, division_poly_has_integer_root, nagell_lutz_torsion

SRC = Path(__file__).resolve().parents[1] / "src"

# (34, 3, 5, 7) has a rank >= 3 probe hit at height 50, so one certificate
# holds an instance of nearly every type.
_CERT = rank_ge3_probe(rank_ge2_certificate(FamilyParams(34, 3, 5, 7)), 50, den_bound=1)
SAMPLES = [
    _CERT.points.base,
    _CERT.curve,
    reduce_curve(_CERT.curve, 11),
    division_poly_has_integer_root(_CERT.curve, 3),
    _CERT.torsion,
    _CERT.params,
    _CERT.hypotheses,
    _CERT.points,
    _CERT.class_base.congruence,
    _CERT.torsion.obstructions[1],
    _CERT.class_base,
    _CERT.probe_points[0],
    _CERT,
    SweepSpec((2, 34), (3, 5, 7), height_bound=50),
]
IDS = [type(v).__name__ for v in SAMPLES]

# One value of each sample's type that differs from it in every field.
_OTHER_PARAMS = FamilyParams(3, 11, 13, 17)
OTHERS = [
    Point(1, -2),
    Curve(-1, 0),
    reduce_curve(Curve(-1, 0), 2),
    RootVerdict(7, True, (1,)),
    nagell_lutz_torsion(Curve(-1, 0)),
    _OTHER_PARAMS,
    HypothesisReport(False, False, False, False),
    canonical_points(_OTHER_PARAMS),
    _CERT.class_shifted.congruence,
    ObstructionVerdict(2, "not_obstructed", "x = 1"),
    class_is_nonzero(_CERT.curve, INFINITY),
    _CERT.probe_points[1],
    rank_ge2_certificate(_OTHER_PARAMS, 3),
    SweepSpec((66,), (11, 13, 17), height_bound=7, num_reduction_primes=3, den_bound=1,
              probe=False, require_hypotheses=True, output_path="out.csv", output_format="csv"),
]


def fields(value):
    return tuple(getattr(value, name) for name in type(value).__slots__)


def test_samples_cover_every_value_type():
    assert sorted(IDS) == sorted(cls.__name__ for cls in Value.__subclasses__())
    assert len(IDS) == 14


@pytest.mark.parametrize("value", SAMPLES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(value):
    for name in type(value).__slots__:
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) is before
    with pytest.raises(AttributeError):
        value.extra = 0


@pytest.mark.parametrize("value", SAMPLES, ids=IDS)
def test_equal_fields_make_equal_values_with_the_tuple_hash(value):
    twin = type(value)(*fields(value))
    assert twin is not value
    assert twin == value and not twin != value
    assert hash(twin) == hash(value) == hash(fields(value))


@pytest.mark.parametrize("value", SAMPLES, ids=IDS)
def test_copy_deepcopy_and_pickle_round_trip(value):
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value)
        assert twin == value and fields(twin) == fields(value)


@pytest.mark.parametrize("value", SAMPLES, ids=IDS)
def test_repr_names_the_fields_in_order(value):
    if type(value) is Point:
        return
    inner = ", ".join(f"{name}={getattr(value, name)!r}" for name in type(value).__slots__)
    assert repr(value) == f"{type(value).__name__}({inner})"


def test_pinned_reprs():
    assert repr(FamilyParams(2, 3, 5, 7)) == "FamilyParams(m=2, p=3, q=5, r=7)"
    assert repr(Point(0, 231)) == "Point(0, 231)"
    assert repr(Point(Fraction(1, 4), Fraction(-3, 8))) == "Point(1/4, -3/8)"
    assert repr(Point(None, None)) == "Point(O)"
    assert repr(RootVerdict(3, False, ())) == "RootVerdict(order=3, has_integer_root=False, roots=())"


@pytest.mark.parametrize("value", SAMPLES, ids=IDS)
def test_replace_without_changes_is_an_equal_copy_and_refuses_unknown_names(value):
    twin = value._replace()
    assert type(twin) is type(value) and twin == value
    with pytest.raises(TypeError, match="no field 'extra'"):
        value._replace(extra=0)


@pytest.mark.parametrize("value, other", list(zip(SAMPLES, OTHERS)), ids=IDS)
def test_replace_changes_only_the_named_field(value, other):
    assert type(other) is type(value)
    before = fields(value)
    for i, name in enumerate(type(value).__slots__):
        new = getattr(other, name)
        assert new != before[i], name
        changed = value._replace(**{name: new})
        assert type(changed) is type(value)
        assert fields(changed) == before[:i] + (new,) + before[i + 1 :]
    changed = value._replace(**{name: getattr(other, name) for name in type(value).__slots__})
    assert changed == other and fields(value) == before


def test_replace_runs_the_constructor_checks_again():
    with pytest.raises(ValueError, match="both coordinates"):
        Point(0, 1)._replace(y=None)
    with pytest.raises(NotPrime):
        FamilyParams(2, 3, 5, 7)._replace(p=9)
    # the constructor's normalisation applies too
    assert type(Point(0, 1)._replace(x=3).x) is Fraction


def test_values_of_different_types_are_never_equal():
    for a in SAMPLES:
        for b in SAMPLES:
            assert (a == b) == (a is b), (type(a).__name__, type(b).__name__)
    # the same field tuple under three types
    same = (CongruenceEvidence("base", 3, "x"), ObstructionVerdict("base", 3, "x"),
            RootVerdict("base", 3, "x"))
    assert len({fields(v) for v in same}) == 1
    assert all((a == b) == (a is b) for a in same for b in same)
    pt = Point(1, 2)
    assert pt != (Fraction(1), Fraction(2)) and (Fraction(1), Fraction(2)) != pt
    assert pt != (1, 2)


def test_importing_the_cli_loads_no_code_generating_module():
    """No dataclasses, inspect or typing behind `import ecrank.cli`; -S keeps
    site's own imports out of the check."""
    code = (
        "import sys; import ecrank.cli; "
        "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    run = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert run.stdout.strip() == "[]"
