import math
import tokenize
from fractions import Fraction
from pathlib import Path

import pytest

import oracles
from buildctl import angles
from buildctl.angles import (EPS_ANGLE, Angle, cmp_units, parse_length, rationalize,
                             units_close)


def test_rationalize_recognizes_small_denominators():
    for q in (1, 2, 3, 4, 6, 7, 90, 360):
        assert rationalize(math.pi / q) == Fraction(1, q)
    assert rationalize(2 * math.pi / 3) == Fraction(2, 3)


def test_rationalize_rejects_generic_values():
    assert rationalize(1.0) is None
    assert rationalize(math.acos(1 / math.sqrt(3))) is None


def test_rationalize_smallest_denominator_wins():
    assert rationalize(math.pi / 2) == Fraction(1, 2)
    assert rationalize(math.pi * 180 / 360) == Fraction(1, 2)


def test_rationalize_matches_the_plain_scan():
    fracs = sorted({Fraction(p, q) for q in range(1, angles.Q_MAX + 1)
                    for p in range(1, 2 * q + 1)})
    offsets = (-2, -0.5, 0.5, 2)
    values = [math.pi * f.numerator / f.denominator + k * EPS_ANGLE
              for f in fracs for k in offsets]
    expected = oracles.rationalize_loop(values)
    assert [rationalize(v) for v in values] == expected
    # both branches are covered: half an EPS_ANGLE off promotes, two do not
    for i, k in enumerate(offsets):
        got = expected[i::len(offsets)]
        assert got == (fracs if abs(k) < 1 else [None] * len(fracs))


def test_rationalize_matches_the_plain_scan_on_coxeter_corner_angles(monkeypatch):
    from buildctl.coxeter import CoxeterMatrix, coxeter_complex, named_matrix
    from buildctl.recognizer import check_spherical
    h3 = CoxeterMatrix(("s0", "s1", "s2"), ((1, 5, 2), (5, 1, 3), (2, 3, 1)))
    seen = []

    def recording(radians):
        seen.append(radians)
        return rationalize(radians)

    monkeypatch.setattr(angles, "rationalize", recording)
    for M in (named_matrix("A3"), named_matrix("B3"), h3):
        check_spherical(coxeter_complex(M).complex)
    values = sorted(set(seen))
    assert any(rationalize(v) is None for v in values)
    assert [rationalize(v) for v in values] == oracles.rationalize_loop(values)


def test_angle_exact_roundtrip():
    a = Angle.exact(1, 3)
    assert a.is_exact and a.radians == pytest.approx(math.pi / 3)
    assert Angle.from_json(a.to_json()) == a
    assert str(a) == "pi/3"
    assert str(Angle.exact(2, 3)) == "2pi/3"
    assert str(Angle.exact(1)) == "pi"


def test_angle_from_radians_promotes():
    assert Angle.from_radians(math.pi / 3).is_exact
    assert not Angle.from_radians(1.234).is_exact


def test_angle_equality_tolerance():
    a = Angle.exact(1, 2)
    b = Angle(rad=math.pi / 2 + 5e-10)
    assert a.equals(b)
    assert not a.equals(Angle(rad=math.pi / 2 + 5e-9))


def test_angle_validation():
    with pytest.raises(ValueError):
        Angle(frac=Fraction(0))
    with pytest.raises(ValueError):
        Angle(rad=-1.0)
    with pytest.raises(ValueError):
        Angle(frac=Fraction(1, 2), rad=1.0)


def _record_pairs():
    """(a, b, different) per immutable record type: a and b built apart
    with equal fields, and a record of that type with other fields."""
    from buildctl.coxeter import CoxeterMatrix, GroupElement, dihedral
    from buildctl.dim1 import Apartment, Diagnosis
    from buildctl.metric_graph import GraphPoint
    return {
        "Angle": (Angle.exact(1, 3), Angle(frac=Fraction(2, 6)), Angle(rad=math.pi / 3)),
        "GraphPoint": (GraphPoint(edge=2, t=Fraction(1, 4)),
                       GraphPoint(None, 2, Fraction(2, 8)), GraphPoint(vertex=2)),
        "CoxeterMatrix": (dihedral(3), CoxeterMatrix(("s", "t"), [[1, 3], [3, 1]]),
                          dihedral(4)),
        "Diagnosis": (Diagnosis("valence", {"vertex": "a"}),
                      Diagnosis("valence", {"vertex": "a"}, inner=None),
                      Diagnosis("valence", {"vertex": "b"})),
        "Apartment": (Apartment("cycle", edges=(0, 1), vertices=(0, 1)),
                      Apartment("cycle", (0, 1), (0, 1), ()), Apartment("sphere", cells=((0,),))),
        # compared by word alone, whatever the multiplication table
        "GroupElement": (GroupElement((0, 1), (2, 3)), GroupElement((0, 1), ()),
                         GroupElement((1, 0), (2, 3))),
    }


@pytest.mark.parametrize("kind", sorted(_record_pairs()))
def test_frozen_records_are_values(kind):
    """Records built apart from equal fields compare equal and hash equal (a
    Diagnosis, whose witness is a dict, is unhashable), differ from other
    values and from other types, and refuse assignment and deletion."""
    a, b, other = _record_pairs()[kind]
    assert a is not b and a == b and not a != b
    assert a != other and a != tuple(getattr(a, f) for f in type(a).__slots__)
    if kind == "Diagnosis":
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) and len({a, b, other}) == 2
    field = type(a).__slots__[0]
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(other, field))
    with pytest.raises(AttributeError):
        delattr(a, field)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == b


def test_angle_repr_names_its_fields():
    assert repr(Angle.exact(1, 3)) == "Angle(frac=Fraction(1, 3), rad=None)"
    assert repr(Angle(rad=1.5)) == "Angle(frac=None, rad=1.5)"
    assert repr([Angle.exact(2)]) == "[Angle(frac=Fraction(2, 1), rad=None)]"


@pytest.mark.parametrize("record", [{"pi": [1.5, 2]}, {"pi": [True, 3]}, {"pi": [1, 2.0]},
                                    {"pi": [1, 2, 3]}, {"pi": "1/2"}, {"rad": float("inf")},
                                    {"rad": float("nan")}, {"rad": True}, {"rad": "1.0"},
                                    {"rad": None}])
def test_angle_from_json_rejects_non_numbers(record):
    with pytest.raises(ValueError):
        Angle.from_json(record)


def test_angle_from_json_reads_integers_and_finite_numbers():
    assert Angle.from_json({"pi": [2, 6]}) == Angle.exact(1, 3)
    assert Angle.from_json({"rad": 1}) == Angle(rad=1.0)
    assert Angle.from_json({"rad": 0.5}) == Angle(rad=0.5)


def test_units_close_exact_vs_float():
    eps = EPS_ANGLE / math.pi     # the tolerance in pi units
    third, quarter = Fraction(1, 3), Fraction(1, 4)
    table = [
        # Fraction / Fraction: exact, however close
        (third, third, 0), (third, quarter, 1),
        (Fraction(2), Fraction(2) + Fraction(1, 10 ** 12), -1),
        # Fraction / float and float / float: equal within eps
        (third, 1 / 3 + 1e-12, 0),
        *((Fraction(k), k + 0.5 * eps, 0) for k in (1, 2)),
        *((Fraction(k), k - 0.5 * eps, 0) for k in (1, 2)),
        *((Fraction(k), k + 2 * eps, -1) for k in (1, 2)),
        *((Fraction(k), k - 2 * eps, 1) for k in (1, 2)),
        *((float(k) + 0.5 * eps, float(k), 0) for k in (1, 2)),
        *((float(k) - 0.5 * eps, float(k), 0) for k in (1, 2)),
        *((float(k) + 2 * eps, float(k), 1) for k in (1, 2)),
        *((float(k) - 2 * eps, float(k), -1) for k in (1, 2)),
        # an infinite length, as a systole of a tree reads
        (math.inf, Fraction(2), 1), (math.inf, 2.0, 1), (math.inf, math.inf, 0),
    ]
    for a, b, want in table:
        assert cmp_units(a, b) == want, (a, b)
        assert cmp_units(b, a) == -want, (b, a)
        assert units_close(a, b) == (want == 0), (a, b)


def test_tolerance_rule_lives_in_angles():
    """Only angles.py compares lengths with EPS_ANGLE; no other module of
    the package names it."""
    used = []
    for path in sorted(Path(angles.__file__).parent.glob("*.py")):
        if path.name == "angles.py":
            continue
        with path.open("rb") as fh:
            for tok in tokenize.tokenize(fh.readline):
                if tok.type == tokenize.NAME and tok.string == "EPS_ANGLE":
                    used.append((path.name, tok.line.strip()))
    assert used == []


def test_parse_length():
    assert parse_length("pi/3") == Angle.exact(1, 3)
    assert parse_length("2pi/3") == Angle.exact(2, 3)
    assert parse_length("pi") == Angle.exact(1)
    assert parse_length("1/4") == Angle.exact(1, 4)
    assert parse_length("1.0").rad == 1.0


def test_parse_length_rejects_non_finite():
    for text in ("inf", "-inf", "1e400", "nan", "0", "-1.0"):
        with pytest.raises(ValueError):
            parse_length(text)


@pytest.mark.parametrize("b", [1, 2, Fraction(1, 3), 0.7])
def test_units_band_agrees_with_cmp_units(b):
    """The band's ends and their neighbours classify as cmp_units does, and
    the ends are the last floats cmp_units calls equal to b."""
    lo, hi = oracles.units_band(b)
    assert lo < float(b) < hi
    assert (cmp_units(lo, b), cmp_units(hi, b)) == (0, 0)
    assert cmp_units(math.nextafter(lo, -math.inf), b) == -1
    assert cmp_units(math.nextafter(hi, math.inf), b) == 1
    for end in (lo, hi):
        for x in (end, math.nextafter(end, -math.inf), math.nextafter(end, math.inf)):
            assert (x > hi) - (x < lo) == cmp_units(x, b), x
    assert oracles.units_band(float(b)) == (lo, hi)
