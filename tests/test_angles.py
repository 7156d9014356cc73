import math
from fractions import Fraction

import pytest

from buildctl.angles import Angle, parse_length, rationalize, units_close


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
    assert units_close(Fraction(1, 3), Fraction(1, 3))
    assert not units_close(Fraction(1, 3), Fraction(1, 4))
    assert units_close(Fraction(1, 3), 1 / 3 + 1e-12)


def test_parse_length():
    assert parse_length("pi/3") == Angle.exact(1, 3)
    assert parse_length("2pi/3") == Angle.exact(2, 3)
    assert parse_length("pi") == Angle.exact(1)
    assert parse_length("1/4") == Angle.exact(1, 4)
    assert parse_length("1.0").rad == 1.0
