import math
import tokenize
from fractions import Fraction
from pathlib import Path

import pytest

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
    """Only angles.py compares lengths with EPS_ANGLE; elsewhere it may only
    be imported, and metric_graph derives its diameter-scan slack from it."""
    used = []
    for path in sorted(Path(angles.__file__).parent.glob("*.py")):
        if path.name == "angles.py":
            continue
        with path.open("rb") as fh:
            for tok in tokenize.tokenize(fh.readline):
                if tok.type == tokenize.NAME and tok.string == "EPS_ANGLE":
                    used.append((path.name, tok.line.strip()))
    used = [u for u in used if not u[1].startswith("from .angles import")]
    assert used == [("metric_graph.py", "EPS_UNITS = EPS_ANGLE / math.pi")]


def test_parse_length():
    assert parse_length("pi/3") == Angle.exact(1, 3)
    assert parse_length("2pi/3") == Angle.exact(2, 3)
    assert parse_length("pi") == Angle.exact(1)
    assert parse_length("1/4") == Angle.exact(1, 4)
    assert parse_length("1.0").rad == 1.0
