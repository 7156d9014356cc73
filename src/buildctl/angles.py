"""Angles and lengths: exact rational multiples of pi with a float fallback.

Every metric quantity in this package is an angle-like length.  Whenever a
value is an exact rational multiple of pi we keep the rational (a
``fractions.Fraction`` in units of pi), so that statements such as
"diameter equals pi" or "systole equals 2*pi" are decidable equalities.
Values that do not rationalize are carried as floats (radians) and compared
with tolerance ``EPS_ANGLE``; ``cmp_units`` is the one place that rule is
written.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from numbers import Rational
from typing import Union

# Tolerances (radians) and the rationalization table bound.
EPS_ANGLE = 1e-9
EPS_GRAM = 1e-9
Q_MAX = 360

# A length in units of pi: Fraction when exact, float otherwise.  Mixed
# arithmetic degrades to float automatically, which is the intended fallback.
PiUnits = Union[Fraction, float]

PI = math.pi


def rationalize(radians: float) -> Fraction | None:
    """Recognize ``radians`` as pi*p/q with q <= Q_MAX, or return None.

    Smallest q wins; distinct candidates with q <= 360 are separated by more
    than pi/360^2 ~ 2.4e-5, so EPS_ANGLE = 1e-9 is unambiguous.  Small
    denominators are tried directly (most promotions have q <= 12); after
    that the one candidate left is the closest fraction with q <= Q_MAX,
    which ``limit_denominator`` finds in a few steps, and it passes only the
    same EPS_ANGLE test.
    """
    if not math.isfinite(radians):
        return None
    x = radians / PI
    for q in range(1, 13):
        p = round(x * q)
        if p != 0 and abs(radians - PI * p / q) <= EPS_ANGLE:
            return Fraction(p, q)
    f = Fraction(x).limit_denominator(Q_MAX)
    if f != 0 and abs(radians - PI * f.numerator / f.denominator) <= EPS_ANGLE:
        return f
    return None


def cmp_units(a: PiUnits, b: PiUnits) -> int:
    """Compare two pi-unit lengths: -1, 0 or 1 as a <, =, > b.

    Exact when both are Fractions; when either is a float, values within
    EPS_ANGLE radians of each other are equal.
    """
    if isinstance(a, float) or isinstance(b, float):
        # numerator / denominator rounds as float(Fraction) does, at a third
        # of its cost; the float tests come first because isinstance(x,
        # Fraction) is an ABC check, slow when it fails
        x = a if isinstance(a, float) else a.numerator / a.denominator
        y = b if isinstance(b, float) else b.numerator / b.denominator
        if x == y or abs(x - y) * PI <= EPS_ANGLE:
            return 0
        return 1 if x > y else -1
    d = a.numerator * b.denominator - b.numerator * a.denominator
    return (d > 0) - (d < 0)


def kernel_units(values, factor: int = 1) -> tuple[int | None, tuple]:
    """(scale, units): pi-unit values as ints in units of pi/scale, scale
    ``factor`` times the lcm of their denominators, when all are rational;
    else floats, to be compared with ``cmp_units``, and scale None."""
    if all(isinstance(v, Rational) for v in values):
        scale = factor * math.lcm(*(v.denominator for v in values))
        return scale, tuple(v.numerator * (scale // v.denominator) for v in values)
    return None, tuple(float(v) for v in values)


class Frozen:
    """An immutable record.  Its fields are its ``__slots__``, set once in
    ``__init__`` through ``object.__setattr__``; records of one class with
    equal fields compare and hash equal, and assignment raises
    AttributeError."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Angle(Frozen):
    """An edge length / angle, exact (Fraction of pi) or approximate (radians)."""

    __slots__ = ("frac", "rad")

    def __init__(self, frac: Fraction | None = None, rad: float | None = None):
        if (frac is None) == (rad is None):
            raise ValueError("Angle needs exactly one of frac, rad")
        if frac is not None and frac <= 0:
            raise ValueError(f"nonpositive exact angle {frac}")
        if rad is not None and not (rad > 0):
            raise ValueError(f"nonpositive angle {rad}")
        object.__setattr__(self, "frac", frac)
        object.__setattr__(self, "rad", rad)

    def __repr__(self):
        return f"Angle(frac={self.frac!r}, rad={self.rad!r})"

    @staticmethod
    def exact(p: int, q: int = 1) -> "Angle":
        if q == 0:
            raise ValueError(f"angle pi*{p}/{q} has a zero denominator")
        return Angle(frac=Fraction(p, q))

    @staticmethod
    def of(value: PiUnits) -> "Angle":
        if isinstance(value, Fraction):
            return Angle(frac=value)
        return Angle(rad=float(value) * PI)

    @staticmethod
    def from_radians(radians: float) -> "Angle":
        """Build an Angle, promoting to exact when the value rationalizes."""
        f = rationalize(radians)
        if f is not None:
            return Angle(frac=f)
        return Angle(rad=radians)

    @property
    def is_exact(self) -> bool:
        return self.frac is not None

    @property
    def radians(self) -> float:
        if self.frac is not None:
            return float(self.frac) * PI
        return self.rad  # type: ignore[return-value]

    @property
    def pi_units(self) -> PiUnits:
        if self.frac is not None:
            return self.frac
        return self.rad / PI  # type: ignore[operator]

    def equals(self, other: "Angle") -> bool:
        return cmp_units(self.pi_units, other.pi_units) == 0

    def to_json(self) -> dict:
        if self.frac is not None:
            return {"pi": [self.frac.numerator, self.frac.denominator]}
        return {"rad": self.rad}

    @staticmethod
    def from_json(obj: dict) -> "Angle":
        """Read {"pi": [p, q]} (two JSON integers) or {"rad": x} (a finite
        JSON number); anything else, bools included, raises ValueError."""
        if "pi" in obj:
            pq = obj["pi"]
            if not (isinstance(pq, list) and len(pq) == 2
                    and all(type(v) is int for v in pq)):
                raise ValueError(f"angle record {obj!r}: pi must be two integers [p, q]")
            return Angle.exact(*pq)
        if "rad" in obj:
            x = obj["rad"]
            if type(x) not in (int, float) or not math.isfinite(x):
                raise ValueError(f"angle record {obj!r}: rad must be a finite number")
            return Angle(rad=float(x))
        raise ValueError(f"bad angle record {obj!r}")

    def __str__(self):
        if self.frac is not None:
            p, q = self.frac.numerator, self.frac.denominator
            num = "pi" if p == 1 else f"{p}pi"
            return num if q == 1 else f"{num}/{q}"
        return f"{self.rad!r}rad"


def units_close(a: PiUnits, b: PiUnits) -> bool:
    """Equality of two pi-unit lengths under ``cmp_units``."""
    return cmp_units(a, b) == 0


_LENGTH = r"(\d*)pi(?:/(\d+))?|(\d+)/(\d+)|([+-]?(?:\d+\.?\d*|\.\d+)(?:e[+-]?\d+)?)"


def parse_length(text: str) -> Angle:
    """Parse CLI length syntax, spaces ignored: 'pi', 'p pi', 'pi/q',
    'p pi/q', 'p/q' (pi units), or finite radians; anything else raises
    ValueError naming the text."""
    match = re.fullmatch(_LENGTH, text.strip().lower().replace(" ", ""))
    try:
        if match is None:
            raise ValueError("expected pi, p pi, pi/q, p pi/q, p/q or radians")
        p, q, num, den, rad = match.groups()
        if rad is not None:
            if not math.isfinite(float(rad)):
                raise ValueError("not finite")
            return Angle(rad=float(rad))
        if num is not None:
            return Angle.exact(int(num), int(den))
        return Angle.exact(int(p or 1), int(q or 1))
    except ValueError as exc:
        raise ValueError(f"bad length {text!r}: {exc}") from None
