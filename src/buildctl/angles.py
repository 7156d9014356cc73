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
from dataclasses import dataclass
from fractions import Fraction
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
    than pi/360^2 ~ 2.4e-5, so EPS_ANGLE = 1e-9 is unambiguous.  The loop
    returns after q steps on a promotion but runs all Q_MAX steps on a value
    that does not rationalize.
    """
    if not math.isfinite(radians):
        return None
    x = radians / PI
    for q in range(1, Q_MAX + 1):
        p = round(x * q)
        if p == 0:
            continue
        if abs(radians - PI * p / q) <= EPS_ANGLE:
            return Fraction(p, q)
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


@dataclass(frozen=True)
class Angle:
    """An edge length / angle, exact (Fraction of pi) or approximate (radians)."""

    frac: Fraction | None = None
    rad: float | None = None

    def __post_init__(self):
        if (self.frac is None) == (self.rad is None):
            raise ValueError("Angle needs exactly one of frac, rad")
        if self.frac is not None and self.frac <= 0:
            raise ValueError(f"nonpositive exact angle {self.frac}")
        if self.rad is not None and not (self.rad > 0):
            raise ValueError(f"nonpositive angle {self.rad}")

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


def parse_length(text: str) -> Angle:
    """Parse CLI length syntax: 'pi', 'pi/3', '2pi/3', 'p/q' (pi units), or radians."""
    s = text.strip().lower().replace(" ", "")
    if "pi" in s:
        num, _, den = s.partition("pi")
        p = int(num) if num else 1
        q = int(den[1:]) if den.startswith("/") else 1
        return Angle.exact(p, q)
    if "/" in s:
        p, q = s.split("/")
        return Angle.exact(int(p), int(q))
    return Angle(rad=float(s))
