"""Exact rational enclosures and certified decimal rendering.

Every truncated infinite product or series in this package is reported as an
Interval: an exact-rational [lo, hi] guaranteed to contain the true real
value. Decimal output is only ever emitted when both endpoints round to the
same string, so a printed table cell is a theorem, not floating-point luck.

Tail bounds never need transcendental arithmetic: log(1+x) <= x and
1/(1-x) <= 1 + 2x (for x <= 1/2) reduce everything to exp of a tiny rational,
bounded above by its truncated series plus a geometric remainder.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Union

from .errors import NeedsMorePrecision, NegativeOperand

_RatLike = Union[Fraction, int, str]


def _rat(v: _RatLike) -> Fraction:
    return v if isinstance(v, Fraction) else Fraction(v)


class Interval:
    """Exact enclosure [lo, hi] of a real value; immutable, equal and hashed by endpoints."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: _RatLike, hi: _RatLike):
        lo, hi = _rat(lo), _rat(hi)
        if lo > hi:
            raise ValueError(f"empty interval: {lo} > {hi}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.lo == other.lo and self.hi == other.hi

    def __hash__(self):
        return hash((self.lo, self.hi))

    def __repr__(self):
        return f"Interval(lo={self.lo!r}, hi={self.hi!r})"

    def __reduce__(self):
        return self.__class__, (self.lo, self.hi)

    @classmethod
    def point(cls, v: _RatLike) -> "Interval":
        v = _rat(v)
        return cls(v, v)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def __contains__(self, v) -> bool:
        v = _rat(v)
        return self.lo <= v <= self.hi

    def __add__(self, other: "Interval") -> "Interval":
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def __mul__(self, other: "Interval") -> "Interval":
        # endpoint shortcut: everything we multiply lives in [0, inf)
        if self.lo < 0 or other.lo < 0:
            raise NegativeOperand("interval multiplication requires non-negative operands")
        return Interval(self.lo * other.lo, self.hi * other.hi)

    def scale(self, r: _RatLike) -> "Interval":
        r = _rat(r)
        if r >= 0:
            return Interval(self.lo * r, self.hi * r)
        return Interval(self.hi * r, self.lo * r)


def round_half_away(x: Fraction, digits: int) -> Fraction:
    """x rounded to `digits` fractional digits, ties away from zero."""
    s = 10**digits
    num = x.numerator * s
    den = x.denominator
    q, r = divmod(abs(num), den)
    if 2 * r >= den:
        q += 1
    return Fraction(q if num >= 0 else -q, s)


def render_decimal(v, digits: int) -> str:
    """Render an Interval (or exact Fraction) with `digits` fractional digits.

    Valid only when both endpoints round identically; otherwise raises
    NeedsMorePrecision so the caller can deepen its truncation.
    """
    if digits < 1:
        raise ValueError("digits must be >= 1")
    if isinstance(v, Interval):
        lo, hi = v.lo, v.hi
    else:
        lo = hi = _rat(v)
    s = 10**digits
    a = round_half_away(lo, digits) * s
    b = round_half_away(hi, digits) * s
    if a != b:
        bits = [max(e.numerator.bit_length(), e.denominator.bit_length()) for e in (lo, hi)]
        raise NeedsMorePrecision(
            f"endpoints of {bits[0]} and {bits[1]} bits straddle a {digits}-digit rounding boundary"
        )
    n = int(a)
    sign = "-" if n < 0 else ""
    ip, fp = divmod(abs(n), s)
    return f"{sign}{ip}.{fp:0{digits}d}"


def exp_upper(x: Fraction) -> Fraction:
    """Rational upper bound on e^x for 0 <= x <= 1/2.

    The series through x^8 plus geometric remainder: the tail after it is at
    most x^9/9! * 1/(1-x), and 1/(1-x) <= 2 on the domain.
    """
    x = _rat(x)
    if x < 0 or x > Fraction(1, 2):
        raise ValueError(f"exp_upper domain is [0, 1/2], got {x}")
    total = Fraction(0)
    power = Fraction(1)
    for j in range(9):
        total += power / factorial(j)
        power *= x
    return total + 2 * power / factorial(9)
