"""Exact rational enclosures and certified decimal rendering.

Every truncated infinite product or series in this package is reported as an
Interval: an exact-rational [lo, hi] guaranteed to contain the true real
value. Decimal output is only ever emitted when both endpoints round to the
same string, so a printed table cell is a theorem, not floating-point luck.

Tail bounds never need transcendental arithmetic: log(1+x) <= x and
1/(1-x) <= 1 + 2x (for x <= 1/2) reduce everything to exp of a tiny rational,
bounded above by its truncated series plus a geometric remainder.

The arithmetic runs on unreduced integer pairs (numerator, denominator > 0):
an Interval holds four ints and `render_decimal` rounds each endpoint with
one integer division, so certifying a value takes no gcd. `fractions` is
imported only where a Fraction is handed out: `Interval.lo`, `.hi` and
`.width`, `round_half_away`, `exp_upper` and the module name `Fraction`.
`density` calls the int cores `_exp_upper` and `_ratio_text`.
"""

from __future__ import annotations

from math import gcd
from typing import TYPE_CHECKING, Union

from .errors import NeedsMorePrecision, NegativeOperand

if TYPE_CHECKING:
    from fractions import Fraction

_RatLike = Union["Fraction", int, str]


def _fraction(*args) -> Fraction:
    """Fraction(*args); `fractions` is imported here, on the first call."""
    from fractions import Fraction

    return Fraction(*args)


def _pair(v: _RatLike) -> tuple:
    """(numerator, denominator > 0) of an int, a Fraction or any other rational, or of
    what Fraction(v) makes of a str or float."""
    if type(v) is int:
        return v, 1
    if not hasattr(v, "denominator"):
        v = _fraction(v)
    return v.numerator, v.denominator


def _reduced(n: int, d: int) -> tuple:
    """n/d in lowest terms."""
    g = gcd(n, d)
    return n // g, d // g


def _ratio_text(n: int, d: int) -> str:
    """n/d in lowest terms, as str(Fraction(n, d)) writes it: `n/d`, or `n` when d is 1."""
    n, d = _reduced(n, d)
    return str(n) if d == 1 else f"{n}/{d}"


class Interval:
    """Exact enclosure [lo, hi] of a real value; immutable, equal and hashed by endpoints."""

    __slots__ = ("_ln", "_ld", "_hn", "_hd")

    def __init__(self, lo: _RatLike, hi: _RatLike):
        ln, ld = _pair(lo)
        hn, hd = _pair(hi)
        if ln * hd > hn * ld:
            raise ValueError(f"empty interval: {_ratio_text(ln, ld)} > {_ratio_text(hn, hd)}")
        for name, value in zip(self.__slots__, (ln, ld, hn, hd)):
            object.__setattr__(self, name, value)

    @classmethod
    def _of(cls, ln: int, ld: int, hn: int, hd: int) -> "Interval":
        """[ln/ld, hn/hd] from the ints as they are: denominators > 0 and ln/ld <= hn/hd, unchecked."""
        self = object.__new__(cls)
        for name, value in zip(cls.__slots__, (ln, ld, hn, hd)):
            object.__setattr__(self, name, value)
        return self

    @property
    def lo(self) -> Fraction:
        return _fraction(self._ln, self._ld)

    @property
    def hi(self) -> Fraction:
        return _fraction(self._hn, self._hd)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._ln * other._ld == other._ln * self._ld and self._hn * other._hd == other._hn * self._hd

    def __hash__(self):
        return hash((_reduced(self._ln, self._ld), _reduced(self._hn, self._hd)))

    def __repr__(self):
        return f"Interval(lo={self.lo!r}, hi={self.hi!r})"

    def __reduce__(self):
        return self.__class__, (self.lo, self.hi)

    @classmethod
    def point(cls, v: _RatLike) -> "Interval":
        n, d = _pair(v)
        return cls._of(n, d, n, d)

    @property
    def width(self) -> Fraction:
        return _fraction(self._hn * self._ld - self._ln * self._hd, self._hd * self._ld)

    def __contains__(self, v) -> bool:
        n, d = _pair(v)
        return self._ln * d <= n * self._ld and n * self._hd <= self._hn * d

    def __add__(self, other: "Interval") -> "Interval":
        return Interval._of(self._ln * other._ld + other._ln * self._ld, self._ld * other._ld,
                            self._hn * other._hd + other._hn * self._hd, self._hd * other._hd)

    def __mul__(self, other: "Interval") -> "Interval":
        # endpoint shortcut: everything we multiply lives in [0, inf)
        if self._ln < 0 or other._ln < 0:
            raise NegativeOperand("interval multiplication requires non-negative operands")
        return Interval._of(self._ln * other._ln, self._ld * other._ld, self._hn * other._hn, self._hd * other._hd)

    def scale(self, r: _RatLike) -> "Interval":
        n, d = _pair(r)
        if n >= 0:
            return Interval._of(self._ln * n, self._ld * d, self._hn * n, self._hd * d)
        return Interval._of(self._hn * n, self._hd * d, self._ln * n, self._ld * d)


def _round_half_away(n: int, d: int, digits: int) -> int:
    """m such that m / 10^digits is n/d rounded to `digits` fractional digits, ties away from zero."""
    q, r = divmod(abs(n) * 10**digits, d)
    if 2 * r >= d:
        q += 1
    return q if n >= 0 else -q


def round_half_away(x: Fraction, digits: int) -> Fraction:
    """x rounded to `digits` fractional digits, ties away from zero."""
    return _fraction(_round_half_away(*_pair(x), digits), 10**digits)


def render_decimal(v, digits: int) -> str:
    """Render an Interval (or exact Fraction) with `digits` fractional digits.

    Valid only when both endpoints round identically; otherwise raises
    NeedsMorePrecision so the caller can deepen its truncation.
    """
    if digits < 1:
        raise ValueError("digits must be >= 1")
    if isinstance(v, Interval):
        ends = (v._ln, v._ld), (v._hn, v._hd)
    else:
        ends = (_pair(v),) * 2
    a, b = (_round_half_away(n, d, digits) for n, d in ends)
    if a != b:
        bits = [max(x.bit_length() for x in _reduced(n, d)) for n, d in ends]
        raise NeedsMorePrecision(
            f"endpoints of {bits[0]} and {bits[1]} bits straddle a {digits}-digit rounding boundary"
        )
    sign = "-" if a < 0 else ""
    ip, fp = divmod(abs(a), 10**digits)
    return f"{sign}{ip}.{fp:0{digits}d}"


def _exp_upper(n: int, d: int) -> tuple:
    """(numerator, denominator) of exp_upper(n/d), over 9! * d^9 unreduced.

    The terms (9!/j!) * n^j * d^(9-j) for j <= 8, plus 2 * n^9 for the
    remainder, summed by Horner's rule in n with d's powers carried along.
    """
    if n < 0 or 2 * n > d:
        raise ValueError(f"exp_upper domain is [0, 1/2], got {_ratio_text(n, d)}")
    num, coeff, dpow = 2, 1, 1
    for j in range(8, -1, -1):
        coeff *= j + 1
        dpow *= d
        num = num * n + coeff * dpow
    return num, coeff * dpow


def exp_upper(x: Fraction) -> Fraction:
    """Rational upper bound on e^x for 0 <= x <= 1/2.

    The series through x^8 plus geometric remainder: the tail after it is at
    most x^9/9! * 1/(1-x), and 1/(1-x) <= 2 on the domain.
    """
    return _fraction(*_exp_upper(*_pair(x)))


def __getattr__(name):
    """`Fraction`, imported on first read, so that importing numeric loads no `fractions`."""
    if name == "Fraction":
        from fractions import Fraction

        return Fraction
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
