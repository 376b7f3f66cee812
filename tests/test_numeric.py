"""Interval arithmetic soundness and certified decimal rendering."""

import pickle
import random
from fractions import Fraction

import mpmath
import pytest

from gpfq import Interval, NeedsMorePrecision, NegativeOperand, exp_upper, render_decimal, round_half_away


def test_interval_examples():
    a = Interval(Fraction(1), Fraction(1)) * Interval(Fraction(2, 7), Fraction(3, 7))
    assert (a.lo, a.hi) == (Fraction(2, 7), Fraction(3, 7))
    b = Interval.point(Fraction(1, 2)) + Interval.point(Fraction(1, 4))
    assert (b.lo, b.hi) == (Fraction(3, 4), Fraction(3, 4))
    c = Interval("0.9", 1) * Interval("0.9", 1)
    assert (c.lo, c.hi) == (Fraction(81, 100), Fraction(1))


def test_interval_validation():
    with pytest.raises(ValueError):
        Interval(1, 0)


def test_negative_operand():
    with pytest.raises(NegativeOperand):
        Interval(-1, 1) * Interval(0, 1)


def test_scale():
    iv = Interval(Fraction(1, 2), Fraction(3, 4))
    assert iv.scale(2) == Interval(1, Fraction(3, 2))
    assert iv.scale(-2) == Interval(Fraction(-3, 2), -1)


def test_render_examples():
    assert render_decimal(Interval("0.6483610", "0.6483614"), 6) == "0.648361"
    with pytest.raises(NeedsMorePrecision):
        render_decimal(Interval("0.6483604", "0.6483606"), 6)
    assert render_decimal(Interval.point(Fraction(3, 4)), 2) == "0.75"
    assert render_decimal(Fraction(6, 7), 9) == "0.857142857"
    assert render_decimal(Fraction(1), 3) == "1.000"


def test_render_half_away_from_zero():
    assert render_decimal(Fraction(1, 4), 1) == "0.3"  # 0.25 -> 0.3
    assert render_decimal(Fraction(-1, 4), 1) == "-0.3"
    assert round_half_away(Fraction(1, 2), 0 + 1) == Fraction(1, 2)
    assert round_half_away(Fraction(5, 100), 1) == Fraction(1, 10)
    assert round_half_away(Fraction(-5, 100), 1) == Fraction(-1, 10)


def test_render_requires_digits():
    with pytest.raises(ValueError):
        render_decimal(Fraction(1, 2), 0)


def test_containment_soundness_random():
    rng = random.Random(425)

    def rand_frac():
        return Fraction(rng.randrange(0, 1000), rng.randrange(1, 1000))

    for _ in range(500):
        a, b = sorted((rand_frac(), rand_frac()))
        c, d = sorted((rand_frac(), rand_frac()))
        x = (a + b) / 2
        y = (c + d) / 2
        iv1, iv2 = Interval(a, b), Interval(c, d)
        assert x + y in iv1 + iv2
        assert x * y in iv1 * iv2
        r = rand_frac() - Fraction(1, 2)
        assert x * r in iv1.scale(r)


def test_exp_upper_bounds_exp():
    mpmath.mp.dps = 60
    rng = random.Random(77)
    cases = [Fraction(0), Fraction(1, 2), Fraction(1, 10**9), Fraction(1, 3)]
    cases += [Fraction(rng.randrange(0, 10**6), 2 * 10**6) for _ in range(50)]
    for v in cases:
        upper = exp_upper(v)
        true = mpmath.exp(mpmath.mpf(v.numerator) / v.denominator)
        assert mpmath.mpf(upper.numerator) / upper.denominator >= true
        # and not absurdly loose
        assert upper <= 2 * v + 1 + v * v  # crude sanity ceiling for x <= 1/2


def test_exp_upper_domain():
    with pytest.raises(ValueError):
        exp_upper(Fraction(3, 4))
    with pytest.raises(ValueError):
        exp_upper(Fraction(-1, 10))


def test_interval_is_an_immutable_value():
    iv = Interval("1/3", 1)
    assert type(iv.lo) is Fraction and type(iv.hi) is Fraction
    with pytest.raises(AttributeError):
        iv.lo = Fraction(0)
    with pytest.raises(AttributeError):
        del iv.hi
    assert (iv.lo, iv.hi) == (Fraction(1, 3), Fraction(1))
    same = Interval(Fraction(1, 3), Fraction(1))
    assert iv == same and hash(iv) == hash(same)
    assert iv != Interval(Fraction(1, 3), Fraction(2)) and iv != (iv.lo, iv.hi)
    assert len({iv, same, Interval.point(1)}) == 2
    assert pickle.loads(pickle.dumps(iv)) == iv
    with pytest.raises(ValueError, match="empty interval"):
        Interval(2, 1)


def test_interval_repr_names_its_endpoints():
    assert repr(Interval("1/3", 1)) == "Interval(lo=Fraction(1, 3), hi=Fraction(1, 1))"
