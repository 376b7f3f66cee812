"""Interval arithmetic soundness and certified decimal rendering."""

import pickle
import random
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    FractionInterval,
    fraction_density_interval,
    fraction_exp_upper,
    fraction_render_decimal,
    fraction_round_half_away,
)
from gpfq import Interval, NeedsMorePrecision, NegativeOperand, exp_upper, render_decimal, round_half_away
from gpfq import density, numeric, rn


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


# --- the integer pairs against the Fraction reference in _oracles ---------------------------

@st.composite
def _rationals(draw, min_value=-10, max_value=10):
    """(value, an unreduced (numerator, denominator) pair of it): the reduced pair times k."""
    value = draw(st.fractions(min_value=min_value, max_value=max_value, max_denominator=10**6))
    k = draw(st.integers(1, 10**6))
    return value, (value.numerator * k, value.denominator * k)


@st.composite
def _intervals(draw, min_value=-10):
    """(FractionInterval, the same Interval built from unreduced pairs by Interval._of)."""
    (lo, lo_pair), (hi, hi_pair) = sorted((draw(_rationals(min_value)), draw(_rationals(min_value))))
    return FractionInterval(lo, hi), Interval._of(*lo_pair, *hi_pair)


def _ends(iv):
    return iv.lo, iv.hi


@settings(max_examples=300, deadline=None)
@given(_intervals(), _intervals(), _rationals())
def test_interval_arithmetic_matches_fraction_reference(x, y, r):
    (x_ref, x), (y_ref, y), (r, r_pair) = x, y, r
    assert _ends(x) == _ends(x_ref) and all(type(e) is Fraction for e in _ends(x))
    assert _ends(x + y) == _ends(x_ref + y_ref)
    if x_ref.lo < 0 or y_ref.lo < 0:
        with pytest.raises(NegativeOperand):
            x * y
    else:
        assert _ends(x * y) == _ends(x_ref * y_ref)
    assert _ends(x.scale(r)) == _ends(x_ref.scale(r))  # negative factors swap the endpoints
    assert _ends(x.scale(r.numerator)) == _ends(x_ref.scale(r.numerator))
    assert x.width == x_ref.hi - x_ref.lo


@settings(max_examples=300, deadline=None)
@given(_intervals(), _rationals(), st.integers(2, 10**6))
def test_unreduced_pairs_are_equal_by_value(iv, v, k):
    ref, iv = iv
    v, v_pair = v
    scaled = Interval._of(iv._ln * k, iv._ld * k, iv._hn * k, iv._hd * k)
    reduced = Interval(ref.lo, ref.hi)
    assert iv == scaled == reduced and hash(iv) == hash(scaled) == hash(reduced)
    assert len({iv, scaled, reduced}) == 1
    assert (v in iv) == (v in ref) == (v in scaled)
    point = Interval._of(*v_pair, *v_pair)
    assert point == Interval.point(v) and hash(point) == hash(Interval.point(v))
    wider = Interval._of(iv._ln, iv._ld, iv._hn * k + iv._hd, iv._hd * k)  # hi + 1/k
    assert wider != iv and pickle.loads(pickle.dumps(scaled)) == iv


@settings(max_examples=400, deadline=None)
@given(_intervals(), st.integers(1, 9))
def test_render_matches_fraction_reference(iv, digits):
    ref, iv = iv
    text, message = fraction_render_decimal(ref.lo, ref.hi, digits)
    if message is None:
        assert render_decimal(iv, digits) == text
    else:
        with pytest.raises(NeedsMorePrecision) as raised:
            render_decimal(iv, digits)
        assert str(raised.value) == message
    for e in _ends(ref):
        assert round_half_away(e, digits) == fraction_round_half_away(e, digits)
        assert render_decimal(e, digits) == fraction_render_decimal(e, e, digits)[0]


@given(st.integers(0, 10**5), st.integers(1, 10**6))
def test_render_ties_round_away_from_zero(m, k):
    # m + 1/2 units of the last digit, as an unreduced pair: always a tie
    for sign in (1, -1):
        value = Fraction(sign * (2 * m + 1), 2 * 10**3)
        pair = (sign * (2 * m + 1) * k, 2 * 10**3 * k)
        assert render_decimal(Interval._of(*pair, *pair), 3) == fraction_render_decimal(value, value, 3)[0]


@settings(max_examples=200, deadline=None)
@given(st.fractions(min_value=0, max_value=Fraction(1, 2), max_denominator=10**12), st.integers(1, 10**6))
def test_exp_upper_is_the_reference_value(x, k):
    assert exp_upper(x) == fraction_exp_upper(x) and type(exp_upper(x)) is Fraction
    n, d = numeric._exp_upper(x.numerator * k, x.denominator * k)
    assert Fraction(n, d) == fraction_exp_upper(x)


def test_fraction_name_resolves_on_first_read():
    # the traced benchmark run reads numeric.Fraction for every non-Interval value it renders
    assert numeric.Fraction is Fraction
    with pytest.raises(AttributeError):
        numeric.Decimal


@pytest.fixture
def no_int_str_limit():
    # endpoints of a 40-digit q = 2 interval have more than 4300 decimal digits (the CLI lifts the limit too)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("digits", [12, 40])
@pytest.mark.parametrize("kind", ["greedy", "lower_mq", "upper_no"])
@pytest.mark.parametrize("q", [2, 3, 343])
def test_report_json_endpoints_are_the_reference_text(no_int_str_limit, q, kind, digits):
    if kind == "upper_no" and q**rn.MAX_RN_R <= 10**digits:
        with pytest.raises(NeedsMorePrecision):
            density.certify(kind, q, digits)
        return
    report = density.certify(kind, q, digits)
    param = report.terms if kind == "upper_no" else report.depth
    ref = fraction_density_interval(kind, q, param, rn.rn_sequence(param) if kind == "upper_no" else None)
    assert report.to_json()["interval"] == {"lo": str(ref.lo), "hi": str(ref.hi)}
    assert report.rendered == fraction_render_decimal(ref.lo, ref.hi, digits)[0]
