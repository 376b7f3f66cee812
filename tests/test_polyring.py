"""Polynomial ring: arithmetic contracts, norms, enumeration, text format."""

import random
from itertools import zip_longest

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import DigitField, fp_divmod, fp_mul, gfq_divmod, gfq_mul
from gpfq import (
    BudgetExceeded,
    CoefficientOutOfRange,
    DivisionByZero,
    NEG_INFINITY,
    Poly,
    PolySyntaxError,
    SpecMismatch,
    ZeroPolynomial,
    canonical_key,
    derivative,
    enumerate_monic,
    enumerate_polys,
    enumerate_upto,
    format_poly,
    gcd,
    make_field,
    make_monic,
    one,
    parse_poly,
    x,
    zero,
)
from gpfq.polyring import MAX_TEXT_DEGREE, _divmod, _lane, _mul, _packer, _parse_term, _unit_ops

F2 = make_field(2)
F3 = make_field(3)
F4 = make_field(2, 2)
F5 = make_field(5)
F9 = make_field(3, 2)


def P(spec, text):
    return parse_poly(spec, text)


def _random_poly(rng, spec, max_degree):
    d = rng.randrange(max_degree + 1)
    coeffs = [rng.randrange(spec.q) for _ in range(d)] + [rng.randrange(1, spec.q)]
    return Poly(spec, coeffs)


def test_char2_square():
    assert (P(F2, "x+1") * P(F2, "x+1")) == P(F2, "x^2+1")


def test_divmod_verified_by_multiplying_back():
    # independent check: whatever (quot, rem) is, quot*g + rem must equal f
    f, g = P(F2, "x^3+x"), P(F2, "x^2+x+1")
    quot, rem = divmod(f, g)
    assert quot * g + rem == f
    assert rem.degree < g.degree
    # frozen values from the multiply-back oracle
    assert quot == P(F2, "x+1")
    assert rem == P(F2, "x+1")


def test_derivative_char3():
    assert derivative(P(F3, "x^3+x")) == one(F3)  # 3x^2 vanishes


def test_derivative_general():
    f = P(F5, "2*x^4+3*x^2+x+4")
    assert derivative(f) == P(F5, "3*x^3+x+1")  # 8x^3+6x+1 reduced mod 5


def test_norm_examples():
    # the norm of f != 0 is q^deg f
    assert F2.q ** P(F2, "x^3+x+1").degree == 8
    assert F5.q ** P(F5, "3").degree == 1
    assert F9.q ** P(F9, "x^2").degree == 81


def test_norm_multiplicative_random():
    rng = random.Random(1203)
    for spec in (F2, F3, F4, F5):
        for _ in range(300):
            f = _random_poly(rng, spec, 6)
            g = _random_poly(rng, spec, 6)
            assert (f * g).degree == f.degree + g.degree


def test_zero_degree():
    assert zero(F2).degree == NEG_INFINITY
    assert zero(F2).is_zero()
    assert one(F2).degree == 0


def test_make_monic_examples():
    u, m = make_monic(P(F3, "2*x+1"))
    assert (u.code, m) == (2, P(F3, "x+2"))
    u, m = make_monic(P(F2, "x^2+x"))
    assert (u.code, m) == (1, P(F2, "x^2+x"))
    u, m = make_monic(P(F5, "3"))
    assert (u.code, m) == (3, one(F5))
    with pytest.raises(ZeroPolynomial):
        make_monic(zero(F2))


def test_divmod_contract_exhaustive_f2():
    polys = list(enumerate_upto(F2, 4))
    for f in polys:
        for g in polys:
            quot, rem = divmod(f, g)
            assert quot * g + rem == f
            assert rem.is_zero() or rem.degree < g.degree


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        divmod(P(F2, "x"), zero(F2))
    with pytest.raises(DivisionByZero):
        gcd(zero(F2), zero(F2))


def test_gcd_basics():
    f = P(F2, "x^2+x")  # x(x+1)
    g = P(F2, "x^2+1")  # (x+1)^2
    assert gcd(f, g) == P(F2, "x+1")
    assert gcd(f, zero(F2)) == f  # already monic
    assert gcd(zero(F2), g) == g
    h = gcd(P(F3, "2*x+2"), P(F3, "2"))
    assert h == one(F3)  # gcd is monic


def test_enumeration_counts():
    for spec in (F2, F3, F4):
        for d in range(5):
            got = list(enumerate_polys(spec, d))
            assert len(got) == (spec.q - 1) * spec.q**d
            assert len(set(got)) == len(got)
            assert all(f.degree == d for f in got)


def test_enumeration_examples():
    assert [format_poly(f) for f in enumerate_polys(F2, 1)] == ["x", "x+1"]
    assert [format_poly(f) for f in enumerate_polys(F3, 0)] == ["1", "2"]
    assert len(list(enumerate_polys(F2, 3))) == 8


def test_enumeration_canonical_order():
    for spec in (F2, F3, F4):
        seq = list(enumerate_upto(spec, 3))
        assert seq == sorted(seq, key=canonical_key)
        assert len(seq) == spec.q**4 - 1
        monic = [f for d in range(4) for f in enumerate_monic(spec, d)]
        assert monic == [f for f in seq if f.is_monic()]


def test_parse_examples():
    assert P(F2, "x^3+x+1").coeffs == (1, 1, 0, 1)
    assert P(F3, "2*x^2+1").coeffs == (1, 0, 2)
    assert P(F4, "[2]*x+[3]").coeffs == (3, 2)
    assert P(F2, "0").is_zero()
    assert P(F2, " x ^ 2 + 1 ").coeffs == (1, 0, 1)  # whitespace ignored


def test_parse_errors():
    with pytest.raises(PolySyntaxError):
        P(F2, "x+x")  # repeated exponent
    with pytest.raises(PolySyntaxError):
        P(F2, "x^2+x^2")
    with pytest.raises(PolySyntaxError):
        P(F2, "")
    with pytest.raises(PolySyntaxError):
        P(F2, "x**2")
    with pytest.raises(PolySyntaxError):
        P(F2, "y+1")
    with pytest.raises(CoefficientOutOfRange):
        P(F2, "3")
    with pytest.raises(CoefficientOutOfRange):
        P(F4, "[4]*x")


def test_parse_ignores_unicode_whitespace():
    for space in ("\t", "\n", "\u00a0", "\u3000", " \r\x0b\x0c"):
        assert P(F3, f"{space}2{space}*x^2{space}+{space}1{space}") == P(F3, "2*x^2+1")
        assert P(F4, f"[3]{space}*x{space}+[1]") == P(F4, "[3]*x+[1]")
        with pytest.raises(CoefficientOutOfRange):
            P(F3, f"3{space}*x")
        with pytest.raises(CoefficientOutOfRange):
            P(F4, f"[4]{space}*x")
    assert P(F2, "0*x^3+x").coeffs == (0, 1)  # zero leading terms are trimmed


def test_parse_errors_are_not_cached():
    # each term's parse is cached per q; a failing term raises every time
    for _ in range(2):
        with pytest.raises(CoefficientOutOfRange):
            P(F3, "3*x")
        with pytest.raises(BudgetExceeded):
            P(F2, f"x^{MAX_TEXT_DEGREE + 1}")
    _parse_term.cache_clear()
    assert P(F3, "2*x").coeffs == (0, 2)
    with pytest.raises(CoefficientOutOfRange):
        P(F2, "2*x")
    _parse_term.cache_clear()
    with pytest.raises(CoefficientOutOfRange):
        P(F2, "2*x")
    assert P(F3, "2*x").coeffs == (0, 2)


def test_parse_long_digit_strings():
    # a token with more digits than its bound is refused before int(), whose digit
    # limit would raise a plain ValueError, and the message names the count, not the number
    ones = "1" * 5000
    for spec, text, error in (
        (F2, "x^" + ones, BudgetExceeded),
        (F2, ones + "*x", CoefficientOutOfRange),
        (F2, ones, CoefficientOutOfRange),
        (F2, "[" + ones + "]", CoefficientOutOfRange),
        (F9, "[" + ones + "]*x^2", CoefficientOutOfRange),
    ):
        with pytest.raises(error, match="of 5000 digits") as info:
            P(spec, text)
        assert len(str(info.value)) < 100
    with pytest.raises(BudgetExceeded, match="of 8 digits"):
        P(F2, "x^10000000")
    with pytest.raises(CoefficientOutOfRange, match="of 2 digits"):
        P(F9, "[10]")
    # leading zeros are not digits of the value
    assert P(F2, "x^0005") == P(F2, "x^5")
    assert P(F2, "x^" + "0" * 5000 + "5") == P(F2, "x^5")
    assert P(F9, "[" + "0" * 5000 + "8]*x^2+001").coeffs == (1, 0, 8)
    assert P(F2, "x^00") == P(F2, "1") and P(F2, "000").is_zero()
    assert P(F2, f"x^{MAX_TEXT_DEGREE:09d}").degree == MAX_TEXT_DEGREE


def test_parse_bad_term_message_is_short():
    with pytest.raises(PolySyntaxError, match=r"\.\.\. \(5002 characters\)") as info:
        P(F2, "x^" + "1" * 4999 + "y")
    assert len(str(info.value)) < 100


def test_format_parse_roundtrip_exhaustive():
    for spec, dmax in ((F2, 4), (F3, 3), (F4, 2)):
        for f in enumerate_upto(spec, dmax):
            assert parse_poly(spec, format_poly(f)) == f
    assert parse_poly(F2, format_poly(zero(F2))) == zero(F2)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), spec=st.sampled_from((F2, F3, F4, make_field(2, 9), make_field(3, 6))))
def test_format_parse_roundtrip_random(data, spec):
    # degrees past the exhaustive test; GF(512) and GF(729) write three-digit bracketed codes
    f = Poly(spec, _poly_codes(data.draw, spec.q, data.draw(st.integers(0, 61))))
    assert parse_poly(spec, format_poly(f)) == f


def test_spec_mismatch():
    with pytest.raises(SpecMismatch):
        P(F2, "x") + P(F3, "x")


def test_coefficient_validation():
    with pytest.raises(CoefficientOutOfRange):
        Poly(F2, (2,))


def test_pow():
    f = P(F3, "x+1")
    assert f**3 == P(F3, "x^3+1")  # Frobenius in char 3
    assert f**0 == one(F3)


def test_canonical_order_constant_first():
    # same degree: compare constant coefficient first
    a, b = P(F2, "x^3+x^2+1"), P(F2, "x^3+x+1")
    assert canonical_key(a) < canonical_key(b)  # (1,0,1,1) < (1,1,0,1)
    assert x(F2) < P(F2, "x+1") < P(F2, "x^2")


# ---------------------------------------------------------------------------
# the packed GF(p) kernel of _mul/_divmod against the list-based oracle
# ---------------------------------------------------------------------------

# 2, 3, 5, 7: 8-bit lanes on short operands, then 16-bit ones; 251: 32-bit
# lanes; 65521: 64-bit lanes; 2^31 - 1 and 2^61 - 1: no lane fits, the
# per-coefficient loop runs
KERNEL_PRIMES = (2, 3, 5, 7, 251, 65521, 2**31 - 1, 2**61 - 1)


def _poly_codes(draw, p, length):
    """A trimmed code tuple of exactly `length` coefficients, any nonzero lead."""
    if length == 0:
        return ()
    low = draw(st.lists(st.integers(0, p - 1), min_size=length - 1, max_size=length - 1))
    return tuple(low) + (draw(st.integers(1, p - 1)),)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), p=st.sampled_from(KERNEL_PRIMES))
def test_kernel_mul_divmod_match_oracle(data, p):
    spec = make_field(p)
    # short and long operands, so lanes of every width; dividends up to many steps long
    a = _poly_codes(data.draw, p, data.draw(st.integers(0, 6 * 16)))
    b = _poly_codes(data.draw, p, data.draw(st.integers(0, 2 * 16 + 8)))
    assert list(_mul(spec, a, b)) == fp_mul(p, list(a), list(b))
    assert list(_mul(spec, b, b)) == fp_mul(p, list(b), list(b))
    if b:
        quot, rem = _divmod(spec, a, b)
        assert (list(quot), list(rem)) == fp_divmod(p, list(a), list(b))


def test_lane_widths():
    assert _lane(255)[0] == 8
    assert _lane(256)[0] == 16
    assert _lane(2**16 - 1)[0] == 16
    assert _lane(2**16)[0] == 32
    assert _lane(2**64 - 1)[0] == 64
    assert _lane(2**64) is None


@pytest.mark.parametrize("p", [2, 3, 65521])
def test_kernel_makes_no_coefficient_calls(p):
    # over a prime field whose bound a 64-bit lane holds no per-coefficient ff operation runs
    spec = make_field(p)

    def refuse(*args):
        raise AssertionError("per-coefficient call")

    rng = random.Random(p)
    a = tuple(rng.randrange(p) for _ in range(3 * 16)) + (1,)
    b = tuple(rng.randrange(p) for _ in range(16)) + (p - 1,)
    expect = (_mul(spec, a, b), _divmod(spec, a, b))
    for name in ("add_c", "neg_c", "mul_c"):
        setattr(spec, name, refuse)
    assert (_mul(spec, a, b), _divmod(spec, a, b)) == expect


@pytest.mark.parametrize("p", [2, 3])
def test_byte_lanes_make_no_coefficient_calls_below_cutoff(p):
    # an 8-bit lane packs operands of any length
    spec = make_field(p)

    def refuse(*args):
        raise AssertionError("per-coefficient call")

    rng = random.Random(p)
    a = tuple(rng.randrange(p) for _ in range(6)) + (1,)
    b = tuple(rng.randrange(p) for _ in range(2)) + (p - 1,)
    assert len(b) < len(a) < 16
    expect = (_mul(spec, a, b), _divmod(spec, a, b))
    quot, rem = expect[1]
    assert list(expect[0]) == fp_mul(p, list(a), list(b))
    assert (list(quot), list(rem)) == fp_divmod(p, list(a), list(b))
    for name in ("add_c", "neg_c", "mul_c"):
        setattr(spec, name, refuse)
    assert (_mul(spec, a, b), _divmod(spec, a, b)) == expect


@pytest.mark.parametrize("p", [251, 65521])
def test_wide_lanes_pack_short_operands(p, monkeypatch):
    # 32- and 64-bit lanes pack a 3-coefficient factor or divisor too: no per-coefficient ff call
    spec = make_field(p)

    def refuse(*args):
        raise AssertionError("per-coefficient call")

    rng = random.Random(p)
    a = tuple(rng.randrange(p) for _ in range(6)) + (1,)
    b = (rng.randrange(p), rng.randrange(p), p - 1)
    for name in ("add_c", "neg_c", "mul_c"):
        monkeypatch.setattr(spec, name, refuse)
    quot, rem = _divmod(spec, a, b)
    assert list(_mul(spec, a, b)) == fp_mul(p, list(a), list(b))
    assert (list(quot), list(rem)) == fp_divmod(p, list(a), list(b))


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_byte_lanes_at_their_bound(p):
    # the longest operands an 8-bit lane takes, so lanes reach values near 255
    spec = make_field(p)
    short = 255 // (p - 1) ** 2
    steps = (255 - (p - 1)) // (p - 1) ** 2
    assert _lane(short * (p - 1) ** 2)[0] == _lane((p - 1) + steps * (p - 1) ** 2)[0] == 8
    top = (p - 1,) * short
    assert list(_mul(spec, top, top)) == fp_mul(p, list(top), list(top))
    rng = random.Random(p)
    b = tuple(rng.randrange(p) for _ in range(steps)) + (1,)
    a = tuple(rng.randrange(p) for _ in range(2 * steps - 1)) + (p - 1,)
    quot, rem = _divmod(spec, a, b)
    assert (list(quot), list(rem)) == fp_divmod(p, list(a), list(b))


# ---------------------------------------------------------------------------
# the log-domain loops of _mul/_divmod against the digit-polynomial oracle
# ---------------------------------------------------------------------------

# XOR addition in GF(4), GF(16), GF(256), GF(512) and GF(4096); Zech
# addition in GF(243) and GF(729)
LOG_FIELDS = tuple(make_field(p, k) for p, k in ((2, 2), (2, 4), (3, 5), (2, 8), (2, 9), (3, 6), (2, 12)))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), spec=st.sampled_from(LOG_FIELDS))
def test_log_domain_mul_divmod_match_oracle(data, spec):
    field = DigitField(spec.p, spec.modulus)
    b = _poly_codes(data.draw, spec.q, data.draw(st.integers(1, 10)))
    steps = data.draw(st.integers(0, 30))  # the quotient's length: up to 30 division steps
    a = _poly_codes(data.draw, spec.q, len(b) - 1 + steps)
    assert list(_mul(spec, a, b)) == gfq_mul(field, list(a), list(b))
    quot, rem = _divmod(spec, a, b)
    assert (list(quot), list(rem)) == gfq_divmod(field, list(a), list(b))
    # a = quot * b + rem with deg rem < deg b
    assert len(rem) < len(b)
    qb = gfq_mul(field, list(quot), list(b))
    qb += [0] * (len(a) - len(qb))
    assert [field.add(x, y) for x, y in zip(qb, list(rem) + [0] * len(a))] == list(a)


@pytest.mark.parametrize("p, k", [(2, 2), (3, 5)])
def test_log_domain_makes_no_field_calls(p, k):
    # over a log-tabled field the loops read products and sums from the tables
    spec = make_field(p, k)

    def refuse(*args):
        raise AssertionError("add_c, mul_c or inv_c call")

    rng = random.Random(spec.q)
    a = tuple(rng.randrange(spec.q) for _ in range(40)) + (1,)
    b = tuple(rng.randrange(spec.q) for _ in range(12)) + (spec.q - 1,)
    expect = (_mul(spec, a, b), _divmod(spec, a, b))
    for name in ("add_c", "mul_c", "inv_c"):
        setattr(spec, name, refuse)
    assert (_mul(spec, a, b), _divmod(spec, a, b)) == expect


# (field, the longest product its searches form): has_progression keeps the
# ratios within q^(D/2 + 1) <= 2^21, so D <= 41 at q = 2, 25 at q = 3, ...;
# GF(2^10) takes products of 2 coefficients in greedy check at D = 1
PACKED_FIELDS = (
    (F2, 42), (F3, 26), (F4, 20), (make_field(3, 2, (1, 0, 1)), 12),
    (make_field(5, 2), 8), (make_field(11), 12), (make_field(2, 10), 2),
)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), case=st.sampled_from(PACKED_FIELDS))
def test_packed_product_matches_oracle(data, case):
    # every packer length up to the longest, so 8-bit and wider lanes both run
    spec, longest = case
    field = DigitField(spec.p, spec.modulus)
    length = data.draw(st.integers(1, longest))
    pack, mul, unpack = _packer(spec, length)
    a = _poly_codes(data.draw, spec.q, data.draw(st.integers(1, length)))  # degree 0 included
    b = _poly_codes(data.draw, spec.q, data.draw(st.integers(1, length + 1 - len(a))))
    assert (unpack(pack(a)), unpack(pack(b))) == (a, b)
    assert unpack(mul(pack(a), pack(b))) == tuple(gfq_mul(field, list(a), list(b)))
    assert mul(pack(b), pack(a)) == mul(pack(a), pack(b))


@pytest.mark.parametrize("p, k", [(7, 1), (3, 2), (2, 10), (2, 13)])
def test_unit_ops_match_field(p, k):
    # mod p over GF(7), log tables over GF(9) and GF(2^10), no field call in
    # either; above the tables (GF(2^13)) the field's own mul_c and inv_c
    spec = make_field(p, k)
    assert (spec.log is None) == (k in (1, 13))
    units = range(1, spec.q) if spec.q < 100 else random.Random(spec.q).sample(range(1, spec.q), 64)
    expect = [(spec.inv_c(a), [spec.mul_c(a, b) for b in units]) for a in units]
    if k < 13:
        def refuse(*args):
            raise AssertionError("field call")

        spec.mul_c = spec.inv_c = refuse
    times, inverse = _unit_ops(spec)
    assert [(inverse(a), [times(a, b) for b in units]) for a in units] == expect


def test_packer_lanes_hold_products_only():
    # a lane holds a digit of a product, not a whole code: GF(2^10) at length 2
    # packs each coefficient's 19 digit slots into 8-bit lanes
    pack = _packer(make_field(2, 10), 2)[0]
    assert pack((0, 1)) == 1 << 8 * 19


def test_packer_refuses_products_past_64_bit_lanes():
    # a product coefficient of GF(2^61 - 1) can reach 2^122: no lane holds it
    with pytest.raises(BudgetExceeded):
        _packer(make_field(2**61 - 1), 1)
    assert _packer(make_field(2**31 - 1), 1)[1](5, 7) == 35  # (p-1)^2 < 2^62 fits


# ---------------------------------------------------------------------------
# the operators and the untabled fields that no command reaches in process
# ---------------------------------------------------------------------------

# GF(2); GF(9) with Zech addition; GF(6561) above the log-table cap
PROTOCOL_FIELDS = (F2, make_field(3, 2, (1, 0, 1)), make_field(3, 8))


@pytest.mark.parametrize("spec", PROTOCOL_FIELDS, ids=lambda s: f"GF({s.q})")
def test_operator_protocol_matches_oracle(spec):
    field = DigitField(spec.p, spec.modulus)
    rng = random.Random(spec.q)
    for _ in range(20):
        a, b = rng.randrange(spec.q), rng.randrange(spec.q)
        ea, eb = spec.element(a), spec.element(b)
        assert (ea - eb).code == field.add(a, field.neg(b))
        assert hash(ea) == hash(spec.element(a)) and len({ea, spec.element(a), eb}) == 1 + (a != b)
        assert repr(ea) == f"FieldElem({spec!r}, {a})"
        assert str(ea) == (str(a) if spec.k == 1 else f"[{a}]")
        f, g = _random_poly(rng, spec, 6), _random_poly(rng, spec, 3)
        neg_g = [field.neg(c) for c in g.coeffs]
        assert list((-g).coeffs) == neg_g
        diff = [field.add(x, y) for x, y in zip_longest(f.coeffs, neg_g, fillvalue=0)]
        assert f - g == Poly(spec, diff)  # the constructor trims
        assert list((f // g).coeffs) == gfq_divmod(field, list(f.coeffs), list(g.coeffs))[0]
        assert str(f) == format_poly(f) and parse_poly(spec, str(f)) == f
        assert repr(f) == f"Poly({spec!r}, {str(f)!r})"


def test_operator_text_pinned():
    gf9, gf6561 = PROTOCOL_FIELDS[1:]
    assert repr(P(F2, "x^3+x+1")) == "Poly(GF(2), 'x^3+x+1')"
    assert repr(gf9.element(8)) == "FieldElem(GF(9; modulus=[1, 0, 1]), 8)" and str(gf9.element(8)) == "[8]"
    assert str(-P(gf9, "[5]*x^2+x+[2]")) == "[7]*x^2+[2]*x+[1]"
    assert repr(-P(gf6561, "[6560]*x^2+[3]")) == (
        "Poly(GF(6561; modulus=[1, 0, 0, 0, 0, 1, 1, 0, 1]), '[3280]*x^2+[6]')"
    )


@pytest.mark.parametrize("p, k", [(3, 8), (2, 13)])
def test_inverse_and_division_above_the_table_cap(p, k):
    # no log tables: an inverse is a^(q-2), a division runs the generic loop
    spec = make_field(p, k)
    assert spec.log is None
    field = DigitField(p, spec.modulus)
    rng = random.Random(spec.q)
    for _ in range(20):
        a = spec.element(rng.randrange(1, spec.q))
        assert a * a.inverse() == spec.one and a.inverse().code == field.inv(a.code)
    with pytest.raises(DivisionByZero):
        spec.zero.inverse()
    for _ in range(10):
        b = tuple(rng.randrange(spec.q) for _ in range(rng.randrange(5))) + (rng.randrange(2, spec.q),)
        a = tuple(rng.randrange(spec.q) for _ in range(len(b) - 1 + rng.randrange(8))) + (rng.randrange(2, spec.q),)
        quot, rem = _divmod(spec, a, b)
        assert (list(quot), list(rem)) == gfq_divmod(field, list(a), list(b))
