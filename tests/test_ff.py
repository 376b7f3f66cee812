"""Field arithmetic: construction, axioms, Frobenius, codes, errors."""

import math
import random

import pytest

from _oracles import default_modulus_brute
from gpfq import (
    BudgetExceeded,
    CodeOutOfRange,
    DivisionByZero,
    NotPrime,
    ReducibleModulus,
    SpecMismatch,
    WrongDegreeModulus,
    make_field,
)
from gpfq.extfield import _default_modulus, _mul_codes

FIELD_PARAMS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
                (2, 4), (5, 2), (3, 3), (2, 5), (7, 2), (2, 6)]
# log-tabled fields too large for the tests over all pairs of elements
LARGE_FIELD_PARAMS = [(3, 5), (2, 9), (3, 6), (2, 12)]


def _field_id(pk):
    return f"GF({pk[0]**pk[1]})"


@pytest.fixture(scope="module", params=FIELD_PARAMS, ids=_field_id)
def field(request):
    p, k = request.param
    return make_field(p, k)


@pytest.fixture(scope="module", params=FIELD_PARAMS + LARGE_FIELD_PARAMS, ids=_field_id)
def any_field(request):
    p, k = request.param
    return make_field(p, k)


def test_make_field_prime():
    f = make_field(2, 1)
    assert (f.p, f.k, f.q) == (2, 1, 2)
    assert f.modulus == (0, 1)


def test_make_field_gf4_unique_quadratic():
    f = make_field(2, 2)
    assert f.q == 4
    assert f.modulus == (1, 1, 1)  # x^2 + x + 1, the only irreducible quadratic


def test_make_field_not_prime():
    with pytest.raises(NotPrime):
        make_field(4, 1)
    with pytest.raises(NotPrime):
        make_field(1, 1)


def test_modulus_validation():
    with pytest.raises(WrongDegreeModulus):
        make_field(2, 2, (1, 1))  # degree too small
    with pytest.raises(WrongDegreeModulus):
        make_field(2, 2, (1, 1, 0))  # not monic
    with pytest.raises(ReducibleModulus):
        make_field(2, 2, (1, 0, 1))  # x^2 + 1 = (x+1)^2
    with pytest.raises(WrongDegreeModulus):
        make_field(3, 1, (1, 1))  # k=1 modulus must be the canonical x


def test_default_modulus_deterministic():
    for p, k in [(2, 4), (3, 3), (5, 2)]:
        assert make_field(p, k).modulus == make_field(p, k).modulus
        assert make_field(p, k) == make_field(p, k)


def test_default_modulus_matches_full_search():
    # skipping the candidates with constant term 0 changes no default modulus
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        k = 2
        while p**k <= 1024:
            assert _default_modulus(p, k) == default_modulus_brute(p, k), (p, k)
            k += 1


def test_default_modulus_budget():
    # k * log2(p) past the budget fails at once; a large p lists no range(p)
    for p, k in ((3, 81), (2, 129), (65521, 9), (2**61 - 1, 3)):
        with pytest.raises(BudgetExceeded):
            make_field(p, k)
    assert make_field(65521, 8).k == 8
    assert make_field(2**31 - 1, 2).modulus == (1, 0, 1)


def test_gf4_generator_relation():
    f = make_field(2, 2)
    g = f.element(2)
    assert (g * (g + f.one)).code == 1  # g^2 = g + 1 from the modulus


def test_gf5_inverse():
    f = make_field(5)
    assert f.element(2).inverse().code == 3


def test_gf2_characteristic():
    f = make_field(2)
    assert (f.element(1) + f.element(1)).code == 0


def test_element_from_code():
    f = make_field(2, 2)
    assert f.element(0).digits == (0, 0)
    assert f.element(2).digits == (0, 1)  # the generator g
    with pytest.raises(CodeOutOfRange):
        f.element(4)
    with pytest.raises(CodeOutOfRange):
        f.element(-1)


def test_code_digit_roundtrip(field):
    for e in field.elements():
        code = 0
        for d in reversed(e.digits):
            code = code * field.p + d
        assert code == e.code
        assert len(e.digits) == field.k


def test_axioms_pairs(field):
    els = list(field.elements())
    zero, one = field.zero, field.one
    for a in els:
        assert a + zero == a
        assert a * one == a
        assert a + (-a) == zero
        for b in els:
            assert a + b == b + a
            assert a * b == b * a
    for a in els[1:]:
        assert a * a.inverse() == one


def test_axioms_triples(any_field):
    field = any_field
    els = list(field.elements())
    if field.q <= 9:
        triples = [(a, b, c) for a in els for b in els for c in els]
    else:
        rng = random.Random(20240 + field.q)
        triples = [
            (els[rng.randrange(field.q)], els[rng.randrange(field.q)], els[rng.randrange(field.q)])
            for _ in range(2000)
        ]
    for a, b, c in triples:
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


@pytest.mark.parametrize("p, k", [(2, 2), (2, 9), (2, 10), (3, 6), (3, 8)])
def test_additive_ops_are_digitwise(p, k):
    # XOR at p = 2, Zech logarithms in GF(729), the digit loop in GF(6561) above
    # the log-table cap: each digit adds, subtracts and negates mod p
    spec = make_field(p, k)
    rng = random.Random(p**k)
    for _ in range(500):
        a, b = rng.randrange(spec.q), rng.randrange(spec.q)
        da, db = spec.digits_of(a), spec.digits_of(b)
        assert spec.digits_of(spec.add_c(a, b)) == tuple((x + y) % p for x, y in zip(da, db))
        assert spec.digits_of(spec.add_c(a, spec.neg_c(b))) == tuple((x - y) % p for x, y in zip(da, db))
        assert spec.digits_of(spec.neg_c(a)) == tuple(-x % p for x in da)


def test_frobenius(any_field):
    field = any_field
    for a in field.elements():
        assert a**field.q == a
    # a negative exponent raises at once, for an element and a code alike
    with pytest.raises(ValueError):
        a**-1
    with pytest.raises(ValueError):
        field.pow_c(a.code, -1)


@pytest.mark.parametrize("p, k", [(2, 2), (3, 2), (2, 8), (3, 5), (61, 2), (2, 12)])
def test_log_tables(p, k):
    # exp lists every unit once from g, the least primitive element by code,
    # and a product or inverse read from the tables is the digit product
    spec = make_field(p, k)
    n = spec.q - 1
    assert sorted(spec.exp[:n]) == list(range(1, spec.q))
    assert spec.exp[n:2 * n] == spec.exp[:n]
    assert all(spec.exp[spec.log[a]] == a for a in range(1, spec.q))
    least = min(c for c in range(1, spec.q) if math.gcd(spec.log[c], n) == 1)
    assert spec.exp[1] == least
    rng = random.Random(spec.q)
    for _ in range(500):
        a, b = rng.randrange(spec.q), rng.randrange(spec.q)
        assert spec.mul_c(a, b) == _mul_codes(spec, a, b)
        if a:
            assert _mul_codes(spec, a, spec.inv_c(a)) == 1


@pytest.mark.parametrize("p, k", [(2, 2), (2, 3), (3, 2), (5, 2), (3, 3), (2, 9), (3, 6), (2, 12), (3, 7)])
def test_log_tables_match_the_product_walk(p, k):
    # the tables are filled by multiply-by-g steps (a digit shift and a fold per nonzero digit of g);
    # walking g's powers by general digit products instead, g the least code of order q - 1, gives
    # the same g and the same exp, log, Zech and negation tables
    spec = make_field(p, k)
    q, n = spec.q, spec.q - 1

    def order(c):
        power, i = c, 1
        while power != 1:
            power, i = _mul_codes(spec, power, c), i + 1
        return i

    g = next(c for c in range(p, q) if order(c) == n)
    powers = [1]
    for _ in range(n - 1):
        powers.append(_mul_codes(spec, powers[-1], g))
    log = [2 * n] * q
    for i, c in enumerate(powers):
        log[c] = i
    assert spec.exp == powers * 2 + [0] * (2 * n + 1)
    assert spec.log == log

    def code(digits):
        return sum(d * p**i for i, d in enumerate(digits))

    assert [spec.neg_c(c) for c in range(q)] == [code(-d % p for d in spec.digits_of(c)) for c in range(q)]
    if p > 2:  # zech[d] = log(1 + g^d)
        one_plus = [code((d + (i == 0)) % p for i, d in enumerate(spec.digits_of(c))) for c in powers]
        assert spec.zech == [log[c] for c in one_plus] * 2
    else:
        assert spec.zech is None


def test_inverse_of_zero(field):
    with pytest.raises(DivisionByZero):
        field.zero.inverse()


def test_spec_mismatch():
    a = make_field(2).element(1)
    b = make_field(3).element(1)
    with pytest.raises(SpecMismatch):
        a + b
    with pytest.raises(SpecMismatch):
        a * b


def test_division():
    f = make_field(7)
    a, b = f.element(3), f.element(5)
    assert (a / b) * b == a
