"""Factorization against trial-division oracles, counts, determinism."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import naive_is_irreducible, trial_division_factorize
from gpfq import (
    Poly,
    ZeroPolynomial,
    count_irreducibles,
    enumerate_irreducibles,
    enumerate_upto,
    factorization_exponents,
    factorize,
    format_poly,
    is_irreducible,
    make_field,
    parse_poly,
    zero,
)

F2 = make_field(2)
F3 = make_field(3)
F4 = make_field(2, 2)
F5 = make_field(5)


def P(spec, text):
    return parse_poly(spec, text)


def _random_poly(rng, spec, max_degree):
    d = rng.randrange(max_degree + 1)
    coeffs = [rng.randrange(spec.q) for _ in range(d)] + [rng.randrange(1, spec.q)]
    return Poly(spec, coeffs)


def _parts(fac):
    return [(format_poly(p), e) for p, e in fac.parts]


def test_irreducible_examples():
    assert is_irreducible(P(F2, "x^2+x+1"))
    assert not is_irreducible(P(F2, "x^2+1"))  # (x+1)^2
    assert is_irreducible(P(F3, "x^2+1"))  # -1 is a non-residue mod 3
    assert not is_irreducible(P(F2, "1"))  # constants are not irreducible
    assert is_irreducible(P(F5, "3*x+1"))  # non-monic associate of an irreducible
    with pytest.raises(ZeroPolynomial):
        is_irreducible(zero(F2))


def test_irreducibility_matches_naive():
    for spec, dmax in ((F2, 8), (F3, 5), (F4, 4)):
        for f in enumerate_upto(spec, dmax):
            if f.degree >= 1:
                assert is_irreducible(f) == naive_is_irreducible(f), format_poly(f)


def test_factorize_examples():
    fac = factorize(P(F2, "x^4+x"))
    assert fac.unit.code == 1
    assert _parts(fac) == [("x", 1), ("x+1", 1), ("x^2+x+1", 1)]

    fac = factorize(P(F3, "2*x^2"))
    assert fac.unit.code == 2
    assert _parts(fac) == [("x", 2)]

    # frozen from the multiply-back oracle: x^2 (x+1)^2 (x^2+x+1) expands to
    # x^6+x^5+x^3+x^2 over F_2
    f = P(F2, "x^6+x^5+x^3+x^2")
    fac = factorize(f)
    assert _parts(fac) == [("x", 2), ("x+1", 2), ("x^2+x+1", 1)]
    assert fac.expand() == f


def test_factorize_zero():
    with pytest.raises(ZeroPolynomial):
        factorize(zero(F2))


def test_factorization_invariants_exhaustive_oracle():
    # full agreement with literal trial division
    for spec, dmax in ((F2, 6), (F3, 6)):
        for f in enumerate_upto(spec, dmax):
            fac = factorize(f)
            unit_code, parts = trial_division_factorize(f)
            assert fac.unit.code == unit_code, format_poly(f)
            assert [(p, e) for p, e in fac.parts] == parts, format_poly(f)
            assert all(is_irreducible(p) for p, _ in fac.parts)


@pytest.mark.parametrize("q,spec", [(2, F2), (3, F3), (4, F4), (5, F5)])
def test_reconstruction_random(q, spec):
    rng = random.Random(777 + q)
    for _ in range(10_000):
        f = _random_poly(rng, spec, 6)
        assert factorize(f).expand() == f


def test_pth_power_pitfalls():
    # exponents divisible by the characteristic exercise the p-th root path
    cases = [
        (F2, "x^2+x+1", 2),
        (F2, "x^2+x+1", 4),
        (F2, "x+1", 6),
        (F3, "x+1", 3),
        (F3, "x^2+1", 3),
        (F3, "x+2", 9),
        (F4, "x+[2]", 2),
        (F5, "x+3", 5),
    ]
    for spec, prime_text, e in cases:
        prime = P(spec, prime_text)
        fac = factorize(prime**e)
        assert _parts(fac) == [(prime_text, e)]
    # mixed: p | e1, p does not divide e2
    f = P(F3, "x") ** 3 * P(F3, "x+1") ** 2
    assert _parts(factorize(f)) == [("x", 3), ("x+1", 2)]


def _distinct_exponents(f):
    return tuple(sorted({e for _, e in factorize(f).parts}))


def test_exponent_profile_matches_factorize():
    for spec, dmax in ((F2, 9), (F3, 5), (F4, 4)):
        for f in enumerate_upto(spec, dmax):
            assert factorization_exponents(f) == _distinct_exponents(f)
    rng = random.Random(55)
    for _ in range(500):
        f = _random_poly(rng, F5, 7)
        assert factorization_exponents(f) == _distinct_exponents(f)


def test_count_irreducibles_small():
    assert [count_irreducibles(2, n) for n in (1, 2, 3, 4)] == [2, 1, 2, 3]
    assert count_irreducibles(3, 1) == 3


def test_count_matches_bruteforce():
    for spec, q in ((F2, 2), (F3, 3), (F4, 4)):
        for n in range(1, 7):
            got = sum(1 for _ in enumerate_irreducibles(spec, n))
            assert got == count_irreducibles(q, n)


def test_divisor_sum_identity():
    for q in (2, 3, 4, 5, 9):
        for n in range(1, 9):
            from gpfq.intarith import divisors

            assert sum(d * count_irreducibles(q, d) for d in divisors(n)) == q**n


def test_enumerate_irreducibles_examples():
    assert [format_poly(f) for f in enumerate_irreducibles(F2, 2)] == ["x^2+x+1"]
    # canonical (constant-first lexicographic) order within degree 3
    assert [format_poly(f) for f in enumerate_irreducibles(F2, 3)] == ["x^3+x^2+1", "x^3+x+1"]
    assert [format_poly(f) for f in enumerate_irreducibles(F3, 1)] == ["x", "x+1", "x+2"]


def test_factorize_deterministic():
    f = P(F4, "x^6+[2]*x^3+x+[3]")
    a = factorize(f)
    b = factorize(f)
    c = factorize(f, seed=12345)
    assert _parts(a) == _parts(b) == _parts(c)
    assert a.expand() == f


# (field, largest degree drawn): prime fields reach the wider packed lanes
EXPAND_FIELDS = ((F2, 64), (F3, 40), (make_field(7), 24), (F4, 24), (make_field(2, 9), 6))


@settings(max_examples=120, deadline=None)
@given(data=st.data(), field=st.sampled_from(EXPAND_FIELDS), e=st.integers(1, 4))
def test_factorize_expand_identity(data, field, e):
    # f = g * h^e, so repeated factors and p-th powers turn up as well
    spec, dmax = field
    codes = st.integers(0, spec.q - 1)
    d = data.draw(st.integers(0, dmax))
    g = Poly(spec, data.draw(st.lists(codes, min_size=d, max_size=d)) + [data.draw(st.integers(1, spec.q - 1))])
    h = Poly(spec, data.draw(st.lists(codes, max_size=dmax // (2 * e) + 1)))
    f = g * h**e if not h.is_zero() else g
    fac = factorize(f)
    assert fac.expand() == f
    assert all(p.is_monic() and p.degree >= 1 for p, _ in fac.parts)


def test_factorization_record():
    f = P(F3, "2") * P(F3, "x") ** 2 * P(F3, "x+1") ** 2 * P(F3, "x+2")
    fac = factorize(f)
    assert fac.expand() == f
    assert (fac.unit.code, _parts(fac), fac.exponents()) == (2, [("x", 2), ("x+1", 2), ("x+2", 1)], (2, 2, 1))
    unit, parts = fac
    assert (unit, parts) == (fac.unit, fac.parts)
