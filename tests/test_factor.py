"""Factorization against trial-division oracles, counts, determinism."""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from _oracles import distinct_degree_brute, field_ops, monic_gcd, naive_is_irreducible, trial_division_factorize
from gpfq import (
    Poly,
    ZeroPolynomial,
    count_irreducibles,
    derivative,
    enumerate_irreducibles,
    enumerate_upto,
    factorization_exponents,
    factorize,
    format_poly,
    gcd,
    is_irreducible,
    make_field,
    parse_poly,
    zero,
)
from gpfq import factor
from gpfq.polydiv import _gcd, _Work
from gpfq.polyring import _trim

F2 = make_field(2)
F3 = make_field(3)
F4 = make_field(2, 2)
F5 = make_field(5)
F7 = make_field(7)
F9 = make_field(3, 2)


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
    for spec, dmax in ((F2, 8), (F3, 5), (F4, 4), (make_field(7), 3)):
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


# ---------------------------------------------------------------------------
# the packed residue ring against the textbook split on coefficient lists
# ---------------------------------------------------------------------------

# (field, largest degree drawn, lane bits of its packed ring at that degree): past 64 bits a
# lane is as many whole bytes as its bound needs
RING_FIELDS = (
    (F2, 40, 8),
    (F3, 40, 8),
    (make_field(7), 24, 16),
    (make_field(251), 12, 32),
    (make_field(65521), 10, 64),
    (make_field(2**61 - 1), 5, 128),
    (F4, 24, 8),
    (F9, 16, 8),
    (make_field(2, 4), 12, 8),
    (make_field(3, 3), 10, 8),
    (make_field(2, 9), 8, 8),
    (make_field(3, 6), 12, 16),
    (make_field(2, 13), 6, 8),  # above extfield._LOG_MAX: no log tables
    (make_field(3, 2, (2, 1, 1)), 40, 16),  # GF(9) by x^2+x+2, not the default x^2+1
    (make_field(2**31 - 1), 8, 72),
)


def _squarefree(data, spec, dmax):
    """A random monic squarefree polynomial of degree 1..dmax, drawn through `data`."""
    d = data.draw(st.integers(1, dmax))
    f = Poly(spec, data.draw(st.lists(st.integers(0, spec.q - 1), min_size=d, max_size=d)) + [1])
    assume(gcd(f, derivative(f)).degree == 0)
    return f


def _oracle_split(spec, f):
    """The textbook distinct-degree split of the monic squarefree f."""
    return distinct_degree_brute(spec.p, spec.modulus, f.coeffs)


@pytest.mark.parametrize("spec, dmax, bits", RING_FIELDS)
def test_ring_lanes(spec, dmax, bits):
    assert factor._Packed(spec, Poly(spec, [1] * dmax + [1]).coeffs).lane[0] == bits


@settings(max_examples=250, deadline=None)
@given(data=st.data(), field=st.sampled_from(RING_FIELDS))
def test_ring_matches_tuple_path(data, field):
    # the blocked split on the packed ring against one gcd per degree on coefficient lists
    spec, dmax, _ = field
    f = _squarefree(data, spec, dmax)
    ring, expected = factor._Packed(spec, f.coeffs), _oracle_split(spec, f)
    assert factor._distinct_degree(ring) == expected
    if f.degree >= 2:
        assert factor._irreducible(ring) == (expected == [(f.degree, f.coeffs)])
    assert factorize(f).expand() == f


@settings(max_examples=100, deadline=None)
@given(data=st.data(), field=st.sampled_from(RING_FIELDS))
def test_gcd_matches_oracle(data, field):
    # the packed Euclid over GF(p) and the tuple Euclid over GF(p^k), unmetered, metered and
    # through the public gcd, against the textbook Euclid; long Euclids over small primes
    # overflow narrow lanes unless reduced in time
    spec, dmax, _ = field
    ops, codes = field_ops(spec.p, spec.modulus), st.integers(0, spec.q - 1)
    a, b, c = (Poly(spec, data.draw(st.lists(codes, max_size=dmax + 1))) for _ in range(3))
    assume(not (a.is_zero() and b.is_zero()))
    for u, v in ((a, b), (a * c, b * c)) if not c.is_zero() else ((a, b),):
        expected = monic_gcd(ops, u.coeffs, v.coeffs)
        metered = _gcd(spec, u.coeffs, v.coeffs, _Work(factor.MAX_FACTOR_WORK))
        assert _gcd(spec, u.coeffs, v.coeffs) == metered == gcd(u, v).coeffs == expected


def _random_irreducible(spec, degree, rng):
    """A monic irreducible of the degree, by the trial-division oracle over GF(2) and GF(3)
    and by the textbook split elsewhere."""
    while True:
        f = Poly(spec, [rng.randrange(spec.q) for _ in range(degree)] + [1])
        if degree == 1 or (naive_is_irreducible(f) if spec.q <= 3 else _oracle_split(spec, f) == [(degree, f.coeffs)]):
            return f


B = factor._BLOCK
# degrees of the prime factors: on both sides of the first block edge, all inside one block,
# and single primes (already irreducible inputs, degree 1 among them)
BLOCK_PATTERNS = ((B, B + 1), (B - 1, B, B + 1, B + 2), (2, 3, 5, 7), (B + 1, B + 3, 2 * B), (1, 1, B + 1),
                  (1,), (B,), (B + 1,), (2 * B + 1,))


@settings(max_examples=60, deadline=None)
@given(spec=st.sampled_from((F2, F3, F7, F4, F9)), degrees=st.sampled_from(BLOCK_PATTERNS), seed=st.integers(0, 2**32))
def test_distinct_degree_at_block_edges(spec, degrees, seed):
    rng = random.Random(seed)
    primes = []
    for d in degrees:
        prime = _random_irreducible(spec, d, rng)
        while prime in primes:
            prime = _random_irreducible(spec, d, rng)
        primes.append(prime)
    f = Poly(spec, (1,))
    for prime in primes:
        f = f * prime
    expected = []
    for d in sorted(set(degrees)):
        part = Poly(spec, (1,))
        for prime in primes:
            if prime.degree == d:
                part = part * prime
        expected.append((d, part.coeffs))
    assert factor._distinct_degree(factor._Packed(spec, f.coeffs)) == expected == _oracle_split(spec, f)
    if len(primes) == 1 and f.degree >= 2:
        assert factor._irreducible(factor._Packed(spec, f.coeffs))
    fac = factorize(f)
    assert fac.expand() == f and sorted(p.coeffs for p, _ in fac.parts) == sorted(p.coeffs for p in primes)


def _charged(run):
    """(what run(work) returns, the units of work it charged)."""
    work = _Work(factor.MAX_FACTOR_WORK)
    return run(work), factor.MAX_FACTOR_WORK - work.left


@pytest.mark.parametrize("spec, n", [(F2, 2), (F3, 9), (F4, 16), (make_field(2**61 - 1), 5)])
def test_ring_charges_its_barrett_quotient(spec, n):
    # mu = x^(2n) // f takes n + 1 division steps at degree 2n; 1 and x are already reduced
    f = tuple(random.Random(n).randrange(spec.q) for _ in range(n)) + (1,)
    assert _charged(lambda work: factor._Packed(spec, f, work))[1] == (n + 1) * 2 * n


@pytest.mark.parametrize("spec", [F2, F3, F7, F4, F9])
def test_split_block_charges_its_reduction(spec):
    # the block gcd g has degree 3 < n = 10, so each h_d - x is reduced mod g before its gcd;
    # with every h_d reduced beforehand the split finds the same parts and is charged less
    rng = random.Random(spec.q)
    low, prime = _random_irreducible(spec, 1, rng) * _random_irreducible(spec, 2, rng), _random_irreducible(spec, 7, rng)
    ring = factor._Packed(spec, (low * prime).coeffs)
    hs, acc = factor._block(ring, ring.x, 0)
    g = ring.gcd(acc)
    assert g == low.coeffs and len(hs) == 5

    def split(hs):
        def run(work):
            ring.work = work
            return factor._split_block(ring, g, hs, 1)
        return _charged(run)

    reduced = [ring.pack((Poly(spec, ring.codes(h)) % low).coeffs) for h in hs]
    (parts, units), (same, fewer) = split(hs), split(reduced)
    assert parts == same and [d for d, _ in parts] == [1, 2] and units > fewer


# (field, degrees of seeded random monic factors taken to the powers 1, 2, ..., seed, the units
# factorize charges for their product): the GF(4) product has factors of exponent 2, 3 and 5,
# so its squarefree split takes a p-th root
FACTORIZE_CHARGES = ((F2, (96,), 2, 139_088), (F3, (48,), 3, 37_055), (F4, (5, 4, 3), 9, 1_719),
                     (make_field(2**61 - 1), (12,), 61, 5_802))


@pytest.mark.parametrize("spec, degrees, seed, units", FACTORIZE_CHARGES)
def test_factorize_charge_is_pinned(monkeypatch, spec, degrees, seed, units):
    # the counts are literals, so moving a gcd or a division to another layer can neither
    # charge a step twice nor leave one uncharged
    rng, f, made = random.Random(seed), Poly(spec, (1,)), []
    for e, d in enumerate(degrees, 1):
        f = f * Poly(spec, [rng.randrange(spec.q) for _ in range(d)] + [1]) ** e

    class Recorded(_Work):
        def __init__(self, budget):
            super().__init__(budget)
            made.append(self)

    monkeypatch.setattr(factor, "_Work", Recorded)
    assert factorize(f).expand() == f
    assert [factor.MAX_FACTOR_WORK - work.left for work in made] == [units]


# (field, modulus degree): q > n takes the Frobenius matrix, q <= n square and multiply
FROBENIUS_CASES = ((F7, 6), (F7, 8), (make_field(2, 9), 16), (F4, 40))


@pytest.mark.parametrize("spec, n", FROBENIUS_CASES)
def test_frobenius_matrix_matches_powering(spec, n):
    rng = random.Random(n)
    work = _Work(factor.MAX_FACTOR_WORK)
    ring = factor._Packed(spec, tuple(rng.randrange(spec.q) for _ in range(n)) + (1,), work)
    ring.frobenius_by_matrix(ring.x)
    assert factor.MAX_FACTOR_WORK - work.left >= n * n  # the build's n - 1 products and the step
    for _ in range(20):
        h = ring.elem(_trim([rng.randrange(spec.q) for _ in range(n)]))
        left = work.left
        step = ring.frobenius_by_matrix(h)
        assert left - work.left == n  # a step is charged as one ring product
        assert step == ring.pow(h, spec.q)
        left = work.left
        assert ring.frobenius(h) == step
        assert (left - work.left == n) == (spec.q > n)


def test_frobenius_matrix_past_the_cap_is_not_built(monkeypatch):
    # a matrix of n residues of n coefficients is refused past _MATRIX_BITS, for memory
    spec = make_field(2, 9)
    ring = factor._Packed(spec, tuple(range(1, 17)) + (1,))
    monkeypatch.setattr(factor, "_MATRIX_BITS", 16 * ring.shift - 1)
    h = ring.elem(tuple(range(16)))
    assert ring.frobenius(h) == ring.pow(h, spec.q) and ring.matrix is None


def _seed_by_horner(q, coeffs):
    s = 1
    for c in coeffs:
        s = s * q + c
    return s * q + q


@settings(max_examples=60, deadline=None)
@given(data=st.data(), spec=st.sampled_from((F2, F3, F4, make_field(7), make_field(3, 6), make_field(2**61 - 1))))
def test_default_seed_is_the_horner_value(data, spec):
    coeffs = data.draw(st.lists(st.integers(0, spec.q - 1), max_size=300))
    assert factor._default_seed(spec, tuple(coeffs)) == _seed_by_horner(spec.q, coeffs)
