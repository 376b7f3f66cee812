"""Progression-free combinatorics: integer set, greedy set, witnesses, extremal."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    DigitField,
    greedy_apfree_integers,
    greedy_construct_divisions,
    has_progression_brute,
    ints_ap_free,
    largest_free_set_brute,
    max_progression_free_brute,
    reflected_free_size,
)
from gpfq import (
    BudgetExceeded,
    Poly,
    SpecMismatch,
    ZeroPolynomial,
    a3_contains,
    a3_list,
    enumerate_upto,
    format_poly,
    greedy_construct_bruteforce,
    greedy_counts,
    greedy_member,
    greedy_members,
    has_progression,
    make_field,
    max_progression_free_subset,
    nk,
    parse_poly,
    reflected_degrees,
    zero,
)
from gpfq import progfree
from gpfq.progfree import _largest_free_set, enumeration_size

F2 = make_field(2)
F3 = make_field(3)
F4 = make_field(2, 2)
F9_101 = make_field(3, 2, (1, 0, 1))
F11 = make_field(11)


def P(spec, text):
    return parse_poly(spec, text)


def test_a3_contains():
    for n in (0, 1, 3, 4, 9, 10, 12, 13):
        assert a3_contains(n)
    assert not a3_contains(2)
    assert not a3_contains(7)  # 21 in ternary


def test_a3_list():
    assert a3_list(13) == [0, 1, 3, 4, 9, 10, 12, 13]
    assert a3_list(2) == [0, 1]
    # frozen from the greedy oracle: 11 members up to 30
    assert a3_list(30) == greedy_apfree_integers(30)
    assert len(a3_list(30)) == 11


def test_a3_equals_greedy_oracle():
    assert a3_list(10_000) == greedy_apfree_integers(10_000)


def test_greedy_member_examples():
    assert not greedy_member(P(F2, "x^2"))
    assert greedy_member(P(F2, "x^4+x^3"))  # x^3 (x+1): exponents 3, 1
    for spec in (F2, F3):
        for c in range(1, spec.q):
            assert greedy_member(P(spec, str(c)))
    with pytest.raises(ZeroPolynomial):
        greedy_member(zero(F2))


def test_greedy_construct_examples():
    got = greedy_construct_bruteforce(F2, 2)
    assert [format_poly(f) for f in got] == ["1", "x", "x+1", "x^2+x", "x^2+x+1"]
    assert greedy_construct_bruteforce(F2, 0) == [P(F2, "1")]
    assert len(greedy_construct_bruteforce(F3, 1)) == 8  # no progression fits below degree 2


def test_greedy_budget():
    with pytest.raises(BudgetExceeded):
        greedy_construct_bruteforce(F2, 5, budget=10)


def test_equivalence_small():
    for spec, dmax in ((F2, 6), (F3, 4)):
        constructed = greedy_construct_bruteforce(spec, dmax)
        characterized = [f for f in enumerate_upto(spec, dmax) if greedy_member(f)]
        assert constructed == characterized  # as lists: in canonical order too


@pytest.mark.parametrize("p, k", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (5, 2)])
def test_greedy_construct_matches_division_oracle(p, k):
    # every D with q^(D+1) <= 4096 (for GF(11) and GF(25) also the largest D
    # whose division oracle runs in under 2 s); the greedy set up to D is the
    # oracle's set at the largest such D cut to degree <= D, as each degree is
    # decided by the lower ones alone; each oracle is listed in canonical order
    spec = make_field(p, k)
    top = max(d for d in range(12) if spec.q ** (d + 1) <= 4096)
    divided = greedy_construct_divisions(spec, top)
    characterized = [f for f in enumerate_upto(spec, top) if greedy_member(f)]
    for d in range(top + 1):
        got = greedy_construct_bruteforce(spec, d)
        assert got == [f for f in enumerate_upto(spec, d) if f in divided]
        assert got == [f for f in characterized if f.degree <= d]


@pytest.mark.parametrize("p, k", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (5, 2)])
def test_greedy_members_match_factoring_oracle(p, k):
    # three routes to one set at every D with q^(D+1) <= 4096, and for GF(11)
    # and GF(25) up to the largest D whose factoring oracle runs in under 2 s:
    # the sieve of irreducibles, factoring each polynomial, and the
    # Euler-product counts; the factoring oracle is listed in canonical order
    spec = make_field(p, k)
    top = {(11, 1): 3, (5, 2): 2}.get((p, k)) or max(d for d in range(12) if spec.q ** (d + 1) <= 4096)
    characterized = [f for f in enumerate_upto(spec, top) if greedy_member(f)]
    for d in range(top + 1):
        got = greedy_members(spec, d)
        assert got == [f for f in characterized if f.degree <= d]
        counts = [0] * (d + 1)
        for f in got:
            counts[f.degree] += 1
        assert counts == greedy_counts(spec.q, d)


def test_greedy_members_budget():
    assert greedy_members(F2, 0) == [P(F2, "1")]
    with pytest.raises(BudgetExceeded):
        greedy_members(F2, 5, budget=10)
    with pytest.raises(ValueError):
        greedy_members(F2, -1)


@pytest.mark.parametrize("spec", [F2, F9_101, F11, make_field(3, 5), make_field(2, 10)])
def test_unit_multiples_match_oracle(spec):
    # each unit times each code of the g, against DigitField's products
    # sorted in canonical order
    field = DigitField(spec.p, spec.modulus)
    rng = random.Random(spec.q)
    gs = [tuple(rng.randrange(spec.q) for _ in range(n)) + (1,) for n in range(4)]
    expect = sorted(Poly(spec, [field.mul(u, c) for c in g]) for g in gs for u in range(1, spec.q))
    assert progfree._unit_multiples(spec, gs) == expect
    assert progfree._unit_multiples(spec, []) == []


def test_unit_multiples_of_zeros_and_ones_pack_nothing(monkeypatch):
    # the unit multiples map codes through dicts: over GF(2^13), above the log
    # tables, the one _packer call is _monics'
    calls = []
    packer = progfree._packer
    monkeypatch.setattr(progfree, "_packer", lambda *args: calls.append(args) or packer(*args))
    spec = make_field(2, 13)
    assert greedy_members(spec, 0) == [Poly(spec, [u]) for u in range(1, spec.q)]
    assert len(calls) == 1
    gs = [(1,), (0, 1), (5, 0, 1)]
    expect = sorted(Poly(spec, [spec.mul_c(u, c) for c in g]) for g in gs for u in range(1, spec.q))
    assert progfree._unit_multiples(spec, gs) == expect
    assert len(calls) == 1


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_has_progression_matches_divisibility_oracle(data):
    # GF(9) under a modulus other than the default, and GF(11), whose products
    # take 16-bit lanes; at most 150 members there, so the oracle stays fast
    spec, max_degree, most = data.draw(st.sampled_from(
        [(F2, 5, None), (F3, 3, None), (F4, 2, None), (F9_101, 2, 150), (F11, 2, 150)]))
    universe = list(enumerate_upto(spec, max_degree))
    polys = data.draw(st.permutations(universe))[: data.draw(st.integers(0, most or len(universe)))]
    strict = has_progression(polys)
    tolerant = has_progression(polys, unit_tolerant=True)
    assert strict == has_progression_brute(polys)
    assert tolerant == has_progression_brute(polys, unit_tolerant=True)
    assert tolerant is not None or strict is None


def test_has_progression_examples():
    w = has_progression({P(F2, "1"), P(F2, "x"), P(F2, "x^2")})
    assert (format_poly(w.base), format_poly(w.ratio)) == ("1", "x")
    assert [format_poly(g) for g in w.members] == ["1", "x", "x^2"]

    assert has_progression({P(F2, "1"), P(F2, "x"), P(F2, "x^2+x")}) is None

    s = {P(F3, "1"), P(F3, "x"), P(F3, "2*x^2")}
    assert has_progression(s) is None
    w = has_progression(s, unit_tolerant=True)
    assert (format_poly(w.base), format_poly(w.ratio)) == ("1", "x")


def test_has_progression_witness_order():
    # two progressions; the canonical (base, ratio) order picks base 1 first
    s = {P(F2, "1"), P(F2, "x"), P(F2, "x^2"), P(F2, "x+1"),
         P(F2, "x^2+1"), P(F2, "x^4+x^2+1")}
    w = has_progression(s)
    assert (format_poly(w.base), format_poly(w.ratio)) == ("1", "x")


def test_has_progression_nonmonic_ratio():
    # 1, 2x, x^2: ratio 2x (non-monic) since (2x)^2 = 4x^2 = x^2 over F_3
    s = {P(F3, "1"), P(F3, "2*x"), P(F3, "x^2")}
    w = has_progression(s)
    assert w is not None
    assert (format_poly(w.base), format_poly(w.ratio)) == ("1", "2*x")


def test_has_progression_errors():
    with pytest.raises(SpecMismatch):
        has_progression([P(F2, "x"), P(F3, "x")])
    with pytest.raises(ZeroPolynomial):
        has_progression([P(F2, "x"), zero(F2)])
    assert has_progression([]) is None


def test_nk():
    assert [nk(k) for k in (1, 2, 3, 4)] == [1, 4, 13, 40]
    n3 = nk(3)
    digits = []
    while n3:
        digits.append(n3 % 3)
        n3 //= 3
    assert digits == [1, 1, 1]  # all-ones ternary


def test_degree_sets():
    assert tuple(a3_list(4)) == (0, 1, 3, 4)
    assert reflected_degrees(4) == (0, 1, 3, 4)
    assert reflected_degrees(5) == (1, 2, 4, 5)


def test_reflection_symmetry():
    for k in range(1, 7):
        m = nk(k)
        assert reflected_degrees(m) == tuple(a3_list(m))


def test_is_ap_free():
    assert ints_ap_free((0, 1, 3, 4))
    assert not ints_ap_free((0, 1, 2))
    assert ints_ap_free(())
    assert ints_ap_free((5,))
    assert not ints_ap_free((1, 5, 9))


def test_degree_set_progression_equivalence():
    # S(X) has a strict progression iff the degree set has a 3-term AP;
    # exhaustive over every X within degrees <= 5 at q = 2
    from itertools import combinations

    degrees = range(6)
    by_degree = {d: [f for f in enumerate_upto(F2, 5) if f.degree == d] for d in degrees}
    for r in range(len(degrees) + 1):
        for xset in combinations(degrees, r):
            polys = [f for d in xset for f in by_degree[d]]
            witness = has_progression(polys)
            assert (witness is None) == ints_ap_free(xset), xset


def test_extremal_small():
    size, witness = max_progression_free_subset(F2, 1)
    assert size == 3
    assert {format_poly(f) for f in witness} == {"1", "x", "x+1"}

    size, witness = max_progression_free_subset(F2, 2)
    assert size >= 5  # the greedy set gives 5; the solver finds the exact value
    assert size == 6
    assert has_progression(witness) is None


def test_extremal_budget():
    with pytest.raises(BudgetExceeded):
        max_progression_free_subset(F2, 5, budget=40)


def test_extremal_deterministic():
    a = max_progression_free_subset(F2, 3)
    b = max_progression_free_subset(F2, 3)
    assert a == b
    # the witness is the canonically least optimum, so it is sorted
    from gpfq import canonical_key

    keys = [canonical_key(f) for f in a[1]]
    assert keys == sorted(keys)


@pytest.mark.parametrize("q, max_degree", [(2, 0), (2, 1), (2, 2), (2, 3), (3, 1), (4, 1)])
def test_extremal_against_bruteforce(q, max_degree):
    spec = make_field(*{2: (2, 1), 3: (3, 1), 4: (2, 2)}[q])
    assert max_progression_free_subset(spec, max_degree) == max_progression_free_brute(spec, max_degree)


def test_largest_free_set_random_hypergraphs():
    # include-first order plus strict improvement must give the least maximum,
    # from no seed, a free seed, or a seed that holds an edge (and is ignored)
    rng, seed_rng = random.Random(20151201), random.Random(20151202)
    for _ in range(400):
        n = rng.randrange(3, 13)
        edges = sorted({tuple(rng.sample(range(n), 3)) for _ in range(rng.randrange(3 * n + 1))})
        rng.shuffle(edges)
        want = largest_free_set_brute(n, edges)
        assert tuple(_largest_free_set(n, edges)) == want
        free = 0
        for v in seed_rng.sample(range(n), n):
            if not any(v in e and all(free >> u & 1 for u in e if u != v) for e in edges):
                free |= 1 << v
        seeds = [free]
        if edges:
            seeds.append(sum(1 << v for v in {*seed_rng.choice(edges), *seed_rng.sample(range(n), n // 2)}))
        for seed in seeds:
            assert tuple(_largest_free_set(n, edges, seed)) == want, (n, edges, seed)


@pytest.mark.parametrize("q, max_degree", [(2, d) for d in range(7)] + [(3, d) for d in range(1, 5)]
                         + [(4, d) for d in range(1, 4)] + [(5, 1), (5, 2), (7, 2)])
def test_extremal_seed_keeps_witness(monkeypatch, q, max_degree):
    # the reflected-degree seed changes no answer, and the optimum is that set's size
    spec = make_field(*{2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1)}[q])
    seeded = max_progression_free_subset(spec, max_degree)
    search = progfree._largest_free_set
    monkeypatch.setattr(progfree, "_largest_free_set", lambda n, edges, seed: search(n, edges))
    assert max_progression_free_subset(spec, max_degree) == seeded
    assert seeded[0] == reflected_free_size(q, max_degree)


@pytest.mark.parametrize("q, max_degree", [(2, 7), (2, 8), (2, 9), (3, 5), (4, 4), (5, 3)])
def test_extremal_optimum_is_reflected_size(q, max_degree):
    spec = make_field(*{2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1)}[q])
    size, witness = max_progression_free_subset(spec, max_degree)
    assert size == reflected_free_size(q, max_degree) == len(witness)
    assert has_progression(witness) is None


def test_extremal_work_budget(monkeypatch):
    monkeypatch.setattr(progfree, "MAX_SEARCH_WORK", 10_000)
    with pytest.raises(BudgetExceeded):
        max_progression_free_subset(F2, 7)


def test_enumeration_size_boundary():
    # q^(D+1) polynomials of degree <= D, zero included; the budget is inclusive
    assert enumeration_size(2, 4, 32) == 32
    assert enumeration_size(2, 4, 31, nonzero=True) == 31
    with pytest.raises(BudgetExceeded):
        enumeration_size(2, 4, 31)
    with pytest.raises(BudgetExceeded):
        enumeration_size(2, 4, 30, nonzero=True)
    assert enumeration_size(3, 100, 3**101) == 3**101
    with pytest.raises(BudgetExceeded):
        enumeration_size(3, 100, 3**101 - 1)
    for q in (2, 3, 4, 7, 1031):
        for budget in range(1, 300):
            for d in range(10):
                fits = q ** (d + 1) <= budget
                try:
                    assert enumeration_size(q, d, budget) == q ** (d + 1) and fits
                except BudgetExceeded:
                    assert not fits
    with pytest.raises(BudgetExceeded):  # q^(D+1) is never built far past the budget
        enumeration_size(3, 30_000_000_000, 1 << 21)


def test_progression_witness_members():
    w = has_progression({P(F3, "x+1"), P(F3, "x^2+x"), P(F3, "x^3+x^2")})
    assert (format_poly(w.base), format_poly(w.ratio)) == ("x+1", "x")
    assert w.members == (P(F3, "x+1"), P(F3, "x^2+x"), P(F3, "x^3+x^2"))
    assert w.members[1] == w.base * w.ratio and w.members[2] == w.members[1] * w.ratio


@pytest.mark.parametrize("p, k, modulus", [(2, 1, None), (3, 1, None), (2, 2, None), (3, 2, (1, 0, 1))])
def test_searches_make_no_field_calls(monkeypatch, p, k, modulus):
    # the searches and greedy builds multiply packed ints; a fall back to the
    # tuple-level products or to the field fails here
    spec = make_field(p, k, modulus)
    top = 4 if spec.q < 9 else 2
    greedy = greedy_construct_bruteforce(spec, top)
    members = greedy_members(spec, top)
    full = list(enumerate_upto(spec, 2))  # 1, x, x^2 is a progression
    expect = [has_progression(s, unit_tolerant=t) for s in (greedy, full) for t in (False, True)]
    extremal = max_progression_free_subset(spec, 2, budget=1000)

    def refuse(*args):
        raise AssertionError("field call from a search")

    for name in ("add_c", "mul_c", "inv_c", "neg_c"):
        setattr(spec, name, refuse)
    for name in ("_mul", "_scale", "_monic"):
        monkeypatch.setattr(progfree, name, refuse, raising=False)
    assert greedy_construct_bruteforce(spec, top) == greedy == members == greedy_members(spec, top)
    assert [has_progression(s, unit_tolerant=t) for s in (greedy, full) for t in (False, True)] == expect
    assert expect[0] is None and expect[2] is not None
    assert max_progression_free_subset(spec, 2, budget=1000) == extremal
