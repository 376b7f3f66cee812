"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. Each test also enforces its runtime budget.
"""

import time
from fractions import Fraction

from _identities import cross_check_density_forms, zeta_identity_check
from _oracles import greedy_apfree_integers
from gpfq import (
    checkpoint_density,
    empirical_greedy_density,
    enumerate_polys,
    enumerate_upto,
    greedy_construct_bruteforce,
    greedy_density_interval,
    greedy_member,
    has_progression,
    lower_bound_mq,
    make_field,
    mq_interval,
    max_progression_free_subset,
    nk,
    reflected_degrees,
    rn_sequence,
    upper_bound_no_interval,
    upper_bound_simple,
)
from gpfq.intarith import prime_powers_upto
from gpfq.tables import verify_table

F2 = make_field(2)
F3 = make_field(3)


def _report(n, label, start, budget):
    elapsed = time.monotonic() - start
    print(f"CRITERION {n}: PASS ({label}, {elapsed:.2f}s)")
    assert elapsed < budget, f"criterion {n} exceeded its {budget}s budget"


def test_criterion_1_table1():
    start = time.monotonic()
    cells = verify_table(1)
    assert len(cells) == 12
    for c in cells:
        assert c.ok, f"q={c.q}: expected {c.expected}, computed {c.computed}"
    _report(1, "table 1, 12 cells at 6 decimals", start, 5)


def test_criterion_2_table2():
    start = time.monotonic()
    cells = verify_table(2)
    assert len(cells) == 12
    for c in cells:
        assert c.ok, f"q={c.q}: expected {c.expected}, computed {c.computed}"
    q5 = next(c for c in cells if c.q == 5)
    assert q5.expected == "0.96768"  # published with 5 decimals
    _report(2, "table 2, 12 cells incl. 5-digit q=5", start, 5)


def test_criterion_3_table3():
    start = time.monotonic()
    rns = rn_sequence(15)
    assert rns[-1] == 40  # q=2 needs r_n past 2^-r_n < 1e-12
    cells = verify_table(3)
    assert len(cells) == 42
    for c in cells:
        assert c.ok, f"q={c.q} {c.column}: expected {c.expected}, computed {c.computed}"
    _report(3, "table 3, 14 rows x 3 bounds at 9 decimals", start, 600)


def test_criterion_4_rn_sequence():
    start = time.monotonic()
    assert list(rn_sequence(9)) == [1, 2, 4, 5, 9, 11, 13, 14, 20]
    _report(4, "first 9 r_n values", start, 60)


def test_criterion_5_characterization_equivalence():
    start = time.monotonic()
    for spec, dmax, universe in ((F2, 8, 511), (F3, 5, 728)):
        polys = list(enumerate_upto(spec, dmax))
        assert len(polys) == universe
        constructed = greedy_construct_bruteforce(spec, dmax)
        characterized = {f for f in polys if greedy_member(f)}
        assert constructed == characterized
        assert has_progression(constructed) is None
        assert has_progression(constructed, unit_tolerant=True) is None
    _report(5, "greedy construction == exponent characterization, q=2 d<=8 and q=3 d<=5", start, 120)


def test_criterion_6_zeta_identity():
    start = time.monotonic()
    for q in (2, 3, 4, 5):
        assert zeta_identity_check(q, 30).ok
    _report(6, "power-series identity to degree 30, q in {2,3,4,5}", start, 5)


def test_criterion_7_checkpoint():
    start = time.monotonic()
    assert checkpoint_density(2, 2) == Fraction(27, 32)
    # independent polynomial-level count of the norm-set members up to 2^4
    degrees = set(reflected_degrees(nk(2)))
    members = sum(1 for f in enumerate_upto(F2, nk(2)) if f.degree in degrees)
    assert Fraction(members, 2 ** (nk(2) + 1)) == Fraction(27, 32)
    # checkpoints approach m_q from below, sandwiched within 2 q^(-N_k),
    # with the gap shrinking at every step
    for q in (2, 3, 5, 9):
        m = mq_interval(q, 4)
        prev_cp, prev_gap = None, None
        for k in range(1, 6):
            cp = checkpoint_density(q, k)
            gap_hi = m.hi - cp
            assert cp < m.hi
            assert gap_hi < 2 * Fraction(1, q ** nk(k))
            if prev_cp is not None:
                assert cp > prev_cp and gap_hi < prev_gap
            prev_cp, prev_gap = cp, m.lo - cp
    _report(7, "checkpoint exactness and sandwich toward m_q", start, 60)


def test_criterion_8_cross_form_consistency():
    start = time.monotonic()
    for q in (2, 3, 4, 5, 7, 8, 9):
        result = cross_check_density_forms(q, 3, 14)
        assert result.ok
        for iv in (result.zeta_form, result.count_form, result.closed_form):
            assert iv.width < Fraction(1, 10**8)
    _report(8, "three density forms overlap at 8-digit width", start, 30)


def test_criterion_9_empirical_convergence():
    start = time.monotonic()
    value = empirical_greedy_density(2, 14)
    assert value.denominator == 2**15
    assert abs(value - Fraction("0.648361")) < Fraction(1, 100)
    _report(9, f"empirical density at degree 14 is {value} (within 0.01)", start, 120)


def test_criterion_10_ordering_chain():
    start = time.monotonic()
    prev_hi = None
    for q in prime_powers_upto(130):
        greedy = greedy_density_interval(q, 3)
        mq = mq_interval(q, 3)
        no = upper_bound_no_interval(q, 12)
        simple = upper_bound_simple(q)
        assert greedy.hi < mq.lo, q
        assert mq.hi < no.lo, q
        assert no.hi < simple, q
        if prev_hi is not None:
            assert prev_hi < greedy.lo, q  # strictly increasing in q
        prev_hi = greedy.hi
    _report(10, "greedy < m_q < NO bound < simple bound for prime powers <= 130", start, 60)


def test_criterion_11_extremal_probe():
    start = time.monotonic()
    for d in range(5):
        size, witness = max_progression_free_subset(F2, d)
        constructive = sum(2**deg for deg in reflected_degrees(d))
        assert size == constructive, d
        assert len(witness) == size
        assert has_progression(witness) is None
    _report(11, "extremal search equals the reflected construction, q=2 d<=4", start, 300)
