"""Density quantities: exact identities, certified table values, searches."""

from fractions import Fraction
from math import comb

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _identities import (
    CrossCheckResult,
    ZetaIdentityCheck,
    cross_check_density_forms,
    zeta_identity_check,
    zeta_q,
)
from _oracles import (
    apfree_subset_exists_backtrack,
    apfree_subset_exists_brute,
    greedy_counts_brute,
    rn_backtrack,
    rn_brute,
)
from gpfq import (
    BudgetExceeded,
    Interval,
    NeedsMorePrecision,
    RnTable,
    a3_list,
    checkpoint_density,
    empirical_greedy_density,
    figure1_data,
    greedy_counts,
    greedy_density,
    greedy_density_interval,
    lower_bound_mq,
    make_field,
    mq_interval,
    nk,
    rn_sequence,
    upper_bound_no,
    upper_bound_no_interval,
    upper_bound_simple,
)
from gpfq import density, rn
from gpfq.rn import _apfree_exists
from gpfq.intarith import prime_power, prime_powers_upto


def test_zeta_examples():
    assert zeta_q(2, 2) == 2
    assert zeta_q(3, 2) == Fraction(3, 2)
    assert zeta_q(2, 3) == Fraction(4, 3)
    with pytest.raises(ValueError):
        zeta_q(2, 1)


def test_zeta_reciprocal_is_unit_density():
    # the empty product in the zeta quotient form leaves exactly 1/zeta(2)
    for q in (2, 3, 5, 9):
        assert 1 / zeta_q(q, 2) == 1 - Fraction(1, q)


def test_zeta_identity():
    for q in (2, 3):
        check = zeta_identity_check(q, 10)
        assert check.ok and bool(check)
        assert check.mismatch_degree is None
    # the degree-1 coefficient is q = m(1, q) on both sides
    from gpfq import count_irreducibles

    for q in (2, 3, 5, 7, 9):
        assert count_irreducibles(q, 1) == q


def test_local_density_partial_sum_identity():
    # subset sums of {1, 3, 9} are exactly the admissible exponents below 27,
    # so the series equals the K-fold local factor (1 - 1/t) * prod_{i<K} (1 + t^(-3^i)),
    # which is mq_interval's partial product through depth K - 1: its lower endpoint
    t, big_k = 2, 3
    members = [n for n in range(3**big_k) if all(d != 2 for d in _ternary(n))]
    lhs = (1 - Fraction(1, t)) * sum(Fraction(1, t**n) for n in members)
    assert lhs == mq_interval(t, big_k - 1).lo


def _ternary(n):
    if n == 0:
        return [0]
    out = []
    while n:
        out.append(n % 3)
        n //= 3
    return out


def test_local_density_limits():
    for t in (4, 5, 8, 100):
        for depth in (1, 2, 3):
            iv = mq_interval(t, depth)
            assert iv.lo >= 1 - Fraction(2, t)
            assert iv.hi <= 1
    assert mq_interval(2, 3).width < Fraction(1, 10**12)


def test_greedy_density_table_spots():
    assert greedy_density(2, 6).rendered == "0.648361"
    assert greedy_density(3, 6).rendered == "0.747027"
    assert greedy_density(343, 6).rendered == "0.997093"


def test_greedy_density_report_fields():
    r = greedy_density(5, 8)
    assert (r.q, r.kind, r.digits) == (5, "greedy", 8)
    assert r.depth >= 3
    assert r.interval().width < Fraction(1, 10**8)
    assert r.to_json()["value"] == r.rendered


def test_cross_check_forms():
    assert cross_check_density_forms(2, 4, 12).ok
    assert cross_check_density_forms(3, 4, 12).ok


def test_lower_bound_spots():
    assert lower_bound_mq(2, 6).rendered == "0.845398"
    assert lower_bound_mq(27, 6).rendered == "0.998679"
    assert lower_bound_mq(2, 9).rendered == "0.845397956"


def test_checkpoint_exact():
    assert checkpoint_density(2, 1) == Fraction(3, 4)
    assert checkpoint_density(2, 2) == Fraction(27, 32)


def test_checkpoint_sandwich():
    # increases toward m_q from below; gap under 2 q^(-N_k) and shrinking
    for q in (2, 3, 5, 9):
        m = mq_interval(q, 4)
        prev = None
        prev_gap = None
        for k in range(1, 6):
            cp = checkpoint_density(q, k)
            assert cp < m.hi
            gap_hi = m.hi - cp
            assert gap_hi < 2 * Fraction(1, q ** nk(k))
            if prev is not None:
                assert cp > prev
                assert gap_hi < prev_gap
            prev, prev_gap = cp, m.lo - cp


def test_checkpoint_partial_product_identity():
    # the closed-form product equals the degree-count series over a3_list(N_k),
    # sum of q^(-n) - q^(-n-1), exactly at every stage
    for q in (2, 3, 5, 9):
        for big_k in range(1, 7):
            series = sum(Fraction(1, q**n) - Fraction(1, q ** (n + 1)) for n in a3_list(nk(big_k)))
            assert checkpoint_density(q, big_k) == series


def test_upper_simple():
    assert upper_bound_simple(2) == Fraction(6, 7)
    assert upper_bound_simple(2, 1) == Fraction(7, 8)
    from gpfq import render_decimal

    assert render_decimal(upper_bound_simple(5), 9) == "0.967741935"


def test_upper_simple_decreasing_in_terms():
    for q in (2, 3, 5):
        closed = upper_bound_simple(q)
        values = [upper_bound_simple(q, t) for t in range(7)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert all(v > closed for v in values)
        assert values[-1] - closed < Fraction(1, q**17)


def test_upper_simple_closed_form_equals_sum():
    # oracle: the finite sum the closed form replaced
    for q in (2, 3, 4, 5, 7, 8, 9, 27):
        for terms in range(30):
            acc = sum((Fraction(1, q ** (2 + 3 * i)) for i in range(terms)), Fraction(0))
            assert upper_bound_simple(q, terms) == 1 - Fraction(q - 1, q) * acc


def test_upper_simple_terms_budget():
    # q^(2+3T) may have at most MAX_CHECKPOINT_BITS = 2^20 bits
    assert upper_bound_simple(2, 349524) < upper_bound_simple(2, 349523)
    for q, terms in ((2, 349525), (2, 10**9), (2, 10**4000), (1031, 40000)):
        with pytest.raises(BudgetExceeded):
            upper_bound_simple(q, terms)


def test_rn_first_values():
    assert list(rn_sequence(9)) == [1, 2, 4, 5, 9, 11, 13, 14, 20]
    assert list(rn_sequence(2)) == [1, 2]


def test_rn_against_bruteforce():
    got = list(rn_sequence(6))
    assert got == [rn_brute(n) for n in range(1, 7)]


# r_1..r_20 as printed by `gpfq rn --n 20` before the window bound (OEIS A065825)
R20 = [1, 2, 4, 5, 9, 11, 13, 14, 20, 24, 26, 30, 32, 36, 40, 41, 51, 54, 58, 63]


def test_rn_strictly_increasing_and_r10():
    vals = list(rn_sequence(12))
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert vals[9] == 24  # r_10 from the exhaustive search
    assert vals == R20[:12]


def test_rn_against_backtracking():
    assert list(rn_sequence(12)) == [rn_backtrack(n) for n in range(1, 13)]


def test_rn_pinned_to_20():
    assert list(rn_sequence(20)) == R20


@pytest.mark.parametrize("n", range(1, 13))
def test_window_bounded_search_against_oracles(n):
    # every m the search is asked about for this n: r_(n-1) < m <= r_n
    low = R20[n - 2] if n >= 2 else 0
    for m in range(low + 1, R20[n - 1] + 1):
        if comb(m, n) <= 20000:
            expected = apfree_subset_exists_brute(m, n)
        else:
            expected = apfree_subset_exists_backtrack(m, n)
        assert _apfree_exists(m, n, R20[: n - 1]) == expected == (m == R20[n - 1])


def test_rn_budget(monkeypatch):
    # n past MAX_RN_N is refused before anything is searched
    monkeypatch.setattr(rn, "_rn_cache", [1, 2])
    monkeypatch.setattr(rn, "MAX_RN_N", 12)
    assert list(rn_sequence(12)) == R20[:12]
    with pytest.raises(BudgetExceeded, match="budget"):
        rn_sequence(13)
    assert len(rn._rn_cache) == 12


def test_upper_no_spots():
    assert upper_bound_no(2, 9).rendered == "0.846375541"
    assert upper_bound_no(3, 9).rendered == "0.921925273"
    assert upper_bound_no(25, 9).rendered == "0.998463898"


def test_upper_no_interval_tail():
    iv = upper_bound_no_interval(2, 9)
    assert iv.width == Fraction(1, 2**20)
    deeper = upper_bound_no_interval(2, 12)
    assert iv.lo <= deeper.lo and deeper.hi <= iv.hi


def test_empirical_small():
    assert empirical_greedy_density(2, 2) == Fraction(5, 8)
    assert empirical_greedy_density(2, 0) == Fraction(1, 2)
    # the series is refused before it is built: too many terms, or too many bits in q^(D+1)
    for q, max_degree in ((2, 813), (3, 10**9), (2**8193, 0), (3**300, 30)):
        with pytest.raises(BudgetExceeded):
            empirical_greedy_density(q, max_degree)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_greedy_counts_match_enumeration(q):
    # every D with q^D <= 4096; exact-degree counts do not depend on D
    top = max(d for d in range(13) if q**d <= 4096)
    brute = greedy_counts_brute(make_field(*prime_power(q)), top)
    for d in range(top + 1):
        assert greedy_counts(q, d) == brute[: d + 1]


@pytest.mark.parametrize(
    "q, max_degree, value",
    [
        (2, 13, Fraction(10639, 16384)),
        (2, 14, Fraction(21255, 32768)),
        (2, 16, Fraction(85011, 131072)),
        (3, 8, Fraction(14708, 19683)),
        (3, 9, Fraction(44126, 59049)),
        (4, 6, Fraction(13107, 16384)),
        (4, 8, Fraction(209523, 262144)),
    ],
)
def test_empirical_pinned(q, max_degree, value):
    assert empirical_greedy_density(q, max_degree) == value


def test_figure1():
    rows = figure1_data(30)
    qs = [q for q, _ in rows]
    assert qs == [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29]
    data = dict(rows)
    assert data[2] == "0.648361"
    assert data[9] == "0.899985"
    for bad in (6, 10, 12):
        assert bad not in data
    with pytest.raises(BudgetExceeded):  # refused before any density is certified
        figure1_data(density.MAX_FIGURE1_Q + 1)


def test_figure1_full_range():
    data = dict(figure1_data(130))
    assert len(data) == 44
    for q in (121, 125, 127, 128):
        assert q in data
    assert Fraction(data[128]) > Fraction(99, 100)


def test_greedy_interval_fixed_depth():
    iv = greedy_density_interval(2, 3)
    assert Fraction("0.648361") in Interval(iv.lo - Fraction(1, 10**6), iv.hi + Fraction(1, 10**6))
    assert iv.width < Fraction(1, 10**20)


def _mp_rendered(q, digits, first, factor):
    """first(q) * prod_{i>=1} factor(q, 3^i) in mpmath at digits + 20, rounded half away from zero."""
    with mpmath.workdps(digits + 20):
        x = mpmath.mpf(q)
        value, i = first(x), 1
        while x ** (1 - 3**i) > mpmath.mpf(10) ** -(digits + 25):
            value *= factor(x, 3**i)
            i += 1
        n = int(mpmath.floor(value * 10**digits + mpmath.mpf(1) / 2))
    return f"{n // 10**digits}.{n % 10**digits:0{digits}d}"


@settings(max_examples=60, deadline=None)
@given(q=st.sampled_from(prime_powers_upto(130)), digits=st.integers(1, 60))
def test_certified_products_match_mpmath(q, digits):
    greedy = _mp_rendered(q, digits, lambda x: 1 - 1 / x, lambda x, a: (1 - x ** (1 - 2 * a)) / (1 - x ** (1 - a)))
    assert greedy_density(q, digits).rendered == greedy
    lower = _mp_rendered(q, digits, lambda x: 1 - x**-2, lambda x, a: 1 + x ** (-a))
    assert lower_bound_mq(q, digits).rendered == lower


def test_rn_table_is_a_strictly_increasing_tuple():
    table = rn_sequence(5)
    assert isinstance(table, RnTable) and table == (1, 2, 4, 5, 9)
    assert (len(table), table[-1], list(table)) == (5, 9, [1, 2, 4, 5, 9])
    assert RnTable([3]) == (3,) and RnTable(x for x in (1, 4)) == (1, 4)
    for values in ([1, 2, 2], [1, 3, 2], (5, 4)):
        with pytest.raises(ValueError):
            RnTable(values)


def test_check_results_are_falsy_when_not_ok():
    assert not ZetaIdentityCheck(False, 3, 7, 8)
    assert ZetaIdentityCheck(True) and ZetaIdentityCheck(True).mismatch_degree is None
    assert zeta_identity_check(3, 6) == ZetaIdentityCheck(True)
    iv = Interval(0, 1)
    assert not CrossCheckResult(False, iv, iv, iv)
    assert CrossCheckResult(True, iv, iv, iv)


def test_upper_no_stops_at_rn_budget(monkeypatch):
    # 15 digits need more terms than MAX_RN_N; certify tries r_8..r_12 and searches no further
    monkeypatch.setattr(rn, "_rn_cache", [1, 2])
    for module in (density, rn):  # certify's term range and the search's own budget
        monkeypatch.setattr(module, "MAX_RN_N", 12)
    with pytest.raises(NeedsMorePrecision, match="terms budget"):
        density.certify("upper_no", 2, 15)
    assert rn._rn_cache == R20[:12]


def test_upper_no_refuses_unreachable_digits_at_once(monkeypatch):
    # the MAX_RN_N-term interval is q^-MAX_RN_R wide: 2^-74 > 10^-23, so no search runs
    monkeypatch.setattr(rn, "_rn_cache", [1, 2])
    for q, digits in ((2, 23), (2, 30), (3, 36)):
        with pytest.raises(NeedsMorePrecision, match="cannot reach"):
            density.certify("upper_no", q, digits)
    assert rn._rn_cache == [1, 2]


def test_max_rn_r_is_the_last_searched_rn(monkeypatch):
    monkeypatch.setattr(rn, "_rn_cache", [1, 2])
    assert rn_sequence(density.MAX_RN_N)[-1] == density.MAX_RN_R


def test_rn_work_budget_admits_r20(monkeypatch):
    monkeypatch.setattr(rn, "_rn_cache", [1, 2])
    assert list(rn_sequence(20)) == R20


def test_rn_names_resolve_through_density_and_the_package():
    # the search lives in gpfq.rn; density and the package hand out the same objects
    for name in ("rn_sequence", "RnTable", "MAX_RN_N", "MAX_RN_R"):
        assert getattr(density, name) is getattr(rn, name)
    assert rn_sequence is rn.rn_sequence and RnTable is rn.RnTable
