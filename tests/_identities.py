"""Identity checks on the package's density forms, used only by the tests.

Unlike `_oracles.py`, these share package code on purpose: they evaluate
the greedy-set density through the zeta quotient and through the
irreducible-count double product with the package's exact intervals and
`density._greedy_tail`, and compare both with the closed form that
`density` certifies. `zeta_identity_check` confirms the power-series
identity behind the double product with `density._times_sparse`, the same
routine `greedy_counts` builds its Euler product with.
"""

from fractions import Fraction
from math import comb
from typing import NamedTuple, Optional

from gpfq.density import _greedy_tail, _times_sparse, greedy_density_interval
from gpfq.intarith import count_irreducibles
from gpfq.numeric import Interval, exp_upper


def zeta_q(q: int, s: int) -> Fraction:
    """1 / (1 - q^(1-s)), exactly; defined for s >= 2."""
    if s <= 1:
        raise ValueError(f"zeta_q diverges for s <= 1, got s={s}")
    return 1 / (1 - Fraction(1, q ** (s - 1)))


class ZetaIdentityCheck(NamedTuple):
    """Result of the exact power-series comparison, with first mismatch if any."""

    ok: bool
    mismatch_degree: Optional[int] = None
    got: Optional[int] = None
    expected: Optional[int] = None

    def __bool__(self):
        return self.ok


def zeta_identity_check(q: int, series_degree: int) -> ZetaIdentityCheck:
    """Verify prod_{n<=D} (1 - t^n)^(-m(n,q)) = sum_{d<=D} q^d t^d (mod t^(D+1)).

    Pure integer power-series arithmetic through `_times_sparse`, as in
    `greedy_counts`; the right side counts monic polynomials by degree, the
    left collects them by factorization shape.
    """
    if series_degree < 1:
        raise ValueError("series degree must be >= 1")
    series = [1] + [0] * series_degree
    for n in range(1, series_degree + 1):
        m = count_irreducibles(q, n)
        # multiply by (1 - t^n)^(-m) = sum_j C(m-1+j, j) t^(nj)
        series = _times_sparse(series, n, [comb(m - 1 + j, j) for j in range(series_degree // n + 1)])
    for d in range(series_degree + 1):
        if series[d] != q**d:
            return ZetaIdentityCheck(False, d, series[d], q**d)
    return ZetaIdentityCheck(True)


class CrossCheckResult(NamedTuple):
    ok: bool
    zeta_form: Interval       # through zeta_q quotients
    count_form: Interval      # through the m(n,q) double product
    closed_form: Interval     # direct factor arithmetic

    def __bool__(self):
        return self.ok


def _binomial_power_enclosure(u: Fraction, m: int, eps: Fraction) -> Interval:
    """Enclosure of (1 + u)^m for integer m >= 1 and small rational u > 0.

    Truncates the binomial sum once the term ratio u*(m-j)/(j+1) has dropped
    below 1/2, at which point the omitted tail is under twice the next term.
    m(n, q) is far too large for exact expansion, but m*u <= q^(-2) here, so
    a couple of dozen terms always reach `eps`.
    """
    total = Fraction(1)
    term = Fraction(1)
    j = 0
    while j < m:
        nxt = term * u * (m - j) / (j + 1)
        if 2 * nxt <= eps and u * (m - j) <= Fraction(j + 1, 2):
            return Interval(total, total + 2 * nxt)
        j += 1
        term = nxt
        total += term
    return Interval.point(total)


def cross_check_density_forms(q: int, depth: int, series_degree: int) -> CrossCheckResult:
    """Evaluate the three computable density forms and intersect the intervals.

    The zeta form and the closed form share the same tail enclosure (their
    omitted factors are identical); the double-product form additionally
    truncates the inner product at `series_degree` and carries a tail using
    m(n, q) <= q^n.
    """
    tail = _greedy_tail(q, depth)

    p_zeta = 1 / zeta_q(q, 2)
    for i in range(1, depth + 1):
        p_zeta *= zeta_q(q, 3**i) / zeta_q(q, 2 * 3**i)
    zeta_form = Interval.point(p_zeta) * tail

    closed_form = greedy_density_interval(q, depth)

    eps = Fraction(1, 10**15)
    count_form = Interval.point(1 - Fraction(1, q))
    for i in range(1, depth + 1):
        a = 3**i
        for n in range(1, series_degree + 1):
            u = Fraction(1, q ** (a * n))
            count_form = count_form * _binomial_power_enclosure(u, count_irreducibles(q, n), eps)
    inner_tail_arg = 4 * Fraction(1, q ** (3 ** (depth + 1) - 1))
    for i in range(1, depth + 1):
        # sum_{n > N} m(n,q) q^(-3^i n) <= sum_{n > N} q^((1-3^i) n) <= 2 q^((1-3^i)(N+1))
        inner_tail_arg += 2 * Fraction(1, q ** ((3**i - 1) * (series_degree + 1)))
    count_form = count_form * Interval(1, exp_upper(inner_tail_arg))

    def intersects(a: Interval, b: Interval) -> bool:
        return a.lo <= b.hi and b.lo <= a.hi

    ok = (
        intersects(zeta_form, count_form)
        and intersects(zeta_form, closed_form)
        and intersects(count_form, closed_form)
    )
    return CrossCheckResult(ok, zeta_form, count_form, closed_form)
