"""Closed-form and truncated-product density quantities.

Five families of numbers, all exact or certified:

  * the greedy-set density  (1 - 1/q) * prod_{i>=1} (1 - q^(1-2*3^i)) / (1 - q^(1-3^i)),
    also computable through the zeta quotient and the irreducible-count
    double product (tests/_identities.py evaluates those two forms and
    checks that all three intervals overlap);
  * the norm-set lower bound  m_q = (1 - q^-2) * prod_{i>=1} (1 + q^(-3^i))
    and its exact finite checkpoints at degrees N_k = (3^k - 1)/2;
  * the simple upper bound  1 - (q-1)/(q^3-1)  and its finite-family variants;
  * the sharper upper bound  (q-1) * sum_n q^(-r_n), where r_n is the least m
    such that [1, m] holds an n-element subset free of 3-term arithmetic
    progressions (the search, with its budget MAX_RN_N, lives in `gpfq.rn`;
    only upper_no reads it, through the lazy module, so no other density
    runs `rn`; its names keep resolving as density's own through the module
    __getattr__);
  * the exact count of greedy-set members of each degree, the coefficients of
    the Euler product  prod_{s>=1} (1 + t^s)^M(s)  (`greedy_counts`), and the
    finite-stage density they sum to.

Infinite products are truncated at product index I with a certified tail
enclosure: every omitted factor of the m_q/local kind lies in
[1, 1 + q^(-3^i)] and the omitted greedy factors in [1, 1/(1 - q^(1-3^i))],
so with u = first omitted term the tail is within [1, exp(2u)] resp.
[1, exp(4u)], bounded rationally by numeric.exp_upper. Every printed value
comes from `certify`: depths step 3, 4, 5, ... until the requested digits
render unambiguously. Each step triples the precision (the 3^i exponents make
convergence triply exponential), and a depth is tried only while its first
omitted term q^(-3^(I+1)) has at most MAX_TAIL_BITS bits, so the last attempt
costs seconds at any q.

Certified values are built on numeric's unreduced integer pairs (numerator,
denominator): the partial products, the tails (numeric._exp_upper) and
upper_no's sum over the one denominator q^(r_N). A Fraction is built only
where the public API returns one: checkpoint_density,
empirical_greedy_density, upper_bound_simple (the exact value upper_simple
reports, so that kind alone loads `fractions`) and an Interval's endpoints.
The CLI prints checkpoint and empirical values from `_checkpoint_pair` and
`_empirical_pair` through numeric._ratio_text.
"""

from __future__ import annotations

from math import comb, log2
from typing import TYPE_CHECKING, NamedTuple, Optional, Union

from . import rn
from .errors import MAX_DEPTH, MAX_DIGITS, MAX_TAIL_BITS, BudgetExceeded, NeedsMorePrecision
from .intarith import count_irreducibles, nk, prime_powers_upto
from .numeric import Interval, _exp_upper, _fraction, _ratio_text, render_decimal

if TYPE_CHECKING:
    from fractions import Fraction

DEFAULT_START_DEPTH = 3
MAX_CHECKPOINT_BITS = 2**20  # denominators q^(N_k + 1) and q^(2+3T); q=2, k=13 prints in a few seconds
#: greedy_counts(q, D) makes about D^2 products of integers of up to bits(q^(D+1)) bits. Cold
#: on one x86-64 core, the slowest admitted input (q = 2^31 - 1, D = 256) answers in about 2 s,
#: q = 2 with D = 812 in 1.4 s.
MAX_SERIES_WORK = 2**29
MAX_SERIES_BITS = 2**13
#: figure1_data certifies one density per prime power q <= q_max; 20000 takes about 3 s cold.
MAX_FIGURE1_Q = 20000


class DensityReport(NamedTuple):
    """A computed quantity plus the truncation parameters that certify it."""

    q: int
    kind: str  # greedy | lower_mq | upper_simple | upper_no
    value: Union[Interval, Fraction]
    rendered: Optional[str] = None
    digits: Optional[int] = None
    depth: Optional[int] = None  # product index I
    terms: Optional[int] = None  # series terms (r_n count, progression families)

    def interval(self) -> Interval:
        v = self.value
        return v if isinstance(v, Interval) else Interval.point(v)

    def to_json(self) -> dict:
        iv = self.interval()
        out = {
            "q": self.q,
            "kind": self.kind,
            "value": self.rendered,
            "interval": {"lo": _ratio_text(iv._ln, iv._ld), "hi": _ratio_text(iv._hn, iv._hd)},
        }
        if not isinstance(self.value, Interval):
            out["exact"] = str(self.value)
        for key in ("digits", "depth", "terms"):
            v = getattr(self, key)
            if v is not None:
                out[key] = v
        return out


# ---------------------------------------------------------------------------
# certified infinite products
# ---------------------------------------------------------------------------

def _one_plus_tail(m: int) -> Interval:
    """Enclosure of prod (1 + u_i) over omitted indices, the first omitted term being 1/m.

    Successive omitted terms shrink by a factor of at least 2, so
    sum u_i <= 2/m, and log(1+x) <= x puts the product in [1, exp(2/m)].
    """
    return Interval._of(1, 1, *_exp_upper(2, m))


def _greedy_tail(q: int, depth: int) -> Interval:
    """Enclosure of the omitted greedy factors past product index `depth`.

    Each factor (1 - q^(1-2*3^i)) / (1 - q^(1-3^i)) lies in
    (1, 1 + 2*q^(1-3^i)] for i > depth, and the exponents shrink the terms
    super-geometrically, so the product is within [1, exp(4*q^(1-3^(I+1)))].
    """
    return Interval._of(1, 1, *_exp_upper(4, q ** (3 ** (depth + 1) - 1)))


def _greedy_partial(q: int, depth: int) -> tuple:
    """(numerator, denominator) of (1 - 1/q) * prod_{1<=i<=depth} (1 - q^(1-2a)) / (1 - q^(1-a)), a = 3^i,
    each factor written (q^(2a-1) - 1) / (q^a * (q^(a-1) - 1))."""
    n, d = q - 1, q
    for i in range(1, depth + 1):
        a = 3**i
        n *= q ** (2 * a - 1) - 1
        d *= q**a * (q ** (a - 1) - 1)
    return n, d


def greedy_density_interval(q: int, depth: int) -> Interval:
    """Greedy-set density through product index `depth`, certified."""
    n, d = _greedy_partial(q, depth)
    return Interval._of(n, d, n, d) * _greedy_tail(q, depth)


def mq_interval(q: int, depth: int) -> Interval:
    """m_q = (1 - q^-2) * prod_{i>=1} (1 + q^(-3^i)) through `depth`, certified; the partial
    product is checkpoint_density(q, depth + 1), as (1 - 1/q)(1 + 1/q) = 1 - q^-2."""
    n, d = _checkpoint_pair(q, depth + 1)
    return Interval._of(n, d, n, d) * _one_plus_tail(q ** (3 ** (depth + 1)))


def greedy_density(q: int, digits: int = 6) -> DensityReport:
    """Certified greedy-set density, rendered to `digits` decimals."""
    return certify("greedy", q, digits)


def lower_bound_mq(q: int, digits: int = 6) -> DensityReport:
    """Certified m_q, rendered to `digits` decimals."""
    return certify("lower_mq", q, digits)


# ---------------------------------------------------------------------------
# exact checkpoints and the simple upper bound
# ---------------------------------------------------------------------------

def _checkpoint_pair(q: int, k: int) -> tuple:
    """(numerator, denominator) of checkpoint_density(q, k), in lowest terms: every factor
    q - 1 and q^(3^i) + 1 of the numerator is prime to q."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > MAX_CHECKPOINT_BITS.bit_length() or (nk(k) + 1) * log2(q) > MAX_CHECKPOINT_BITS:
        raise BudgetExceeded(f"checkpoint q={q} k={k} exceeds the {MAX_CHECKPOINT_BITS}-bit budget")
    n, d = q - 1, q
    for i in range(k):
        p = q ** (3**i)
        n *= p + 1
        d *= p
    return n, d


def checkpoint_density(q: int, k: int) -> Fraction:
    """|S(T) ∩ S(q^(N_k))| / q^(N_k + 1), exactly: (1 - 1/q) * prod_{i<k} (1 + q^(-3^i)).

    Increases with k toward m_q from below (the gap is under 2*q^(-N_k)).
    The denominator q^(N_k + 1) may have at most MAX_CHECKPOINT_BITS bits.
    """
    return _fraction(*_checkpoint_pair(q, k))


def upper_bound_simple(q: int, terms: Optional[int] = None) -> Fraction:
    """1 - (q-1)/(q^3-1) exactly, or the finite variant with `terms` families.

    With T families the bound is 1 - ((q-1)/q) * sum_{i<T} q^(-2-3i), a
    geometric sum: 1 - (q-1)/(q^3-1) * (1 - q^(-3T)). It decreases in T toward
    the closed form. q^(2+3T) may have at most MAX_CHECKPOINT_BITS bits.
    """
    if q < 2:
        raise ValueError("q must be >= 2")
    limit = _fraction(q - 1, q**3 - 1)
    if terms is None:
        return 1 - limit
    if terms < 0:
        raise ValueError("terms must be >= 0")
    if terms > MAX_CHECKPOINT_BITS or (2 + 3 * terms) * log2(q) > MAX_CHECKPOINT_BITS:
        raise BudgetExceeded(f"upper-simple q={q} terms={terms} exceeds the {MAX_CHECKPOINT_BITS}-bit budget")
    return 1 - limit * (1 - _fraction(1, q ** (3 * terms)))


# ---------------------------------------------------------------------------
# the sharper upper bound, on the r_n sequence of `rn`
# ---------------------------------------------------------------------------

def upper_bound_no_interval(q: int, n_terms: int) -> Interval:
    """(q-1) * sum_{n<=N} q^(-r_n) plus the tail [0, q^(-r_N)].

    The tail bound holds because r_(N+j) >= r_N + j (strict monotonicity), so
    the omitted sum is at most (q-1) * q^(-r_N) * sum_{j>=1} q^(-j) = q^(-r_N).
    """
    rns = rn.rn_sequence(n_terms)
    top = rns[-1]
    partial = (q - 1) * sum(q ** (top - r) for r in rns)
    return Interval._of(partial, q**top, partial + 1, q**top)


def upper_bound_no(q: int, digits: int = 9) -> DensityReport:
    """Certified sharper upper bound, extending the r_n table as needed."""
    return certify("upper_no", q, digits)


# ---------------------------------------------------------------------------
# the one certification loop behind every printed value
# ---------------------------------------------------------------------------

def certify(kind: str, q: int, digits: int, terms: Optional[int] = None) -> DensityReport:
    """The first report, over truncations tried in order, whose value renders.

    greedy and lower_mq step the product depth 3, 4, 5, ... while its tail
    stays within MAX_TAIL_BITS; upper_no steps the r_n term count 8, 9, ...,
    MAX_RN_N; upper_simple is exact, with `terms` progression families (None:
    the closed form).
    """
    if q < 2 or digits < 1:
        raise ValueError("q must be >= 2 and digits >= 1")
    if kind == "upper_simple":
        key, params, build = "terms", [terms], upper_bound_simple
    elif kind == "upper_no":
        # an interval at least 10^-digits wide always straddles a rounding boundary
        if q**rn.MAX_RN_R <= 10**digits:
            raise NeedsMorePrecision(
                f"upper_no for q={q} cannot reach {digits} digits: "
                f"at {rn.MAX_RN_N} terms the interval is q^-{rn.MAX_RN_R} wide"
            )
        key, params, build = "terms", range(8, rn.MAX_RN_N + 1), upper_bound_no_interval
    else:
        key, build = "depth", {"greedy": greedy_density_interval, "lower_mq": mq_interval}[kind]
        params = [d for d in range(DEFAULT_START_DEPTH, MAX_DEPTH + 1) if 3 ** (d + 1) * log2(q) <= MAX_TAIL_BITS]
    for p in params:
        value = build(q, p)
        try:
            rendered = render_decimal(value, digits)
        except NeedsMorePrecision:
            continue
        return DensityReport(q=q, kind=kind, value=value, rendered=rendered, digits=digits, **{key: p})
    raise NeedsMorePrecision(f"{kind} for q={q} did not stabilize at {digits} digits within the {key} budget")


# ---------------------------------------------------------------------------
# finite-stage empirical density and the density-vs-q table
# ---------------------------------------------------------------------------

def _times_sparse(series: list, step: int, coeffs: list) -> list:
    """series * sum_j coeffs[j] t^(step*j), truncated to the length of series."""
    out = [0] * len(series)
    for i, a in enumerate(series):
        if a:
            for j, b in enumerate(coeffs[: (len(series) - 1 - i) // step + 1]):
                out[i + step * j] += a * b
    return out


def greedy_counts(q: int, max_degree: int) -> list:
    """Nonzero members of the greedy set of each exact degree 0..max_degree.

    f is a member iff every exponent in its factorization lies in the AP-free
    set A (ternary digits 0/1), so the monic members are counted by the Euler
    product prod_n (sum_{e in A} t^(ne))^m(n,q). As sum_{e in A} s^e =
    prod_i (1 + s^(3^i)), that is prod_{s>=1} (1 + t^s)^M(s) with M(s) the
    sum of m(s/3^i, q) over the 3^i dividing s; each unit gives q - 1 members.
    The series is built only within MAX_SERIES_BITS and MAX_SERIES_WORK.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    bits = (max_degree + 1) * log2(q)
    if bits > MAX_SERIES_BITS or max_degree**2 * bits > MAX_SERIES_WORK:
        raise BudgetExceeded(f"the member series over GF({q}) to degree {max_degree} exceeds the series budget")
    series = [1] + [0] * max_degree
    for s in range(1, max_degree + 1):
        m, n = count_irreducibles(q, s), s
        while n % 3 == 0:
            n //= 3
            m += count_irreducibles(q, n)
        series = _times_sparse(series, s, [comb(m, j) for j in range(min(m, max_degree // s) + 1)])
    return [(q - 1) * c for c in series]


def _empirical_pair(q: int, max_degree: int) -> tuple:
    """(numerator, denominator) of empirical_greedy_density(q, max_degree), unreduced."""
    return sum(greedy_counts(q, max_degree)), q ** (max_degree + 1)


def empirical_greedy_density(q: int, max_degree: int) -> Fraction:
    """|{f != 0 : deg f <= D, member}| / q^(D+1), the member count summed
    from the Euler product of `greedy_counts`.
    """
    return _fraction(*_empirical_pair(q, max_degree))


def figure1_data(q_max: int, digits: int = 6) -> list:
    """(q, rendered greedy density) for every prime power q <= q_max <= MAX_FIGURE1_Q."""
    if q_max < 2:
        raise ValueError("q_max must be >= 2")
    if q_max > MAX_FIGURE1_Q:
        raise BudgetExceeded(f"figure1 q_max={q_max} exceeds the budget of {MAX_FIGURE1_Q}")
    return [(q, greedy_density(q, digits).rendered) for q in prime_powers_upto(q_max)]


def __getattr__(name):
    """The r_n names, read from `rn` on first use, so that importing density runs no search code."""
    if name in ("MAX_RN_N", "MAX_RN_R", "RnTable", "rn_sequence"):
        return getattr(rn, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
