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
    progressions (r_n found by certified exhaustive search, a DFS cut by the
    window bound that the r values found before it give);
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
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, log2
from typing import NamedTuple, Optional, Union

from .errors import MAX_DEPTH, MAX_DIGITS, MAX_TAIL_BITS, BudgetExceeded, NeedsMorePrecision
from .intarith import count_irreducibles, nk, prime_powers_upto
from .numeric import Interval, exp_upper, render_decimal

DEFAULT_START_DEPTH = 3
MAX_CHECKPOINT_BITS = 2**20  # denominators q^(N_k + 1) and q^(2+3T); q=2, k=13 prints in a few seconds
#: The last r_n searched. The search is deterministic, so its cost depends on n alone:
#: r_1..r_22 take 9,997,192 DFS nodes (9 to 15 s on one x86-64 core), r_23 alone more than 2^24.
MAX_RN_N = 22
#: r_(MAX_RN_N), so no upper_no interval is narrower than q^-MAX_RN_R.
MAX_RN_R = 74
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
            "interval": {"lo": str(iv.lo), "hi": str(iv.hi)},
        }
        if isinstance(self.value, Fraction):
            out["exact"] = str(self.value)
        for key in ("digits", "depth", "terms"):
            v = getattr(self, key)
            if v is not None:
                out[key] = v
        return out


# ---------------------------------------------------------------------------
# certified infinite products
# ---------------------------------------------------------------------------

def _one_plus_tail(u: Fraction) -> Interval:
    """Enclosure of prod (1 + u_i) over omitted indices, u = first omitted term.

    Successive omitted terms shrink by a factor of at least 2, so
    sum u_i <= 2u, and log(1+x) <= x puts the product in [1, exp(2u)].
    """
    return Interval(1, exp_upper(2 * u))


def _greedy_tail(q: int, depth: int) -> Interval:
    """Enclosure of the omitted greedy factors past product index `depth`.

    Each factor (1 - q^(1-2*3^i)) / (1 - q^(1-3^i)) lies in
    (1, 1 + 2*q^(1-3^i)] for i > depth, and the exponents shrink the terms
    super-geometrically, so the product is within [1, exp(4*q^(1-3^(I+1)))].
    """
    u = Fraction(1, q ** (3 ** (depth + 1) - 1))
    return Interval(1, exp_upper(4 * u))


def _greedy_partial(q: int, depth: int) -> Fraction:
    val = 1 - Fraction(1, q)
    for i in range(1, depth + 1):
        a = 3**i
        val *= (1 - Fraction(1, q ** (2 * a - 1))) / (1 - Fraction(1, q ** (a - 1)))
    return val


def greedy_density_interval(q: int, depth: int) -> Interval:
    """Greedy-set density through product index `depth`, certified."""
    return Interval.point(_greedy_partial(q, depth)) * _greedy_tail(q, depth)


def mq_interval(q: int, depth: int) -> Interval:
    """m_q = (1 - q^-2) * prod_{i>=1} (1 + q^(-3^i)) through `depth`, certified; the partial
    product is checkpoint_density(q, depth + 1), as (1 - 1/q)(1 + 1/q) = 1 - q^-2."""
    return Interval.point(checkpoint_density(q, depth + 1)) * _one_plus_tail(Fraction(1, q ** (3 ** (depth + 1))))


def greedy_density(q: int, digits: int = 6) -> DensityReport:
    """Certified greedy-set density, rendered to `digits` decimals."""
    return certify("greedy", q, digits)


def lower_bound_mq(q: int, digits: int = 6) -> DensityReport:
    """Certified m_q, rendered to `digits` decimals."""
    return certify("lower_mq", q, digits)


# ---------------------------------------------------------------------------
# exact checkpoints and the simple upper bound
# ---------------------------------------------------------------------------

def checkpoint_density(q: int, k: int) -> Fraction:
    """|S(T) ∩ S(q^(N_k))| / q^(N_k + 1), exactly: (1 - 1/q) * prod_{i<k} (1 + q^(-3^i)).

    Increases with k toward m_q from below (the gap is under 2*q^(-N_k)).
    The denominator q^(N_k + 1) may have at most MAX_CHECKPOINT_BITS bits.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > MAX_CHECKPOINT_BITS.bit_length() or (nk(k) + 1) * log2(q) > MAX_CHECKPOINT_BITS:
        raise BudgetExceeded(f"checkpoint q={q} k={k} exceeds the {MAX_CHECKPOINT_BITS}-bit budget")
    value = 1 - Fraction(1, q)
    for i in range(k):
        value *= 1 + Fraction(1, q ** (3**i))
    return value


def upper_bound_simple(q: int, terms: Optional[int] = None) -> Fraction:
    """1 - (q-1)/(q^3-1) exactly, or the finite variant with `terms` families.

    With T families the bound is 1 - ((q-1)/q) * sum_{i<T} q^(-2-3i), a
    geometric sum: 1 - (q-1)/(q^3-1) * (1 - q^(-3T)). It decreases in T toward
    the closed form. q^(2+3T) may have at most MAX_CHECKPOINT_BITS bits.
    """
    if q < 2:
        raise ValueError("q must be >= 2")
    limit = Fraction(q - 1, q**3 - 1)
    if terms is None:
        return 1 - limit
    if terms < 0:
        raise ValueError("terms must be >= 0")
    if terms > MAX_CHECKPOINT_BITS or (2 + 3 * terms) * log2(q) > MAX_CHECKPOINT_BITS:
        raise BudgetExceeded(f"upper-simple q={q} terms={terms} exceeds the {MAX_CHECKPOINT_BITS}-bit budget")
    return 1 - limit * (1 - Fraction(1, q ** (3 * terms)))


# ---------------------------------------------------------------------------
# the r_n sequence (exhaustive AP-free search) and the sharper upper bound
# ---------------------------------------------------------------------------

class RnTable(tuple):
    """r_1..r_N: least right endpoints admitting AP-free subsets of each size."""

    __slots__ = ()

    def __new__(cls, values):
        self = super().__new__(cls, values)
        if any(b <= a for a, b in zip(self, self[1:])):
            raise ValueError("r_n must be strictly increasing")
        return self


def _apfree_exists(m: int, n: int, rs: list) -> bool:
    """Is there an AP-free subset of [1, m] of size n, given none fits in [1, m-1]?

    `rs` holds r_1..r_(n-1). Under the premise any witness must contain m,
    and translating down shows one must contain 1 as well, so both are
    forced. The DFS keeps a bitmask of positions still usable: when x joins,
    every position that would complete a 3-term AP with x and an earlier
    member y (2x - y, and the midpoint with m) is cleared, so every drawn
    candidate is valid by construction. The positions 2x - y are the mirror
    mask (bit m - y for every member y < x) shifted by 2x - m.

    Two cuts end a scan over candidates x in increasing order, both monotone
    in x. The popcount cut: fewer usable positions from x on than members
    still needed. The window bound (Dybizbanski, "Sequences containing no
    3-term arithmetic progressions", EJC 19(2), 2012, #P15; Gasarch, Glenn and
    Kruskal, "Finding large 3-free sets I", JCSS 74, 2008): AP-freeness is
    invariant under translation, so L consecutive integers hold at most
    s(L) = max{k : r_k <= L} members. Choosing x with `need` members still
    to place puts need + 1 members (x, the rest and m) into the m - x + 1
    integers [x, m], which needs s(m - x + 1) >= need + 1, that is
    r_(need+1) <= m - x + 1. For x >= 2 the window is shorter than m; the
    premise r_n >= m then makes s exact from r_1..r_(n-1) alone, and
    need + 1 <= n - 1 keeps every r looked up inside `rs`.
    """
    if n <= 1:
        return m >= n
    if n == 2:
        return m >= 2
    avail = 0
    for i in range(2, m):
        avail |= 1 << i
    if (1 + m) % 2 == 0:
        avail &= ~(1 << ((1 + m) // 2))
    last = [m + 1 - r for r in rs]  # last[need]: the largest x the window bound admits

    def rec(avail: int, mirror: int, need: int) -> bool:
        if need == 0:
            return True
        a = avail
        while a:
            low = a & -a
            x = low.bit_length() - 1
            if x > last[need] or (avail >> x).bit_count() < need:
                return False
            a ^= low
            shift = 2 * x - m
            blocked = mirror << shift if shift >= 0 else mirror >> -shift
            nxt = avail & ~(((low << 1) - 1) | blocked)  # positions above x, none of them 2x - y
            if (x + m) % 2 == 0:
                nxt &= ~(1 << ((x + m) // 2))
            if rec(nxt, mirror | 1 << (m - x), need - 1):
                return True
        return False

    return rec(avail, 1 << (m - 1), n - 2)


_rn_cache: list = [1, 2]


def rn_sequence(n_max: int) -> RnTable:
    """The first n_max values of r_n, each minimal by exhaustive search.

    Results are cached in-process; the search is deterministic, so concurrent
    recomputation is harmless. n_max past MAX_RN_N raises BudgetExceeded
    before anything is searched.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if n_max > MAX_RN_N:
        raise BudgetExceeded(f"r_{n_max} is past the search budget: r_n is searched for n <= {MAX_RN_N}")
    while len(_rn_cache) < n_max:
        n = len(_rn_cache) + 1
        m = _rn_cache[-1] + 1
        while not _apfree_exists(m, n, _rn_cache):
            m += 1
        _rn_cache.append(m)
    return RnTable(tuple(_rn_cache[:n_max]))


def upper_bound_no_interval(q: int, n_terms: int) -> Interval:
    """(q-1) * sum_{n<=N} q^(-r_n) plus the tail [0, q^(-r_N)].

    The tail bound holds because r_(N+j) >= r_N + j (strict monotonicity), so
    the omitted sum is at most (q-1) * q^(-r_N) * sum_{j>=1} q^(-j) = q^(-r_N).
    """
    rns = rn_sequence(n_terms)
    partial = (q - 1) * sum((Fraction(1, q**r) for r in rns), Fraction(0))
    return Interval(partial, partial + Fraction(1, q ** rns[-1]))


def upper_bound_no(q: int, digits: int = 9) -> DensityReport:
    """Certified sharper upper bound, extending the r_n table as needed."""
    return certify("upper_no", q, digits)


# ---------------------------------------------------------------------------
# the one certification loop behind every printed value
# ---------------------------------------------------------------------------

def certify(
    kind: str, q: int, digits: int, depth: Optional[int] = None, terms: Optional[int] = None,
) -> DensityReport:
    """The first report, over truncations tried in order, whose value renders.

    greedy and lower_mq step the product depth 3, 4, 5, ... (or try only a
    fixed `depth`); upper_no steps the r_n term count 8, 9, ..., MAX_RN_N;
    upper_simple is exact, with `terms` progression families (None: the
    closed form).
    """
    if q < 2 or digits < 1:
        raise ValueError("q must be >= 2 and digits >= 1")
    if kind == "upper_simple":
        key, params, build = "terms", [terms], upper_bound_simple
    elif kind == "upper_no":
        # an interval at least 10^-digits wide always straddles a rounding boundary
        if q**MAX_RN_R <= 10**digits:
            raise NeedsMorePrecision(
                f"upper_no for q={q} cannot reach {digits} digits: "
                f"at {MAX_RN_N} terms the interval is q^-{MAX_RN_R} wide"
            )
        key, params, build = "terms", range(8, MAX_RN_N + 1), upper_bound_no_interval
    else:
        key, build = "depth", {"greedy": greedy_density_interval, "lower_mq": mq_interval}[kind]
        depths = range(DEFAULT_START_DEPTH, MAX_DEPTH + 1) if depth is None else [depth]
        params = [d for d in depths if d <= MAX_DEPTH and 3 ** (d + 1) * log2(q) <= MAX_TAIL_BITS]
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


def empirical_greedy_density(q: int, max_degree: int) -> Fraction:
    """|{f != 0 : deg f <= D, member}| / q^(D+1), the member count summed
    from the Euler product of `greedy_counts`.
    """
    return Fraction(sum(greedy_counts(q, max_degree)), q ** (max_degree + 1))


def figure1_data(q_max: int, digits: int = 6) -> list:
    """(q, rendered greedy density) for every prime power q <= q_max <= MAX_FIGURE1_Q."""
    if q_max < 2:
        raise ValueError("q_max must be >= 2")
    if q_max > MAX_FIGURE1_Q:
        raise BudgetExceeded(f"figure1 q_max={q_max} exceeds the budget of {MAX_FIGURE1_Q}")
    return [(q, greedy_density(q, digits).rendered) for q in prime_powers_upto(q_max)]
