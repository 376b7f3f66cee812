"""The r_n sequence: r_n is the least m such that [1, m] holds an n-element
subset free of 3-term arithmetic progressions.

A pure integer search, certified exhaustive: a DFS over bitmasks of usable
positions, cut by the window bound that the r values found before it give.
It needs no rational arithmetic, so this module imports only `errors`, and
`gpfq rn` runs it without loading `density` or `numeric`. `density` builds
the sharper upper bound (q-1) * sum_n q^(-r_n) on it.
"""

from .errors import BudgetExceeded

#: The last r_n searched. The search is deterministic, so its cost depends on n alone:
#: r_1..r_22 take 9,997,192 DFS nodes (9 to 15 s on one x86-64 core), r_23 alone more than 2^24.
MAX_RN_N = 22
#: r_(MAX_RN_N), so no upper_no interval is narrower than q^-MAX_RN_R.
MAX_RN_R = 74


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
