"""Progression-free combinatorics over F_q[x].

Covers the greedily-built integer set with no 3-term arithmetic progression
(ternary digits 0/1 only), membership in the greedy polynomial set by its
exponent characterization, degree-set (norm-class) machinery, and an exact
extremal search. The greedy set's two builds and their check live in
`greedy`, the check of a given set for a progression in `progsearch`, whose
public names this module forwards (`__getattr__`).

A geometric progression here is the strict triple (b, r*b, r^2*b) with
deg r >= 1. One enumerator, `_progressions`, lists these triples for
progsearch's search and the extremal search (one include-first branch and
bound over them as hyperedges); both multiply and compare polynomials as ints
in polyring's 2-D packed form.
"""

from __future__ import annotations

from . import factor
from .errors import DEFAULT_ENUM_BUDGET, DEFAULT_VERTEX_BUDGET, MAX_VERTEX_BUDGET, BudgetExceeded, ZeroPolynomial
from .polyring import Poly, _code_tuples, _packer

#: Edge scans (nodes times edges) `_largest_free_set` may make; q=2, D=9 needs about 3.3e6.
MAX_SEARCH_WORK = 2**25


def enumeration_size(q: int, max_degree: int, budget: int, nonzero: bool = False) -> int:
    """q^(max_degree+1) polynomials of degree <= max_degree (one less with
    `nonzero`), or BudgetExceeded past `budget`. The power is built only below
    4^bits(budget): as q >= 2^(bits(q)-1), every larger one is over budget.
    """
    if (q.bit_length() - 1) * (max_degree + 1) <= budget.bit_length():
        size = q ** (max_degree + 1) - nonzero
        if size <= budget:
            return size
    kind = "nonzero polynomials" if nonzero else "polynomials"
    raise BudgetExceeded(f"{kind} of degree <= {max_degree} over GF({q}) exceed budget {budget}")


# ---------------------------------------------------------------------------
# the integer set A (no 3-term arithmetic progression, built greedily)
# ---------------------------------------------------------------------------

def a3_contains(n: int) -> bool:
    """True iff n >= 0 has no digit 2 in its ternary expansion."""
    if n < 0:
        raise ValueError("n must be >= 0")
    while n:
        if n % 3 == 2:
            return False
        n //= 3
    return True


def a3_list(limit: int) -> list:
    """All members of the greedy AP-free integer set up to `limit`, sorted."""
    if limit < 0:
        raise ValueError("limit must be >= 0")
    return [n for n in range(limit + 1) if a3_contains(n)]


def reflected_degrees(m: int) -> tuple:
    """{m - a} over members a <= m of the greedy AP-free set, sorted."""
    if m < 0:
        raise ValueError("m must be >= 0")
    return tuple(sorted(m - a for a in a3_list(m)))


# ---------------------------------------------------------------------------
# greedy polynomial set
# ---------------------------------------------------------------------------

def greedy_member(f: Poly) -> bool:
    """True iff every exponent in the factorization of f is in the AP-free set.

    Units have an empty factorization and are always members.
    """
    if f.is_zero():
        raise ZeroPolynomial("membership of the zero polynomial")
    return all(a3_contains(e) for e in factor.factorization_exponents(f))


def _progressions(spec, max_degree: int, monic_key=None):
    """(pack, mul, monic, triples): _packer's form up to max_degree, and
    `triples(bases)`, an iterator of (base, ratio, keyed middle ratio * base,
    keyed ratio) for each base code tuple in the order given and each non-unit
    ratio in canonical order with deg base + 2 deg ratio <= max_degree. The
    ratios are listed once, within DEFAULT_ENUM_BUDGET (so q <= 1448 whenever a
    base has room for one). A key is the packed int, or, up to units, its monic
    form by `monic` = monic_key(spec, pack, mul, unpack) (else None), as
    monic(r*a) = monic(r) * monic(a), and then only the ratio that is the
    canonical first of its unit multiples is kept."""
    enumeration_size(spec.q, max_degree // 2, DEFAULT_ENUM_BUDGET)
    pack, mul, unpack, *_ = _packer(spec, max_degree + 1)
    monic = monic_key(spec, pack, mul, unpack) if monic_key else None
    key = (lambda cs: monic(pack(cs))) if monic else pack
    ratios = [(len(r), r, key(r)) for r in _code_tuples(spec.q, 1, max_degree // 2)
              if not monic or next(filter(None, r)) == 1]

    def triples(bases):
        for a in bases:
            packed, room = key(a), (max_degree + 3 - len(a)) // 2
            for n, r, ratio in ratios:
                if n > room:
                    break  # ratios are in canonical (degree-major) order
                yield a, r, mul(ratio, packed), ratio

    return pack, mul, monic, triples


# ---------------------------------------------------------------------------
# exact extremal search (maximum progression-free subset)
# ---------------------------------------------------------------------------

def max_progression_free_subset(spec, max_degree: int, budget: int = DEFAULT_VERTEX_BUDGET):
    """Exact maximum size of a strict-progression-free subset of the nonzero
    polynomials of degree <= max_degree, with the canonically least witness.

    The progressions are the edges of a 3-uniform hypergraph on these
    polynomials, and the answer is its largest edge-free vertex set, found by
    one branch-and-bound search (`_largest_free_set`). Deterministic. The
    vertex count is capped by `budget`, and never past MAX_VERTEX_BUDGET, before
    anything is listed, and the search by MAX_SEARCH_WORK edge scans; past
    either, BudgetExceeded.
    """
    enumeration_size(spec.q, max_degree, min(budget, MAX_VERTEX_BUDGET), nonzero=True)
    universe = list(_code_tuples(spec.q, 0, max_degree))
    pack, mul, _, triples = _progressions(spec, max_degree)
    index = {key: i for i, f in enumerate(universe) for key in (f, pack(f))}
    edges = [(index[a], index[mid], index[mul(mid, ratio)]) for a, r, mid, ratio in triples(universe)]
    reflected = set(reflected_degrees(max_degree))
    seed = sum(1 << v for v, f in enumerate(universe) if len(f) - 1 in reflected)
    chosen = _largest_free_set(len(universe), edges, seed)
    return len(chosen), tuple(Poly._raw(spec, universe[v]) for v in chosen)


def _largest_free_set(n, edges, seed=0):
    """The largest subset of range(n) containing no edge, as a sorted list;
    among several, the lexicographically least.

    Depth-first over the vertices in order, "include v" before "exclude v",
    recording a best only on strict improvement, so the first maximum reached
    is the least one. A node is cut when its included count plus a bound on
    the undecided vertices that can still join does not beat the best: the
    undecided count minus a greedy packing of edges that no excluded vertex
    meets and whose undecided parts are disjoint (each loses one of them).
    Pending "exclude" branches wait on an explicit stack, not the call stack.
    Every node scans every edge, so the work is the nodes visited times the
    edges; past MAX_SEARCH_WORK it raises BudgetExceeded.

    `seed` is the vertex mask of a known free set: unless an edge lies inside
    it, best starts at |seed| - 1, not -1. The witness does not change: best <
    opt until the least maximum is reached, so no node on the path to it is
    cut, and the seeded search visits a subset of the same nodes in order.
    """
    masks = [(1 << a) | (1 << b) | (1 << c) for a, b, c in edges]
    others = [[] for _ in range(n)]  # per vertex: the other two vertices of each edge
    for m, edge in zip(masks, edges):
        for v in edge:
            others[v].append(m ^ (1 << v))
    best, best_set = -1, 0
    if all(m & seed != m for m in masks):
        best = bin(seed).count("1") - 1
    nodes_left = MAX_SEARCH_WORK // max(len(masks), 1)
    stack = [(0, 0, 0, 0)]  # (next vertex, included mask, excluded mask, included count)
    while stack:
        v, inc, exc, k = stack.pop()
        while True:
            nodes_left -= 1
            if nodes_left < 0:
                raise BudgetExceeded(
                    f"extremal search over {n} vertices and {len(masks)} edges exceeds "
                    f"the work budget of {MAX_SEARCH_WORK} edge scans"
                )
            undecided = (1 << n) - (1 << v)
            used = packed = 0
            for m in masks:
                if not m & exc and not m & undecided & used:
                    used |= m & undecided
                    packed += 1
            if k + n - v - packed <= best:
                break
            if v == n:
                best, best_set = k, inc
                break
            bit = 1 << v
            if all(o & inc != o for o in others[v]):
                stack.append((v + 1, inc, exc | bit, k))
                inc |= bit
                k += 1
            else:
                exc |= bit
            v += 1
    return [v for v in range(n) if best_set >> v & 1]


def __getattr__(name):
    """The progression check's names, from `progsearch`, loaded on first use."""
    if name in ("ProgressionWitness", "has_progression", "has_progression_text"):
        from . import progsearch

        return getattr(progsearch, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
