"""Progression-free combinatorics over F_q[x].

Covers the greedily-built integer set with no 3-term arithmetic progression
(ternary digits 0/1 only), membership in the greedy polynomial set by its
exponent characterization, degree-set (norm-class) machinery, detection of
3-term non-unit geometric progressions, and an exact extremal search. The
greedy set's two builds and their check live in `greedy`.

A geometric progression here is the strict triple (b, r*b, r^2*b) with
deg r >= 1; the unit-tolerant variant relaxes membership of the second and
third terms to unit multiples. One enumerator, `_progressions`, lists these
triples for the progression search and the extremal search (one
include-first branch and bound over them as hyperedges). The searches
multiply and compare polynomials as ints in polyring's 2-D packed form. The
progression search (`_first_progression`) takes its members as a set of
those ints: `has_progression` packs its Poly values into it,
`has_progression_text` reads polynomial text straight into it, with no Poly
per line, and greedy's `greedy_check` hands it the packed set its
construction built.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

from . import factor
from .errors import (DEFAULT_ENUM_BUDGET, DEFAULT_VERTEX_BUDGET, MAX_VERTEX_BUDGET, BudgetExceeded, PolySyntaxError,
                     SpecMismatch, ZeroPolynomial)
from .polyring import Poly, _canonical, _code_tuples, _packer, _unit_ops

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


class ProgressionWitness(NamedTuple):
    """A found triple (base, ratio*base, ratio^2*base) with non-unit ratio."""

    base: Poly
    ratio: Poly

    @property
    def members(self) -> Tuple[Poly, Poly, Poly]:
        mid = self.base * self.ratio
        return (self.base, mid, mid * self.ratio)


def has_progression(polys, unit_tolerant: bool = False) -> Optional[ProgressionWitness]:
    """First (base, ratio) witness in canonical order, or None.

    Strict mode demands all three terms be literal members; unit-tolerant
    mode accepts the second and third terms up to unit multiples.
    """
    members = list(polys)
    if not members:
        return None
    spec = members[0].spec
    for f in members:
        if f.spec is not spec and f.spec != spec:
            raise SpecMismatch(f"{f.spec!r} vs {spec!r}")
        if not f.coeffs:
            raise ZeroPolynomial("progression search over a set containing 0")
    degrees = {len(f.coeffs) - 1 for f in members}
    top = max(degrees)

    def keyed(pack):
        return {pack(f.coeffs) for f in members}, {f.coeffs for f in members if len(f.coeffs) < top}

    return _first_progression(spec, degrees, unit_tolerant, keyed)


def has_progression_text(spec, lines, unit_tolerant: bool = False) -> Optional[ProgressionWitness]:
    """has_progression over the polynomials of `lines`, one per line as parse_poly
    reads it; a line that is blank after stripping is skipped.

    No Poly is built: each distinct term is parsed once by polytext's _parse_term,
    with parse_poly's checks and errors, a line's packed int is the sum of its
    terms' lanes, and a mask of its exponents refuses a repeated one. One int
    per distinct member is kept. Its lanes are _packer's for the longest member
    whose ratios the search may list, q^(D/2 + 1) <= DEFAULT_ENUM_BUDGET, and
    are repacked once if the file's top degree D takes narrower ones. Past that
    length no key is needed: no three of the file's degrees are a progression's
    (see _first_progression), or the search ends in BudgetExceeded, as
    has_progression does.
    """
    from .polytext import _parse_term

    q = spec.q
    room = 0  # the coefficients of the longest member whose ratios the search may list
    while q ** (room // 2 + 1) <= DEFAULT_ENUM_BUDGET:
        room += 1
    pack, _, unpack, *_ = _packer(spec, room) if room else (None, None, None)  # room = 0 when q > the budget
    width = pack((0, 1)).bit_length() - 1 if room else 1  # bits per coefficient
    terms = {}  # the text of a term: (1 << exponent, its lanes below `room`, its degree)
    keys, far = set(), set()  # far: the degrees of members too long to key
    for line in lines:
        if not line or line.isspace():
            continue
        key = mask = 0
        for term in line.split("+"):
            try:
                bit, lanes, _ = terms[term]
            except KeyError:
                e, c = _parse_term("".join(term.split()), q)
                lanes = pack((0,) * e + (c,)) if c and e < room else 0
                bit, lanes, _ = terms[term] = (1 << e, lanes, e if c else -1)
            if mask & bit:
                raise PolySyntaxError(f"exponent {bit.bit_length() - 1} appears twice")
            mask |= bit
            key += lanes
        if mask >> room:  # a term past the keyed lanes: the key is exact if its code is 0
            degree = max(terms[term][2] for term in line.split("+"))
            if degree >= room:
                far.add(degree)
                continue
        keys.add(key)
    degrees = far.union((n.bit_length() - 1) // width for n in keys)  # a key's top lane is its degree
    if not degrees:
        return None
    if min(degrees) < 0:
        raise ZeroPolynomial("progression search over a set containing 0")
    top = max(degrees)

    def keyed(final):  # the keys in the lanes of the search's pack, and the bases, below x^(top - 1)
        cut = pack((0,) * (top - 1) + (1,))
        bases = [unpack(n) for n in keys if n < cut]
        return (keys if final((0, 1)) == pack((0, 1)) else set(map(final, map(unpack, keys)))), bases

    return _first_progression(spec, degrees, unit_tolerant, keyed)


def _first_progression(spec, degrees, unit_tolerant: bool, keyed) -> Optional[ProgressionWitness]:
    """The one search behind every entry point, over members whose degrees are
    `degrees` (none zero), top the largest. `keyed(pack)` gives their set of
    packed ints for the `pack` of _packer(spec, top + 1), and the code tuples of
    the bases, the members of degree below top - 1; it is called only once a
    base can have a progression.

    The degrees of a progression (b, r*b, r^2*b), strict or up to units, are d,
    d + e, d + 2e with e = deg r >= 1. So where `degrees` hold no such triple
    the answer is None before any ratio is counted or listed; the check runs
    for up to 1448 distinct degrees (their count squared within
    DEFAULT_ENUM_BUDGET).
    """
    if len(degrees) ** 2 <= DEFAULT_ENUM_BUDGET and not any(
            2 * m - d in degrees for m in degrees for d in degrees if d < m):
        return None
    top = max(degrees)
    unit_tolerant = unit_tolerant and spec.q > 2  # GF(2)'s one unit is 1
    pack, mul, monic, triples = _progressions(spec, top, unit_tolerant)
    members, bases = keyed(pack)
    present = set(map(monic, members)) if monic else members
    for a, r, mid, ratio in triples(_canonical(bases)):
        if mid in present and mul(mid, ratio) in present:
            return ProgressionWitness(Poly._raw(spec, a), Poly._raw(spec, r))
    return None


def _progressions(spec, max_degree: int, unit_tolerant: bool = False):
    """(pack, mul, monic, triples): _packer's form up to max_degree, and
    `triples(bases)`, an iterator of (base, ratio, keyed middle ratio * base,
    keyed ratio) for each base code tuple in the order given and each non-unit
    ratio in canonical order with deg base + 2 deg ratio <= max_degree. The
    ratios are listed once, within DEFAULT_ENUM_BUDGET (so q <= 1448 whenever a
    base has room for one). A key is the packed int, or with `unit_tolerant`
    its monic form by `monic` (else None), as monic(r*a) = monic(r) * monic(a),
    and then only the ratio that is the canonical first of its unit multiples is kept."""
    enumeration_size(spec.q, max_degree // 2, DEFAULT_ENUM_BUDGET)
    pack, mul, unpack, *_ = _packer(spec, max_degree + 1)
    monic = _monic_key(spec, pack, mul, unpack) if unit_tolerant else None
    key = (lambda cs: monic(pack(cs))) if monic else pack
    ratios = [(len(r), r, key(r)) for r in _code_tuples(spec.q, 1, max_degree // 2)
              if not unit_tolerant or next(filter(None, r)) == 1]

    def triples(bases):
        for a in bases:
            packed, room = key(a), (max_degree + 3 - len(a)) // 2
            for n, r, ratio in ratios:
                if n > room:
                    break  # ratios are in canonical (degree-major) order
                yield a, r, mul(ratio, packed), ratio

    return pack, mul, monic, triples


def _monic_key(spec, pack, mul, unpack):
    """The monic form of a nonzero int of _packer's (pack, mul, unpack): one product
    by the packed inverse of its lead, none when the lead is 1. The inverse comes
    from _unit_ops, so no field call is made over GF(p) or a tabled GF(p^k)."""
    inverse, width, scales = _unit_ops(spec)[1], pack((0, 1)).bit_length() - 1, {}

    def monic(n):
        lead = n >> (n.bit_length() - 1) // width * width
        if lead == 1:
            return n
        if lead not in scales:
            scales[lead] = pack((inverse(unpack(lead)[0]),))
        return mul(n, scales[lead])

    return monic


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
