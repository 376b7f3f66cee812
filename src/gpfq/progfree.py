"""Progression-free combinatorics over F_q[x].

Covers the greedily-built integer set with no 3-term arithmetic progression
(ternary digits 0/1 only), the greedy polynomial set and its exponent
characterization, degree-set (norm-class) machinery, detection of 3-term
non-unit geometric progressions, and an exact extremal search.

A geometric progression here is the strict triple (b, r*b, r^2*b) with
deg r >= 1; the unit-tolerant variant relaxes membership of the second and
third terms to unit multiples. One enumerator, `_progressions`, lists these
triples for `has_progression` and the extremal search (one include-first
branch and bound over them as hyperedges). The searches and greedy builds
multiply and compare polynomials as ints in polyring's 2-D packed form.

The greedy set is closed under units, so both greedy builds run on the
packed monic polynomials alone; only a set of Poly or a reported member is
expanded to its q - 1 unit multiples.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple, Optional, Tuple

from . import factor
from .errors import DEFAULT_ENUM_BUDGET, DEFAULT_VERTEX_BUDGET, BudgetExceeded, SpecMismatch, ZeroPolynomial
from .polyring import Poly, _monic_key, _packer, _scale

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


def greedy_members(spec, max_degree: int, budget: int = DEFAULT_ENUM_BUDGET):
    """The set of Poly of degree <= max_degree that `greedy_member` admits,
    built from the irreducibles instead of by factoring each polynomial: the
    unit multiples of `_greedy_sieve`'s monic members.
    """
    mul, unpack, monics = _monics(spec, max_degree, budget)
    return _unit_multiples(spec, map(unpack, _greedy_sieve(mul, monics)))


def greedy_construct_bruteforce(spec, max_degree: int, budget: int = DEFAULT_ENUM_BUDGET):
    """Literal greedy construction: the set of Poly admitted by increasing degree.

    Starts from the nonzero constants; f of degree d is rejected exactly
    when f = r^2 * a with deg r >= 1 and a, r*a already admitted (f is the
    largest term of any progression it completes, as degrees increase along
    one). The rule commutes with units: f = r^2 * a is blocked by (r, a)
    exactly when u*f is blocked by (r, u*a), and (r, a) blocks f exactly as
    (r/c, c^2 * a) does for a unit c. So, by induction on the degree, the
    admitted set is closed under units, monic ratios suffice, and the set is
    the unit multiples of `_greedy_construct`'s monic members.
    """
    mul, unpack, monics = _monics(spec, max_degree, budget)
    return _unit_multiples(spec, map(unpack, _greedy_construct(mul, monics)))


def greedy_check(spec, max_degree: int, budget: int = DEFAULT_ENUM_BUDGET):
    """(members, extra, missing, witness) for the greedy construction against
    the characterization up to max_degree: its member count, the sorted Poly
    it admits beyond `greedy_members` and those it lacks, and a progression
    in it or None.

    Both sets are closed under units, so they are compared by their monic
    members. In a set closed under units a progression up to units is a
    strict one, so one unit-tolerant search looks for it, over the
    canonically least member of each class: its witness is the canonically
    least of the whole set.
    """
    mul, unpack, monics = _monics(spec, max_degree, budget)
    constructed, characterized = set(_greedy_construct(mul, monics)), set(_greedy_sieve(mul, monics))
    extra, missing = (sorted(_unit_multiples(spec, map(unpack, s)))
                      for s in (constructed - characterized, characterized - constructed))
    least = [Poly._raw(spec, _scale(spec, cs, spec.inv_c(next(filter(None, cs))))) for cs in map(unpack, constructed)]
    return (spec.q - 1) * len(constructed), extra, missing, has_progression(least, unit_tolerant=True)


def _monics(spec, max_degree: int, budget: int):
    """(mul, unpack, monics) for the greedy builds: monics[d] lists the monic
    polynomials of degree d in canonical order, packed by polyring's _packer
    for products of max_degree + 1 coefficients. The q^(max_degree+1)
    polynomials they stand for are held to `budget`."""
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    enumeration_size(spec.q, max_degree, budget)
    pack, mul, unpack = _packer(spec, max_degree + 1)
    return mul, unpack, [[pack(low + (1,)) for low in itertools.product(range(spec.q), repeat=d)]
                         for d in range(max_degree + 1)]


def _greedy_sieve(mul, monics):
    """The packed monic members of the greedy set up to degree len(monics) - 1.

    The monic irreducibles of degree d are the monic polynomials that no P*m
    reaches, for P an irreducible with 2 deg P <= d and m monic of degree
    d - deg P. A depth-first pass over the irreducibles in order takes every
    product of powers P^e with e in the AP-free set and total degree at most
    the top degree.
    """
    max_degree = len(monics) - 1
    irreducibles = []  # (degree, packed), by degree
    for d in range(1, max_degree + 1):
        composite = {mul(f, m) for e, f in irreducibles if 2 * e <= d for m in monics[d - e]}
        irreducibles += [(d, f) for f in monics[d] if f not in composite]
    powers = [[(e * d, power) for e, power in enumerate(itertools.accumulate([f] * (max_degree // d), mul), 1)
               if a3_contains(e)] for d, f in irreducibles]  # per irreducible: (degree, P^e), e AP-free
    found = []

    def extend(start, g, room):
        found.append(g)
        for i in range(start, len(powers)):
            if irreducibles[i][0] > room:
                break
            for d, h in powers[i]:
                if d > room:
                    break
                extend(i + 1, mul(g, h), room - d)

    extend(0, 1, max_degree)
    return found


def _greedy_construct(mul, monics):
    """The packed monic members of the literal greedy construction up to degree
    len(monics) - 1, with monic ratios. No division: before degree d, each
    r*(r*a) of degree d with a and r*a admitted is marked blocked."""
    levels, admitted = [monics[0]], set()  # levels[d]: the admitted of degree d
    for d in range(1, len(monics)):
        blocked = {mul(r, mid) for e in range(1, d // 2 + 1) for r in monics[e]
                   for a in levels[d - 2 * e] if (mid := mul(r, a)) in admitted}
        levels.append([f for f in monics[d] if f not in blocked])
        admitted.update(levels[d])
    return [f for level in levels for f in level]


def _unit_multiples(spec, gs):
    """The set of Poly u*g for every unit u and code tuple g in `gs`. The
    codes 0 and 1 map to 0 and u; the other distinct codes of the g are
    multiplied by each unit in one packed product. No such code, no product."""
    gs = list(gs)
    if not gs:
        return set()
    seen = sorted({c for g in gs for c in g} - {0, 1})
    if seen:
        pack, mul, unpack = _packer(spec, len(seen))
        row = pack(seen)

    def images():  # code -> u * code, per unit u
        for u in range(1, spec.q):
            image = {0: 0, 1: u}
            if seen:
                image.update(zip(seen, unpack(mul(row, pack((u,))))))
            yield image

    return {Poly._raw(spec, tuple(map(image.__getitem__, g))) for image in images() for g in gs}


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
    lengths = {len(f.coeffs) for f in members}
    top = max(lengths) - 1
    if min(lengths) >= top:  # a base has degree <= top - 2
        return None
    bases = sorted(sorted({f.coeffs for f in members if len(f.coeffs) < top}), key=len)  # canonical order
    key, mul, triples = _progressions(spec, bases, top, unit_tolerant)
    present = {key(f.coeffs) for f in members}
    for a, r, mid, ratio in triples:
        if mid in present and mul(mid, ratio) in present:
            return ProgressionWitness(Poly._raw(spec, a), Poly._raw(spec, r))
    return None


def _progressions(spec, bases, max_degree: int, unit_tolerant: bool = False):
    """(key, mul) of the packed form up to max_degree, and an iterator of (base,
    ratio, keyed middle ratio * base, keyed ratio) for each base code tuple in
    the order given and each non-unit ratio in canonical order with deg base + 2
    deg ratio <= max_degree. The ratios are listed once, within DEFAULT_ENUM_BUDGET
    (so q <= 1448 whenever a base has room for one). `key` packs a code tuple;
    `unit_tolerant` packs its monic form instead, as monic(r*a) = monic(r) *
    monic(a), and keeps each ratio that is the canonical first of its unit multiples."""
    enumeration_size(spec.q, max_degree // 2, DEFAULT_ENUM_BUDGET)
    pack, mul, _ = _packer(spec, max_degree + 1)
    key = _monic_key(spec, pack, mul) if unit_tolerant else pack
    ratios = [(len(r), r, key(r)) for r in _code_tuples(spec.q, 1, max_degree // 2)
              if not unit_tolerant or next(filter(None, r)) == 1]

    def triples():
        for a in bases:
            packed, room = key(a), (max_degree + 3 - len(a)) // 2
            for n, r, ratio in ratios:
                if n > room:
                    break  # ratios are in canonical (degree-major) order
                yield a, r, mul(ratio, packed), ratio

    return key, mul, triples()


def _code_tuples(q, lo, hi):
    """The code tuples of the nonzero polynomials over GF(q) of degree lo..hi,
    in canonical order (polyring.enumerate_polys, with no Poly built)."""
    return [low + (lead,) for d in range(lo, hi + 1)
            for low in itertools.product(range(q), repeat=d) for lead in range(1, q)]


# ---------------------------------------------------------------------------
# exact extremal search (maximum progression-free subset)
# ---------------------------------------------------------------------------

def max_progression_free_subset(spec, max_degree: int, budget: int = DEFAULT_VERTEX_BUDGET):
    """Exact maximum size of a strict-progression-free subset of the nonzero
    polynomials of degree <= max_degree, with the canonically least witness.

    The progressions are the edges of a 3-uniform hypergraph on these
    polynomials, and the answer is its largest edge-free vertex set, found by
    one branch-and-bound search (`_largest_free_set`). Deterministic. The
    vertex count is capped by `budget` before anything is listed, and the
    search by MAX_SEARCH_WORK edge scans; past either, BudgetExceeded.
    """
    enumeration_size(spec.q, max_degree, budget, nonzero=True)
    universe = _code_tuples(spec.q, 0, max_degree)
    pack, mul, triples = _progressions(spec, universe, max_degree)
    index = {key: i for i, f in enumerate(universe) for key in (f, pack(f))}
    edges = [(index[a], index[mid], index[mul(mid, ratio)]) for a, r, mid, ratio in triples]
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
