"""The greedy progression-free set of F_q[x], built two ways.

greedy_construct_bruteforce builds the set literally, by increasing degree;
greedy_members builds it from its exponent characterization (progfree's
greedy_member), by sieving the irreducibles instead of factoring each
polynomial; greedy_check compares the two and searches the construction for a
progression with progsearch's search (so `greedy enumerate` never compiles
that). Both builds multiply and compare polynomials as ints in polyring's 2-D
packed form.

The greedy set is closed under units, so both greedy builds run on the
packed monic polynomials alone; only a listing of members is expanded to
their q - 1 unit multiples, as code tuples in canonical order (`_member_codes`,
which the CLI formats with no Poly) or as Poly (`greedy_members`). Only
`greedy check` and `greedy enumerate` compile this module.
"""

from __future__ import annotations

import itertools

from . import progsearch
from .errors import DEFAULT_ENUM_BUDGET
from .polyring import Poly, _canonical, _code_tuples, _packer, _scale, _unit_ops
from .progfree import a3_contains, enumeration_size


def greedy_members(spec, max_degree: int):
    """The Poly of degree <= max_degree that `greedy_member` admits, in
    canonical order, built from the irreducibles instead of by factoring each
    polynomial: the unit multiples of `_greedy_sieve`'s monic members.
    """
    return [Poly._raw(spec, cs) for cs in _member_codes(spec, max_degree)]


def _member_codes(spec, max_degree: int):
    """greedy_members as code tuples, which a listing formats with no Poly built."""
    mul, unpack, monics = _monics(spec, max_degree)
    return _unit_codes(spec, map(unpack, _greedy_sieve(mul, monics)))


def greedy_construct_bruteforce(spec, max_degree: int):
    """Literal greedy construction: the Poly admitted by increasing degree, in
    canonical order.

    Starts from the nonzero constants; f of degree d is rejected exactly
    when f = r^2 * a with deg r >= 1 and a, r*a already admitted (f is the
    largest term of any progression it completes, as degrees increase along
    one). The rule commutes with units: f = r^2 * a is blocked by (r, a)
    exactly when u*f is blocked by (r, u*a), and (r, a) blocks f exactly as
    (r/c, c^2 * a) does for a unit c. So, by induction on the degree, the
    admitted set is closed under units, monic ratios suffice, and the set is
    the unit multiples of `_greedy_construct`'s monic members.
    """
    mul, unpack, monics = _monics(spec, max_degree)
    return _unit_multiples(spec, map(unpack, _greedy_construct(mul, monics)))


def greedy_check(spec, max_degree: int):
    """(members, extra, missing, witness) for the greedy construction against
    the characterization up to max_degree: its member count, the Poly it
    admits beyond `greedy_members` and those it lacks, each in canonical
    order, and a progression in it or None.

    Both sets are closed under units, so they are compared by their monic
    members. In a set closed under units a progression up to units is a
    strict one, so one unit-tolerant search looks for it: over the packed
    monic members, with each base scaled to the canonically least member of
    its class, so its witness is the canonically least of the whole set.
    """
    mul, unpack, monics = _monics(spec, max_degree)
    constructed, characterized = set(_greedy_construct(mul, monics)), set(_greedy_sieve(mul, monics))
    extra, missing = (_unit_multiples(spec, map(unpack, s))
                      for s in (constructed - characterized, characterized - constructed))

    def keyed(_):  # the search packs as _monics does, so the members go in as built
        cut = monics[max_degree - 1][0]  # x^(D - 1): packed ints order by degree first
        bases = [unpack(n) for n in constructed if n < cut]
        return constructed, [_scale(spec, cs, spec.inv_c(next(filter(None, cs)))) for cs in bases]

    witness = progsearch._first_progression(spec, range(max_degree + 1), True, keyed)
    return (spec.q - 1) * len(constructed), extra, missing, witness


def _monics(spec, max_degree: int):
    """(mul, unpack, monics) for the greedy builds: monics[d] lists the monic
    polynomials of degree d in canonical order, packed by polyring's _packer
    for products of max_degree + 1 coefficients. The q^(max_degree+1)
    polynomials they stand for are held to DEFAULT_ENUM_BUDGET."""
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    enumeration_size(spec.q, max_degree, DEFAULT_ENUM_BUDGET)
    pack, mul, unpack, *_ = _packer(spec, max_degree + 1)
    return mul, unpack, [list(map(pack, _code_tuples(spec.q, d, d, (1,)))) for d in range(max_degree + 1)]


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
    """The Poly u*g for every unit u and code tuple g in `gs`, in canonical order."""
    return [Poly._raw(spec, cs) for cs in _unit_codes(spec, gs)]


def _unit_codes(spec, gs):
    """_unit_multiples as code tuples. Each unit maps the codes through one dict:
    0 to 0, 1 to u and any other code c to times(u, c) of _unit_ops."""
    gs = list(gs)
    times = _unit_ops(spec)[0]
    seen = {c for g in gs for c in g}
    rows = []
    for u in range(1, spec.q):
        image = {c: c * u if c < 2 else times(u, c) for c in seen}
        rows += (tuple(map(image.__getitem__, g)) for g in gs)
    return _canonical(rows)
