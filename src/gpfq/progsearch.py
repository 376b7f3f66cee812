"""The search for a 3-term geometric progression in a set of polynomials.

A progression is the strict triple (b, r*b, r^2*b) with deg r >= 1; the
unit-tolerant variant relaxes membership of the second and third terms to
unit multiples. The triples come from progfree's enumerator `_progressions`,
which the extremal search shares; this module holds only what checks a given
set, so a command that never checks one (`extremal`, `greedy enumerate`)
never compiles it.

The search (`_first_progression`) multiplies and compares polynomials as ints
in polyring's 2-D packed form and takes its members as a set of those ints:
`has_progression` packs its Poly values into it, `has_progression_text` reads
polynomial text straight into it, with no Poly per line, and greedy's
`greedy_check` hands it the packed set its construction built.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

from .errors import DEFAULT_ENUM_BUDGET, PolySyntaxError, SpecMismatch, ZeroPolynomial
from .polyring import Poly, _canonical, _packer, _unit_ops
from .progfree import _progressions


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
    pack, mul, monic, triples = _progressions(spec, top, _monic_key if unit_tolerant else None)
    members, bases = keyed(pack)
    present = set(map(monic, members)) if monic else members
    for a, r, mid, ratio in triples(_canonical(bases)):
        if mid in present and mul(mid, ratio) in present:
            return ProgressionWitness(Poly._raw(spec, a), Poly._raw(spec, r))
    return None


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
