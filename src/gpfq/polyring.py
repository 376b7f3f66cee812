"""The ring F_q[x]: canonical values, arithmetic, enumeration, text output.

A polynomial is stored as a tuple of coefficient codes, constant term first,
with no trailing zero (the empty tuple is the zero polynomial). The canonical
order used everywhere for enumeration and reporting is (degree, then
constant-first lexicographic on the code tuple). The private tuple-level
helpers (_mul, _add, ...) are what the Poly class wraps for the public API
and operator syntax, and factor runs on them. Division and the one gcd
(_divmod, _gcd) live in polydiv, which the functions here that divide reach
through _polydiv on first use, and the text parser lives in polytext, so a
command compiles each only when it divides or reads polynomial text.

Over a prime field, _mul packs the codes into the lanes of one int
(Kronecker substitution; von zur Gathen and Gerhard, Modern Computer Algebra,
section 8.4) and reduces each lane mod p only when unpacking (8-bit lanes by
one bytes.translate through the table of i mod p). A product's lanes stay
below min(len) * (p-1)^2. Operands of every length pack into the narrowest
lane that holds that bound: 8, 16, 32 or 64 bits, and past that as many whole
bytes as it takes, since a lane need not be an array width. Over an extension
field _mul is one product in the 2-D packed form below, on a packer kept
across calls. Poly's powers are ff's _power on code tuples.

The searches and greedy builds in progfree, factor's residue ring and _mul
over every extension field share one 2-D packed form, _packer: digit j of
code i sits in lane i*(2k-1) + j, packed and unpacked by _codec and
lane-reduced mod p by _reducer, so one int product is the product in
GF(p)[x, y]. Its fold takes each coefficient c (degree < 2k - 1 in y) mod
m(y), the field modulus, by Barrett (ibid., 9.1): the quotient (c >> k
digits) * (y^(2k) // m) >> k digits, read unreduced, times the negated low
part of m, added to c, leaves c mod m in the low k digits, so equal
polynomials fold to equal ints. A lane summing t products of coefficients
holds max(t k (p-1)^2, (k-1)^2 (p-1)^3 + p - 1), the product's digits and
the fold's.
"""

from __future__ import annotations

import itertools
import sys
from array import array
from functools import lru_cache, partial

from .errors import CoefficientOutOfRange, DivisionByZero, SpecMismatch, ZeroPolynomial
from .ff import FieldSpec, _power

NEG_INFINITY = float("-inf")  # degree of the zero polynomial

# (bits, array typecode) of the unsigned 8-, 16-, 32- and 64-bit lanes
_LANES = tuple((array(t).itemsize * 8, t) for t in "BHIQ")
_BIG_ENDIAN = sys.byteorder == "big"  # packed ints are little-endian lanes


# ---------------------------------------------------------------------------
# tuple-level arithmetic (coefficient codes, constant first, trimmed)
# ---------------------------------------------------------------------------

def _trim(cs) -> tuple:
    n = len(cs)
    while n and cs[n - 1] == 0:
        n -= 1
    return tuple(cs[:n])


def _add(spec, a, b):
    if len(a) < len(b):
        a, b = b, a
    add = spec.add_c
    out = list(a)
    for i, c in enumerate(b):
        out[i] = add(out[i], c)
    return _trim(out)


def _neg(spec, a):
    neg = spec.neg_c
    return tuple(neg(c) for c in a)


def _sub(spec, a, b):
    return _add(spec, a, _neg(spec, b))


def _scale(spec, a, c):
    mul = spec.mul_c
    return tuple(mul(x, c) for x in a)


def _lane(bound):
    """(bits, typecode) of the narrowest packed lane that holds `bound`: an 8-, 16-, 32- or
    64-bit lane with its array typecode, and past 64 bits the fewest whole bytes that hold
    `bound`, with that byte count as its typecode (read and written by int.to_bytes)."""
    for bits, typecode in _LANES:
        if bound >> bits == 0:
            return bits, typecode
    size = -(-bound.bit_length() // 8)
    return 8 * size, size


@lru_cache(maxsize=None)
def _byte_mod(p):
    """The 256-byte table of i mod p, which reduces 8-bit lanes by bytes.translate."""
    return bytes(i % p for i in range(256))


def _pack(cs, typecode):
    """The int whose lanes, lowest first, are the codes `cs`."""
    if typecode == "B":
        return int.from_bytes(bytes(cs), "little")
    if type(typecode) is int:
        return int.from_bytes(b"".join([c.to_bytes(typecode, "little") for c in cs]), "little")
    lanes = array(typecode, cs)
    if _BIG_ENDIAN:
        lanes.byteswap()
    return int.from_bytes(lanes.tobytes(), "little")


def _unpack(n, count, bits, typecode, p):
    """The lowest `count` lanes of `n`, each reduced mod p."""
    raw = (n & ((1 << count * bits) - 1)).to_bytes(count * bits // 8, "little")
    if typecode == "B":
        return raw.translate(_byte_mod(p))
    if type(typecode) is int:
        return [int.from_bytes(raw[i:i + typecode], "little") % p for i in range(0, len(raw), typecode)]
    lanes = array(typecode)
    lanes.frombytes(raw)
    if _BIG_ENDIAN:
        lanes.byteswap()
    return [c % p for c in lanes]


def _mul(spec, a, b):
    if not a or not b:
        return ()
    if spec.k == 1:
        p = spec.p
        # a product coefficient is a sum of at most min(len) products of codes < p
        bits, typecode = _lane(min(len(a), len(b)) * (p - 1) ** 2)
        packed_a = _pack(a, typecode)
        packed_b = packed_a if b is a else _pack(b, typecode)
        return tuple(_unpack(packed_a * packed_b, len(a) + len(b) - 1, bits, typecode, p))
    pack, mul, unpack, *_ = _packer(spec, len(a) + len(b) - 1, min(len(a), len(b)))
    return unpack(mul(pack(a), pack(b)))


def _reducer(p, bits, typecode, lanes):
    """The function reducing every lane of a packed int mod p (at p = 2, of at most `lanes` lanes).
    A 16-bit lane 256*h + l at p < 128 is (256*h mod p) + (l mod p) mod p, read by byte tables."""
    if p == 2:  # a lane's parity is its lowest bit
        return int.from_bytes((b"\1" + bytes(bits // 8 - 1)) * lanes, "little").__and__
    mod = _byte_mod(p)
    if bits == 8:
        return lambda n: int.from_bytes(n.to_bytes(n.bit_length() + 7 >> 3, "little").translate(mod), "little")
    if bits == 16 and p < 128:
        high = bytes(256 * b % p for b in range(256))

        def reduce(n):
            raw = n.to_bytes(n.bit_length() + 15 >> 4 << 1, "little")
            out, low = bytearray(len(raw)), int.from_bytes(raw[::2].translate(mod), "little")
            out[::2] = (low + int.from_bytes(raw[1::2].translate(high), "little")).to_bytes(len(raw) >> 1, "little").translate(mod)
            return int.from_bytes(out, "little")

        return reduce
    return lambda n: _pack(_unpack(n, -(-n.bit_length() // bits), bits, typecode, p), typecode)


def _codec(spec, lane):
    """(pack, unpack) of the 2-D packed form over `spec` (module docstring) in `lane`, a (bits,
    typecode) of _lane: pack takes a code tuple to its int, and unpack reads the codes of an int
    back, each lane reduced mod p, so it is pack's inverse on reduced forms."""
    p, k, w = spec.p, spec.k, 2 * spec.k - 1  # w lanes per coefficient: 2k-1 digit slots
    bits, typecode = lane
    size = w * bits // 8  # bytes per coefficient
    chunk = lru_cache(maxsize=None)(lambda c: _pack(spec.digits_of(c), typecode).to_bytes(size, "little"))
    pack = partial(_pack, typecode=typecode) if k == 1 else lambda cs: int.from_bytes(b"".join(map(chunk, cs)), "little")

    def unpack(n):
        lanes = _unpack(n, -(-n.bit_length() // (8 * size)) * w, bits, typecode, p)
        cs = lanes[k - 1::w]  # each code's top digit, then the lower digits by Horner
        for j in range(k - 2, -1, -1):
            cs = [c * p + d for c, d in zip(cs, lanes[j::w])]
        return tuple(cs)

    return pack, unpack


@lru_cache(maxsize=64)
def _packer(spec, length, terms=None):
    """The 2-D packed form over `spec` (module docstring) for polynomials and products of at most
    `length` coefficients whose lanes each sum at most `terms` (by default `length`) products of
    coefficients: (pack, mul, unpack, lane, reduce). mul(c, b=1) folds c * b, every lane mod p and
    every coefficient mod m(y), so mul(c) folds c alone; unpack is pack's inverse on folded forms
    and reduce the lane reducer. Packers are pure functions of their arguments (equal specs share
    them), so a bounded cache keeps the recent ones: building one costs more than a small product."""
    p, k, w = spec.p, spec.k, 2 * spec.k - 1
    lane = bits, typecode = _lane(max((terms or length) * k * (p - 1) ** 2, (k - 1) ** 2 * (p - 1) ** 3 + p - 1))
    reduce = _reducer(p, bits, typecode, length * w)
    mul = lambda c, b=1: reduce(c * b)
    if k > 1:
        ones = int.from_bytes((b"\1" + bytes(w * bits // 8 - 1)) * length, "little")  # each coefficient's lowest lane
        top, below, shift = ones * ((1 << (k - 1) * bits) - 1), ones * ((1 << k * bits) - 1), k * bits
        mu = _pack(_polydiv()._divmod_packed(p, 1, (0,) * 2 * k + (1,), spec.modulus, bits, typecode)[0], typecode)
        tail = _pack([-c % p for c in spec.modulus[:k]], typecode)

        def mul(c, b=1):
            c = reduce(c * b)
            return reduce(c + ((c >> shift & top) * mu >> shift & top) * tail & below)

    pack, unpack = _codec(spec, lane)
    return pack, mul, unpack, lane, reduce


def _unit_ops(spec):
    """(times, inverse) on nonzero codes with no field call: mod p over GF(p) and
    by the exp/log tables over a tabled GF(p^k); only a field with no tables
    (q > 4096, see extfield) falls back to its own mul_c and inv_c."""
    p, q, exp, log = spec.p, spec.q, spec.exp, spec.log
    if spec.k == 1:
        return (lambda a, b: a * b % p), (lambda c: pow(c, p - 2, p))
    if log is not None:
        return (lambda a, b: exp[log[a] + log[b]]), (lambda c: exp[q - 1 - log[c]])
    return spec.mul_c, spec.inv_c


def _monic(spec, a):
    """(unit code, monic tuple) with unit * monic = a; a must be nonzero."""
    lead = a[-1]
    if lead == 1:
        return 1, a
    return lead, _scale(spec, a, spec.inv_c(lead))


@lru_cache(maxsize=None)
def _polydiv():
    """The module polydiv (division and the one gcd), imported by the first call: a command that
    never divides never compiles it. Cached, so that a division does not pay for an import
    statement each time."""
    from . import polydiv

    return polydiv


def _deriv(spec, a):
    if len(a) <= 1:
        return ()
    p = spec.p
    mul = spec.mul_c
    out = []
    for i in range(1, len(a)):
        s = i % p
        out.append(mul(a[i], s) if s != 1 else a[i])
    return _trim(out)


# ---------------------------------------------------------------------------
# public value types
# ---------------------------------------------------------------------------

class Poly:
    """Element of F_q[x] as a normalized, immutable coefficient sequence."""

    __slots__ = ("spec", "coeffs")

    def __init__(self, spec: FieldSpec, coeffs=()):
        cs = _trim(tuple(int(c) for c in coeffs))
        for c in cs:
            if not 0 <= c < spec.q:
                raise CoefficientOutOfRange(f"code {c} outside [0, {spec.q})")
        self.spec = spec
        self.coeffs = cs

    @classmethod
    def _raw(cls, spec, trimmed: tuple) -> "Poly":
        """Internal fast path: `trimmed` must already be normalized."""
        p = object.__new__(cls)
        p.spec = spec
        p.coeffs = trimmed
        return p

    # -- structure ---------------------------------------------------------

    @property
    def degree(self):
        """Degree, with NEG_INFINITY for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INFINITY

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other):
        if not isinstance(other, Poly):
            raise TypeError(f"expected Poly, got {type(other).__name__}")
        if self.spec != other.spec:
            raise SpecMismatch(f"{self.spec!r} vs {other.spec!r}")

    def __add__(self, other):
        self._check(other)
        return Poly._raw(self.spec, _add(self.spec, self.coeffs, other.coeffs))

    def __sub__(self, other):
        self._check(other)
        return Poly._raw(self.spec, _sub(self.spec, self.coeffs, other.coeffs))

    def __neg__(self):
        return Poly._raw(self.spec, _neg(self.spec, self.coeffs))

    def __mul__(self, other):
        self._check(other)
        return Poly._raw(self.spec, _mul(self.spec, self.coeffs, other.coeffs))

    def __divmod__(self, other):
        self._check(other)
        q, r = _polydiv()._divmod(self.spec, self.coeffs, other.coeffs)
        return Poly._raw(self.spec, q), Poly._raw(self.spec, r)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __pow__(self, e: int):
        return Poly._raw(self.spec, _power(partial(_mul, self.spec), self.coeffs, e, (1,)))

    # -- identity and order ---------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs and (self.spec is other.spec or self.spec == other.spec)

    def __hash__(self):
        return hash(self.coeffs)

    def __lt__(self, other):
        self._check(other)
        return canonical_key(self) < canonical_key(other)

    def __repr__(self):
        return f"Poly({self.spec!r}, {format_poly(self)!r})"

    def __str__(self):
        return format_poly(self)


def canonical_key(f: Poly):
    """Sort key realizing the canonical order: degree, then constant-first lex."""
    return (len(f.coeffs), f.coeffs)


# ---------------------------------------------------------------------------
# constructors and basic operations
# ---------------------------------------------------------------------------

def zero(spec) -> Poly:
    return Poly._raw(spec, ())


def one(spec) -> Poly:
    return Poly._raw(spec, (1,))


def x(spec) -> Poly:
    return Poly._raw(spec, (0, 1))


def make_monic(f: Poly):
    """Split f != 0 as (unit, monic) with unit * monic = f."""
    if f.is_zero():
        raise ZeroPolynomial("cannot make the zero polynomial monic")
    u, m = _monic(f.spec, f.coeffs)
    return f.spec.element(u), Poly._raw(f.spec, m)


def gcd(f: Poly, g: Poly) -> Poly:
    """Monic gcd; gcd(0, 0) is an error."""
    f._check(g)
    if f.is_zero() and g.is_zero():
        raise DivisionByZero("gcd(0, 0) is undefined")
    return Poly._raw(f.spec, _polydiv()._gcd(f.spec, f.coeffs, g.coeffs))


def derivative(f: Poly) -> Poly:
    """Formal derivative in characteristic p."""
    return Poly._raw(f.spec, _deriv(f.spec, f.coeffs))


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def _code_tuples(q, lo, hi, leads=None):
    """The code tuples of the nonzero polynomials over GF(q) of degree lo..hi
    whose lead is in `leads` (by default every nonzero code), lazily, in
    canonical order: the one enumerator behind every listing of polynomials."""
    leads = range(1, q) if leads is None else leads
    return (low + (lead,) for d in range(lo, hi + 1)
            for low in itertools.product(range(q), repeat=d) for lead in leads)


def _canonical(rows):
    """The code tuples `rows` sorted in canonical order (stable sorts: lex, then by degree)."""
    return sorted(sorted(rows), key=len)


def enumerate_polys(spec, degree: int):
    """All (q-1)*q^degree polynomials of exact degree, in canonical order."""
    if degree < 0:
        raise ValueError("degree must be >= 0")
    yield from map(partial(Poly._raw, spec), _code_tuples(spec.q, degree, degree))


def enumerate_monic(spec, degree: int):
    """All q^degree monic polynomials of exact degree, in canonical order."""
    if degree < 0:
        raise ValueError("degree must be >= 0")
    yield from map(partial(Poly._raw, spec), _code_tuples(spec.q, degree, degree, (1,)))


def enumerate_upto(spec, max_degree: int):
    """All nonzero polynomials of degree <= max_degree, in canonical order."""
    return map(partial(Poly._raw, spec), _code_tuples(spec.q, 0, max_degree))


# ---------------------------------------------------------------------------
# text output (the parser is polytext's)
# ---------------------------------------------------------------------------

def format_poly(f: Poly) -> str:
    """Canonical text, highest degree first; parse_poly(format_poly(f)) == f."""
    k, cs = f.spec.k, f.coeffs
    return "+".join([_term(k, e, cs[e]) for e in range(len(cs) - 1, -1, -1) if cs[e]]) or "0"


@lru_cache(maxsize=4096)
def _term(k, e, c):
    """The text of the term c * x^e for a nonzero code c of GF(p^k); cached, as _parse_term is."""
    code, power = str(c) if k == 1 else f"[{c}]", "x" if e == 1 else f"x^{e}"
    return code if e == 0 else power if c == 1 else f"{code}*{power}"


def _format_codes(k, rows):
    """format_poly of each code tuple in `rows` over GF(p^k). A run of rows of one length is
    joined a column of codes at a time, with each distinct term's text built once."""
    out = []
    for n, run in itertools.groupby(rows, len):
        run, columns = list(run), []
        for e in range(n - 1, -1, -1):
            codes, sep = [cs[e] for cs in run], "+" if e < n - 1 else ""
            texts = {c: sep + _term(k, e, c) if c else "" for c in set(codes)}
            columns.append(map(texts.__getitem__, codes))
        out += map("".join, zip(*columns)) if n else ["0"] * len(run)
    return out
