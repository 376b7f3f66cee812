"""The ring F_q[x]: canonical values, arithmetic, enumeration, text format.

A polynomial is stored as a tuple of coefficient codes, constant term first,
with no trailing zero (the empty tuple is the zero polynomial). The canonical
order used everywhere for enumeration and reporting is (degree, then
constant-first lexicographic on the code tuple). The private tuple-level
helpers (_mul, _divmod, _gcd, ...) are what the factorization machinery runs
on; the Poly class wraps them for the public API and operator syntax.

Over a prime field, _mul and _divmod pack the codes into the 8-, 16-, 32- or
64-bit lanes of one int (Kronecker substitution; von zur Gathen and Gerhard,
Modern Computer Algebra, section 8.4) and reduce each lane mod p only when
unpacking (8-bit lanes by one bytes.translate through the table of i mod p).
A product's lanes stay below min(len) * (p-1)^2; a division keeps the
remainder as one int and adds (p - t) * b at each step, so its lanes never
borrow and must hold (p-1) + steps * (p-1)^2. Operands of every length pack
into the narrowest lane that holds that bound; a bound that no 64-bit lane
holds keeps the loop. Over an extension field with log tables (q <= 4096,
see ff), _mul_log and _divmod_log run that loop in the log domain with no ff
call: each product is one exp lookup, added by XOR at p = 2 and through the
Zech table.

The progression searches and greedy builds in progfree keep every operand in
a 2-D packed form over every field (_packer): digit j of code i sits in lane
i*(2k-1) + j, so one int product is the product in GF(p)[x, y]. Slots k..2k-2
fold back through y^(k+j) = ff's _red[j], one shift, mask and multiply each,
and each lane is reduced mod p, so equal polynomials pack to equal ints. A
lane is sized for a digit of a product, not for a code: unpacking reads each
coefficient's k digits back into its code. _mul keeps its loops: a GF(4)
product that packs and unpacks took 6.2 us against 3.7 us for _mul_log, while
a search packs each operand once.
"""

from __future__ import annotations

import itertools
import re
import sys
from array import array
from functools import lru_cache, partial

from .errors import (
    BudgetExceeded,
    CoefficientOutOfRange,
    DivisionByZero,
    PolySyntaxError,
    SpecMismatch,
    ZeroPolynomial,
)
from .ff import FieldSpec

NEG_INFINITY = float("-inf")  # degree of the zero polynomial
#: The largest exponent parse_poly accepts; past it, BudgetExceeded before any allocation.
MAX_TEXT_DEGREE = 2**20

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
    """(bits, typecode) of the narrowest packed lane that holds `bound`, or None."""
    for bits, typecode in _LANES:
        if bound >> bits == 0:
            return bits, typecode
    return None


@lru_cache(maxsize=None)
def _byte_mod(p):
    """The 256-byte table of i mod p, which reduces 8-bit lanes by bytes.translate."""
    return bytes(i % p for i in range(256))


def _pack(cs, typecode):
    """The int whose lanes, lowest first, are the codes `cs`."""
    if typecode == "B":
        return int.from_bytes(bytes(cs), "little")
    lanes = array(typecode, cs)
    if _BIG_ENDIAN:
        lanes.byteswap()
    return int.from_bytes(lanes.tobytes(), "little")


def _unpack(n, count, bits, typecode, p):
    """The lowest `count` lanes of `n`, each reduced mod p."""
    raw = (n & ((1 << count * bits) - 1)).to_bytes(count * bits // 8, "little")
    if typecode == "B":
        return raw.translate(_byte_mod(p))
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
        short = min(len(a), len(b))
        # a product coefficient is a sum of at most `short` products of codes < p
        lane = _lane(short * (p - 1) ** 2)
        if lane:
            bits, typecode = lane
            packed_a = _pack(a, typecode)
            packed_b = packed_a if b is a else _pack(b, typecode)
            n = len(a) + len(b) - 1
            return tuple(_unpack(packed_a * packed_b, n, bits, typecode, p))
    if spec.log is not None:
        return _mul_log(spec, a, b)
    add = spec.add_c
    mul = spec.mul_c
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = add(out[i + j], mul(ai, bj))
    return _trim(out)


def _mul_log(spec, a, b):
    """_mul over a log-tabled field: the logs of b once, each product one exp lookup.

    At odd p a product of log t < 2(q-1) is added to a nonzero coefficient c
    as g^lc * (1 + g^(t - lc)), which the doubled Zech table reads unreduced.
    """
    log, exp, zech = spec.log, spec.exp, spec.zech
    lb = [(j, log[c]) for j, c in enumerate(b) if c]
    out = [0] * (len(a) + len(b) - 1)
    if zech is None:
        for i, ai in enumerate(a):
            if ai:
                la = log[ai]
                for j, l in lb:
                    out[i + j] ^= exp[la + l]
    else:
        for i, ai in enumerate(a):
            if ai:
                la = log[ai]
                for j, l in lb:
                    c = out[i + j]
                    if c:
                        lc = log[c]
                        out[i + j] = exp[lc + zech[la + l - lc]]
                    else:
                        out[i + j] = exp[la + l]
    return _trim(out)


def _divmod(spec, a, b):
    if not b:
        raise DivisionByZero("polynomial division by zero")
    db = len(b) - 1
    if len(a) - 1 < db:
        return (), a
    if spec.k == 1:
        p = spec.p
        # every step adds at most (p-1)^2 to a lane that starts below p
        lane = _lane((p - 1) + (len(a) - db) * (p - 1) ** 2)
        if lane:
            return _divmod_packed(p, spec.inv_c(b[-1]), a, b, *lane)
    if spec.log is not None:
        return _divmod_log(spec, a, b)
    add = spec.add_c
    mul = spec.mul_c
    neg = spec.neg_c
    inv_lead = spec.inv_c(b[-1])
    rem = list(a)
    quot = [0] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = rem[i]
        if c:
            t = mul(c, inv_lead)
            quot[i - db] = t
            nt = neg(t)
            for j in range(db + 1):
                if b[j]:
                    rem[i - db + j] = add(rem[i - db + j], mul(nt, b[j]))
    return _trim(quot), _trim(rem[:db])


def _divmod_log(spec, a, b):
    """_divmod over a log-tabled field: each step adds t * (-b) by exp lookups.

    log t = log c + log(1/lead) is reduced mod q-1 first, since a sum of
    three logs would run past the doubled exp table. The leading coefficient
    of each step is not written back: it cancels and is never read again.
    """
    log, exp = spec.log, spec.exp
    n = spec.q - 1
    db = len(b) - 1
    neg = spec.neg_c
    lnb = [(j, log[neg(c)]) for j, c in enumerate(b[:db]) if c]
    l_inv = n - log[b[-1]]
    rem = list(a)
    quot = [0] * (len(a) - db)
    zech = spec.zech
    for i in range(len(a) - 1, db - 1, -1):
        c = rem[i]
        if c:
            lt = (log[c] + l_inv) % n
            lo = i - db
            quot[lo] = exp[lt]
            if zech is None:
                for j, l in lnb:
                    rem[lo + j] ^= exp[lt + l]
            else:
                for j, l in lnb:
                    r = rem[lo + j]
                    if r:
                        lr = log[r]
                        rem[lo + j] = exp[lr + zech[lt + l - lr]]
                    else:
                        rem[lo + j] = exp[lt + l]
    return _trim(quot), _trim(rem[:db])


def _divmod_packed(p, inv_lead, a, b, bits, typecode):
    """_divmod over GF(p) with the remainder held as one packed int.

    Subtracting t*b is adding (p - t)*b, so lanes only grow and never borrow;
    a lane is reduced mod p only when it is read as the leading coefficient
    and, for the remainder, once at the end.
    """
    db = len(b) - 1
    rem = _pack(a, typecode)
    packed_b = _pack(b, typecode)
    mask = (1 << bits) - 1
    quot = [0] * (len(a) - db)
    for i in range(len(a) - 1 - db, -1, -1):
        t = (rem >> (i + db) * bits & mask) * inv_lead % p
        if t:
            quot[i] = t
            rem += (p - t) * packed_b << i * bits
    return tuple(quot), _trim(_unpack(rem, db, bits, typecode, p))


def _packer(spec, length):
    """(pack, mul, unpack) of the 2-D packed form over `spec` (module docstring) for polynomials
    and products of at most `length` coefficients; unpack is pack's inverse on reduced forms."""
    p, k, q, w = spec.p, spec.k, spec.q, 2 * spec.k - 1  # w lanes per coefficient: 2k-1 digit slots
    bits, typecode = _lane(length * k * (p - 1) ** 2 * (1 + (k - 1) * (p - 1))) or (0, "")
    if not bits:
        raise BudgetExceeded(f"products of {length} coefficients over GF({q}) overflow a 64-bit lane")
    size = w * bits // 8  # bytes per coefficient
    ones = int.from_bytes((b"\1" + bytes(size - 1)) * length, "little")  # each coefficient's lowest lane
    slot, low, table = ones * ((1 << bits) - 1), ones * ((1 << k * bits) - 1), _byte_mod(p)
    folds = [((k + j) * bits, _pack(red, typecode)) for j, red in enumerate(spec._red)] if k > 1 else ()
    if p == 2:  # a lane's parity is its lowest bit
        reduce = (ones * sum(1 << j * bits for j in range(k))).__and__
    elif bits == 8:
        reduce = lambda n: int.from_bytes((n & low).to_bytes(n.bit_length() + 7 >> 3, "little").translate(table), "little")
    else:
        reduce = lambda n: _pack(_unpack(n & low, -(-n.bit_length() // bits), bits, typecode, p), typecode)
    chunk = lru_cache(maxsize=None)(lambda c: _pack(spec.digits_of(c), typecode).to_bytes(size, "little"))
    pack = partial(_pack, typecode=typecode) if k == 1 else lambda cs: int.from_bytes(b"".join(map(chunk, cs)), "little")

    def mul(a, b):
        n = a * b
        for shift, c in folds:
            n += (n >> shift & slot) * c
        return reduce(n)

    def unpack(n):
        lanes = _unpack(n, -(-n.bit_length() // (8 * size)) * w, bits, typecode, p)
        return tuple(lanes) if k == 1 else tuple(map(spec._code_of, (lanes[i:i + k] for i in range(0, len(lanes), w))))

    return pack, mul, unpack


def _unit_ops(spec):
    """(times, inverse) on nonzero codes with no field call: mod p over GF(p) and
    by the exp/log tables over a tabled GF(p^k); only a field with no tables
    (q > 4096, see ff) falls back to its own mul_c and inv_c."""
    p, q, exp, log = spec.p, spec.q, spec.exp, spec.log
    if spec.k == 1:
        return (lambda a, b: a * b % p), (lambda c: pow(c, p - 2, p))
    if log is not None:
        return (lambda a, b: exp[log[a] + log[b]]), (lambda c: exp[q - 1 - log[c]])
    return spec.mul_c, spec.inv_c


def _monic_key(spec, pack, mul):
    """pack(monic form of cs) for nonzero code tuples cs, with `pack` and `mul` from _packer: one
    product by the packed inverse of the lead, none when the lead is 1. The inverse comes from
    _unit_ops, so no field call is made over GF(p) or a tabled GF(p^k)."""
    inverse = _unit_ops(spec)[1]
    return lambda cs: pack(cs) if cs[-1] == 1 else mul(pack(cs), pack((inverse(cs[-1]),)))


def _mod(spec, a, b):
    return _divmod(spec, a, b)[1]


def _monic(spec, a):
    """(unit code, monic tuple) with unit * monic = a; a must be nonzero."""
    lead = a[-1]
    if lead == 1:
        return 1, a
    return lead, _scale(spec, a, spec.inv_c(lead))


def _gcd(spec, a, b):
    """Monic gcd; (0, 0) is the caller's error to raise."""
    while b:
        a, b = b, _mod(spec, a, b)
    return _monic(spec, a)[1] if a else ()


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


def _powmod(spec, base, e, mod):
    """base^e reduced mod `mod`, e >= 0."""
    result = (1,)
    base = _mod(spec, base, mod)
    while e:
        if e & 1:
            result = _mod(spec, _mul(spec, result, base), mod)
        e >>= 1
        if e:
            base = _mod(spec, _mul(spec, base, base), mod)
    return result


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
        q, r = _divmod(self.spec, self.coeffs, other.coeffs)
        return Poly._raw(self.spec, q), Poly._raw(self.spec, r)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative polynomial power")
        result = Poly._raw(self.spec, (1,))
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

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
    return Poly._raw(f.spec, _gcd(f.spec, f.coeffs, g.coeffs))


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
# text format
# ---------------------------------------------------------------------------

_TERM_RE = re.compile(r"^(?:(\d+|\[\d+\])\*)?x(?:\^(\d+))?$|^(\d+|\[\d+\])$")


def _excerpt(text: str) -> str:
    """repr of text for an error message, cut to its first 20 characters."""
    return repr(text) if len(text) <= 20 else f"{text[:20]!r}... ({len(text)} characters)"


def _significant(token: str) -> str:
    """A decimal token without its leading zeros. Its length is compared with that
    of a bound before int(), so a long token is neither converted nor echoed."""
    return token.lstrip("0") or "0"


def _parse_code(token: str, q: int) -> int:
    digits = _significant(token[1:-1] if token.startswith("[") else token)
    if len(digits) > len(str(q - 1)):
        raise CoefficientOutOfRange(f"coefficient of {len(digits)} digits outside [0, {q})")
    code = int(digits)
    if not 0 <= code < q:
        raise CoefficientOutOfRange(f"coefficient {token} outside [0, {q})")
    return code


@lru_cache(maxsize=4096)
def _parse_term(term: str, q: int):
    """(exponent, code) of one term. Cached, as text from format_poly repeats at
    most q * (degree + 1) distinct terms; an error is raised, never cached."""
    m = _TERM_RE.match(term)
    if not m:
        raise PolySyntaxError(f"bad term {_excerpt(term)}")
    coeff_tok, exp_tok, const_tok = m.groups()
    if const_tok is not None:
        return 0, _parse_code(const_tok, q)
    digits = _significant(exp_tok or "1")
    if len(digits) > len(str(MAX_TEXT_DEGREE)):
        raise BudgetExceeded(f"exponent of {len(digits)} digits exceeds the degree budget {MAX_TEXT_DEGREE}")
    e = int(digits)
    if e > MAX_TEXT_DEGREE:
        raise BudgetExceeded(f"exponent {e} exceeds the degree budget {MAX_TEXT_DEGREE}")
    return e, (_parse_code(coeff_tok, q) if coeff_tok is not None else 1)


def parse_poly(spec, text: str) -> Poly:
    """Parse `c`, `x`, `c*x`, `x^e`, `c*x^e` terms joined by `+`.

    Coefficients are decimal codes; for extension fields the bracketed form
    `[code]` used by format_poly is accepted as well. Repeating an exponent
    is an error rather than an implicit sum; an exponent above
    MAX_TEXT_DEGREE raises BudgetExceeded.
    """
    stripped = "".join(text.split())
    if not stripped:
        raise PolySyntaxError("empty polynomial text")
    coeffs = {}
    for term in stripped.split("+"):
        e, code = _parse_term(term, spec.q)
        if e in coeffs:
            raise PolySyntaxError(f"exponent {e} appears twice")
        coeffs[e] = code
    out = [0] * (max(coeffs) + 1)
    for e, code in coeffs.items():
        out[e] = code
    return Poly._raw(spec, _trim(out))


def format_poly(f: Poly) -> str:
    """Canonical text, highest degree first; parse_poly(format_poly(f)) == f."""
    if f.is_zero():
        return "0"
    k = f.spec.k
    parts = []
    for e in range(len(f.coeffs) - 1, -1, -1):
        c = f.coeffs[e]
        if c == 0:
            continue
        cs = str(c) if k == 1 else f"[{c}]"
        if e == 0:
            parts.append(cs)
        else:
            xs = "x" if e == 1 else f"x^{e}"
            parts.append(xs if c == 1 else f"{cs}*{xs}")
    return "+".join(parts)
