"""Unique factorization in F_q[x].

The pipeline is the standard one, complete in every characteristic:

  1. squarefree decomposition via gcd(f, f'); what the gcd keeps of f after
     the squarefree parts (all of f when f' = 0) is some g^p, so recurse on g,
     whose coefficients are recovered through the inverse Frobenius a -> a^(q/p);
  2. distinct-degree splitting of each squarefree part via h_d = x^(q^d) mod f,
     blocked (von zur Gathen and Shoup, "Computing Frobenius maps and factoring
     polynomials", 1992): the product of h_d - x over _BLOCK consecutive degrees
     is accumulated mod f and one gcd with f is taken per block, and only a block
     whose gcd is nontrivial is split degree by degree;
  3. equal-degree splitting (Cantor-Zassenhaus) by randomized powering, with
     the trace construction in characteristic 2.

Steps 2 and 3 and is_irreducible run in a residue ring GF(q)[x]/(f), q = p^k:
_Packed, on polyring's 2-D packed form (_packer; 1-D at k = 1), which gives
it its lanes, codec, lane reduction and fold in y. The ring adds Barrett
reduction in x by x^(2n) // f (von zur Gathen and Gerhard, Modern Computer
Algebra, 9.1). Its gcds, one per block, are polydiv's _gcd at every k, on
the codes of its residues.
As h -> h^q is GF(q)-linear, where q > n the ring builds the matrix of the
x^(iq) mod f by n - 1 ring products, and a step costs 0.5 to 2.7 ring products
(measured, 16 <= n <= 256) against log2(q) to 2 log2(q) for square and
multiply, which it keeps where q <= n: whole walks are within 12% either way
near q = n (q = 4 to 16), powering wins by 15-20% for q well below n, and at
GF(4), n = 4096, a step costs 2.2 ring products against 2. No other layer
builds the ring.

factorize counts its work (polydiv's _Work): every Euclid or division step
(polydiv's _gcd and _divmod, each given the budget) and every ring product
(powers are ff's _power) costs the degree of its modulus, and past
MAX_FACTOR_WORK it raises BudgetExceeded. The randomized stage draws from a
generator seeded by (q, encoding of f), so factorizations are
bit-reproducible unless a caller overrides the seed.
"""

from __future__ import annotations

import random
from itertools import accumulate, repeat
from typing import NamedTuple, Tuple

from .errors import MAX_FACTOR_WORK, ZeroPolynomial
from .ff import FieldElem, FieldSpec, _power
from .polydiv import _UNMETERED, _divmod, _gcd, _Work
from .polyring import Poly, _deriv, _monic, _packer, _trim, canonical_key, enumerate_monic

#: Degrees per gcd in the distinct-degree split.
_BLOCK = 8
#: The largest Frobenius matrix a packed ring keeps, in bits (32 MiB: n = 2048 at 64-bit lanes).
_MATRIX_BITS = 1 << 28


class Factorization(NamedTuple):
    """unit * product of monic irreducibles with exponents, canonically sorted."""

    unit: FieldElem
    parts: Tuple[Tuple[Poly, int], ...]

    def expand(self) -> Poly:
        """Multiply the factorization back out."""
        spec = self.unit.spec
        acc = Poly(spec, (self.unit.code,))
        for prime, e in self.parts:
            acc = acc * prime**e
        return acc

    def exponents(self) -> Tuple[int, ...]:
        return tuple(e for _, e in self.parts)


# ---------------------------------------------------------------------------
# the residue ring modulo a monic f of degree n >= 1
# ---------------------------------------------------------------------------

class _Packed:
    """GF(q)[x]/(f) on polyring's 2-D packed form: digit j of coefficient i in lane i*w + j, w = 2k - 1.

    A product c = a*b (degree < 2n) has quotient (c >> n coefficients) * mu >> n coefficients
    by f, mu = x^(2n) // f, and residue the low n coefficients of c + quotient * (x^n - f).
    Each of the three products is folded by _packer's, whose lanes sum n products of
    coefficients. Elements are canonical, so equal residues compare equal. Every product is
    charged n units of `work`, and every gcd and division its steps.
    """

    def __init__(self, spec, f, work=_UNMETERED):
        p, n = spec.p, len(f) - 1
        self.spec, self.f, self.n, self.work, self.p, self.matrix = spec, f, n, work, p, None
        self.pack, self.fold, self.codes, self.lane, self.reduce = _packer(spec, 2 * n, n)
        self.width = (2 * spec.k - 1) * self.lane[0]  # bits per coefficient
        self.shift, self.low = n * self.width, (1 << n * self.width) - 1
        self.mu = self.pack(_divmod(spec, (0,) * 2 * n + (1,), f, work)[0])
        self.tail = self.reduce((p - 1) * self.pack(f[:n]))  # x^n - f, as -d = (p - 1) * d
        self.one, self.x = self.elem((1,)), self.elem((0, 1))

    def elem(self, cs):
        """The residue of the code tuple cs."""
        return self.pack(_divmod(self.spec, cs, self.f, self.work)[1])

    def sub(self, a, b):
        return a ^ b if self.p == 2 else self.reduce(a + (self.p - 1) * b)

    def mul(self, a, b):
        self.work.charge(self.n)
        fold, shift = self.fold, self.shift
        c = fold(a, b)
        if c >> shift == 0:
            return c
        return fold(c + (fold(c >> shift, self.mu) >> shift) * self.tail & self.low)

    def pow(self, a, e):
        return _power(self.mul, a, e, self.one)

    def frobenius(self, a):
        """a^q, through the matrix where q > n (module docstring) and it fits in _MATRIX_BITS."""
        q, n = self.spec.q, self.n
        return self.pow(a, q) if q <= n or n * self.shift > _MATRIX_BITS else self.frobenius_by_matrix(a)

    def frobenius_by_matrix(self, a):
        """a^q as sum a_i * x^(iq) mod f, from the matrix built on the first call; a step folds
        the sum once and is charged as one ring product."""
        n, size, digits = self.n, self.width // 8, self.spec.k * self.lane[0] // 8
        if self.matrix is None:
            self.matrix = list(accumulate(repeat(self.pow(self.x, self.spec.q), n - 1), self.mul, initial=self.one))
        self.work.charge(n)
        raw = a.to_bytes(n * size, "little")
        return self.fold(sum(int.from_bytes(raw[i * size:i * size + digits], "little") * x for i, x in enumerate(self.matrix)))

    def gcd(self, a):
        """Monic gcd(a, f) as a code tuple."""
        return _gcd(self.spec, self.f, self.codes(a), self.work)


# ---------------------------------------------------------------------------
# irreducibility
# ---------------------------------------------------------------------------

def is_irreducible(f: Poly) -> bool:
    """True iff the monic associate of f is irreducible; constants are not.

    Ben-Or's test ("Probabilistic algorithms in finite fields", 1981): f of
    degree n is irreducible iff gcd(x^(q^d) - x, f) = 1 for every d <= n/2,
    taken one gcd per block of degrees as in the distinct-degree split. A
    reducible f stops at the block of its smallest factor's degree.
    """
    if f.is_zero():
        raise ZeroPolynomial("irreducibility of the zero polynomial")
    spec = f.spec
    m = _monic(spec, f.coeffs)[1]
    if len(m) <= 2:
        return len(m) == 2
    return _irreducible(_Packed(spec, m))


def _irreducible(ring):
    """is_irreducible for the ring's modulus."""
    h, d = ring.x, 0
    while 2 * (d + 1) <= ring.n:
        hs, acc = _block(ring, h, d)
        if len(ring.gcd(acc)) > 1:
            return False
        h, d = hs[-1], d + len(hs)
    return True


# ---------------------------------------------------------------------------
# squarefree decomposition (tuple level; f monic)
# ---------------------------------------------------------------------------

def _pth_root(spec, f):
    """g with g^p = f, for monic f whose derivative vanishes."""
    p = spec.p
    root = spec.pth_root_c
    return _trim(tuple(root(f[i]) for i in range(0, len(f), p)))


def _squarefree_decomposition(spec, f, work=_UNMETERED):
    """{exponent: squarefree monic factor}, product over e of factor^e = f."""
    out = {}
    if len(f) - 1 == 0:
        return out
    c = _gcd(spec, f, _deriv(spec, f), work)  # f itself when f' = 0
    w = _divmod(spec, f, c, work)[0]
    i = 1
    while len(w) > 1:
        y = _gcd(spec, w, c, work)
        z = _divmod(spec, w, y, work)[0]
        if len(z) > 1:
            out[i] = z
        i += 1
        w = y
        c = _divmod(spec, c, y, work)[0]
    if len(c) > 1:
        # exponents divisible by p live entirely in c, itself a p-th power
        for e, g in _squarefree_decomposition(spec, _pth_root(spec, c), work).items():
            out[e * spec.p] = g
    return out


# ---------------------------------------------------------------------------
# distinct-degree / equal-degree splitting (f squarefree monic)
# ---------------------------------------------------------------------------

def _distinct_degree(ring):
    """[(d, product of the irreducible factors of degree d)] ascending in d, for the ring's modulus.

    Degrees come in blocks of _BLOCK: the product of h_d - x over a block
    takes one gcd with f, and every factor of degree below the block is gone
    from f by then. A degree past n/2 is never walked: what is left of f then
    is irreducible. Taking out a block's factors moves the walk to a smaller ring.
    """
    out = []
    h, d = ring.x, 0
    while 2 * (d + 1) <= ring.n:
        hs, acc = _block(ring, h, d)
        h, first, d = hs[-1], d + 1, d + len(hs)
        g = ring.gcd(acc)
        if len(g) > 1:
            out += _split_block(ring, g, hs, first)
            f = _divmod(ring.spec, ring.f, g, ring.work)[0]
            if len(f) == 1:
                return out
            h, ring = ring.codes(h), _Packed(ring.spec, f, ring.work)
            h = ring.elem(h)
    out.append((ring.n, ring.f))
    return out


def _block(ring, h, d):
    """The next block of degrees d+1, d+2, ..., none past n/2, walked from h = h_d: the
    list of their h_e = x^(q^e) mod f and the product of the h_e - x, all in the ring."""
    hs = []
    for _ in range(min(_BLOCK, ring.n // 2 - d)):
        h = ring.frobenius(h)
        hs.append(h)
    acc = ring.sub(hs[0], ring.x)
    for h in hs[1:]:
        acc = ring.mul(acc, ring.sub(h, ring.x))
    return hs, acc


def _split_block(ring, g, hs, first):
    """[(d, part of g of degree d)] for g the block gcd and hs its h_d, d = first, first+1, ...

    Every factor of g has a degree in the block, so the part of degree d is
    gcd(g, h_d - x) once the parts below d are divided out, and the last
    degree takes what is left.
    """
    spec, work = ring.spec, ring.work
    out = []
    for d, h in enumerate(hs[:-1], first):
        if len(g) == 1:
            return out
        part = _gcd(spec, g, _divmod(spec, ring.codes(ring.sub(h, ring.x)), g, work)[1], work)
        if len(part) > 1:
            out.append((d, part))
            g = _divmod(spec, g, part, work)[0]
    if len(g) > 1:
        out.append((first + len(hs) - 1, g))
    return out


def _equal_degree(spec, f, d, rng, work=_UNMETERED):
    """Split a product of distinct monic irreducibles, all of degree d."""
    n = len(f) - 1
    if n == d:
        return [f]
    ring = _Packed(spec, f, work)
    q = spec.q
    while True:
        a = _trim(tuple(rng.randrange(q) for _ in range(n)))
        if len(a) <= 1:
            continue
        a = ring.elem(a)
        c = ring.gcd(a)
        if not 1 < len(c) < len(f):
            if spec.p == 2:
                # trace map a + a^2 + a^4 + ... with k*d terms splits over GF(2^k)
                b = t = a
                for _ in range(spec.k * d - 1):
                    t = ring.mul(t, t)
                    b ^= t
            else:
                b = ring.sub(ring.pow(a, (q**d - 1) // 2), ring.one)
            c = ring.gcd(b)
            if not 1 < len(c) < len(f):
                continue
        rest = _divmod(spec, f, c, work)[0]
        return _equal_degree(spec, c, d, rng, work) + _equal_degree(spec, rest, d, rng, work)


# ---------------------------------------------------------------------------
# full factorization
# ---------------------------------------------------------------------------

def _horner(cs, q):
    """The big-endian base-q value sum of cs[i] * q^(len(cs)-1-i), by halves: the two
    halves' values are joined by one product with a power of q, so long inputs cost
    a few big products rather than one small product per coefficient."""
    if len(cs) <= 64:
        s = 0
        for c in cs:
            s = s * q + c
        return s
    mid = len(cs) // 2
    return _horner(cs[:mid], q) * q ** (len(cs) - mid) + _horner(cs[mid:], q)


def _default_seed(spec, coeffs) -> int:
    """(1, coeffs..., q) read as base-q digits, most significant first."""
    q = spec.q
    return (q ** len(coeffs) + _horner(coeffs, q)) * q + q


def factorize(f: Poly, seed: int | None = None) -> Factorization:
    """Factor f != 0 as unit * product of monic irreducible powers.

    Raises BudgetExceeded once the work passes MAX_FACTOR_WORK (module docstring).
    """
    if f.is_zero():
        raise ZeroPolynomial("cannot factor the zero polynomial")
    spec = f.spec
    unit_code, m = _monic(spec, f.coeffs)
    rng = random.Random(_default_seed(spec, f.coeffs) if seed is None else seed)
    work = _Work(MAX_FACTOR_WORK)
    found = []
    for e, part in _squarefree_decomposition(spec, m, work).items():
        for d, block in _distinct_degree(_Packed(spec, part, work)):
            for prime in _equal_degree(spec, block, d, rng, work):
                found.append((Poly._raw(spec, prime), e))
    found.sort(key=lambda pe: canonical_key(pe[0]))
    return Factorization(spec.element(unit_code), tuple(found))


def factorization_exponents(f: Poly) -> Tuple[int, ...]:
    """Sorted distinct exponent values in the factorization of f.

    Needs only the squarefree decomposition, not the full split into primes:
    the exponent set of f is exactly the set of e with a nontrivial
    squarefree part. Used by membership tests that never look at the primes.
    """
    if f.is_zero():
        raise ZeroPolynomial("cannot factor the zero polynomial")
    spec = f.spec
    m = _monic(spec, f.coeffs)[1]
    return tuple(sorted(_squarefree_decomposition(spec, m)))


# ---------------------------------------------------------------------------
# enumerating irreducibles
# ---------------------------------------------------------------------------

def enumerate_irreducibles(spec: FieldSpec, degree: int):
    """The m(n, q) monic irreducibles of the given degree, canonical order."""
    if degree < 1:
        raise ValueError("degree must be >= 1")
    for f in enumerate_monic(spec, degree):
        if is_irreducible(f):
            yield f
