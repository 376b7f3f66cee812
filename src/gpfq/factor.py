"""Unique factorization in F_q[x].

The pipeline is the standard one, complete in every characteristic:

  1. squarefree decomposition via gcd(f, f'); what the gcd keeps of f after
     the squarefree parts (all of f when f' = 0) is some g^p, so recurse on g,
     whose coefficients are recovered through the inverse Frobenius a -> a^(q/p);
  2. distinct-degree splitting of each squarefree part via x^(q^d) mod f;
  3. equal-degree splitting (Cantor-Zassenhaus) by randomized powering, with
     the trace construction in characteristic 2.

The randomized stage draws from a generator seeded by (q, encoding of f), so
factorizations are bit-reproducible unless a caller overrides the seed.
"""

from __future__ import annotations

import random
from typing import NamedTuple, Tuple

from .errors import ZeroPolynomial
from .ff import FieldElem, FieldSpec
from .intarith import prime_divisors
from .polyring import (
    Poly,
    _add,
    _deriv,
    _divmod,
    _gcd,
    _mod,
    _monic,
    _powmod,
    _sub,
    _trim,
    canonical_key,
    enumerate_monic,
)


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
# irreducibility
# ---------------------------------------------------------------------------

def is_irreducible(f: Poly) -> bool:
    """True iff the monic associate of f is irreducible; constants are not.

    Deterministic test: x^(q^n) == x (mod f) together with
    gcd(x^(q^(n/l)) - x, f) = 1 for every prime l | n.
    """
    if f.is_zero():
        raise ZeroPolynomial("irreducibility of the zero polynomial")
    spec = f.spec
    m = _monic(spec, f.coeffs)[1]
    n = len(m) - 1
    if n == 0:
        return False
    if n == 1:
        return True
    q = spec.q
    xp = (0, 1)
    checkpoints = {n // l for l in prime_divisors(n)}
    h = xp
    for j in range(1, n + 1):
        h = _powmod(spec, h, q, m)
        if j in checkpoints and len(_gcd(spec, _sub(spec, h, xp), m)) > 1:
            return False
    return h == xp


# ---------------------------------------------------------------------------
# squarefree decomposition (tuple level; f monic)
# ---------------------------------------------------------------------------

def _pth_root(spec, f):
    """g with g^p = f, for monic f whose derivative vanishes."""
    p = spec.p
    root = spec.pth_root_c
    return _trim(tuple(root(f[i]) for i in range(0, len(f), p)))


def _squarefree_decomposition(spec, f):
    """{exponent: squarefree monic factor}, product over e of factor^e = f."""
    out = {}
    if len(f) - 1 == 0:
        return out
    c = _gcd(spec, f, _deriv(spec, f))  # f itself when f' = 0
    w = _divmod(spec, f, c)[0]
    i = 1
    while len(w) > 1:
        y = _gcd(spec, w, c)
        z = _divmod(spec, w, y)[0]
        if len(z) > 1:
            out[i] = z
        i += 1
        w = y
        c = _divmod(spec, c, y)[0]
    if len(c) > 1:
        # exponents divisible by p live entirely in c, itself a p-th power
        for e, g in _squarefree_decomposition(spec, _pth_root(spec, c)).items():
            out[e * spec.p] = g
    return out


# ---------------------------------------------------------------------------
# distinct-degree / equal-degree splitting (tuple level; f squarefree monic)
# ---------------------------------------------------------------------------

def _distinct_degree(spec, f):
    """[(d, product of the irreducible factors of degree d)] ascending in d."""
    q = spec.q
    out = []
    xp = (0, 1)
    h = _mod(spec, xp, f)
    d = 0
    while len(f) - 1 > 2 * d:
        d += 1
        h = _powmod(spec, h, q, f)
        g = _gcd(spec, _sub(spec, h, _mod(spec, xp, f)), f)
        if len(g) > 1:
            out.append((d, g))
            f = _divmod(spec, f, g)[0]
            h = _mod(spec, h, f)
    if len(f) > 1:
        out.append((len(f) - 1, f))
    return out


def _equal_degree(spec, f, d, rng):
    """Split a product of distinct monic irreducibles, all of degree d."""
    n = len(f) - 1
    if n == d:
        return [f]
    q = spec.q
    while True:
        a = _trim(tuple(rng.randrange(q) for _ in range(n)))
        if len(a) <= 1:
            continue
        c = _gcd(spec, a, f)
        if not 1 < len(c) < len(f):
            if spec.p == 2:
                # trace map a + a^2 + a^4 + ... with k*d terms splits over GF(2^k)
                b = a
                t = a
                for _ in range(spec.k * d - 1):
                    t = _powmod(spec, t, 2, f)
                    b = _add(spec, b, t)
                c = _gcd(spec, b, f) if b else ()
            else:
                b = _powmod(spec, a, (q**d - 1) // 2, f)
                c = _gcd(spec, _sub(spec, b, (1,)), f)
            if not 1 < len(c) < len(f):
                continue
        rest = _divmod(spec, f, c)[0]
        return _equal_degree(spec, c, d, rng) + _equal_degree(spec, rest, d, rng)


# ---------------------------------------------------------------------------
# full factorization
# ---------------------------------------------------------------------------

def _default_seed(spec, coeffs) -> int:
    s = 1
    for c in coeffs:
        s = s * spec.q + c
    return s * spec.q + spec.q


def factorize(f: Poly, seed: int | None = None) -> Factorization:
    """Factor f != 0 as unit * product of monic irreducible powers."""
    if f.is_zero():
        raise ZeroPolynomial("cannot factor the zero polynomial")
    spec = f.spec
    unit_code, m = _monic(spec, f.coeffs)
    rng = random.Random(_default_seed(spec, f.coeffs) if seed is None else seed)
    found = []
    for e, part in _squarefree_decomposition(spec, m).items():
        for d, block in _distinct_degree(spec, part):
            for prime in _equal_degree(spec, block, d, rng):
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
