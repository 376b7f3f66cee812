"""Extension fields GF(p^k), k > 1: their code-level operations and their moduli.

ff reaches this module only for k > 1: FieldSpec._init_ops hands an extension
field's spec to _set_ops, and make_field asks for its default modulus or the
irreducibility of a given one. A command over prime fields alone never
compiles it.

Extension fields with q <= _LOG_MAX (4096) are built once from the powers of
g, their least primitive element by code, into tables of at most 4q entries
each:

  * multiply: a*b = exp[log a + log b], with exp stored twice over and log 0
    pointing into a zero tail, so no reduction and no branch;
  * invert: 1/a = exp[q-1 - log a];
  * add: XOR in characteristic 2; at odd p, Zech logarithms (Lidl and
    Niederreiter, Finite Fields, section 10.1), a + b = g^la (1 + g^(lb-la))
    = exp[la + zech[lb - la]] with zech[d] = log(1 + g^d), and a negation
    table.

The tables are filled by walking g's powers, one multiply-by-g step each (a
digit shift and a fold by the modulus per nonzero digit of g). Larger
extension fields multiply through digit polynomials (_mul_digits): a
schoolbook product whose digits of t^k and up are folded by the modulus
itself, one Python call per product, and add digit by digit.
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import partial

from .errors import BudgetExceeded, DivisionByZero, ReducibleModulus
from .ff import make_field
from .intarith import prime_divisors

# Extension fields up to this order get log/Zech tables. Building them takes
# at most about 27 ms on one x86-64 core (GF(2^12)); q x q tables took 0.6 s
# at q = 256.
_LOG_MAX = 4096

# The default modulus is searched for only while k * log2(p) stays within this
# many bits (k <= 128 at p = 2, k <= 80 at p = 3). Each candidate's
# irreducibility test makes about k * log2(p) modular squarings; every search
# measured within the budget ends in under 1.5 s, while some just past it
# (GF(2^149), GF(5^64)) take about 7 s.
MAX_MODULUS_SEARCH_BITS = 128


def _set_ops(spec):
    """Set the code-level operations of the extension field `spec` that ff's
    _init_ops leaves to it: the log tables up to _LOG_MAX, digit arithmetic
    above (addition stays ff's XOR at p = 2)."""
    if spec.q <= _LOG_MAX:
        _init_log_tables(spec)
    else:
        if spec.p != 2:
            spec.add_c = partial(_add_digitwise, spec)
            spec.neg_c = partial(_neg_digitwise, spec)
        spec.mul_c = partial(_mul_codes, spec)
        spec.inv_c = partial(_inv_pow, spec)


def _init_log_tables(spec):
    """Log, antilog and Zech tables from the least primitive element g by code.

    exp[i] = g^i is stored twice over, so that a sum of two logs needs no
    reduction, and then followed by a zero tail that log(0) = 2(q-1)
    points into: exp[log[a] + log[b]] is a*b for every a, b. At odd p,
    zech[d] = log(1 + g^d) gives a + b = g^la * (1 + g^(lb-la)) for
    nonzero a, b; it too is stored twice over, so that lb may be a sum of
    two logs (as in polydiv's division loop) and lb - la needs no
    reduction.
    """
    p, q = spec.p, spec.q
    n = q - 1
    powers = _primitive_powers(spec)
    exp = powers * 2 + [0] * (2 * n + 1)
    log = [2 * n] * q
    for i, c in enumerate(powers):
        log[c] = i
    spec.exp, spec.log = exp, log
    spec.mul_c = lambda a, b: exp[log[a] + log[b]]

    def inv_c(a):
        if a == 0:
            raise DivisionByZero("inverse of zero")
        return exp[n - log[a]]

    spec.inv_c = inv_c
    if p == 2:
        return
    # -1 = g^(n/2); 1 + c changes only the constant digit of c
    neg = [exp[la + n // 2] for la in log]
    zech = [log[c + 1 if c % p != p - 1 else c + 1 - p] for c in powers] * 2

    def add_c(a, b):
        if a and b:
            la = log[a]
            return exp[la + zech[log[b] - la]]
        return a or b

    spec.zech = zech
    spec.add_c = add_c
    spec.neg_c = neg.__getitem__


def _primitive_powers(spec):
    """[g^0, ..., g^(q-2)] as codes, g the least primitive element by code.

    Codes below p are the constants, of order dividing p - 1 < q - 1, so
    the candidates start at p (the residue x).
    """
    p, q = spec.p, spec.q
    primes = prime_divisors(q - 1)
    spec.mul_c = partial(_mul_codes, spec)  # what pow_c runs on until the tables exist
    g = next(
        c for c in range(p, q)
        if all(spec.pow_c(c, (q - 1) // l) != 1 for l in primes)
    )
    terms = [(i, c) for i, c in enumerate(spec.digits_of(g)) if c]  # g's nonzero digits
    return (_powers_gf2 if p == 2 else _powers_odd)(spec, terms)


# g^0, ..., g^(q-2), g's nonzero digits (i, g_i) in `terms`, each power from the last by
# one step: g * c sums g_i * (x^i c), and x * c is a digit shift with the digit shifted to
# t^k folded back by the modulus (t^k = -(m_0 + ... + m_(k-1) t^(k-1))).

def _powers_gf2(spec, terms):
    """A code is the bit vector of its digits: the shift is one, the fold and the sum XORs."""
    k, modulus = spec.k, _code_of(spec, spec.modulus)
    powers, cur = [], 1
    for _ in range(spec.q - 1):
        powers.append(cur)
        acc = at = 0
        for i, _ in terms:
            for _ in range(i - at):
                cur <<= 1
                if cur >> k:
                    cur ^= modulus
            at = i
            acc ^= cur
        cur = acc
    return powers


def _powers_odd(spec, terms):
    """One digit per byte of an int, constant first. A shift adds below p to a byte, a
    term with g_i != 1 is reduced as bytes.translate scales it, so a step's sum stays
    below k*k*p <= 244 (q <= _LOG_MAX) until one translate reduces it."""
    p, k = spec.p, spec.k
    mask, top = (1 << 8 * k) - 1, 8 * (k - 1)
    fold = [int.from_bytes(bytes(-t * m % p for m in spec.modulus[:k]), "little") for t in range(k * p)]
    scaled = {c: bytes(c * b % p for b in range(256)) for c in {1, *(c for _, c in terms)}}
    weights = [p**i for i in range(k)]
    powers, cur = [], 1
    for _ in range(spec.q - 1):
        powers.append(sum(map(operator.mul, cur.to_bytes(k, "little"), weights)))
        acc = at = 0
        for i, c in terms:
            for _ in range(i - at):
                cur = (cur << 8 & mask) + fold[cur >> top]
            at = i
            acc += cur if c == 1 else int.from_bytes(cur.to_bytes(k, "little").translate(scaled[c]), "little")
        cur = int.from_bytes(acc.to_bytes(k, "little").translate(scaled[1]), "little")
    return powers


def _code_of(spec, digits):
    code = 0
    for d in reversed(digits):
        code = code * spec.p + d
    return code


def _mul_digits(spec, da, db):
    p, k = spec.p, spec.k
    prod = [0] * (2 * k - 1)
    for i, ai in enumerate(da):
        if ai:
            for j, bj in enumerate(db):
                if bj:
                    prod[i + j] = (prod[i + j] + ai * bj) % p
    # t^k = -(m_0 + ... + m_(k-1) t^(k-1)) folds each high digit, the highest first
    low = spec.modulus[:k]
    for idx in range(2 * k - 2, k - 1, -1):
        c = prod[idx]
        if c:
            for j, mj in enumerate(low, idx - k):
                if mj:
                    prod[j] = (prod[j] - c * mj) % p
    return tuple(prod[:k])


def _add_digitwise(spec, a, b):
    p = spec.p
    return _code_of(spec, tuple((x + y) % p for x, y in zip(spec.digits_of(a), spec.digits_of(b))))


def _neg_digitwise(spec, a):
    p = spec.p
    return _code_of(spec, tuple((-x) % p for x in spec.digits_of(a)))


def _mul_codes(spec, a, b):
    return _code_of(spec, _mul_digits(spec, spec.digits_of(a), spec.digits_of(b)))


def _inv_pow(spec, a):
    if a == 0:
        raise DivisionByZero("inverse of zero")
    return spec.pow_c(a, spec.q - 2)


def _check_irreducible(p, k, modulus):
    """`modulus`, monic of degree k over GF(p) (ff's _validate_modulus), if it is irreducible."""
    from . import factor, polyring

    base = make_field(p)
    if not factor.is_irreducible(polyring.Poly(base, modulus)):
        raise ReducibleModulus(f"{list(modulus)} is reducible over GF({p})")
    return modulus


def _default_modulus(p, k):
    from . import factor, polyring

    if k * math.log2(p) > MAX_MODULUS_SEARCH_BITS:
        raise BudgetExceeded(
            f"a default modulus for GF({p}^{k}) exceeds the {MAX_MODULUS_SEARCH_BITS}-bit search budget"
        )
    base = make_field(p)
    # Candidates in constant-first lexicographic order are the big-endian
    # base-p digits of p^(k-1), p^(k-1) + 1, ...: starting there skips the
    # constant term 0 (x divides those), and no range(p) is ever listed.
    for n in itertools.count(p ** (k - 1)):
        cand = tuple(n // p ** (k - 1 - i) % p for i in range(k)) + (1,)
        if factor.is_irreducible(polyring.Poly(base, cand)):
            return cand
