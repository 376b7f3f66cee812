"""Arithmetic in GF(p^k) with an explicit irreducible modulus.

Elements are handled as integer codes in [0, q): the base-p digit expansion
of a code lists the coefficients (constant term first) of the residue
representative modulo the field's modulus polynomial. The code-level
operations on a FieldSpec (`add_c`, `mul_c`, ...) are the hot path used by
polynomial arithmetic; `FieldElem` wraps a single code for the public API.

The base-p positional encoding gives a total order on elements, which is
what makes every enumeration downstream canonical and reproducible.

Prime fields compute mod p directly. Extension fields with q <= _LOG_MAX
(4096) are built once from the powers of g, their least primitive element by
code, into tables of at most 4q entries each:

  * multiply: a*b = exp[log a + log b], with exp stored twice over and log 0
    pointing into a zero tail, so no reduction and no branch;
  * invert: 1/a = exp[q-1 - log a];
  * add: XOR in characteristic 2; at odd p, Zech logarithms (Lidl and
    Niederreiter, Finite Fields, section 10.1), a + b = g^la (1 + g^(lb-la))
    = exp[la + zech[lb - la]] with zech[d] = log(1 + g^d), and a negation
    table.

Larger extension fields multiply through their digit polynomials, one Python
call per product, and add digit by digit.
"""

from __future__ import annotations

import itertools
import math

from .errors import (
    BudgetExceeded,
    CodeOutOfRange,
    CoefficientOutOfRange,
    DivisionByZero,
    NotPrime,
    ReducibleModulus,
    SpecMismatch,
    WrongDegreeModulus,
)
from .intarith import is_prime, prime_divisors

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


class FieldSpec:
    """Immutable description of GF(p^k) plus its arithmetic.

    Two specs compare equal iff they have the same (p, k, modulus); mixing
    elements of unequal specs raises SpecMismatch rather than coercing.
    `exp`, `log` and (at odd p) `zech` are the antilog, log and Zech tables
    of an extension field with q <= _LOG_MAX (None otherwise), which
    polyring's loops read directly.
    """

    def __init__(self, p: int, k: int, modulus: tuple):
        self.p = p
        self.k = k
        self.q = p**k
        self.modulus = tuple(modulus)
        self._init_ops()

    # -- construction of the code-level operations --------------------------

    def _init_ops(self):
        p, k, q = self.p, self.k, self.q
        # set for extension fields up to _LOG_MAX (zech at odd p only)
        self.exp = self.log = self.zech = None
        if p == 2:
            # codes are bit vectors of GF(2) digits: addition is XOR at every k
            self.add_c = lambda a, b: a ^ b
            self.neg_c = lambda a: a
        if k == 1:
            if p == 2:
                self.mul_c = lambda a, b: a & b
            else:
                self.add_c = lambda a, b: (a + b) % p
                self.neg_c = lambda a: (-a) % p
                self.mul_c = lambda a, b: (a * b) % p
            self.inv_c = self._inv_prime
            return

        # reduction vectors: _red[j] = digits of t^(k+j) mod modulus
        top = tuple((-c) % p for c in self.modulus[:k])
        red = [top]
        for _ in range(k - 2):
            prev = red[-1]
            shifted = (0,) + prev[: k - 1]
            carry = prev[k - 1]
            if carry:
                shifted = tuple((shifted[i] + carry * top[i]) % p for i in range(k))
            red.append(shifted)
        self._red = red

        if q <= _LOG_MAX:
            self._init_log_tables()
        else:
            if p != 2:
                self.add_c = self._add_digitwise
                self.neg_c = self._neg_digitwise
            self.mul_c = self._mul_codes
            self.inv_c = self._inv_pow

    def _init_log_tables(self):
        """Log, antilog and Zech tables from the least primitive element g by code.

        exp[i] = g^i is stored twice over, so that a sum of two logs needs no
        reduction, and then followed by a zero tail that log(0) = 2(q-1)
        points into: exp[log[a] + log[b]] is a*b for every a, b. At odd p,
        zech[d] = log(1 + g^d) gives a + b = g^la * (1 + g^(lb-la)) for
        nonzero a, b; it too is stored twice over, so that lb may be a sum of
        two logs (as in polyring's loops) and lb - la needs no reduction.
        """
        p, q = self.p, self.q
        n = q - 1
        powers = self._primitive_powers()
        exp = powers * 2 + [0] * (2 * n + 1)
        log = [2 * n] * q
        for i, c in enumerate(powers):
            log[c] = i
        self.exp, self.log = exp, log
        self.mul_c = lambda a, b: exp[log[a] + log[b]]

        def inv_c(a):
            if a == 0:
                raise DivisionByZero("inverse of zero")
            return exp[n - log[a]]

        self.inv_c = inv_c
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

        self.zech = zech
        self.add_c = add_c
        self.neg_c = neg.__getitem__

    def _primitive_powers(self):
        """[g^0, ..., g^(q-2)] as codes, g the least primitive element by code.

        Codes below p are the constants, of order dividing p - 1 < q - 1, so
        the candidates start at p (the residue x).
        """
        p, q = self.p, self.q
        primes = prime_divisors(q - 1)
        self.mul_c = self._mul_codes  # what pow_c runs on until the tables exist
        g = next(
            c for c in range(p, q)
            if all(self.pow_c(c, (q - 1) // l) != 1 for l in primes)
        )
        powers = []
        gd = self.digits_of(g)
        cur = self.digits_of(1)
        for _ in range(q - 1):
            powers.append(self._code_of(cur))
            cur = self._mul_digits(gd, cur)
        return powers

    def _code_of(self, digits):
        code = 0
        for d in reversed(digits):
            code = code * self.p + d
        return code

    def _mul_digits(self, da, db):
        p, k = self.p, self.k
        prod = [0] * (2 * k - 1)
        for i, ai in enumerate(da):
            if ai:
                for j, bj in enumerate(db):
                    if bj:
                        prod[i + j] = (prod[i + j] + ai * bj) % p
        for idx in range(2 * k - 2, k - 1, -1):
            c = prod[idx]
            if c:
                red = self._red[idx - k]
                for j, rj in enumerate(red):
                    if rj:
                        prod[j] = (prod[j] + c * rj) % p
        return tuple(prod[:k])

    def _add_digitwise(self, a, b):
        p = self.p
        return self._code_of(
            tuple((x + y) % p for x, y in zip(self.digits_of(a), self.digits_of(b)))
        )

    def _neg_digitwise(self, a):
        p = self.p
        return self._code_of(tuple((-x) % p for x in self.digits_of(a)))

    def _mul_codes(self, a, b):
        return self._code_of(self._mul_digits(self.digits_of(a), self.digits_of(b)))

    def _inv_prime(self, a):
        if a == 0:
            raise DivisionByZero("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def _inv_pow(self, a):
        if a == 0:
            raise DivisionByZero("inverse of zero")
        return self.pow_c(a, self.q - 2)

    # -- generic code-level helpers ------------------------------------------

    def pow_c(self, a: int, e: int) -> int:
        """a^e by square-and-multiply, e >= 0."""
        result = 1
        mul = self.mul_c
        while e:
            if e & 1:
                result = mul(result, a)
            a = mul(a, a)
            e >>= 1
        return result

    def pth_root_c(self, a: int) -> int:
        """The unique b with b^p = a (inverse Frobenius, b = a^(q/p))."""
        return self.pow_c(a, self.q // self.p)

    def digits_of(self, code: int) -> tuple:
        p = self.p
        out = []
        for _ in range(self.k):
            code, r = divmod(code, p)
            out.append(r)
        return tuple(out)

    # -- element access -------------------------------------------------------

    def element(self, code: int) -> "FieldElem":
        if not 0 <= code < self.q:
            raise CodeOutOfRange(f"code {code} outside [0, {self.q})")
        return FieldElem(self, code)

    @property
    def zero(self) -> "FieldElem":
        return FieldElem(self, 0)

    @property
    def one(self) -> "FieldElem":
        return FieldElem(self, 1)

    def elements(self):
        """All q elements in code order."""
        for c in range(self.q):
            yield FieldElem(self, c)

    # -- identity ---------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, FieldSpec):
            return NotImplemented
        return (self.p, self.k, self.modulus) == (other.p, other.k, other.modulus)

    def __hash__(self):
        return hash((self.p, self.k, self.modulus))

    def __repr__(self):
        if self.k == 1:
            return f"GF({self.p})"
        return f"GF({self.q}; modulus={list(self.modulus)})"


class FieldElem:
    """An element of a FieldSpec, stored as its integer code."""

    __slots__ = ("spec", "code")

    def __init__(self, spec: FieldSpec, code: int):
        self.spec = spec
        self.code = code

    @property
    def digits(self) -> tuple:
        """Base-p digits of the code: residue coefficients, constant first."""
        return self.spec.digits_of(self.code)

    def _check(self, other):
        if not isinstance(other, FieldElem):
            raise TypeError(f"expected FieldElem, got {type(other).__name__}")
        if self.spec != other.spec:
            raise SpecMismatch(f"{self.spec!r} vs {other.spec!r}")

    def __add__(self, other):
        self._check(other)
        return FieldElem(self.spec, self.spec.add_c(self.code, other.code))

    def __sub__(self, other):
        self._check(other)
        return FieldElem(self.spec, self.spec.add_c(self.code, self.spec.neg_c(other.code)))

    def __neg__(self):
        return FieldElem(self.spec, self.spec.neg_c(self.code))

    def __mul__(self, other):
        self._check(other)
        return FieldElem(self.spec, self.spec.mul_c(self.code, other.code))

    def __truediv__(self, other):
        self._check(other)
        return FieldElem(self.spec, self.spec.mul_c(self.code, self.spec.inv_c(other.code)))

    def __pow__(self, e):
        return FieldElem(self.spec, self.spec.pow_c(self.code, e))

    def inverse(self) -> "FieldElem":
        return FieldElem(self.spec, self.spec.inv_c(self.code))

    def __eq__(self, other):
        if not isinstance(other, FieldElem):
            return NotImplemented
        return self.spec == other.spec and self.code == other.code

    def __hash__(self):
        return hash((self.spec, self.code))

    def __repr__(self):
        return f"FieldElem({self.spec!r}, {self.code})"

    def __str__(self):
        if self.spec.k == 1:
            return str(self.code)
        return f"[{self.code}]"


def make_field(p: int, k: int = 1, modulus=None) -> FieldSpec:
    """Build GF(p^k); without an explicit modulus, pick the deterministic default.

    The default modulus is the first monic irreducible of degree k over F_p in
    constant-first lexicographic order of coefficient sequences, so identical
    (p, k) always yield identical fields, with no dependence on external
    polynomial tables.
    """
    if p < 2 or not is_prime(p):
        raise NotPrime(p)
    if k < 1:
        raise ValueError(f"extension degree must be >= 1, got {k}")
    if modulus is None:
        modulus = (0, 1) if k == 1 else _default_modulus(p, k)
    else:
        modulus = tuple(int(c) for c in modulus)
        _validate_modulus(p, k, modulus)
    return FieldSpec(p, k, modulus)


def _validate_modulus(p, k, modulus):
    if len(modulus) != k + 1 or modulus[-1] != 1:
        raise WrongDegreeModulus(f"modulus must be monic of degree {k}, got {list(modulus)}")
    if any(not 0 <= c < p for c in modulus):
        raise CoefficientOutOfRange(f"modulus coefficients must lie in [0, {p})")
    if k == 1:
        if modulus != (0, 1):
            raise WrongDegreeModulus("for k = 1 the modulus is the canonical monic x")
        return
    from . import factor, polyring

    base = make_field(p)
    if not factor.is_irreducible(polyring.Poly(base, modulus)):
        raise ReducibleModulus(f"{list(modulus)} is reducible over GF({p})")


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
