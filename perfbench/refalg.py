"""Reference arithmetic in GF(q) and GF(q)[x], independent of the package.

The benchmark builds its inputs and checks the program's answers with this
module, so neither depends on the code being measured. Elements are integer
codes in [0, q) with the same encoding the program uses: the base-p digits of
a code are the residue coefficients, constant first, modulo the default
modulus (the first monic irreducible of degree k over F_p in constant-first
lexicographic order). Polynomials are lists of codes, constant first, with no
trailing zero.
"""

from __future__ import annotations

import itertools
import re


def prime_power(q: int):
    """(p, k) with p^k == q, or None."""
    if q < 2:
        return None
    p = next(d for d in range(2, q + 1) if q % d == 0)
    k = 0
    while q % p == 0:
        q //= p
        k += 1
    return (p, k) if q == 1 else None


class Field:
    """GF(p^k): prime fields by residues, extensions by log/antilog tables."""

    def __init__(self, q: int):
        pk = prime_power(q)
        if pk is None:
            raise ValueError(f"{q} is not a prime power")
        self.p, self.k = pk
        self.q = q
        if self.k == 1:
            self.modulus = (0, 1)
            return
        self._prime = Field(self.p)
        self.modulus = default_modulus(self.p, self.k)
        self._build_tables()

    def _digits(self, code):
        out = []
        for _ in range(self.k):
            code, r = divmod(code, self.p)
            out.append(r)
        return out

    def _code(self, digits):
        code = 0
        for d in reversed(digits):
            code = code * self.p + d
        return code

    def _mul_digits(self, a, b):
        prime = self._prime
        _, r = poly_divmod(prime, poly_mul(prime, trim(a), trim(b)), list(self.modulus))
        return r + [0] * (self.k - len(r))

    def _build_tables(self):
        n = self.q - 1
        for g in range(2, self.q):
            exp = [1]
            gd = self._digits(g)
            cur = self._digits(1)
            for _ in range(n - 1):
                cur = self._mul_digits(cur, gd)
                c = self._code(cur)
                if c == 1:
                    break
                exp.append(c)
            if len(exp) == n:
                break
        else:  # pragma: no cover - every finite field is cyclic
            raise AssertionError("no primitive element")
        self._exp = exp + exp
        self._log = [0] * self.q
        for i, c in enumerate(exp):
            self._log[c] = i

    def add(self, a, b):
        if self.k == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        return self._code([(x + y) % self.p for x, y in zip(self._digits(a), self._digits(b))])

    def neg(self, a):
        if self.k == 1:
            return -a % self.p
        if self.p == 2:
            return a
        return self._code([-x % self.p for x in self._digits(a)])

    def mul(self, a, b):
        if self.k == 1:
            return a * b % self.p
        if not a or not b:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        if self.k == 1:
            return pow(a, self.p - 2, self.p)
        return self._exp[(self.q - 1 - self._log[a]) % (self.q - 1)]


def default_modulus(p: int, k: int) -> tuple:
    prime = Field(p)
    for low in itertools.product(range(p), repeat=k):
        cand = list(low) + [1]
        if _no_factor_upto(prime, cand, k // 2):
            return tuple(cand)
    raise AssertionError("unreachable")


def _no_factor_upto(field, f, max_deg):
    for d in range(1, max_deg + 1):
        for low in itertools.product(range(field.q), repeat=d):
            if not poly_divmod(field, f, list(low) + [1])[1]:
                return False
    return True


# ---------------------------------------------------------------------------
# polynomials: lists of codes, constant first, trimmed
# ---------------------------------------------------------------------------

def trim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def poly_add(F, a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = F.add(out[i], c)
    return trim(out)


def poly_sub(F, a, b):
    return poly_add(F, a, [F.neg(c) for c in b])


def poly_mul(F, a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = F.add(out[i + j], F.mul(x, y))
    return trim(out)


def poly_pow(F, a, e):
    out = [1]
    for _ in range(e):
        out = poly_mul(F, out, a)
    return out


def poly_divmod(F, a, b):
    db = len(b) - 1
    rem = list(a)
    if len(a) - 1 < db:
        return [], trim(rem)
    inv = F.inv(b[-1])
    quot = [0] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = rem[i]
        if c:
            t = F.mul(c, inv)
            quot[i - db] = t
            nt = F.neg(t)
            for j, bj in enumerate(b):
                if bj:
                    rem[i - db + j] = F.add(rem[i - db + j], F.mul(nt, bj))
    return trim(quot), trim(rem[:db])


def monic(F, a):
    inv = F.inv(a[-1])
    return [F.mul(c, inv) for c in a]


def poly_gcd(F, a, b):
    while b:
        a, b = b, poly_divmod(F, a, b)[1]
    return monic(F, a) if a else []


def is_irreducible(F, f):
    """Ben-Or: monic f of degree n is irreducible iff gcd(x^(q^i) - x, f) = 1, i <= n/2."""
    n = len(f) - 1
    if n < 1:
        return False
    h = [0, 1]
    for _ in range(n // 2):
        acc = [1]
        base, e = h, F.q
        while e:
            if e & 1:
                acc = poly_divmod(F, poly_mul(F, acc, base), f)[1]
            e >>= 1
            if e:
                base = poly_divmod(F, poly_mul(F, base, base), f)[1]
        h = acc
        if len(poly_gcd(F, poly_sub(F, h, [0, 1]), f)) > 1:
            return False
    return True


def random_poly(F, degree, rng, monic_lead=False):
    lead = 1 if monic_lead else rng.randrange(1, F.q)
    return [rng.randrange(F.q) for _ in range(degree)] + [lead]


def random_irreducible(F, degree, rng):
    while True:
        f = random_poly(F, degree, rng, monic_lead=True)
        if is_irreducible(F, f):
            return f


def canonical_key(a):
    return (len(a), tuple(a))


# ---------------------------------------------------------------------------
# the program's polynomial text grammar
# ---------------------------------------------------------------------------

_TERM = re.compile(r"^(?:(\d+|\[\d+\])\*)?x(?:\^(\d+))?$|^(\d+|\[\d+\])$")


def format_poly(F, a) -> str:
    if not a:
        return "0"
    parts = []
    for e in range(len(a) - 1, -1, -1):
        c = a[e]
        if c == 0:
            continue
        cs = str(c) if F.k == 1 else f"[{c}]"
        if e == 0:
            parts.append(cs)
        else:
            xs = "x" if e == 1 else f"x^{e}"
            parts.append(xs if c == 1 else f"{cs}*{xs}")
    return "+".join(parts)


def parse_poly(F, text: str):
    coeffs = {}
    for term in text.strip().split("+"):
        m = _TERM.match(term)
        if not m:
            raise ValueError(f"bad term {term!r}")
        coeff, exp, const = m.groups()
        if const is not None:
            e, tok = 0, const
        else:
            e, tok = (int(exp) if exp else 1), (coeff or "1")
        code = int(tok.strip("[]"))
        if e in coeffs or not 0 <= code < F.q:
            raise ValueError(f"bad term {term!r}")
        coeffs[e] = code
    out = [0] * (max(coeffs) + 1)
    for e, c in coeffs.items():
        out[e] = c
    return trim(out)
