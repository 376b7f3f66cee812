"""Arithmetic in GF(p^k) with an explicit irreducible modulus.

Elements are handled as integer codes in [0, q): the base-p digit expansion
of a code lists the coefficients (constant term first) of the residue
representative modulo the field's modulus polynomial. The code-level
operations on a FieldSpec (`add_c`, `mul_c`, ...) are the hot path used by
polynomial arithmetic; `FieldElem` wraps a single code for the public API.

The base-p positional encoding gives a total order on elements, which is
what makes every enumeration downstream canonical and reproducible.

Prime fields compute mod p directly, and add by XOR at p = 2 for every k.
Everything else an extension field needs, its log/Zech tables, its digit
arithmetic and the search or irreducibility check of its modulus, lives in
extfield, which _init_ops and make_field import only when k > 1.
"""

from __future__ import annotations

from .errors import CodeOutOfRange, CoefficientOutOfRange, DivisionByZero, NotPrime, SpecMismatch, WrongDegreeModulus
from .intarith import is_prime


class FieldSpec:
    """Immutable description of GF(p^k) plus its arithmetic.

    Two specs compare equal iff they have the same (p, k, modulus); mixing
    elements of unequal specs raises SpecMismatch rather than coercing.
    `exp`, `log` and (at odd p) `zech` are the antilog, log and Zech tables
    of an extension field with q <= extfield._LOG_MAX (None otherwise), which
    polydiv's division loop and polyring's unit operations read directly.
    """

    def __init__(self, p: int, k: int, modulus: tuple):
        self.p = p
        self.k = k
        self.q = p**k
        self.modulus = tuple(modulus)
        self._init_ops()

    # -- construction of the code-level operations --------------------------

    def _init_ops(self):
        p = self.p
        # set for extension fields up to extfield._LOG_MAX (zech at odd p only)
        self.exp = self.log = self.zech = None
        if p == 2:
            # codes are bit vectors of GF(2) digits: addition is XOR at every k
            self.add_c = lambda a, b: a ^ b
            self.neg_c = lambda a: a
        if self.k > 1:
            from . import extfield

            extfield._set_ops(self)
            return
        if p == 2:
            self.mul_c = lambda a, b: a & b
        else:
            self.add_c = lambda a, b: (a + b) % p
            self.neg_c = lambda a: (-a) % p
            self.mul_c = lambda a, b: (a * b) % p
        self.inv_c = self._inv_prime

    def _inv_prime(self, a):
        if a == 0:
            raise DivisionByZero("inverse of zero")
        return pow(a, self.p - 2, self.p)

    # -- generic code-level helpers ------------------------------------------

    def pow_c(self, a: int, e: int) -> int:
        """a^e, e >= 0."""
        return _power(self.mul_c, a, e, 1)

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


def _power(mul, a, e, one):
    """a^e under the product `mul`, with a^0 = `one`: square and multiply from the top bit down, so
    no product is by one and nothing is squared past the top bit. The one power in every ring."""
    if e < 0:
        raise ValueError(f"negative exponent {e}")
    if not e:
        return one
    result = a
    for bit in bin(e)[3:]:
        result = mul(result, result)
        if bit == "1":
            result = mul(result, a)
    return result


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
    if modulus is not None:
        modulus = tuple(int(c) for c in modulus)
        _validate_modulus(p, k, modulus)
    if k == 1:
        return FieldSpec(p, 1, (0, 1))
    from . import extfield

    modulus = extfield._default_modulus(p, k) if modulus is None else extfield._check_irreducible(p, k, modulus)
    return FieldSpec(p, k, modulus)


def _validate_modulus(p, k, modulus):
    if len(modulus) != k + 1 or modulus[-1] != 1:
        raise WrongDegreeModulus(f"modulus must be monic of degree {k}, got {list(modulus)}")
    if any(not 0 <= c < p for c in modulus):
        raise CoefficientOutOfRange(f"modulus coefficients must lie in [0, {p})")
    if k == 1 and modulus != (0, 1):
        raise WrongDegreeModulus("for k = 1 the modulus is the canonical monic x")
