"""Exception types shared across the package, the limits the CLI checks arguments against, and factor's work budget.

Every command loads this module, so the front end reads these limits without
running the layers that enforce them; `density` and `progfree` re-export them.
"""

#: One x86-64 core builds q=2 depth 9 in about 1.6 s and depth 10 in 14 s.
MAX_DEPTH = 9
MAX_TAIL_BITS = 3 ** (MAX_DEPTH + 1)  # the q=2 tail at MAX_DEPTH, as a cost bound for every q
MAX_DIGITS = MAX_TAIL_BITS * 3 // 10  # about the most a product within MAX_TAIL_BITS resolves
DEFAULT_ENUM_BUDGET = 1 << 21
DEFAULT_VERTEX_BUDGET = 1023
#: The largest vertex budget: at 4095 vertices every (q, D) answers or exits 1 within about 8 s.
MAX_VERTEX_BUDGET = 4095
#: What one factorize call may do: Euclid and division steps and ring products, each
#: weighted by its modulus degree (see factor); about 1000x what the largest input
#: tested, `factor --q 2 "x^1048576+1"`, uses.
MAX_FACTOR_WORK = 1 << 31


class Error(Exception):
    """Base class for all errors raised by this package."""


class NotPrime(Error):
    """A field characteristic that is not a prime number."""

    def __init__(self, p):
        super().__init__(f"{p} is not prime")
        self.p = p


class WrongDegreeModulus(Error):
    """Field modulus with the wrong degree, or not monic / not canonical."""


class ReducibleModulus(Error):
    """Field modulus that is not irreducible over the prime field."""


class SpecMismatch(Error):
    """Operands belong to different field specs; no silent coercion."""


class CodeOutOfRange(Error):
    """Integer code outside [0, q)."""


class DivisionByZero(Error, ZeroDivisionError):
    """Inversion of zero, or division/gcd with a zero operand where forbidden."""


class ZeroPolynomial(Error):
    """The zero polynomial where a nonzero one is required."""


class PolySyntaxError(Error):
    """Polynomial text that does not match the term grammar."""


class CoefficientOutOfRange(Error):
    """Coefficient code outside [0, q) in polynomial text or construction."""


class BudgetExceeded(Error):
    """An enumeration or search would exceed its configured budget."""


class NeedsMorePrecision(Error):
    """Interval endpoints round differently at the requested digit count."""


class NegativeOperand(Error):
    """Interval multiplication shortcut requires non-negative operands."""
