"""Exception types shared across the package."""


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
