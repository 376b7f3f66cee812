"""Polynomial text: the parser of polyring's text format.

parse_poly reads the terms that polyring's format_poly writes, `c`, `x`,
`c*x`, `x^e` and `c*x^e` joined by `+`, with bracketed codes `[c]` over
GF(p^k). progfree's progression search over a file reads its lines term by
term through _parse_term, with no Poly per line. Only commands that read
polynomial text compile this module: `factor` and `progcheck`.
"""

from __future__ import annotations

import re
from functools import lru_cache

from .errors import BudgetExceeded, CoefficientOutOfRange, PolySyntaxError
from .polyring import Poly, _trim

#: The largest exponent parse_poly accepts; past it, BudgetExceeded before any allocation.
MAX_TEXT_DEGREE = 2**20

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
