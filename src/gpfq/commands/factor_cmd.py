"""`gpfq factor`: factor a polynomial over F_q."""

from ..cli import _JSON, _MODULUS, _Q, _arg, _field_for, factor, polyring, polytext
from ..errors import Error

ARGUMENTS = [
    _Q,
    _MODULUS,
    _arg("poly", help="polynomial text, e.g. 'x^3+x+1'"),
    _JSON,
]


def handle(parser, args):
    spec = _field_for(parser, args)
    try:
        f = polytext.parse_poly(spec, args.poly)
    except Error as exc:
        parser.error(f"bad polynomial {polytext._excerpt(args.poly)}: {exc}")
    fac = factor.factorize(f)
    parts = [(polyring.format_poly(prime), e) for prime, e in fac.parts]
    pieces = [str(fac.unit.code)] + [f"({prime})" + (f"^{e}" if e > 1 else "") for prime, e in parts]
    obj = {"q": args.q, "input": args.poly, "unit": fac.unit.code, "parts": [{"prime": t, "exp": e} for t, e in parts]}
    return 0, [" * ".join(pieces)], obj
