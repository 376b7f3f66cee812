"""`gpfq extremal`: an exact maximum progression-free subset of the polynomials up to a degree."""

from ..cli import _JSON, _MAX_DEGREE, _MODULUS, _Q, _arg, _field_for, _int_in, polyring, progfree
from ..errors import DEFAULT_VERTEX_BUDGET, MAX_VERTEX_BUDGET

ARGUMENTS = [
    _Q,
    _MODULUS,
    _MAX_DEGREE,
    _arg("--budget", type=_int_in(1, MAX_VERTEX_BUDGET), default=DEFAULT_VERTEX_BUDGET,
         help="vertex budget (default %(default)s)"),
    _JSON,
]


def handle(parser, args):
    spec = _field_for(parser, args)
    size, witness = progfree.max_progression_free_subset(spec, args.max_degree, args.budget)
    shown = [polyring.format_poly(f) for f in witness]
    obj = {"q": args.q, "max_degree": args.max_degree, "size": size, "witness": shown}
    return 0, [f"size={size}", "witness: " + ", ".join(shown)], obj
