"""`gpfq density KIND`: a certified density or bound value."""

from ..cli import _Q, _JSON, _arg, _int_in, _prime_power, density
from ..errors import MAX_DIGITS

# kind: density.certify kind; only upper-simple reads --terms
_DENSITY_KINDS = {"greedy": "greedy", "lower": "lower_mq", "upper-simple": "upper_simple", "upper-no": "upper_no"}

ARGUMENTS = [
    _arg("kind", choices=list(_DENSITY_KINDS)),
    _Q,
    _arg("--digits", type=_int_in(1, MAX_DIGITS), default=6),
    _arg("--terms", type=_int_in(0), help="finite progression families for upper-simple"),
    _JSON,
]


def handle(parser, args):
    if args.terms is not None and args.kind != "upper-simple":
        parser.error(f"density {args.kind} does not take --terms")
    _prime_power(parser, args.q)
    report = density.certify(_DENSITY_KINDS[args.kind], args.q, args.digits, terms=args.terms)
    return 0, [report.rendered], report.to_json
