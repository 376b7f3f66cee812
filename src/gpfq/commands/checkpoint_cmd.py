"""`gpfq checkpoint`: the exact checkpoint density at N_k."""

from ..cli import _Q, _JSON, _arg, _int_in, _prime_power, density

ARGUMENTS = [
    _Q,
    _arg("--k", type=_int_in(1), required=True),
    _JSON,
]


def handle(parser, args):
    _prime_power(parser, args.q)
    exact = density._ratio_text(*density._checkpoint_pair(args.q, args.k))
    return 0, [exact], {"q": args.q, "k": args.k, "exact": exact}
