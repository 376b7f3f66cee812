"""`gpfq empirical`: the exact finite-stage greedy density."""

from ..cli import _JSON, _MAX_DEGREE, _Q, _prime_power, density

ARGUMENTS = [_Q, _MAX_DEGREE, _JSON]


def handle(parser, args):
    _prime_power(parser, args.q)
    exact = density._ratio_text(*density._empirical_pair(args.q, args.max_degree))
    return 0, [exact], {"q": args.q, "max_degree": args.max_degree, "exact": exact}
