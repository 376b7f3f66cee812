"""`gpfq greedy enumerate`: list the greedy set's members, or count them by degree.

A listing formats code tuples (polyring._format_codes), not Poly, and counts
members (density's Euler product) only for its --json object."""

from ..cli import _JSON, _MAX_DEGREE, _MODULUS, _Q, _arg, _field_for, _prime_power, density, greedy, polyring

ARGUMENTS = [
    _Q,
    _MODULUS,
    _MAX_DEGREE,
    _arg("--counts-only", action="store_true"),
    _JSON,
]


def handle(parser, args):
    # counts come from the Euler product, which needs only q; a field is built
    # to list members, or to check a given --modulus
    if args.counts_only and args.modulus is None:
        _prime_power(parser, args.q)
    else:
        spec = _field_for(parser, args)

    def counted():
        return {"q": args.q, "max_degree": args.max_degree, "counts": density.greedy_counts(args.q, args.max_degree)}

    if args.counts_only:
        obj = counted()
        return 0, [f"{d} {c}" for d, c in enumerate(obj["counts"])], obj
    lines = polyring._format_codes(spec.k, greedy._member_codes(spec, args.max_degree))
    return 0, lines, lambda: {**counted(), "members": lines}
