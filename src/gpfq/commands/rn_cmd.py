"""`gpfq rn`: the least endpoints r_1..r_n of AP-free subsets."""

from ..cli import _JSON, _arg, _int_in, rn

ARGUMENTS = [_arg("--n", type=_int_in(1), required=True), _JSON]


def handle(parser, args):
    values = list(rn.rn_sequence(args.n))
    return 0, [" ".join(map(str, values))], {"n": args.n, "values": values}
