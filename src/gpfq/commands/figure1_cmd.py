"""`gpfq figure1`: the greedy density against q, as CSV (no --json)."""

from ..cli import _arg, _int_in, density

ARGUMENTS = [
    _arg("--qmax", type=_int_in(2), default=130),
]


def handle(parser, args):
    rows = density.figure1_data(args.qmax)
    return 0, ["q,density"] + [f"{q},{val}" for q, val in rows], None
