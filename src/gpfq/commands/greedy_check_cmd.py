"""`gpfq greedy check`: the brute-force greedy construction against its characterization."""

from ..cli import _JSON, _MAX_DEGREE, _MODULUS, _Q, _field_for, greedy, polyring

ARGUMENTS = [_Q, _MODULUS, _MAX_DEGREE, _JSON]


def handle(parser, args):
    spec = _field_for(parser, args)
    members, extra, missing, witness = greedy.greedy_check(spec, args.max_degree)
    extra = [polyring.format_poly(f) for f in extra]
    missing = [polyring.format_poly(f) for f in missing]
    lines = [f"constructed but not characterized: {f}" for f in extra]
    lines += [f"characterized but not constructed: {f}" for f in missing]
    if witness:
        lines.append(f"progression found: base={polyring.format_poly(witness.base)} "
                     f"ratio={polyring.format_poly(witness.ratio)}")
    ok = not lines
    if ok:
        lines = [f"ok: {members} members up to degree {args.max_degree} "
                 "match the exponent characterization; no progression found"]
    obj = {"q": args.q, "max_degree": args.max_degree, "ok": ok, "members": members, "extra": extra, "missing": missing}
    return (0 if ok else 1), lines, obj
