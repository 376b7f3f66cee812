"""`gpfq progcheck`: search a file of polynomials for a geometric progression.

The file's lines go, as they decode, to progsearch.has_progression_text, which
keeps one packed int per distinct member and builds no Poly; on a bad line the
rest of the file is read first, so text that is not UTF-8 is still a usage
error before any parse error."""

from ..cli import _JSON, _MODULUS, _Q, _arg, _field_for, polyring, progsearch
from ..errors import Error

ARGUMENTS = [
    _Q,
    _MODULUS,
    _arg("--file", required=True, help="one polynomial text per line"),
    _arg("--unit-tolerant", action="store_true"),
    _JSON,
]


def handle(parser, args):
    spec = _field_for(parser, args)
    try:
        with open(args.file, encoding="utf-8") as fh:
            try:
                witness = progsearch.has_progression_text(spec, fh, unit_tolerant=args.unit_tolerant)
            except Error:
                for _ in fh:  # text that is not UTF-8 is a usage error, found before any bad line
                    pass
                raise
    except (OSError, UnicodeDecodeError) as exc:
        parser.error(f"cannot read {args.file}: {exc}")
    obj = {"q": args.q, "progression_free": witness is None, "witness": None}
    if witness is None:
        return 0, ["progression-free"], obj
    shown = obj["witness"] = {
        "base": polyring.format_poly(witness.base),
        "ratio": polyring.format_poly(witness.ratio),
        "members": [polyring.format_poly(g) for g in witness.members],
    }
    members = ", ".join(shown["members"])
    return 0, [f"progression: base={shown['base']} ratio={shown['ratio']} members=[{members}]"], obj
