"""Command-line front end.

Results go to stdout, diagnostics to stderr. Exit codes: 0 success, 1
computation failure (budget or precision, or a failing table cell), 2 usage
error. Identical invocations produce bit-identical output.

The environment variable GPFQ_ENUM_BUDGET, a positive integer, overrides the
cap on polynomial enumerations.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from . import density, progfree, tables
from .errors import BudgetExceeded, Error
from .factor import factorize
from .ff import make_field
from .intarith import prime_power
from .polyring import _excerpt, canonical_key, format_poly, parse_poly


def _int_in(lo: int, hi: float = float("inf")):
    """argparse type: an integer in [lo, hi]; anything else raises ValueError."""

    def parse(text: str) -> int:
        if not lo <= int(text) <= hi:
            raise ValueError(text)
        return int(text)

    parse.__name__ = f"integer >= {lo}" if hi == float("inf") else f"integer in [{lo}, {hi}]"
    return parse


def _enum_budget(parser) -> int:
    """GPFQ_ENUM_BUDGET, or the default cap on polynomial enumerations."""
    raw = os.environ.get("GPFQ_ENUM_BUDGET")
    try:
        return _int_in(1)(raw) if raw else progfree.DEFAULT_ENUM_BUDGET
    except ValueError:
        parser.error(f"GPFQ_ENUM_BUDGET={raw!r} is not a positive integer")


def _prime_power(parser, q):
    """(p, k) with q = p^k, or a usage error."""
    try:
        pk = prime_power(q)
    except ValueError as exc:
        parser.error(f"--q {q}: {exc}")
    if pk is None:
        parser.error(f"--q {q} is not a prime power")
    return pk


def _field_for(parser, args):
    p, k = _prime_power(parser, args.q)
    modulus = None
    if args.modulus:
        try:
            modulus = tuple(int(c) for c in args.modulus.split(","))
        except ValueError:
            parser.error(f"--modulus {args.modulus!r} is not a comma-separated integer list")
    try:
        return make_field(p, k, modulus)
    except BudgetExceeded:
        raise  # a computation limit (exit 1), not a usage error
    except Error as exc:
        parser.error(f"invalid field: {exc}")


def _emit(args, text_lines, json_obj):
    """Print the text lines, or under --json the object (called first if a function)."""
    if getattr(args, "json", False):
        import json  # only --json pays for loading it

        obj = json_obj() if callable(json_obj) else json_obj
        print(json.dumps(obj, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

_DENSITY_KINDS = {"greedy": "greedy", "lower": "lower_mq", "upper-simple": "upper_simple", "upper-no": "upper_no"}


def _cmd_density(parser, args):
    _prime_power(parser, args.q)
    report = density.certify(_DENSITY_KINDS[args.kind], args.q, args.digits, depth=args.depth, terms=args.terms)
    _emit(args, [report.rendered], lambda: {"command": "density", **report.to_json()})
    return 0


def _cmd_tables(parser, args):
    start = time.monotonic()
    cells = tables.verify_table(args.which)
    seconds = time.monotonic() - start
    all_pass = all(c.ok for c in cells)
    lines = [
        f"q={c.q} {c.column} expected={c.expected} computed={c.computed} "
        + ("PASS" if c.ok else f"FAIL interval=[{c.interval.lo}, {c.interval.hi}]")
        for c in cells
    ]
    lines.append(f"{sum(c.ok for c in cells)}/{len(cells)} cells PASS")
    obj = {
        "command": "tables",
        "which": args.which,
        "all_pass": all_pass,
        "cells": [{key: getattr(c, key) for key in ("q", "column", "expected", "computed", "ok")} for c in cells],
    }
    _emit(args, lines, obj)
    print(f"table {args.which} verified in {seconds:.2f}s", file=sys.stderr)
    return 0 if all_pass else 1


def _cmd_figure1(parser, args):
    rows = density.figure1_data(args.qmax)
    out_lines = ["q,density"] + [f"{q},{val}" for q, val in rows]
    text = "\n".join(out_lines) + "\n"
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            parser.error(f"cannot write {args.out}: {exc}")
        print(f"wrote {len(rows)} rows to {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_checkpoint(parser, args):
    _prime_power(parser, args.q)
    exact = str(density.checkpoint_density(args.q, args.k))
    _emit(args, [exact], {"command": "checkpoint", "q": args.q, "k": args.k, "exact": exact})
    return 0


def _cmd_empirical(parser, args):
    _prime_power(parser, args.q)
    value = density.empirical_greedy_density(args.q, args.max_degree)
    obj = {
        "command": "empirical",
        "q": args.q,
        "max_degree": args.max_degree,
        "exact": str(value),
    }
    _emit(args, [str(value)], obj)
    return 0


def _cmd_rn(parser, args):
    table = density.rn_sequence(args.n)
    values = list(table)
    _emit(args, [" ".join(str(v) for v in values)],
          {"command": "rn", "n": args.n, "values": values})
    return 0


def _cmd_factor(parser, args):
    spec = _field_for(parser, args)
    try:
        f = parse_poly(spec, args.poly)
    except Error as exc:
        parser.error(f"bad polynomial {_excerpt(args.poly)}: {exc}")
    fac = factorize(f, seed=args.seed)
    pieces = [str(fac.unit.code)]
    pieces += [
        f"({format_poly(prime)})" + (f"^{e}" if e > 1 else "")
        for prime, e in fac.parts
    ]
    text = " * ".join(pieces)
    obj = {
        "command": "factor",
        "q": args.q,
        "input": args.poly,
        "unit": fac.unit.code,
        "parts": [{"prime": format_poly(p), "exp": e} for p, e in fac.parts],
    }
    _emit(args, [text], obj)
    return 0


def _cmd_greedy(parser, args):
    if args.action == "check":
        spec = _field_for(parser, args)
        members, extra, missing, witness = progfree.greedy_check(spec, args.max_degree, _enum_budget(parser))
        lines = [f"constructed but not characterized: {format_poly(f)}" for f in extra]
        lines += [f"characterized but not constructed: {format_poly(f)}" for f in missing]
        if witness:
            lines.append(f"progression found: base={format_poly(witness.base)} ratio={format_poly(witness.ratio)}")
        ok = not lines
        if ok:
            lines.append(
                f"ok: {members} members up to degree {args.max_degree} "
                "match the exponent characterization; no progression found"
            )
        obj = {
            "command": "greedy-check",
            "q": args.q,
            "max_degree": args.max_degree,
            "ok": ok,
            "members": members,
            "extra": [format_poly(f) for f in extra],
            "missing": [format_poly(f) for f in missing],
        }
        _emit(args, lines, obj)
        return 0 if ok else 1

    # enumerate: counts from the Euler product, which needs only q; a field is
    # built to list members, or to check a given --modulus
    if args.counts_only and not args.modulus:
        _prime_power(parser, args.q)
    else:
        spec = _field_for(parser, args)
    if not args.counts_only:
        members = progfree.greedy_members(spec, args.max_degree, _enum_budget(parser))
    counts = density.greedy_counts(args.q, args.max_degree)
    obj = {
        "command": "greedy-enumerate",
        "q": args.q,
        "max_degree": args.max_degree,
        "counts": counts,
    }
    if args.counts_only:
        lines = [f"{d} {c}" for d, c in enumerate(counts)]
    else:
        lines = obj["members"] = [format_poly(f) for f in sorted(members, key=canonical_key)]
    _emit(args, lines, obj)
    return 0


def _cmd_progcheck(parser, args):
    spec = _field_for(parser, args)
    try:
        with open(args.file, encoding="utf-8") as fh:
            polys = [line.strip() for line in fh if line.strip()]
    except (OSError, UnicodeDecodeError) as exc:
        parser.error(f"cannot read {args.file}: {exc}")
    polys = [parse_poly(spec, t) for t in polys]  # and the lines' text is freed
    witness = progfree.has_progression(polys, unit_tolerant=args.unit_tolerant)
    if witness is None:
        lines = ["progression-free"]
        obj = {"command": "progcheck", "q": args.q, "progression_free": True, "witness": None}
    else:
        members = ", ".join(format_poly(g) for g in witness.members)
        lines = [
            f"progression: base={format_poly(witness.base)} "
            f"ratio={format_poly(witness.ratio)} members=[{members}]"
        ]
        obj = {
            "command": "progcheck",
            "q": args.q,
            "progression_free": False,
            "witness": {
                "base": format_poly(witness.base),
                "ratio": format_poly(witness.ratio),
                "members": [format_poly(g) for g in witness.members],
            },
        }
    _emit(args, lines, obj)
    return 0


def _cmd_extremal(parser, args):
    spec = _field_for(parser, args)
    size, witness = progfree.max_progression_free_subset(spec, args.max_degree, args.budget)
    lines = [f"size={size}", "witness: " + ", ".join(format_poly(f) for f in witness)]
    obj = {
        "command": "extremal",
        "q": args.q,
        "max_degree": args.max_degree,
        "size": size,
        "witness": [format_poly(f) for f in witness],
    }
    _emit(args, lines, obj)
    return 0


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------

def _add_q(p):
    p.add_argument("--q", type=int, required=True, help="field order, a prime power")


def _add_field_opts(p):
    _add_q(p)
    p.add_argument("--modulus", help="comma-separated modulus coefficients, constant first")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gpfq", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("density", help="certified density and bound values")
    p.add_argument("kind", choices=list(_DENSITY_KINDS))
    _add_q(p)
    p.add_argument("--digits", type=_int_in(1, density.MAX_DIGITS), default=6)
    p.add_argument("--depth", type=_int_in(1, density.MAX_DEPTH), help="fixed product depth instead of adaptive")
    p.add_argument("--terms", type=_int_in(0), help="finite progression families for upper-simple")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("tables", help="verify the published tables cell by cell")
    p.add_argument("--which", type=int, choices=[1, 2, 3], required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_tables)

    p = sub.add_parser("figure1", help="density against q as CSV")
    p.add_argument("--qmax", type=_int_in(2), default=130)
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=_cmd_figure1)

    p = sub.add_parser("checkpoint", help="exact checkpoint density at N_k")
    _add_q(p)
    p.add_argument("--k", type=_int_in(1), required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_checkpoint)

    p = sub.add_parser("empirical", help="exact finite-stage greedy density")
    _add_q(p)
    p.add_argument("--max-degree", type=_int_in(0), required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_empirical)

    p = sub.add_parser("rn", help="least endpoints r_n for AP-free subsets")
    p.add_argument("--n", type=_int_in(1), required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_rn)

    p = sub.add_parser("factor", help="factor a polynomial over F_q")
    _add_field_opts(p)
    p.add_argument("poly", help="polynomial text, e.g. 'x^3+x+1'")
    p.add_argument("--seed", type=int, help="override the splitting seed")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_factor)

    p = sub.add_parser("greedy", help="greedy progression-free set operations")
    psub = p.add_subparsers(dest="action", required=True)
    pc = psub.add_parser("check", help="brute-force construction vs characterization")
    _add_field_opts(pc)
    pc.add_argument("--max-degree", type=_int_in(0), required=True)
    pc.add_argument("--json", action="store_true")
    pc.set_defaults(func=_cmd_greedy)
    pe = psub.add_parser("enumerate", help="list greedy-set members")
    _add_field_opts(pe)
    pe.add_argument("--max-degree", type=_int_in(0), required=True)
    pe.add_argument("--counts-only", action="store_true")
    pe.add_argument("--json", action="store_true")
    pe.set_defaults(func=_cmd_greedy)

    p = sub.add_parser("progcheck", help="search a polynomial list for a progression")
    _add_field_opts(p)
    p.add_argument("--file", required=True, help="one polynomial text per line")
    p.add_argument("--unit-tolerant", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_progcheck)

    p = sub.add_parser("extremal", help="exact maximum progression-free subset")
    _add_field_opts(p)
    p.add_argument("--max-degree", type=_int_in(0), required=True)
    p.add_argument("--budget", type=_int_in(1), default=progfree.DEFAULT_VERTEX_BUDGET,
                   help="vertex budget (default %(default)s)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_extremal)

    return parser


def run(argv) -> int:
    parser = build_parser()
    limited = hasattr(sys, "set_int_max_str_digits")  # CPython 3.10.7 and later
    str_limit = sys.get_int_max_str_digits() if limited else 0
    try:
        args = parser.parse_args(argv)
        if limited:  # exact answers may pass the digit limit; density's budgets bound them
            sys.set_int_max_str_digits(0)
        return args.func(parser, args)
    except SystemExit as exc:  # argparse usage error (2) or --help (0)
        return exc.code if isinstance(exc.code, int) else 2
    except Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if limited:
            sys.set_int_max_str_digits(str_limit)


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
