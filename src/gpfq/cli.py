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

# the layers are read at call time, so a subcommand runs only the ones it calls
from . import density, factor, ff, polyring, progfree, tables
from .errors import DEFAULT_ENUM_BUDGET, DEFAULT_VERTEX_BUDGET, MAX_DEPTH, MAX_DIGITS, BudgetExceeded, Error
from .intarith import prime_power


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
        return _int_in(1)(raw) if raw else DEFAULT_ENUM_BUDGET
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
    if args.modulus is not None:
        try:
            modulus = tuple(int(c) for c in args.modulus.split(","))
        except ValueError:
            parser.error(f"--modulus {args.modulus!r} is not a comma-separated integer list")
    try:
        return ff.make_field(p, k, modulus)
    except BudgetExceeded:
        raise  # a computation limit (exit 1), not a usage error
    except Error as exc:
        parser.error(f"invalid field: {exc}")


# ---------------------------------------------------------------------------
# subcommand handlers: each takes its own subparser, for usage errors, and the
# parsed arguments; it returns (exit code, text lines, JSON object or a function
# that builds it), and `run` prints one or the other
# ---------------------------------------------------------------------------

# kind: (density.certify kind, the one of --depth and --terms it reads, if any)
_DENSITY_KINDS = {"greedy": ("greedy", "depth"), "lower": ("lower_mq", "depth"),
                  "upper-simple": ("upper_simple", "terms"), "upper-no": ("upper_no", None)}


def _cmd_density(parser, args):
    kind, reads = _DENSITY_KINDS[args.kind]
    for flag in ("depth", "terms"):
        if flag != reads and getattr(args, flag) is not None:
            parser.error(f"density {args.kind} does not take --{flag}")
    _prime_power(parser, args.q)
    report = density.certify(kind, args.q, args.digits, depth=args.depth, terms=args.terms)
    return 0, [report.rendered], report.to_json


def _cmd_tables(parser, args):
    start = time.monotonic()
    cells = tables.verify_table(args.which)
    print(f"table {args.which} verified in {time.monotonic() - start:.2f}s", file=sys.stderr)
    all_pass = all(c.ok for c in cells)
    lines = [
        f"q={c.q} {c.column} expected={c.expected} computed={c.computed} "
        + ("PASS" if c.ok else f"FAIL interval=[{c.interval.lo}, {c.interval.hi}]")
        for c in cells
    ]
    lines.append(f"{sum(c.ok for c in cells)}/{len(cells)} cells PASS")
    rows = [{key: getattr(c, key) for key in ("q", "column", "expected", "computed", "ok")} for c in cells]
    return (0 if all_pass else 1), lines, {"which": args.which, "all_pass": all_pass, "cells": rows}


def _cmd_figure1(parser, args):
    rows = density.figure1_data(args.qmax)
    lines = ["q,density"] + [f"{q},{val}" for q, val in rows]
    if not args.out:
        return 0, lines, None
    try:
        with open(args.out, "w") as fh:
            fh.write("".join(line + "\n" for line in lines))
    except OSError as exc:
        parser.error(f"cannot write {args.out}: {exc}")
    print(f"wrote {len(rows)} rows to {args.out}", file=sys.stderr)
    return 0, [], None


def _cmd_checkpoint(parser, args):
    _prime_power(parser, args.q)
    exact = str(density.checkpoint_density(args.q, args.k))
    return 0, [exact], {"q": args.q, "k": args.k, "exact": exact}


def _cmd_empirical(parser, args):
    _prime_power(parser, args.q)
    exact = str(density.empirical_greedy_density(args.q, args.max_degree))
    return 0, [exact], {"q": args.q, "max_degree": args.max_degree, "exact": exact}


def _cmd_rn(parser, args):
    values = list(density.rn_sequence(args.n))
    return 0, [" ".join(map(str, values))], {"n": args.n, "values": values}


def _cmd_factor(parser, args):
    spec = _field_for(parser, args)
    try:
        f = polyring.parse_poly(spec, args.poly)
    except Error as exc:
        parser.error(f"bad polynomial {polyring._excerpt(args.poly)}: {exc}")
    fac = factor.factorize(f, seed=args.seed)
    parts = [(polyring.format_poly(prime), e) for prime, e in fac.parts]
    pieces = [str(fac.unit.code)] + [f"({prime})" + (f"^{e}" if e > 1 else "") for prime, e in parts]
    obj = {"q": args.q, "input": args.poly, "unit": fac.unit.code, "parts": [{"prime": t, "exp": e} for t, e in parts]}
    return 0, [" * ".join(pieces)], obj


def _cmd_check(parser, args):
    spec = _field_for(parser, args)
    members, extra, missing, witness = progfree.greedy_check(spec, args.max_degree, _enum_budget(parser))
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


def _cmd_enumerate(parser, args):
    # counts come from the Euler product, which needs only q; a field is built
    # to list members, or to check a given --modulus
    if args.counts_only and args.modulus is None:
        _prime_power(parser, args.q)
    else:
        spec = _field_for(parser, args)
    if not args.counts_only:
        members = progfree.greedy_members(spec, args.max_degree, _enum_budget(parser))
    counts = density.greedy_counts(args.q, args.max_degree)
    obj = {"q": args.q, "max_degree": args.max_degree, "counts": counts}
    if args.counts_only:
        return 0, [f"{d} {c}" for d, c in enumerate(counts)], obj
    lines = obj["members"] = [polyring.format_poly(f) for f in members]
    return 0, lines, obj


def _cmd_progcheck(parser, args):
    spec = _field_for(parser, args)
    try:
        with open(args.file, encoding="utf-8") as fh:
            polys = [line.strip() for line in fh if line.strip()]
    except (OSError, UnicodeDecodeError) as exc:
        parser.error(f"cannot read {args.file}: {exc}")
    polys = [polyring.parse_poly(spec, t) for t in polys]  # and the lines' text is freed
    witness = progfree.has_progression(polys, unit_tolerant=args.unit_tolerant)
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


def _cmd_extremal(parser, args):
    spec = _field_for(parser, args)
    size, witness = progfree.max_progression_free_subset(spec, args.max_degree, args.budget)
    shown = [polyring.format_poly(f) for f in witness]
    obj = {"q": args.q, "max_degree": args.max_degree, "size": size, "witness": shown}
    return 0, [f"size={size}", "witness: " + ", ".join(shown)], obj


# ---------------------------------------------------------------------------
# parser table: (name, help, handler, arguments), a name of two words under the
# group its first word names; every handler but figure1's also takes --json,
# and its JSON object is headed by the name, hyphenated
# ---------------------------------------------------------------------------

def _arg(*flags, **options):
    return flags, options


_Q = _arg("--q", type=int, required=True, help="field order, a prime power")
_MODULUS = _arg("--modulus", help="comma-separated modulus coefficients, constant first")
_MAX_DEGREE = _arg("--max-degree", type=_int_in(0), required=True)

_COMMANDS = (
    ("density", "certified density and bound values", _cmd_density, [
        _arg("kind", choices=list(_DENSITY_KINDS)),
        _Q,
        _arg("--digits", type=_int_in(1, MAX_DIGITS), default=6),
        _arg("--depth", type=_int_in(1, MAX_DEPTH), help="fixed product depth instead of adaptive"),
        _arg("--terms", type=_int_in(0), help="finite progression families for upper-simple"),
    ]),
    ("tables", "verify the published tables cell by cell", _cmd_tables, [
        _arg("--which", type=int, choices=[1, 2, 3], required=True),
    ]),
    ("figure1", "density against q as CSV", _cmd_figure1, [
        _arg("--qmax", type=_int_in(2), default=130),
        _arg("--out", help="output path (default: stdout)"),
    ]),
    ("checkpoint", "exact checkpoint density at N_k", _cmd_checkpoint, [
        _Q,
        _arg("--k", type=_int_in(1), required=True),
    ]),
    ("empirical", "exact finite-stage greedy density", _cmd_empirical, [_Q, _MAX_DEGREE]),
    ("rn", "least endpoints r_n for AP-free subsets", _cmd_rn, [_arg("--n", type=_int_in(1), required=True)]),
    ("factor", "factor a polynomial over F_q", _cmd_factor, [
        _Q,
        _MODULUS,
        _arg("poly", help="polynomial text, e.g. 'x^3+x+1'"),
        _arg("--seed", type=int, help="override the splitting seed"),
    ]),
    ("greedy", "greedy progression-free set operations", None, []),
    ("greedy check", "brute-force construction vs characterization", _cmd_check, [_Q, _MODULUS, _MAX_DEGREE]),
    ("greedy enumerate", "list greedy-set members", _cmd_enumerate, [
        _Q,
        _MODULUS,
        _MAX_DEGREE,
        _arg("--counts-only", action="store_true"),
    ]),
    ("progcheck", "search a polynomial list for a progression", _cmd_progcheck, [
        _Q,
        _MODULUS,
        _arg("--file", required=True, help="one polynomial text per line"),
        _arg("--unit-tolerant", action="store_true"),
    ]),
    ("extremal", "exact maximum progression-free subset", _cmd_extremal, [
        _Q,
        _MODULUS,
        _MAX_DEGREE,
        _arg("--budget", type=_int_in(1), default=DEFAULT_VERTEX_BUDGET,
             help="vertex budget (default %(default)s)"),
    ]),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gpfq", description=__doc__.splitlines()[0])
    groups = {"": parser.add_subparsers(dest="command", required=True)}
    for name, help_text, handler, arguments in _COMMANDS:
        group, _, leaf = name.rpartition(" ")
        p = groups[group].add_parser(leaf, help=help_text)
        if handler is None:
            groups[name] = p.add_subparsers(dest="action", required=True)
            continue
        for flags, options in arguments:
            p.add_argument(*flags, **options)
        if handler is not _cmd_figure1:
            p.add_argument("--json", action="store_true")
        p.set_defaults(func=handler, name=name, parser=p)
    return parser


def run(argv) -> int:
    parser = build_parser()
    limited = hasattr(sys, "set_int_max_str_digits")  # CPython 3.10.7 and later
    str_limit = sys.get_int_max_str_digits() if limited else 0
    try:
        args = parser.parse_args(argv)
        if limited:  # exact answers may pass the digit limit; density's budgets bound them
            sys.set_int_max_str_digits(0)
        code, lines, obj = args.func(args.parser, args)
        if getattr(args, "json", False):
            import json  # only --json pays for loading it

            obj = obj() if callable(obj) else obj
            print(json.dumps({"command": args.name.replace(" ", "-"), **obj}, indent=2, sort_keys=True))
        else:
            for line in lines:
                print(line)
        return code
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
