"""Command-line front end.

Results go to stdout, diagnostics to stderr. Exit codes: 0 success, 1
computation failure (budget or precision, or a failing table cell), 2 usage
error. Identical invocations produce bit-identical output.

One constant, errors.DEFAULT_ENUM_BUDGET, caps every polynomial enumeration;
no option changes it.

`progcheck` hands the lines of its file, as they decode, to
progfree.has_progression_text, which keeps one packed int per distinct member
and builds no Poly; on a bad line it reads the rest of the file first, so text
that is not UTF-8 is still a usage error before any parse error. A `greedy
enumerate` listing formats code tuples (polyring._format_codes), not Poly.

A well-formed command line is parsed straight from the command table
(`_parse`), into the namespace argparse would make, so such a run builds no
parser and imports neither argparse nor the gettext and locale it loads. Any
other (help, an abbreviated or `--q=2` flag, a value that starts with "-", a
repeated, stray or missing argument, a failing type or choice) goes to
argparse, which builds only the parsers on its path: each subcommand's parser
when argparse dispatches to it (or help or an error message reads it). A usage
error a handler finds builds its subcommand's parser to report it, so help and
usage text are argparse's alone.

`main`, the process's entry point, freezes the collector (gc.freeze) before it
exits, so interpreter shutdown skips full collections over every loaded object
only to free memory the OS reclaims anyway; `run` does not, since tests and
tracers call it in a process that goes on. A reader that closes stdout early
(`gpfq ... | head`) ends the run with exit 1 and no traceback.
"""

from __future__ import annotations

import gc
import os
import sys
import time
from types import SimpleNamespace

# the layers are read at call time, so a subcommand runs only the ones it calls
from . import density, factor, ff, greedy, intarith, polyring, polytext, progfree, rn, tables
from .errors import DEFAULT_VERTEX_BUDGET, MAX_DIGITS, MAX_VERTEX_BUDGET, BudgetExceeded, Error


def _int_in(lo: int, hi: float = float("inf")):
    """argparse type: an integer in [lo, hi]; anything else raises ValueError."""

    def parse(text: str) -> int:
        if not lo <= int(text) <= hi:
            raise ValueError(text)
        return int(text)

    parse.__name__ = f"integer >= {lo}" if hi == float("inf") else f"integer in [{lo}, {hi}]"
    return parse


def _prime_power(parser, q):
    """(p, k) with q = p^k, or a usage error."""
    try:
        pk = intarith.prime_power(q)
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

# kind: density.certify kind; only upper-simple reads --terms
_DENSITY_KINDS = {"greedy": "greedy", "lower": "lower_mq", "upper-simple": "upper_simple", "upper-no": "upper_no"}


def _cmd_density(parser, args):
    if args.terms is not None and args.kind != "upper-simple":
        parser.error(f"density {args.kind} does not take --terms")
    _prime_power(parser, args.q)
    report = density.certify(_DENSITY_KINDS[args.kind], args.q, args.digits, terms=args.terms)
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
    return 0, ["q,density"] + [f"{q},{val}" for q, val in rows], None


def _cmd_checkpoint(parser, args):
    _prime_power(parser, args.q)
    exact = str(density.checkpoint_density(args.q, args.k))
    return 0, [exact], {"q": args.q, "k": args.k, "exact": exact}


def _cmd_empirical(parser, args):
    _prime_power(parser, args.q)
    exact = str(density.empirical_greedy_density(args.q, args.max_degree))
    return 0, [exact], {"q": args.q, "max_degree": args.max_degree, "exact": exact}


def _cmd_rn(parser, args):
    values = list(rn.rn_sequence(args.n))
    return 0, [" ".join(map(str, values))], {"n": args.n, "values": values}


def _cmd_factor(parser, args):
    spec = _field_for(parser, args)
    try:
        f = polytext.parse_poly(spec, args.poly)
    except Error as exc:
        parser.error(f"bad polynomial {polytext._excerpt(args.poly)}: {exc}")
    fac = factor.factorize(f)
    parts = [(polyring.format_poly(prime), e) for prime, e in fac.parts]
    pieces = [str(fac.unit.code)] + [f"({prime})" + (f"^{e}" if e > 1 else "") for prime, e in parts]
    obj = {"q": args.q, "input": args.poly, "unit": fac.unit.code, "parts": [{"prime": t, "exp": e} for t, e in parts]}
    return 0, [" * ".join(pieces)], obj


def _cmd_check(parser, args):
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


def _cmd_enumerate(parser, args):
    # counts come from the Euler product, which needs only q; a field is built
    # to list members, or to check a given --modulus
    if args.counts_only and args.modulus is None:
        _prime_power(parser, args.q)
    else:
        spec = _field_for(parser, args)
    if not args.counts_only:
        members = greedy._member_codes(spec, args.max_degree)
    counts = density.greedy_counts(args.q, args.max_degree)
    obj = {"q": args.q, "max_degree": args.max_degree, "counts": counts}
    if args.counts_only:
        return 0, [f"{d} {c}" for d, c in enumerate(counts)], obj
    lines = obj["members"] = polyring._format_codes(spec.k, members)
    return 0, lines, obj


def _cmd_progcheck(parser, args):
    spec = _field_for(parser, args)
    try:
        with open(args.file, encoding="utf-8") as fh:
            try:
                witness = progfree.has_progression_text(spec, fh, unit_tolerant=args.unit_tolerant)
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


def _cmd_extremal(parser, args):
    spec = _field_for(parser, args)
    size, witness = progfree.max_progression_free_subset(spec, args.max_degree, args.budget)
    shown = [polyring.format_poly(f) for f in witness]
    obj = {"q": args.q, "max_degree": args.max_degree, "size": size, "witness": shown}
    return 0, [f"size={size}", "witness: " + ", ".join(shown)], obj


# ---------------------------------------------------------------------------
# parser table: name: (help, handler, arguments), a name of two words under the
# group its first word names; a command's parser is built only when argparse
# dispatches to it (_Subparser); every handler but figure1's also takes --json,
# and its JSON object is headed by the name, hyphenated
# ---------------------------------------------------------------------------

def _arg(*flags, **options):
    return flags, options


_JSON = _arg("--json", action="store_true")
_Q = _arg("--q", type=int, required=True, help="field order, a prime power")
_MODULUS = _arg("--modulus", help="comma-separated modulus coefficients, constant first")
_MAX_DEGREE = _arg("--max-degree", type=_int_in(0), required=True)

_COMMANDS = {  # name: (help, handler, arguments)
    "density": ("certified density and bound values", _cmd_density, [
        _arg("kind", choices=list(_DENSITY_KINDS)),
        _Q,
        _arg("--digits", type=_int_in(1, MAX_DIGITS), default=6),
        _arg("--terms", type=_int_in(0), help="finite progression families for upper-simple"),
    ]),
    "tables": ("verify the published tables cell by cell", _cmd_tables, [
        _arg("--which", type=int, choices=[1, 2, 3], required=True),
    ]),
    "figure1": ("density against q as CSV", _cmd_figure1, [
        _arg("--qmax", type=_int_in(2), default=130),
    ]),
    "checkpoint": ("exact checkpoint density at N_k", _cmd_checkpoint, [
        _Q,
        _arg("--k", type=_int_in(1), required=True),
    ]),
    "empirical": ("exact finite-stage greedy density", _cmd_empirical, [_Q, _MAX_DEGREE]),
    "rn": ("least endpoints r_n for AP-free subsets", _cmd_rn, [_arg("--n", type=_int_in(1), required=True)]),
    "factor": ("factor a polynomial over F_q", _cmd_factor, [
        _Q,
        _MODULUS,
        _arg("poly", help="polynomial text, e.g. 'x^3+x+1'"),
    ]),
    "greedy": ("greedy progression-free set operations", None, []),
    "greedy check": ("brute-force construction vs characterization", _cmd_check, [_Q, _MODULUS, _MAX_DEGREE]),
    "greedy enumerate": ("list greedy-set members", _cmd_enumerate, [
        _Q,
        _MODULUS,
        _MAX_DEGREE,
        _arg("--counts-only", action="store_true"),
    ]),
    "progcheck": ("search a polynomial list for a progression", _cmd_progcheck, [
        _Q,
        _MODULUS,
        _arg("--file", required=True, help="one polynomial text per line"),
        _arg("--unit-tolerant", action="store_true"),
    ]),
    "extremal": ("exact maximum progression-free subset", _cmd_extremal, [
        _Q,
        _MODULUS,
        _MAX_DEGREE,
        _arg("--budget", type=_int_in(1, MAX_VERTEX_BUDGET), default=DEFAULT_VERTEX_BUDGET,
             help="vertex budget (default %(default)s)"),
    ]),
}


class _Subparser:
    """A subcommand's parser, built when first read. argparse makes one parser
    per subcommand (`parser_class` of add_subparsers) but dispatches to one, and
    a run that _parse reads hands one to its handler, which reads it only for a
    usage error; this stand-in keeps add_parser's keyword arguments (prog and
    the rest), and its first attribute read builds the ArgumentParser, with the
    command's arguments from _COMMANDS, which then serves every read."""

    def __init__(self, command, **kwargs):
        self._command, self._kwargs, self._parser = command, kwargs, None

    def __getattr__(self, attr):  # called only for names the stand-in lacks
        if self._parser is None:
            import argparse

            self._parser = _fill(argparse.ArgumentParser(**self._kwargs), self._command)
        return getattr(self._parser, attr)


def _add_commands(parser, group, dest):
    """`parser` with a subparser, built on dispatch, for each command of `group` ("" at the top)."""
    subparsers = parser.add_subparsers(dest=dest, required=True, parser_class=_Subparser)
    for name, (help_text, _, _) in _COMMANDS.items():
        head, _, leaf = name.rpartition(" ")
        if head == group:
            subparsers.add_parser(leaf, help=help_text, command=name)
    return parser


def _fill(parser, name):
    """`parser` with the arguments of command `name`, or the commands of group `name`."""
    handler, arguments = _arguments(name)
    if handler is None:
        return _add_commands(parser, name, "action")
    for flags, options in arguments:
        parser.add_argument(*flags, **options)
    parser.set_defaults(func=handler, name=name, parser=parser)
    return parser


def _arguments(name):
    """(handler, arguments) of command `name`, with --json but for figure1 and a group."""
    _, handler, arguments = _COMMANDS[name]
    return handler, (arguments if handler in (None, _cmd_figure1) else [*arguments, _JSON])


def build_parser() -> argparse.ArgumentParser:
    import argparse

    return _add_commands(argparse.ArgumentParser(prog="gpfq", description=__doc__.splitlines()[0]), "", "command")


def _parse(argv):
    """The namespace argparse makes of `argv`, read from _COMMANDS alone, if argv
    is exactly what the table declares: a command's word (two in a group), then
    its row's exact flags, each valued one followed by a value that does not
    start with "-", and its positionals, with every type and choice check passed
    and every required flag given; else None. Its `parser` is a _Subparser with
    argparse's prog for the command (the parent's prog, then the word)."""
    name, rest = (argv[0], argv[1:]) if argv else ("", [])
    if " " in name or name not in _COMMANDS:
        return None
    args = {"command": name}
    if _COMMANDS[name][1] is None:  # a group: the next word names the command
        if not rest or f"{name} {rest[0]}" not in _COMMANDS:
            return None
        args["action"], name, rest = rest[0], f"{name} {rest[0]}", rest[1:]
    handler, arguments = _arguments(name)
    declared = {flags[0]: options for flags, options in arguments}
    given, positionals, tokens = {}, [], iter(rest)
    for token in tokens:
        if not token.startswith("-"):
            positionals.append(token)
        elif token not in declared or token in given:
            return None
        elif "action" in declared[token]:  # store_true
            given[token] = True
        elif (value := next(tokens, "-")).startswith("-"):
            return None
        else:
            given[token] = value
    names = [flag for flag in declared if not flag.startswith("-")]
    if len(positionals) != len(names):
        return None
    given.update(zip(names, positionals))
    for flag, options in declared.items():
        dest = flag.lstrip("-").replace("-", "_")
        if flag not in given:
            if options.get("required"):
                return None
            args[dest] = options.get("default", False if "action" in options else None)
            continue
        try:
            value = options["type"](given[flag]) if "type" in options else given[flag]
        except ValueError:
            return None
        if value not in options.get("choices", [value]):
            return None
        args[dest] = value
    return SimpleNamespace(**args, func=handler, name=name, parser=_Subparser(name, prog=f"gpfq {name}"))


def run(argv) -> int:
    limited = hasattr(sys, "set_int_max_str_digits")  # CPython 3.10.7 and later
    str_limit = sys.get_int_max_str_digits() if limited else 0
    try:
        args = _parse(argv) or build_parser().parse_args(argv)
        if limited:  # exact answers may pass the digit limit; density's budgets bound them
            sys.set_int_max_str_digits(0)
        code, lines, obj = args.func(args.parser, args)
        if getattr(args, "json", False):
            import json  # only --json pays for loading it

            obj = obj() if callable(obj) else obj
            print(json.dumps({"command": args.name.replace(" ", "-"), **obj}, indent=2, sort_keys=True))
        elif lines:
            print("\n".join(lines))
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
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()  # here, so a closed pipe raises inside the try
    except BrokenPipeError:  # the reader left (`gpfq ... | head`): no traceback, and no flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    gc.freeze()  # the process ends here: spare shutdown a collection over every object
    sys.exit(code)


if __name__ == "__main__":
    main()
