"""Command-line front end.

Results go to stdout, diagnostics to stderr. Exit codes: 0 success, 1
computation failure (budget or precision, or a failing table cell), 2 usage
error. Identical invocations produce bit-identical output.

One constant, errors.DEFAULT_ENUM_BUDGET, caps every polynomial enumeration;
no option changes it.

Each command's argument rows and handler live in its own module under
gpfq.commands; this one keeps what every run needs, so a run imports one
command module and `gpfq -h` or `build_parser()` none.

A well-formed command line is parsed straight from the command table
(`_parse`), into the namespace argparse would make, so such a run builds no
parser and imports neither argparse nor the gettext and locale it loads. Any
other (help, an abbreviated or `--q=2` flag, a value that starts with "-", a
repeated, stray or missing argument, a failing type or choice) goes to
argparse, which builds only the parsers on its path: each subcommand's parser
when argparse dispatches to it (or help or an error message reads it). A usage
error a handler finds builds its subcommand's parser to report it, so help and
usage text are argparse's alone.

`main`, the process's entry point, ends with `os._exit` after flushing stdout
and stderr and running the `atexit` handlers: teardown only frees memory the
OS reclaims anyway, and the package writes no file. `run` does not, since
tests and tracers call it in a process that goes on. A reader that closes a
pipe early (`gpfq ... | head`) ends the run with exit 1 and no traceback.
"""

from __future__ import annotations

import atexit
import os
import sys
from types import SimpleNamespace

# the layers, lazily loaded: each command module reads them through these names
# (`from ..cli import density`), so a run runs only the ones it calls, and a
# tracer that wraps this module's names sees every call a handler makes
from . import density, factor, ff, greedy, intarith, polyring, polytext, progfree, progsearch, rn, tables
from .errors import BudgetExceeded, Error


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
# parser table: name: (help, module), a name of two words under the group its
# first word names; a command's module (ARGUMENTS, handle) is imported when the
# command runs or its parser is built (_Subparser). A handler takes its own
# subparser, for usage errors, and the parsed arguments; it returns (exit code,
# text lines, JSON object or a function that builds it), and `run` prints one or
# the other, the JSON object headed by the name, hyphenated
# ---------------------------------------------------------------------------

def _arg(*flags, **options):
    return flags, options


_JSON = _arg("--json", action="store_true")
_Q = _arg("--q", type=int, required=True, help="field order, a prime power")
_MODULUS = _arg("--modulus", help="comma-separated modulus coefficients, constant first")
_MAX_DEGREE = _arg("--max-degree", type=_int_in(0), required=True)

# "_cmd" keeps a module's last name part apart from the layers' (density, factor, tables)
_COMMANDS = {  # name: (help, module under gpfq.commands, None for a group)
    "density": ("certified density and bound values", "density_cmd"),
    "tables": ("verify the published tables cell by cell", "tables_cmd"),
    "figure1": ("density against q as CSV", "figure1_cmd"),
    "checkpoint": ("exact checkpoint density at N_k", "checkpoint_cmd"),
    "empirical": ("exact finite-stage greedy density", "empirical_cmd"),
    "rn": ("least endpoints r_n for AP-free subsets", "rn_cmd"),
    "factor": ("factor a polynomial over F_q", "factor_cmd"),
    "greedy": ("greedy progression-free set operations", None),
    "greedy check": ("brute-force construction vs characterization", "greedy_check_cmd"),
    "greedy enumerate": ("list greedy-set members", "greedy_enumerate_cmd"),
    "progcheck": ("search a polynomial list for a progression", "progcheck_cmd"),
    "extremal": ("exact maximum progression-free subset", "extremal_cmd"),
}


class _Subparser:
    """A subcommand's parser, built when first read. argparse makes one parser
    per subcommand (`parser_class` of add_subparsers) but dispatches to one, and
    a run that _parse reads hands one to its handler, which reads it only for a
    usage error; this stand-in keeps add_parser's keyword arguments (prog and
    the rest), and its first attribute read builds the ArgumentParser, with the
    command's arguments from its module, which then serves every read."""

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
    for name, (help_text, _) in _COMMANDS.items():
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
    """(handler, arguments) of command `name`, from its module, which this imports;
    (None, []) for a group."""
    module = _COMMANDS[name][1]
    if module is None:
        return None, []
    module = __import__(f"gpfq.commands.{module}", fromlist=["handle"])  # -X importtime lists it
    return module.handle, module.ARGUMENTS


def build_parser() -> argparse.ArgumentParser:
    import argparse

    return _add_commands(argparse.ArgumentParser(prog="gpfq", description=__doc__.splitlines()[0]), "", "command")


def _parse(argv):
    """The namespace argparse makes of `argv`, read from _COMMANDS and the
    command's argument rows alone, if argv is exactly what they declare: a
    command's word (two in a group), then its rows' exact flags, each valued one
    followed by a value that does not start with "-", and its positionals, with
    every type and choice check passed and every required flag given; else None.
    Its `parser` is a _Subparser with argparse's prog for the command (the
    parent's prog, then the word)."""
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
        sys.stderr.flush()
    except BrokenPipeError:  # the reader left (`gpfq ... | head`): exit 1, no traceback
        code = 1
    atexit._run_exitfuncs()  # what hooks process exit (coverage, say) runs as at a normal exit
    try:  # and what they print is flushed after them, as at a normal exit
        sys.stdout.flush()
        sys.stderr.flush()
    except BrokenPipeError:
        code = 1
    os._exit(code)  # the process ends at its last write: no interpreter teardown


if __name__ == "__main__":
    # under `python -m gpfq.cli` this module runs as __main__; the command modules
    # import gpfq.cli, which must be this module, not a second compile of it
    sys.modules.setdefault("gpfq.cli", sys.modules[__name__])
    main()
