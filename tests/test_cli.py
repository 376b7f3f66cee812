"""CLI behavior: outputs, exit codes, JSON schema conformance, determinism."""

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import re
import shlex
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from importlib import resources
from pathlib import Path
from unittest import mock

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from _oracles import has_progression_brute
import gpfq
from gpfq import (cli, factor, format_poly, greedy, greedy_member, has_progression, make_field, parse_poly, polyring,
                  polytext)
from gpfq.cli import build_parser, run
from gpfq.polyring import Poly, _packer
from gpfq.polytext import MAX_TEXT_DEGREE


@pytest.fixture(scope="module")
def schema():
    with resources.files("gpfq").joinpath("data/cli_schema.json").open() as fh:
        return json.load(fh)


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def invoke_json(capsys, schema, *argv):
    code, out, _ = invoke(capsys, *argv)
    obj = json.loads(out)
    jsonschema.validate(obj, schema)
    return code, obj


def test_density_greedy(capsys):
    code, out, _ = invoke(capsys, "density", "greedy", "--q", "2", "--digits", "6")
    assert code == 0
    assert out.strip() == "0.648361"


def test_density_json(capsys, schema):
    for kind, expected in [
        ("greedy", "0.648361"),
        ("lower", "0.845398"),
        ("upper-simple", "0.857143"),
        ("upper-no", "0.846376"),
    ]:
        code, obj = invoke_json(capsys, schema, "density", kind, "--q", "2", "--json")
        assert code == 0
        assert obj["value"] == expected


def test_density_usage_error_not_prime_power(capsys):
    code, _, err = invoke(capsys, "density", "greedy", "--q", "6", "--digits", "6")
    assert code == 2
    assert "prime power" in err


def test_tables(capsys, schema):
    code, out, err = invoke(capsys, "tables", "--which", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "12/12 cells PASS"
    assert "q=2 greedy expected=0.648361 computed=0.648361 PASS" in lines

    code, obj = invoke_json(capsys, schema, "tables", "--which", "2", "--json")
    assert code == 0
    assert obj["all_pass"] is True
    assert len(obj["cells"]) == 12


def test_checkpoint(capsys, schema):
    code, out, _ = invoke(capsys, "checkpoint", "--q", "2", "--k", "2")
    assert code == 0
    assert out.strip() == "27/32"
    code, obj = invoke_json(capsys, schema, "checkpoint", "--q", "2", "--k", "2", "--json")
    assert obj["exact"] == "27/32"


def test_empirical(capsys, schema):
    code, out, _ = invoke(capsys, "empirical", "--q", "2", "--max-degree", "2")
    assert code == 0
    assert out.strip() == "5/8"
    code, obj = invoke_json(capsys, schema, "empirical", "--q", "2", "--max-degree", "2", "--json")
    assert obj["exact"] == "5/8"


def test_greedy_check_budget_env(capsys, monkeypatch):
    # GPFQ_ENUM_BUDGET is not read: a small or invalid value changes no answer,
    # and the q^(D+1) = 2^22 polynomials of degree <= 21 exceed the one cap,
    # DEFAULT_ENUM_BUDGET, before any list is built
    expected = invoke(capsys, "greedy", "check", "--q", "2", "--max-degree", "6")
    assert expected[0] == 0
    for value in ("10", "0", "abc"):
        monkeypatch.setenv("GPFQ_ENUM_BUDGET", value)
        assert invoke(capsys, "greedy", "check", "--q", "2", "--max-degree", "6") == expected
    for command in ("check", "enumerate"):
        code, out, err = invoke(capsys, "greedy", command, "--q", "2", "--max-degree", "21")
        assert (code, out) == (1, "") and "budget 2097152" in err


def test_rn(capsys, schema):
    code, out, _ = invoke(capsys, "rn", "--n", "9")
    assert code == 0
    assert out.strip() == "1 2 4 5 9 11 13 14 20"
    code, obj = invoke_json(capsys, schema, "rn", "--n", "5", "--json")
    assert obj["values"] == [1, 2, 4, 5, 9]


def test_factor(capsys, schema):
    code, out, _ = invoke(capsys, "factor", "--q", "2", "x^4+x")
    assert code == 0
    assert out.strip() == "1 * (x) * (x+1) * (x^2+x+1)"
    code, obj = invoke_json(capsys, schema, "factor", "--q", "2", "x^4+x", "--json")
    assert obj["unit"] == 1
    assert obj["parts"] == [
        {"prime": "x", "exp": 1},
        {"prime": "x+1", "exp": 1},
        {"prime": "x^2+x+1", "exp": 1},
    ]


def test_factor_extension_field_with_modulus(capsys, schema):
    code, obj = invoke_json(
        capsys, schema, "factor", "--q", "4", "--modulus", "1,1,1", "[2]*x^2+[3]*x", "--json"
    )
    assert code == 0
    assert obj["unit"] == 2
    assert sum(p["exp"] for p in obj["parts"]) == 2


def test_factor_bad_poly(capsys):
    code, _, err = invoke(capsys, "factor", "--q", "2", "x**2")
    assert code == 2


def test_greedy_check(capsys, schema):
    code, out, _ = invoke(capsys, "greedy", "check", "--q", "2", "--max-degree", "4")
    assert code == 0
    assert "match the exponent characterization" in out
    code, obj = invoke_json(capsys, schema, "greedy", "check", "--q", "2", "--max-degree", "4", "--json")
    assert obj["ok"] is True


def test_greedy_check_many_units(capsys):
    # both sets are built, compared and searched by their monic members, and
    # the 31 units of GF(32) enter only the member count
    code, out, _ = invoke(capsys, "greedy", "check", "--q", "32", "--max-degree", "2")
    assert code == 0
    assert out == "ok: 31775 members up to degree 2 match the exponent characterization; no progression found\n"


def test_greedy_check_builds_few_polys(capsys, monkeypatch):
    # at most one Poly per monic polynomial of degree <= 2 over GF(64) (4,161
    # of them), not one per member (258,111), per polynomial or per ratio
    calls = []
    raw = Poly._raw.__func__
    monkeypatch.setattr(Poly, "_raw", classmethod(lambda cls, *args: calls.append(1) or raw(cls, *args)))
    code, out, _ = invoke(capsys, "greedy", "check", "--q", "64", "--max-degree", "2")
    assert code == 0 and out.startswith("ok: 258111 members")
    assert len(calls) <= 4161


def test_greedy_enumerate(capsys, schema):
    code, out, _ = invoke(capsys, "greedy", "enumerate", "--q", "2", "--max-degree", "2")
    assert code == 0
    assert out.strip().splitlines() == ["1", "x", "x+1", "x^2+x", "x^2+x+1"]
    code, out, _ = invoke(capsys, "greedy", "enumerate", "--q", "2", "--max-degree", "2", "--counts-only")
    assert out.strip().splitlines() == ["0 1", "1 2", "2 2"]
    code, obj = invoke_json(
        capsys, schema, "greedy", "enumerate", "--q", "2", "--max-degree", "2", "--json"
    )
    assert obj["counts"] == [1, 2, 2]


def test_greedy_counts_factor_nothing(capsys, monkeypatch):
    def refuse(*_):
        raise AssertionError("factorization called")

    # progfree reads factorization_exponents from factor at call time
    monkeypatch.setattr(factor, "factorization_exponents", refuse)
    monkeypatch.setattr(factor, "factorize", refuse)
    code, out, _ = invoke(capsys, "empirical", "--q", "2", "--max-degree", "13")
    assert (code, out.strip()) == (0, "10639/16384")
    code, out, _ = invoke(capsys, "greedy", "enumerate", "--q", "2", "--max-degree", "11", "--counts-only")
    assert code == 0 and out.splitlines()[-1] == "11 1324"
    # listing members and checking the construction build the set from the irreducibles
    code, out, _ = invoke(capsys, "greedy", "enumerate", "--q", "2", "--max-degree", "2")
    assert code == 0 and out.strip().splitlines() == ["1", "x", "x+1", "x^2+x", "x^2+x+1"]
    code, out, _ = invoke(capsys, "greedy", "check", "--q", "3", "--max-degree", "4")
    assert code == 0 and out.startswith("ok: ")


def test_progcheck(capsys, schema, tmp_path):
    good = tmp_path / "free.txt"
    good.write_text("1\nx\nx^2+x\n")
    code, out, _ = invoke(capsys, "progcheck", "--q", "2", "--file", str(good))
    assert code == 0
    assert out.strip() == "progression-free"

    bad = tmp_path / "prog.txt"
    bad.write_text("1\nx\nx^2\n")
    code, obj = invoke_json(capsys, schema, "progcheck", "--q", "2", "--file", str(bad), "--json")
    assert code == 0
    assert obj["progression_free"] is False
    assert obj["witness"]["members"] == ["1", "x", "x^2"]


def test_progcheck_unit_tolerant(capsys, tmp_path):
    # strict: free; unit-tolerant: 1, x, 2x^2 collapses to a progression
    path = tmp_path / "units.txt"
    path.write_text("1\nx\n2*x^2\n")
    code, out, _ = invoke(capsys, "progcheck", "--q", "3", "--file", str(path))
    assert code == 0 and out.strip() == "progression-free"
    code, out, _ = invoke(capsys, "progcheck", "--q", "3", "--file", str(path), "--unit-tolerant")
    assert code == 0 and out.startswith("progression: base=1 ratio=x")


def test_progcheck_huge_exponent_hits_degree_budget(capsys, tmp_path):
    # the exponent is refused before a coefficient list of that length is allocated
    path = tmp_path / "huge.txt"
    path.write_text(f"1\nx^{MAX_TEXT_DEGREE + 1}+x\n")
    code, out, err = invoke(capsys, "progcheck", "--q", "2", "--file", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "degree budget" in err


def test_long_digit_strings_end_with_short_messages(capsys, tmp_path):
    # digits are counted before int(): neither the number nor the whole text reaches stderr
    ones = "1" * 100_000
    code, out, err = invoke(capsys, "factor", "--q", "2", f"x^{ones}")
    assert (code, out) == (2, "") and "of 100000 digits" in err and len(err) < 300
    code, out, err = invoke(capsys, "factor", "--q", "2", ones)
    assert (code, out) == (2, "") and "of 100000 digits" in err and len(err) < 300
    path = tmp_path / "long.txt"
    path.write_text(f"1\nx^{ones}\n")
    code, out, err = invoke(capsys, "progcheck", "--q", "2", "--file", str(path))
    assert (code, out) == (1, "") and err.startswith("error:") and len(err) < 300
    path.write_text(f"1\nx^0005\n")
    code, out, _ = invoke(capsys, "progcheck", "--q", "2", "--file", str(path))
    assert (code, out) == (0, "progression-free\n")


def test_progcheck_high_degree_hits_ratio_budget(capsys, tmp_path):
    # the degrees 0, 40, 80 allow a progression, whose ratios up to degree 40 would number 2^41;
    # they are counted before any is listed
    path = tmp_path / "far.txt"
    path.write_text("1\nx^40+1\nx^80\n")
    code, out, err = invoke(capsys, "progcheck", "--q", "2", "--file", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "budget" in err


@pytest.mark.parametrize("q, text", [("2", "1\nx^80\n"), ("2", "1\nx^41\n"), ("1447", "1\nx\nx^3\n")])
@pytest.mark.parametrize("tolerant", [[], ["--unit-tolerant"]])
def test_progcheck_degrees_without_progression_answer_at_once(capsys, tmp_path, q, text, tolerant):
    # no three of the degrees are d, d + e, d + 2e, as a progression's are: answered before any
    # ratio is counted (these took 3-12 s, or hit the ratio budget, when every ratio was tried)
    path = tmp_path / "members.txt"
    path.write_text(text)
    assert invoke(capsys, "progcheck", "--q", q, "--file", str(path), *tolerant) == (0, "progression-free\n", "")


def test_progcheck_unreadable_file_is_usage_error(capsys, tmp_path):
    path = tmp_path / "utf16.txt"
    path.write_bytes(b"\xff\xfe1\x00\n\x00")
    code, out, err = invoke(capsys, "progcheck", "--q", "2", "--file", str(path))
    assert (code, out) == (2, "") and "cannot read" in err
    code, out, err = invoke(capsys, "progcheck", "--q", "2", "--file", str(tmp_path / "missing.txt"))
    assert (code, out) == (2, "") and "cannot read" in err


_LINE = "progression: base=1 ratio=x members=[1, x, x^2]\n"


@pytest.mark.parametrize(
    "q, data, code, out, err",
    [
        # the file decodes whole before any line is parsed: invalid UTF-8 after a bad line is a usage error
        ("2", b"x^y\n\xff\n", 2, "", "cannot read"),
        # a zero member is refused only after every line has parsed
        ("2", b"0\nx^y\n", 1, "", "error: bad term 'x^y'\n"),
        ("2", b"0\nx^1048577\n", 1, "", "error: exponent 1048577 exceeds the degree budget 1048576\n"),
        ("2", b"0\n1\nx\n", 1, "", "error: progression search over a set containing 0\n"),
        # a repeated exponent is found in term order, a zero code's too
        ("2", b"x+x^1\n", 1, "", "error: exponent 1 appears twice\n"),
        ("2", b"0*x+x\n", 1, "", "error: exponent 1 appears twice\n"),
        ("2", b"x+x+x^y\n", 1, "", "error: exponent 1 appears twice\n"),
        ("2", b"x^y+x+x\n", 1, "", "error: bad term 'x^y'\n"),
        # CRLF and CR line ends, blank and whitespace-only lines, spaces inside a line
        ("2", b"1\r\nx\r\nx^2\r\n", 0, _LINE, ""),
        ("2", b"1\rx\rx^2", 0, _LINE, ""),
        ("2", b"\n  \n\t\n1\n \nx \n x ^ 2 + 0 * x ^ 7\n", 0, _LINE, ""),
        # the unit code and the exponents 0 and 1 written out
        ("2", b"1*x^0\n1*x^1\nx^2\n", 0, _LINE, ""),
        ("3", b"2*x^0\n2*x^1\n2*x^2\n", 0, "progression: base=2 ratio=x members=[2, 2*x, 2*x^2]\n", ""),
        # a member past the ratio budget: free without a base below it or with degrees that hold no
        # progression's (d, d + e, d + 2e), else the budget
        ("2", b"x^99\nx^98\n", 0, "progression-free\n", ""),
        ("2", b"x^99\n1\n", 0, "progression-free\n", ""),
        ("2", b"x^99\nx^50+1\nx\n", 1, "", "error: polynomials of degree <= 49 over GF(2) exceed budget 2097152\n"),
    ],
)
def test_progcheck_error_order(capsys, tmp_path, q, data, code, out, err):
    path = tmp_path / "lines.txt"
    path.write_bytes(data)
    got = invoke(capsys, "progcheck", "--q", q, "--file", str(path))
    assert got[:2] == (code, out)
    assert err in got[2] if code == 2 else got[2] == err


def _written(draw, spec, cs):
    """Text that parses to the code tuple cs, written as a user might: terms in any
    order, zero codes, the code 1 and the exponents 0 and 1 spelled out or not,
    bracketed codes or not over GF(p^k), and spaces."""
    terms = []
    for e in range(len(cs) + 1):
        c = cs[e] if e < len(cs) else 0
        if not c and not draw(st.integers(0, 4)) == 0:
            continue
        code = f"[{c}]" if spec.k > 1 and draw(st.booleans()) else str(c)
        power = draw(st.sampled_from(["x^1", "x"] if e == 1 else [f"x^{e}"]))
        if e == 0:
            terms.append(draw(st.sampled_from([code, f"{code}*x^0"])))
        else:
            terms.append(draw(st.sampled_from([power, f"{code}*{power}"] if c == 1 else [f"{code}*{power}"])))
    return draw(st.sampled_from(["+", " + ", "+ "])).join(draw(st.permutations(terms))) if terms else "0"


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), case=st.sampled_from([(2, 1, 5), (3, 1, 3), (2, 2, 2), (3, 2, 2)]), tolerant=st.booleans())
def test_progcheck_matches_poly_search_and_oracle(tmp_path, data, case, tolerant):
    # the keyed file reader, has_progression on Poly values and the divisibility oracle
    # give one witness; members repeat and are written in many forms, one per line; at
    # most 43 members, so the oracle stays fast
    p, k, max_degree = case
    spec = make_field(p, k)
    universe = list(polyring.enumerate_upto(spec, max_degree))
    polys = data.draw(st.permutations(universe))[: data.draw(st.integers(0, 40))]
    if data.draw(st.booleans()):  # plant a progression, its later terms times units
        a, r = (data.draw(st.sampled_from([f for f in universe if f.degree == d])) for d in (0, 1))
        u, v = (data.draw(st.sampled_from(universe[: spec.q - 1])) for _ in "uv")
        polys += [a, u * a * r, v * a * r * r]
    repeats = data.draw(st.lists(st.sampled_from(polys), max_size=5)) if polys else []
    lines = [_written(data.draw, spec, f.coeffs) for f in polys + repeats]
    path = tmp_path / "members.txt"
    path.write_bytes(data.draw(st.sampled_from(["\n", "\r\n"])).join(lines).encode())
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(["progcheck", "--q", str(spec.q), "--file", str(path), "--json"] + ["--unit-tolerant"] * tolerant)
    assert code == 0
    shown = json.loads(out.getvalue())["witness"]
    expect = has_progression_brute(polys, unit_tolerant=tolerant)
    assert has_progression(polys, unit_tolerant=tolerant) == expect
    assert (shown and (shown["base"], shown["ratio"])) == (expect and tuple(map(format_poly, expect)))


def test_progcheck_and_listing_build_no_poly(capsys, monkeypatch, tmp_path):
    # a line becomes a packed int with no parse_poly call and no Poly, and a listing
    # formats code tuples; only a witness is a Poly
    def refuse(*_):
        raise AssertionError("a Poly was built")

    listings = {q: invoke(capsys, "greedy", "enumerate", "--q", q, "--max-degree", "5")[1] for q in ("2", "3")}
    monkeypatch.setattr(polytext, "parse_poly", refuse)
    monkeypatch.setattr(Poly, "_raw", refuse)
    monkeypatch.setattr(Poly, "__init__", refuse)
    for q, listing in listings.items():
        assert invoke(capsys, "greedy", "enumerate", "--q", q, "--max-degree", "5")[:2] == (0, listing)
        path = tmp_path / f"members{q}.txt"
        path.write_text(listing)
        for flags in ((), ("--unit-tolerant",)):
            assert invoke(capsys, "progcheck", "--q", q, "--file", str(path), *flags)[:2] == (0, "progression-free\n")


def test_progcheck_memory_stays_near_the_file_size(capsys, tmp_path):
    # one int per distinct member and no list of lines or Poly: the traced peak of
    # a 10,639-line member file stays below 5x its size (7.5x with a Poly per line)
    path = tmp_path / "members.txt"
    path.write_text(invoke(capsys, "greedy", "enumerate", "--q", "2", "--max-degree", "13")[1])
    tracemalloc.start()
    try:
        code, out, _ = invoke(capsys, "progcheck", "--q", "2", "--file", str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (0, "progression-free\n")
    assert peak < 5 * path.stat().st_size


def test_extremal(capsys, schema):
    code, out, _ = invoke(capsys, "extremal", "--q", "2", "--max-degree", "2")
    assert code == 0
    assert out.splitlines()[0] == "size=6"
    code, obj = invoke_json(capsys, schema, "extremal", "--q", "2", "--max-degree", "2", "--json")
    assert obj["size"] == 6
    assert len(obj["witness"]) == 6


def test_figure1(capsys):
    code, out, err = invoke(capsys, "figure1", "--qmax", "9")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[:2] == ["q,density", "2,0.648361"]
    assert len(lines) == 1 + 7  # 2,3,4,5,7,8,9


def test_deterministic_output(capsys):
    a = invoke(capsys, "density", "greedy", "--q", "7", "--digits", "9", "--json")
    b = invoke(capsys, "density", "greedy", "--q", "7", "--digits", "9", "--json")
    assert a == b
    c = invoke(capsys, "extremal", "--q", "2", "--max-degree", "4")
    d = invoke(capsys, "extremal", "--q", "2", "--max-degree", "4")
    assert c == d


def test_tables_json_schema_all(capsys, schema):
    code, obj = invoke_json(capsys, schema, "tables", "--which", "3", "--json")
    assert code == 0
    assert len(obj["cells"]) == 42


def test_density_many_digits(capsys):
    # depths 3, 4, 5, ... are tried in turn; a failed attempt names its endpoints'
    # bit lengths instead of printing 20000-bit numbers
    code, out, err = invoke(capsys, "density", "greedy", "--q", "2", "--digits", "700")
    assert code == 0, err
    assert out.startswith("0.648361") and len(out.strip()) == 702


def test_checkpoint_past_int_str_limit(capsys):
    # the denominator 2^29525 has 8888 digits, past Python's default str() limit
    code, out, err = invoke(capsys, "checkpoint", "--q", "2", "--k", "10")
    assert code == 0, err
    num, den = out.strip().split("/")
    expected = Fraction(1, 2)
    for i in range(10):
        expected *= 1 + Fraction(1, 2 ** (3**i))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert Fraction(int(num), int(den)) == expected
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("k", ["14", "1000000000"])
def test_checkpoint_budget(capsys, k):
    code, out, err = invoke(capsys, "checkpoint", "--q", "2", "--k", k)
    assert code == 1 and out == ""
    assert "budget" in err


@pytest.mark.parametrize(
    "argv, named",
    [
        (["density", "greedy", "--q", "2", "--digits", "0"], None),
        (["density", "greedy", "--q", "2", "--digits", "abc"], None),
        (["density", "greedy", "--q", "2", "--digits", "1000000"], None),
        (["density", "greedy", "--q", "2", "--depth", "0"], None),
        (["density", "lower", "--q", "2", "--depth", "12"], None),
        (["density", "upper-simple", "--q", "2", "--terms", "-1"], None),
        (["checkpoint", "--q", "2", "--k", "0"], None),
        (["rn", "--n", "0"], None),
        (["empirical", "--q", "2", "--max-degree", "-1"], None),
        (["extremal", "--q", "2", "--max-degree", "2", "--budget", "-3"], None),
        (["figure1", "--qmax", "1"], None),
        (["greedy", "check", "--q", "2", "--max-degree", "2", "--budget", "10"], "--budget"),  # the enumeration cap is a constant
        (["greedy", "enumerate", "--q", "2", "--max-degree", "2", "--budget", "10"], "--budget"),
        (["figure1", "--qmax", "2", "--json"], "--json"),
        (["progcheck", "--q", "2"], "--file"),
        (["density", "upper-no", "--q", "2", "--depth", "3"], None),
        (["density", "upper-simple", "--q", "2", "--depth", "3"], None),
        (["density", "greedy", "--q", "2", "--terms", "3"], None),
        (["density", "lower", "--q", "2", "--terms", "3"], None),
        (["density", "upper-no", "--q", "2", "--terms", "3"], None),
        (["factor", "--q", "2", "--modulus", "", "x+1"], None),
        (["greedy", "enumerate", "--q", "2", "--max-degree", "2", "--counts-only", "--modulus", ""], None),
        (["extremal", "--q", "2", "--max-degree", "2", "--budget", "4096"], "--budget"),
        (["factor", "--q", "4", "--modulus", "1,1", "x"], None),  # wrong degree
        (["factor", "--q", "9", "--modulus", "2,0,1", "x"], None),  # reducible: x^2 - 1
        (["density", "greedy", "--q", "2", "--depth", "4"], "--depth"),  # settings that changed no answer
        (["factor", "--q", "5", "x^2+1", "--seed", "1"], "--seed"),
        (["figure1", "--qmax", "2", "--out", "f.csv"], "--out"),
    ],
)
def test_bad_argv_or_env_is_usage_error(capsys, argv, named):
    # exit 2 with empty stdout and no traceback; stderr names `named`, if given
    code, out, err = invoke(capsys, *argv)
    assert code == 2
    assert "Traceback" not in err and out == ""
    assert named is None or named in err


def test_density_and_modulus_refusals_name_the_flag(capsys):
    # a flag the kind does not read, and an empty --modulus, were once ignored
    for argv, named in (
        (["density", "upper-no", "--q", "2", "--terms", "3"], "does not take --terms"),
        (["density", "lower", "--q", "2", "--terms", "3"], "does not take --terms"),
        (["factor", "--q", "2", "--modulus", "", "x+1"], "--modulus ''"),
    ):
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (2, "") and named in err


@pytest.mark.parametrize(
    "argv, text, prog, named",
    [
        (["density", "upper-no", "--q", "2", "--terms", "3"], None, "gpfq density", "does not take --terms"),
        (["density", "greedy", "--q", "6"], None, "gpfq density", "--q 6 is not a prime power"),
        (["checkpoint", "--q", "1", "--k", "2"], None, "gpfq checkpoint", "--q 1"),
        (["factor", "--q", "2", "--modulus", "", "x+1"], None, "gpfq factor", "--modulus ''"),
        (["factor", "--q", "2", "x^^2"], None, "gpfq factor", "bad polynomial"),
        (["progcheck", "--q", "2", "--file", "{tmp}/f.txt"], b"x+1\n\xff\n", "gpfq progcheck", "cannot read"),
        (["progcheck", "--q", "2", "--file", "{tmp}/missing.txt"], None, "gpfq progcheck", "cannot read"),
    ],
)
def test_handler_usage_errors_show_the_subcommand_usage(capsys, tmp_path, argv, text, prog, named):
    # a usage error a handler finds names its own subcommand, as argparse's own errors do;
    # `text`, if given, is written to {tmp}/f.txt first
    if text is not None:
        (tmp_path / "f.txt").write_bytes(text)
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"usage: {prog} [-h] ") and f"\n{prog}: error: " in err and named in err
    with mock.patch.object(cli, "_parse", lambda argv: None):  # the same error where argparse parsed argv
        assert invoke(capsys, *argv) == (code, out, err)


_SUBCOMMANDS = {
    "density": "certified density and bound values",
    "tables": "verify the published tables cell by cell",
    "figure1": "density against q as CSV",
    "checkpoint": "exact checkpoint density at N_k",
    "empirical": "exact finite-stage greedy density",
    "rn": "least endpoints r_n for AP-free subsets",
    "factor": "factor a polynomial over F_q",
    "greedy": "greedy progression-free set operations",
    "progcheck": "search a polynomial list for a progression",
    "extremal": "exact maximum progression-free subset",
}
_Q = (["--q"], True, None, None, "field order, a prime power")
_MODULUS = (["--modulus"], False, None, None, "comma-separated modulus coefficients, constant first")
_MAX_DEGREE = (["--max-degree"], True, None, None, None)
_JSON = (["--json"], False, False, None, None)
# per parser level after -h: (option strings, required, default, choices, help) of each
# action; a subparsers action's choices are {name: help}
_PARSER_LEVELS = {
    "gpfq": [([], True, None, _SUBCOMMANDS, None)],
    "gpfq density": [
        ([], True, None, ["greedy", "lower", "upper-simple", "upper-no"], None),
        _Q,
        (["--digits"], False, 6, None, None),
        (["--terms"], False, None, None, "finite progression families for upper-simple"),
        _JSON,
    ],
    "gpfq tables": [(["--which"], True, None, [1, 2, 3], None), _JSON],
    "gpfq figure1": [(["--qmax"], False, 130, None, None)],
    "gpfq checkpoint": [_Q, (["--k"], True, None, None, None), _JSON],
    "gpfq empirical": [_Q, _MAX_DEGREE, _JSON],
    "gpfq rn": [(["--n"], True, None, None, None), _JSON],
    "gpfq factor": [
        _Q,
        _MODULUS,
        ([], True, None, None, "polynomial text, e.g. 'x^3+x+1'"),
        _JSON,
    ],
    "gpfq greedy": [
        ([], True, None, {
            "check": "brute-force construction vs characterization",
            "enumerate": "list greedy-set members",
        }, None),
    ],
    "gpfq greedy check": [_Q, _MODULUS, _MAX_DEGREE, _JSON],
    "gpfq greedy enumerate": [_Q, _MODULUS, _MAX_DEGREE, (["--counts-only"], False, False, None, None), _JSON],
    "gpfq progcheck": [
        _Q,
        _MODULUS,
        (["--file"], True, None, None, "one polynomial text per line"),
        (["--unit-tolerant"], False, False, None, None),
        _JSON,
    ],
    "gpfq extremal": [
        _Q,
        _MODULUS,
        _MAX_DEGREE,
        (["--budget"], False, 1023, None, "vertex budget (default %(default)s)"),
        _JSON,
    ],
}


def _parser_levels(parser):
    """{prog: [pinned fields of each action]} over the parser and every subparser below it."""
    rows = []
    levels = {parser.prog: rows}
    for action in parser._actions:
        choices = action.choices
        if isinstance(action, argparse._SubParsersAction):
            choices = {choice.dest: choice.help for choice in action._choices_actions}
            for sub in action.choices.values():
                levels.update(_parser_levels(sub))
        elif choices is not None:
            choices = list(choices)
        rows.append((action.option_strings, action.required, action.default, choices, action.help))
    return levels


def test_parser_actions_are_pinned():
    # the fields each parser level's actions are built with, not the rendered --help
    help_row = (["-h", "--help"], False, argparse.SUPPRESS, None, "show this help message and exit")
    assert _parser_levels(build_parser()) == {prog: [help_row, *rows] for prog, rows in _PARSER_LEVELS.items()}


def _parsers_built(argv):
    """(run(argv)'s exit code, or at argv [] build_parser()'s prog, and the ArgumentParsers built)."""
    init = argparse.ArgumentParser.__init__
    calls = []
    with mock.patch.object(argparse.ArgumentParser, "__init__", lambda *a, **kw: calls.append(1) or init(*a, **kw)):
        done = run(argv) if argv else build_parser().prog
    return done, len(calls)


@pytest.mark.parametrize(
    "argv, built",
    [([], 1), (["rn", "--n", "3"], 0), (["greedy", "check", "--q", "2", "--max-degree", "3"], 0)],
)
def test_one_parser_per_command_path(capsys, argv, built):
    # a well-formed run is parsed from the command table and builds no parser; build_parser()
    # (argv []) builds only the top one
    assert _parsers_built(argv) == (0 if argv else "gpfq", built)


@pytest.mark.parametrize(
    "argv, built",
    [
        (["rn", "--n", "0"], 2),
        (["greedy", "check", "--q", "2"], 3),
        (["greedy", "check", "--help"], 3),
        (["density", "greedy", "--q", "6"], 1),  # the handler's error builds its subcommand's parser alone
    ],
)
def test_usage_errors_build_the_parsers_on_their_path(capsys, argv, built):
    # argparse builds the parsers on the path it dispatches along, not all 13
    assert _parsers_built(argv) == (0 if "--help" in argv else 2, built)


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["--help"], "831f894fef551dde"),
        (["density", "--help"], "96c542cde240b872"),
        (["tables", "--help"], "56b0fed8ef4b913d"),
        (["figure1", "--help"], "b0cba45ff8f6a8f2"),
        (["checkpoint", "--help"], "f7763fa13ec7172e"),
        (["empirical", "--help"], "480f79ecad6338c3"),
        (["rn", "--help"], "116aa54b739241e5"),
        (["factor", "--help"], "48e7ac317f0cedd2"),
        (["greedy", "--help"], "11273b6f63f6ad7a"),
        (["greedy", "check", "--help"], "546c5fb5ba6797af"),
        (["greedy", "enumerate", "--help"], "0d280d4dd0df536a"),
        (["progcheck", "--help"], "e4aa3e59803f38cc"),
        (["extremal", "--help"], "206bda79a9e5b9cf"),
        (["bogus"], "a4c85a6987f586ad"),
        (["density", "greedy", "--q", "2", "extra"], "f3cd6849491d2899"),
    ],
)
def test_help_and_usage_errors_pinned(capsys, monkeypatch, argv, digest):
    # sha256 prefixes of --help (stdout, exit 0) or of the usage error (stderr,
    # exit 2) when every parser was built up front, at 80 columns
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = invoke(capsys, *argv)
    shown, quiet = (out, err) if code == 0 else (err, out)
    assert code == (0 if "--help" in argv else 2) and quiet == ""
    assert hashlib.sha256(shown.encode()).hexdigest()[:16] == digest


def _readme_cli_lines():
    """(argv, comment) of each `gpfq ...` line of the sh block under README's `## CLI`,
    the argv cut at a `>` redirection."""
    section = (Path(__file__).resolve().parent.parent / "README.md").read_text().split("\n## CLI\n")[1]
    rows = []
    for line in section.split("```sh\n")[1].split("```")[0].splitlines():
        command, _, comment = line.partition("#")
        argv = shlex.split(command)
        assert argv[0] == "gpfq", line
        rows.append((argv[1:argv.index(">")] if ">" in argv else argv[1:], comment.strip()))
    return rows


def test_readme_cli_example(capsys):
    # every example line parses, and each one whose comment is a value prints exactly that value
    parser = build_parser()
    values = []
    for argv, comment in _readme_cli_lines():
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"usage error: {shlex.join(argv)}")
        if re.fullmatch(r"[\d x()^*+/.]+", comment):
            values.append((argv, comment))
    assert len(values) == 8
    for argv, comment in values:
        assert invoke(capsys, *argv)[:2] == (0, comment + "\n"), argv


_COMPILE_PROBE = """
import sys
from importlib._bootstrap_external import SourceLoader

compiled, source_to_code = {}, SourceLoader.source_to_code


def counted(self, data, path, *args, **kwargs):
    if path.startswith(PACKAGE):
        compiled[path] = len(data)
    return source_to_code(self, data, path, *args, **kwargs)


SourceLoader.source_to_code = counted
from gpfq import cli

code = cli.run(sys.argv[1:])
print(code, round(sum(compiled.values()) / 1024, 1))
"""


def _readme_compiled_source_rows():
    """(argv, KiB) of each row of README's table of the package source a cold run compiles."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    table = readme.split("| command | compiled source |\n|---|---|\n")[1].split("\n\n")[0]
    rows = []
    for line in table.splitlines():
        command, size = re.fullmatch(r"\| `gpfq ([^`]+)` \| ([\d.]+) KiB \|", line).groups()
        rows.append((shlex.split(command), size))
    return rows


def test_readme_compiled_source_table(tmp_path):
    # each row's command, run cold with bytecode neither read nor written, compiles the package
    # source the table states: the sum of what SourceLoader.source_to_code is handed from src/gpfq
    rows = _readme_compiled_source_rows()
    assert len(rows) == 10
    (tmp_path / "members.txt").write_text("1\nx+1\nx\nx^2\n")
    package = str(Path(__file__).resolve().parent.parent / "src" / "gpfq")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPYCACHEPREFIX": str(tmp_path / "pycache")}  # an empty cache: every module compiles
    measured = []
    for argv, size in rows:
        proc = subprocess.run([sys.executable, "-c", f"PACKAGE = {package!r}" + _COMPILE_PROBE, *argv], cwd=tmp_path,
                              capture_output=True, text=True, timeout=60, env=env)
        measured.append((argv, proc.stdout.splitlines()[-1]))
    assert measured == [(argv, f"0 {size}") for argv, size in rows]


def test_closed_pipe_ends_without_traceback():
    # the reader closes the pipe after one line of a 1.5 MB listing: exit 1, nothing on stderr
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    argv = [sys.executable, "-m", "gpfq.cli", "greedy", "enumerate", "--q", "16", "--max-degree", "3"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline() == b"[1]\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=30) == 1
    assert err == b""  # no traceback


def _buffered_env():
    """The environment for a child whose stdout to a pipe is block-buffered, as a user's is, so that
    os._exit without a flush would lose it."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    return {**env, "PYTHONPATH": os.pathsep.join(sys.path)}


@pytest.mark.parametrize(
    "argv, code",
    [
        (["rn", "--n", "5"], 0),
        (["extremal", "--q", "2", "--max-degree", "3", "--budget", "5"], 1),  # BudgetExceeded: an `error:` line
        (["density", "greedy", "--q", "6"], 2),  # usage text on stderr
        (["greedy", "enumerate", "--q", "16", "--max-degree", "3"], 0),  # a 1.5 MB listing, which must arrive whole
    ],
)
def test_module_run_matches_run_in_process(capsys, argv, code):
    # `main` ends the process with os._exit after flushing: what reaches the pipes, and the exit code, are what
    # cli.run gives in process
    env = _buffered_env()
    proc = subprocess.run([sys.executable, "-m", "gpfq.cli", *argv], capture_output=True, text=True, timeout=60,
                          env=env)
    assert invoke(capsys, *argv) == (proc.returncode, proc.stdout, proc.stderr)
    assert proc.returncode == code and (proc.stdout if code == 0 else proc.stderr)


def test_main_runs_atexit_handlers():
    # a handler registered before main (as coverage registers one) runs before os._exit, and what it prints
    # arrives after the command's own output
    env = _buffered_env()
    script = ("import atexit, sys\n"
              "atexit.register(print, 'handler ran')\n"
              "atexit.register(print, 'handler ran', file=sys.stderr)\n"
              "sys.argv = ['gpfq', 'rn', '--n', '5']\n"
              "from gpfq import cli\n"
              "cli.main()\n"
              "print('not reached')\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=30, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1 2 4 5 9\nhandler ran\n", "handler ran\n")


@pytest.mark.parametrize(
    "q, max_degree, digest",
    [
        (2, 6, "1e09ebe0f7365e86"),
        (5, 2, "b7fa939136dad5dc"),
        (3, 3, "bbeb97ecc1f53528"),
        (4, 2, "75c983b0b1f8d1b4"),
        (2, 5, "4fd50b0ceffbd611"),
        (9, 1, "933ec869411489cc"),
    ],
)
def test_extremal_stdout_pinned(capsys, q, max_degree, digest):
    # sha256 prefixes of the stdout of the earlier solver (a minimum hitting set
    # re-solved once per vertex to force the canonically least witness)
    argv = ["extremal", "--q", str(q), "--max-degree", str(max_degree), "--budget", "200"]
    code, out, _ = invoke(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


def _factor_text(q, degree, spread, seed):
    """Text of a random polynomial g(x^spread) with deg g = degree // spread;
    spread = p makes it a p-th power."""
    rng = random.Random(seed)
    n = degree // spread
    codes = [rng.randrange(q) for _ in range(n)] + [rng.randrange(1, q)]
    terms = [f"{c}*x^{i * spread}" if i else str(c) for i, c in enumerate(codes) if c]
    return "+".join(reversed(terms))


@pytest.mark.parametrize(
    "q, degree, spread, digest",
    [
        (2, 200, 1, "02acf047eb0a6c0f"),
        (2, 192, 2, "0fae0fd677916ef4"),
        (3, 100, 1, "124f023230775374"),
        (3, 99, 3, "34321f31807eb08b"),
        (7, 60, 1, "bd7706a2a254e47f"),
        (512, 12, 1, "cc24a090c60b783f"),
        (243, 15, 3, "d3f7fb80863372ef"),
        (256, 16, 2, "4795f6fae2f4a5fc"),
        (4096, 8, 1, "7e6b1614b381e2bc"),
    ],
)
def test_factor_stdout_pinned(capsys, q, degree, spread, digest):
    # sha256 prefixes of the stdout of the per-coefficient polynomial arithmetic
    # (q x q tables up to GF(256), digit products above), before log tables
    code, out, _ = invoke(capsys, "factor", "--q", str(q), _factor_text(q, degree, spread, degree))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


@pytest.mark.parametrize(
    "q, max_degree, digest, json_digest",
    [
        (2, 10, "686d6fa8cced8b9c", "e9a31d7a86581d55"),
        (3, 6, "2b6240db144f94d7", "d59024761f5aa63f"),
        (4, 5, "f34ce0ae141b39ea", "462688928fe03eb5"),
        (5, 4, "3ff937d366203361", "e3537a570641ff61"),
        (64, 2, "190445d14d5ef848", "f27681b77da01539"),
        (1024, 1, "7051d79da797c604", "84a262dda4af52f2"),
        (8192, 0, "41e0cfe3a3a97b53", "f3702f1458e40ab8"),  # above the log tables
    ],
)
def test_greedy_check_stdout_pinned(capsys, q, max_degree, digest, json_digest):
    # sha256 prefixes of the stdout of the division-based greedy construction
    # and two progression searches per check; the last three rows from the
    # construction over every polynomial as a set of Poly
    argv = ["greedy", "check", "--q", str(q), "--max-degree", str(max_degree)]
    for flags, want in (((), digest), (("--json",), json_digest)):
        code, out, _ = invoke(capsys, *argv, *flags)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == want


@pytest.mark.parametrize(
    "q, max_degree, digest, json_digest",
    [
        (2, 8, "53fe48e879f8aedc", "2368cd7144cd778f"),
        (3, 5, "df314186ee99693f", "b86ef8d222ee2ced"),
        (4, 4, "61504bfe834e12c7", "5ef210f4890656b3"),
    ],
)
def test_greedy_enumerate_stdout_pinned(capsys, q, max_degree, digest, json_digest):
    # sha256 prefixes of the member listing that factored every polynomial
    argv = ["greedy", "enumerate", "--q", str(q), "--max-degree", str(max_degree)]
    for flags, want in (((), digest), (("--json",), json_digest)):
        code, out, _ = invoke(capsys, *argv, *flags)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == want


@pytest.mark.parametrize(
    "texts, witness",
    [
        (["1", "x", "x^2"], "base=1 ratio=x"),
        # the canonically least base of the progression's class is 2*(x+2)
        (["x+2", "x^2+2", "x^3+x^2+2*x+2"], "base=2*x+1 ratio=x+1"),
    ],
)
def test_greedy_check_reports_progression(capsys, schema, monkeypatch, texts, witness):
    # a planted monic construction: its unit multiples are listed, counted and searched
    spec = make_field(3)
    planted = [parse_poly(spec, t) for t in texts]
    pack = _packer(spec, 4)[0]  # the packed form of greedy check at --max-degree 3
    monkeypatch.setattr(greedy, "_greedy_construct", lambda *_: [pack(f.coeffs) for f in planted])
    extra = [format_poly(f) for f in sorted(Poly(spec, (u,)) * f for f in planted if not greedy_member(f) for u in (1, 2))]
    code, out, _ = invoke(capsys, "greedy", "check", "--q", "3", "--max-degree", "3")
    assert code == 1
    assert [line.split(": ")[1] for line in out.splitlines() if line.startswith("constructed but not")] == extra
    assert out.splitlines()[-1] == f"progression found: {witness}"
    code, obj = invoke_json(capsys, schema, "greedy", "check", "--q", "3", "--max-degree", "3", "--json")
    assert code == 1 and obj["ok"] is False and obj["members"] == 2 * len(texts)
    assert obj["extra"] == extra


def _planted_lines():
    """30 seeded GF(3) polynomials of degree <= 5 with a strict progression
    (x+2, x^2+2, x^3+x^2+2*x+2) and one complete only up to units (1, x,
    2*x^2) planted among them, shuffled."""
    rng = random.Random(2015)
    codes = [rng.randrange(1, 3**6) for _ in range(30)]
    lines = ["+".join(f"{c}*x^{i}" for i, c in enumerate(_ternary(n)) if c) for n in codes]
    lines += ["x+2", "x^2+2", "x^3+x^2+2*x+2", "1", "x", "2*x^2"]
    rng.shuffle(lines)
    return lines


def _ternary(n):
    digits = []
    while n:
        n, d = divmod(n, 3)
        digits.append(d)
    return digits


@pytest.mark.parametrize(
    "flags, digest",
    [
        ((), "9a7c1a814b3bc982"),
        (("--json",), "aef918a054fcb839"),
        (("--unit-tolerant",), "4b6d9d750b3cc780"),
        (("--unit-tolerant", "--json"), "26981692121632df"),
    ],
)
def test_progcheck_stdout_pinned(capsys, tmp_path, flags, digest):
    # sha256 prefixes of the stdout of the progression search on Poly values
    path = tmp_path / "planted.txt"
    path.write_text("\n".join(_planted_lines()) + "\n")
    code, out, _ = invoke(capsys, "progcheck", "--q", "3", "--file", str(path), *flags)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


def test_extremal_many_vertices_no_recursion(capsys):
    # 1030 vertices and no progression: the include-first path is 1030 deep
    code, out, _ = invoke(capsys, "extremal", "--q", "1031", "--max-degree", "0", "--budget", "2000")
    assert code == 0
    assert out.splitlines()[0] == "size=1030"


def _run_cli(*argv):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    return subprocess.run(
        [sys.executable, "-m", "gpfq.cli", *argv], capture_output=True, text=True, timeout=10, env=env,
    )


_X128_FACTORS = (  # the last line of `factor --q 2305843009213693951 x^128+x+1`
    "1 * (x+636260618972345636) * (x+1016634111715272649) * (x+1669582390241348316) * (x^3+"
    "1019173128636244942*x^2+236054174946168096*x+1765897767956323268) * (x^4+"
    "1033809242659444958*x^3+944609742504693161*x^2+1286668962108071434*x+514976156579066065) * (x^4+"
    "876318852675929943*x^3+1433390080493248985*x^2+240554210833938275*x+1030418013474571159) * (x^9+"
    "1168825194697142319*x^8+43997433919425365*x^7+494082761828169562*x^6+606869409619018065*x^5+"
    "56312414642979829*x^4+1540840658764953554*x^3+1195758070137548791*x^2+572597810585068980*x+"
    "1427167159757470025) * (x^23+588464932000118202*x^22+935806896597722509*x^21+"
    "1919712767074385344*x^20+905596135974140320*x^19+2076635188671331768*x^18+"
    "2293523905138473780*x^17+1560268781587632469*x^16+96206021072435155*x^15+"
    "858972748036625887*x^14+412475993964015443*x^13+1687257832711537099*x^12+"
    "1920331912071442745*x^11+1646538391246270914*x^10+50574968998802045*x^9+1282233860924036330*x^8+"
    "1503999151732697976*x^7+727192190341802421*x^6+1110693260388528310*x^5+1042523613355149059*x^4+"
    "2230792126752756264*x^3+2046473530980610888*x^2+684766130936881410*x+894518076858842095) * "
    "(x^82+1214303565256928839*x^81+1119115131459602366*x^80+169807116054953846*x^79+"
    "871394499930434959*x^78+593675579616430941*x^77+616296397254114038*x^76+"
    "1803987652057069121*x^75+1939619004148504233*x^74+2071510972416090020*x^73+"
    "1170744682094869908*x^72+1365751554040842458*x^71+959980754507066673*x^70+"
    "677637614821226318*x^69+1692710494800090336*x^68+219784625616697755*x^67+"
    "1647945861453435523*x^66+1760177913393521558*x^65+402196712084165097*x^64+"
    "27657061883808401*x^63+1708544256546537043*x^62+659143776997546147*x^61+"
    "1200025222341675151*x^60+331917371769952591*x^59+1555752533811930635*x^58+"
    "1062004076383268953*x^57+182960847421276756*x^56+1305570151130341069*x^55+"
    "1220830616812481287*x^54+753079493892249693*x^53+2075520339286920847*x^52+"
    "1393787218911534650*x^51+672593771418556789*x^50+1493930240532813483*x^49+"
    "583896733382212694*x^48+324086651192028844*x^47+858898573919833442*x^46+859110491850137937*x^45+"
    "178702820225816074*x^44+636392985103522354*x^43+1693441302381716909*x^42+91894694002286065*x^41+"
    "251603085646404271*x^40+1805816541404386277*x^39+674020561472052868*x^38+"
    "454573195982434775*x^37+809351482608291222*x^36+508756222239093439*x^35+156004511478822354*x^34+"
    "100920387011075230*x^33+255016084397384606*x^32+446525906158081823*x^31+"
    "1284486728286140633*x^30+1806061723543885439*x^29+734127127349648675*x^28+"
    "1867535334243684651*x^27+1365524170677370830*x^26+1901354007193597710*x^25+"
    "331180770972400907*x^24+624415033414829803*x^23+827312725680938721*x^22+759174040158011692*x^21+"
    "1037109978005331004*x^20+145874427873506962*x^19+340562655570138402*x^18+"
    "133066884066194444*x^17+1911489492798242944*x^16+2209175683488189758*x^15+"
    "1265504442329455419*x^14+32433175307154708*x^13+1908824484395098696*x^12+"
    "940744608903632174*x^11+2225601579710736556*x^10+1376300018809564328*x^9+"
    "2074253503121274708*x^8+207208178533519746*x^7+1465346964524556827*x^6+679430780676724583*x^5+"
    "502037951318035313*x^4+70830828066786429*x^3+882328891317826406*x^2+2143393965343945789*x+"
    "722937954510623888)"
)


@pytest.mark.parametrize(
    "argv, code",
    [
        (["extremal", "--q", "2", "--max-degree", "26"], 1),
        (["empirical", "--q", "3", "--max-degree", "30000000"], 1),
        (["greedy", "check", "--q", "3", "--max-degree", "30000000"], 1),
        (["greedy", "enumerate", "--q", "2", "--max-degree", "40", "--counts-only"], 0),
        (["density", "upper-simple", "--q", "2", "--terms", "1000000000"], 1),
        (["density", "upper-simple", "--q", "2", "--terms", "100000"], 0),
        (["factor", "--q", "2305843009213693951", "x+1"], 0),
        (["factor", "--q", str(2**89 - 1), "x+1"], 2),
        (["factor", "--q", "18446744073709551616", "x+1"], 0),
        (["rn", "--n", "18"], 0),
        (["density", "upper-no", "--q", "2", "--digits", "15"], 0),
        (["extremal", "--q", "2", "--max-degree", "10", "--budget", "1000"], 1),
        (["factor", "--q", str(3**300), "x+1"], 1),
        (["greedy", "enumerate", "--q", "2", "--max-degree", "1000000000", "--counts-only"], 1),
        (["figure1", "--qmax", "100000"], 1),
        (["rn", "--n", "23"], 1),
        (["greedy", "enumerate", "--q", str(3**300), "--max-degree", "1", "--counts-only"], 0),
        (["factor", "--q", "2", f"x^{MAX_TEXT_DEGREE + 1}"], 2),
        (["factor", "--q", "2", "x^" + "1" * 100_000], 2),
        (["factor", "--q", "2", f"x^{MAX_TEXT_DEGREE}+x+1"], 1),
        (["factor", "--q", "2", f"x^{MAX_TEXT_DEGREE}+1"], 0),
        (["factor", "--q", "3", f"x^{MAX_TEXT_DEGREE}+x+1"], 1),
        (["factor", "--q", "2305843009213693951", "x^128+x+1"], 0),
        (["extremal", "--q", "2", "--max-degree", "16", "--budget", "131071"], 2),
        (["extremal", "--q", "1024", "--max-degree", "1", "--budget", "1048575"], 2),
        (["extremal", "--q", "64", "--max-degree", "1", "--budget", "4095"], 0),
    ],
)
def test_large_arguments_end_at_once(argv, code):
    # each of these once enumerated, summed, trial-divided or searched (for a modulus,
    # for r_n, for a largest progression-free set or over prime powers) for seconds to minutes
    proc = _run_cli(*argv)
    assert proc.returncode == code, proc.stderr[-300:]
    assert "Traceback" not in proc.stderr and len(proc.stderr) < 300
    if code == 1:
        assert proc.stderr.startswith("error:") and "budget" in proc.stderr
    if code == 0 and argv[0] == "extremal":  # no progression among the 4095 of degree <= 1
        assert proc.stdout.splitlines()[0] == "size=4095"
    elif code == 0:
        *head, last = proc.stdout.splitlines()
        assert len(head) == (int(argv[argv.index("--max-degree") + 1]) if "--counts-only" in argv else 0)
        assert last in (
            "0.857143",
            "1 * (x+1)",
            "1 * (x+[1])",
            "1 2 4 5 9 11 13 14 20 24 26 30 32 36 40 41 51 54",
            "0.846375541078942",
            "40 712880545712",
            f"1 {(3**300 - 1) * 3**300}",  # every polynomial of degree 1
            f"1 * (x+1)^{MAX_TEXT_DEGREE}",
            "".join(_X128_FACTORS),
        )


_LAYERS = ("cli", "tables", "density", "rn", "greedy", "progsearch", "progfree", "factor", "polytext", "polydiv",
           "polyring", "numeric", "extfield", "ff", "intarith")
_STARTUP_PROBE = f"""
import sys, types
before = set(sys.modules)
from gpfq import cli
code = cli.run(sys.argv[1:])
print(code, file=sys.stderr)
print(*(m for m in ("fractions", "decimal", "dataclasses", "inspect", "json", "argparse", "gettext", "locale")
        if m in sys.modules and m not in before),
      file=sys.stderr)
print(*(m for m in {_LAYERS!r} if "gpfq." + m in sys.modules), file=sys.stderr)
print(*(m for m in {_LAYERS!r} if type(sys.modules.get("gpfq." + m)) is types.ModuleType), file=sys.stderr)
print(*sorted(m.rpartition(".")[2] for m in sys.modules if m.startswith("gpfq.commands.")), file=sys.stderr)
"""


def _startup_probe(*argv):
    """(stderr lines, stdout) of one cold run of _STARTUP_PROBE."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run(
        [sys.executable, "-c", _STARTUP_PROBE, *argv], capture_output=True, text=True, timeout=30, env=env,
    )
    return proc.stderr.splitlines(), proc.stdout


@pytest.mark.parametrize("json_flag, heavy", [([], ""), (["--json"], "json")])
def test_startup_imports(json_flag, heavy):
    # a cold run loads neither dataclasses nor inspect, and json only under --json;
    # a certified value is computed on integer pairs, so not fractions or decimal either. Every layer module is
    # in sys.modules from `import gpfq` on, which per-layer tracing of a cold run
    # relies on, but only the layers the subcommand calls have run: one that has
    # not is a lazily loaded module, not a plain ModuleType. Only upper-no runs rn.
    # Of the command modules, only density's is loaded
    err, out = _startup_probe("density", "greedy", "--q", "2", "--digits", "6", *json_flag)
    assert err == ["0", heavy, " ".join(_LAYERS), "cli density numeric intarith",
                   "density_cmd"]
    assert "0.648361" in out


@pytest.mark.parametrize(
    "argv, ran, out",
    [
        # factoring over GF(4) parses, builds GF(4) (searching its modulus) and divides, but runs no number
        # layer and no greedy build
        (["factor", "--q", "4", "x^3+1"], "cli factor polytext polydiv polyring extfield ff intarith",
         "1 * (x+[1]) * (x+[2]) * (x+[3])\n"),
        # the extremal search over a prime field factors, divides and parses nothing, and checks no given set
        (["extremal", "--q", "2", "--max-degree", "6"], "cli progfree polyring ff intarith", "size=108\nwitness: x^2, "),
        # over GF(2) no extension field is built
        (["factor", "--q", "2", "x^3+1"], "cli factor polytext polydiv polyring ff intarith", "1 * (x+1) * (x^2+x+1)\n"),
        # the greedy builds and their check divide and parse nothing
        (["greedy", "check", "--q", "3", "--max-degree", "3"], "cli greedy progsearch progfree polyring ff intarith",
         "ok: 62 members up to degree 3 match the exponent characterization; no progression found\n"),
        # a progression check parses its file's terms, and divides nothing
        (["progcheck", "--q", "2", "--file", "FILE"], "cli progsearch progfree polytext polyring ff intarith",
         "progression: base=1 ratio=x members=[1, x, x^2]\n"),
        # a listing counts no members (density's Euler product), which only its --json object holds, and
        # searches no progression
        (["greedy", "enumerate", "--q", "2", "--max-degree", "4"], "cli greedy progfree polyring ff intarith",
         "1\nx\nx+1\nx^2+x\n"),
        # counts alone build no field and no polynomial: the Euler product is integer only
        (["greedy", "enumerate", "--q", "2", "--max-degree", "4", "--counts-only"], "cli density numeric intarith",
         "0 1\n1 2\n2 2\n3 6\n4 12\n"),
    ],
)
def test_startup_imports_polynomial_commands(tmp_path, argv, ran, out):
    (tmp_path / "members.txt").write_text("1\nx+1\nx\nx^2\n")
    err, stdout = _startup_probe(*(str(tmp_path / "members.txt") if arg == "FILE" else arg for arg in argv))
    command = "_".join(arg for arg in argv[:2] if not arg.startswith("-")) + "_cmd"
    assert err == ["0", "", " ".join(_LAYERS), ran, command] and stdout.startswith(out)


@pytest.mark.parametrize(
    "argv, loaded, ran, out",
    [
        # the r_n search is integer only: no density, no rationals, not even the prime-power test
        (["rn", "--n", "5"], "", "cli rn", "1 2 4 5 9\n"),
        # the sharper upper bound sums q^-r_n over one denominator q^(r_N), on rn's table
        (["density", "upper-no", "--q", "2", "--digits", "6"], "", "cli density rn numeric intarith",
         "0.846376\n"),
        # exact values print from integer pairs, reduced as str(Fraction) writes them
        (["checkpoint", "--q", "2", "--k", "3"], "", "cli density numeric intarith", "13851/16384\n"),
        (["empirical", "--q", "2", "--max-degree", "5"], "", "cli density numeric intarith", "43/64\n"),
        (["figure1", "--qmax", "5"], "", "cli density numeric intarith", "q,density\n2,0.648361\n3,0.747027\n"
         "4,0.799231\n5,0.833069\n"),
        (["tables", "--which", "1"], "", "cli tables density numeric intarith",
         "".join(f"q={q} greedy expected={v} computed={v} PASS\n" for q, v in [
             (2, "0.648361"), (3, "0.747027"), (4, "0.799231"), (5, "0.833069"), (7, "0.874948"), (8, "0.888862"),
             (9, "0.899985"), (25, "0.961538"), (27, "0.964286"), (49, "0.980000"), (125, "0.992063"),
             (343, "0.997093")]) + "12/12 cells PASS\n"),
        # the simple upper bound's report value is an exact Fraction, the one density kind that loads fractions
        (["density", "upper-simple", "--q", "5", "--digits", "9"], "fractions decimal", "cli density numeric intarith",
         "0.967741935\n"),
    ],
)
def test_startup_imports_number_commands(argv, loaded, ran, out):
    err, stdout = _startup_probe(*argv)
    err = [line for line in err if not re.fullmatch(r"table \d verified in [\d.]+s", line)]  # tables' timing line
    assert (err, stdout) == (["0", loaded, " ".join(_LAYERS), ran, f"{argv[0]}_cmd"], out)


def test_library_values_stay_fractions():
    # the CLI computes on integer pairs; every public value that was a Fraction still is one
    values = [gpfq.checkpoint_density(2, 3), gpfq.empirical_greedy_density(2, 5), gpfq.upper_bound_simple(5),
              gpfq.upper_bound_simple(5, 2), gpfq.exp_upper(Fraction(1, 3)), gpfq.round_half_away(Fraction(1, 3), 2),
              gpfq.Interval("1/3", 1).lo, gpfq.Interval(0, 1).hi, gpfq.Interval(0, 1).width,
              gpfq.density.certify("upper_simple", 5, 9).value]
    assert [type(v) for v in values] == [Fraction] * len(values)
    assert values[:2] == [Fraction(13851, 16384), Fraction(43, 64)]


def test_startup_imports_argparse_for_a_usage_error():
    # a well-formed run loads none of argparse, gettext and locale (the rows above); a handler's
    # usage error reports through argparse, which loads all three, and its parser's rows come
    # from the one command module already loaded
    err, out = _startup_probe("density", "greedy", "--q", "6")
    assert err[0].startswith("usage: gpfq density [-h] ") and out == ""
    assert err[-5:] == ["2", "argparse gettext locale", " ".join(_LAYERS), "cli intarith", "density_cmd"]


def test_top_level_help_and_parser_load_no_command():
    # `gpfq -h` and build_parser() read only the command table's help texts
    err, out = _startup_probe("-h")
    assert err[-1:] == [""] and out.startswith("usage: gpfq [-h]")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    probe = "import sys; from gpfq import cli; cli.build_parser(); print([m for m in sys.modules if m.startswith('gpfq.commands')])"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=30, env=env)
    assert proc.stdout == "[]\n"


def test_module_run_compiles_cli_once():
    # under `python -m gpfq.cli` the running module is __main__; the command module that
    # imports gpfq.cli gets that module, not a second import of cli.py
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "gpfq.cli", "rn", "--n", "5"],
                          capture_output=True, text=True, timeout=30, env=env)
    imported = [line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()]
    assert proc.stdout == "1 2 4 5 9\n"
    assert "gpfq.commands.rn_cmd" in imported and "gpfq.cli" not in imported


_FUZZ_COMMANDS = {  # subcommand: (the flags it requires, the flags it takes besides)
    "": ("", "--help"),
    "nonsense": ("", "--json"),
    "density greedy": ("--q", "--digits --json"),
    "density lower": ("--q", "--digits --json"),
    "density upper-simple": ("--q", "--digits --terms --json"),
    "density upper-no": ("--q", "--digits --json"),
    "density bogus": ("--q", "--digits"),
    "tables": ("--which", "--json"),
    "figure1": ("", "--qmax"),
    "checkpoint": ("--q --k", "--json"),
    "empirical": ("--q --max-degree", "--json"),
    "rn": ("--n", "--json"),
    "factor": ("--q", "--modulus --json"),
    "greedy": ("--q", "--max-degree"),
    "greedy check": ("--q --max-degree", "--modulus --json"),
    "greedy enumerate": ("--q --max-degree", "--modulus --counts-only --json"),
    "progcheck": ("--q --file", "--modulus --unit-tolerant --json"),
    "extremal": ("--q --max-degree", "--modulus --budget --json"),
}
_FUZZ_INTS = st.integers(-2, 6).map(str)
_FUZZ_VALUES = st.one_of(
    _FUZZ_INTS,
    st.sampled_from(["", "x", "x^2+1", "2*x+1", "1,0,1", "1,1", "abc", "1e3", "0x10", "2^2", "--", "-"]),
)


@st.composite
def _fuzz_argv(draw):
    """A subcommand, its required flags with small integers, then a few more tokens."""
    command = draw(st.sampled_from(sorted(_FUZZ_COMMANDS)))
    required, optional = (text.split() for text in _FUZZ_COMMANDS[command])
    argv = command.split()
    for flag in required:
        argv += [flag, draw(_FUZZ_INTS)]
    flags = st.sampled_from(optional + required + ["--q"])
    extra = st.one_of(st.tuples(flags, _FUZZ_VALUES), st.tuples(flags), st.tuples(_FUZZ_VALUES))
    return argv + [token for group in draw(st.lists(extra, max_size=3)) for token in group]


@settings(max_examples=300, deadline=None)
@given(argv=_fuzz_argv())
def test_cli_fuzz_exit_codes(argv):
    # any argv ends in exit 0, 1 or 2 with no exception
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()


def _vars(args):
    """vars() of a namespace, its `parser` left out, or None for no namespace."""
    return None if args is None else {key: value for key, value in vars(args).items() if key != "parser"}


def _argparse_reads(argv):
    """(vars of argparse's namespace for argv, or None on help or a usage error, its parser's prog)."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            args = build_parser().parse_args(argv)
        except SystemExit:
            return None, None
    return _vars(args), args.parser.prog


def _assert_table_parse_agrees(argv):
    """Where the command table's parse accepts argv, argparse gives the same namespace and
    subcommand prog; returns whether it accepted."""
    args = cli._parse(argv)
    if args is not None:
        assert (_vars(args), args.parser.prog) == _argparse_reads(argv), argv
    return args is not None


@settings(max_examples=300, deadline=None)
@given(argv=_fuzz_argv())
def test_table_parse_matches_argparse(argv):
    _assert_table_parse_agrees(argv)


@pytest.mark.parametrize(
    "argv, accepted",
    [
        (["-h"], False),
        (["density", "greedy", "--dig", "3", "--q", "2"], False),  # an abbreviation
        (["density", "greedy", "--q=2"], False),
        (["density", "greedy", "--q", "-4"], False),  # argparse reads -4 as a value
        (["factor", "--q", "2", "--", "x+1"], False),
        (["density", "greedy", "--q", "2", "--q", "3"], False),  # argparse keeps the last
        (["density", "--q", "2", "greedy"], True),
        (["factor", "x+1", "--q", "2", "--json"], True),
        (["factor", "--q", "2", "--modulus", "", "x"], True),
        (["greedy"], False),
        (["greedy check", "--q", "2", "--max-degree", "3"], False),  # a group's command is two words
        (["greedy", "enumerate", "--q", "2", "--max-degree", "3", "--counts-only"], True),
        (["figure1", "--json"], False),
        (["figure1"], True),
        (["extremal", "--q", "2", "--max-degree", "3", "--budget", "5000"], False),
        (["extremal", "--q", "2", "--max-degree", "3"], True),
        (["tables", "--which", "4"], False),
        (["density", "bogus", "--q", "2"], False),
        (["rn", "--n", "3", "4"], False),
        (["progcheck", "--q", "2"], False),
    ],
)
def test_table_parse_rows(argv, accepted):
    # the table parses only what it declares, and argparse reads the rest
    assert _assert_table_parse_agrees(argv) == accepted
