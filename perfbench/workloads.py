"""The four workloads: operation lists, seeded input files and output checks.

Each operation is one cold `python -m gpfq.cli ...` run. The seed orders the
operations and draws every generated input (factor polynomials, progcheck
files); the same seed gives byte-identical inputs. Inputs are built with
`refalg`, never with the package under test, so they cannot change when the
program does.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Callable, List

import reference as ref
from refalg import (
    Field,
    canonical_key,
    format_poly,
    poly_mul,
    poly_pow,
    random_irreducible,
    random_poly,
)

WORKLOADS = ("certify", "enumerate", "factor_large", "search")


@dataclass(frozen=True)
class Op:
    label: str
    argv: List[str]
    check: Callable[[str], None]


def _shuffled(ops, rng):
    ops = list(ops)
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# certify: numeric, density and tables layers; interpreter start-up dominates
# ---------------------------------------------------------------------------

#: Operations that exit 1 at the seed commit: str() of a Fraction with more
#: than 4300 digits. They are kept out of the timed passes, which must not
#: fail, and run in the traced pass, where they count in `failed_frac`.
CERTIFY_KNOWN_CRASHES = (
    ("greedy", 2, 24), ("greedy", 2, 40), ("lower", 2, 40),
    ("greedy", 3, 40), ("lower", 3, 40), ("checkpoint", 2, 10),
)


def _certify(seed, workdir):
    ops, probes = [], []
    for which in (1, 2, 3):
        ops.append(Op(f"tables {which}", ["tables", "--which", str(which)], ref.check_table(which)))
    ops.append(Op("figure1 130", ["figure1", "--qmax", "130"], ref.check_figure1(130)))
    for q in (2, 3, 5, 8, 27, 343):
        for digits in (12, 24, 40):
            for kind, column in (("greedy", "greedy"), ("lower", "lower_mq")):
                op = Op(f"density {kind} q={q} digits={digits}",
                        ["density", kind, "--q", str(q), "--digits", str(digits)],
                        ref.check_decimal(column, q, digits))
                (probes if (kind, q, digits) in CERTIFY_KNOWN_CRASHES else ops).append(op)
    for q, ks in ((2, range(6, 11)), (3, range(5, 9))):
        for k in ks:
            op = Op(f"checkpoint q={q} k={k}", ["checkpoint", "--q", str(q), "--k", str(k)],
                    ref.check_checkpoint(q, k))
            (probes if ("checkpoint", q, k) in CERTIFY_KNOWN_CRASHES else ops).append(op)
    for q in (2, 3, 4, 5, 7):
        ops.append(Op(f"density upper-no q={q}", ["density", "upper-no", "--q", str(q), "--digits", "9"],
                      ref.check_decimal("upper_no", q, 9)))
    return _shuffled(ops, random.Random(seed)), probes


# ---------------------------------------------------------------------------
# enumerate: many tiny polynomials, so per-coefficient ff calls and small
# polyring divisions dominate
# ---------------------------------------------------------------------------

def _write_lines(path, lines):
    with open(path, "w") as fh:
        fh.write("".join(line + "\n" for line in lines))


def _members_file(workdir, q, max_degree, rng):
    F = Field(q)
    members = ref.greedy_members(F, max_degree)
    rng.shuffle(members)
    path = os.path.join(workdir, f"members_q{q}_d{max_degree}.txt")
    _write_lines(path, [format_poly(F, list(m)) for m in members])

    def check(out):
        ref.expect(out.strip() == "progression-free", f"members q={q}: {out.strip()[:80]!r}")

    return path, check


def _planted_file(workdir, rng, q=3, count=300, max_degree=6):
    """Random polynomials plus one planted progression (base, r*base, r^2*base)."""
    F = Field(q)
    polys = {tuple(random_poly(F, rng.randrange(max_degree + 1), rng)) for _ in range(count)}
    base = random_poly(F, rng.randrange(3), rng)
    ratio = random_poly(F, rng.randrange(1, 3), rng)
    mid = poly_mul(F, base, ratio)
    for t in (base, mid, poly_mul(F, mid, ratio)):
        polys.add(tuple(t))
    polys = sorted(polys, key=canonical_key)
    rng.shuffle(polys)
    path = os.path.join(workdir, "planted.txt")
    _write_lines(path, [format_poly(F, list(p)) for p in polys])

    def check(out):
        ref.check_witness(F, polys, out)

    return path, check


def _enumerate(seed, workdir):
    rng = random.Random(seed)
    ops = []
    for q, d in ((2, 13), (3, 8), (4, 6)):
        ops.append(Op(f"empirical q={q} D={d}", ["empirical", "--q", str(q), "--max-degree", str(d)],
                      ref.check_empirical(q, d)))
    for q, d in ((2, 10), (3, 6)):
        ops.append(Op(f"greedy check q={q} D={d}",
                      ["greedy", "check", "--q", str(q), "--max-degree", str(d)],
                      ref.check_greedy_check(q, d)))
    ops.append(Op("greedy enumerate q=2 D=11",
                  ["greedy", "enumerate", "--q", "2", "--max-degree", "11", "--counts-only"],
                  ref.check_greedy_counts(2, 11)))
    for q, d in ((2, 13), (4, 6)):
        path, check = _members_file(workdir, q, d, rng)
        ops.append(Op(f"progcheck members q={q} D={d}", ["progcheck", "--q", str(q), "--file", path], check))
    path, check = _planted_file(workdir, rng)
    ops.append(Op("progcheck planted q=3", ["progcheck", "--q", "3", "--file", path], check))
    return _shuffled(ops, rng), []


# ---------------------------------------------------------------------------
# factor_large: few calls at large degree through the same layers
# ---------------------------------------------------------------------------

#: (q, [(irreducible degree, exponent), ...], count). The degree pattern is
#: fixed and only the irreducibles are drawn from the seed, so the work per
#: run does not depend on the seed. Distinct degrees skip equal-degree
#: splitting; the repeated degree 8 (GF(4)) exercises it, and the products
#: with exponents > 1 take the squarefree and p-th-root paths.
FACTOR_INPUTS = (
    (2, [(96, 1), (64, 1), (40, 1), (24, 1), (16, 1), (8, 1), (5, 1), (3, 1)], 2),
    (3, [(40, 1), (32, 1), (24, 1), (14, 1), (10, 1), (5, 1), (3, 1)], 2),
    (7, [(24, 1), (16, 1), (12, 1), (6, 1), (4, 1), (2, 1)], 2),
    (4, [(36, 1), (24, 1), (16, 1), (8, 1), (8, 1), (4, 1)], 2),
    (16, [(18, 1), (12, 1), (8, 1), (6, 1), (4, 1)], 2),
    (512, [(6, 1), (4, 1), (3, 1), (2, 1), (1, 1)], 2),
    (729, [(5, 1), (4, 1), (3, 1), (2, 1)], 2),
    (2, [(24, 2), (12, 3), (40, 1), (4, 4)], 1),
    (3, [(16, 3), (20, 1), (6, 2)], 1),
    (4, [(10, 2), (16, 1), (6, 4)], 1),
)


def factor_input(F, pattern, rng):
    """(f, unit, [(monic irreducible, exponent)]) with f = unit * prod prime^e."""
    parts = []
    for degree, e in pattern:
        prime = random_irreducible(F, degree, rng)
        while any(prime == p for p, _ in parts):
            prime = random_irreducible(F, degree, rng)
        parts.append((prime, e))
    unit = rng.randrange(1, F.q)
    f = [unit]
    for prime, e in parts:
        f = poly_mul(F, f, poly_pow(F, prime, e))
    return f, unit, parts


def _factor_large(seed, workdir):
    rng = random.Random(seed)
    ops = []
    for q, pattern, count in FACTOR_INPUTS:
        F = Field(q)
        for i in range(count):
            f, unit, parts = factor_input(F, pattern, rng)
            exps = "".join(str(e) for _, e in pattern if e > 1)
            label = f"factor GF({q}) deg={len(f) - 1}" + (f" exps={exps}" if exps else "") + f" #{i}"
            ops.append(Op(label, ["factor", "--q", str(q), format_poly(F, f)],
                          ref.check_factor(F, unit, parts)))
    return _shuffled(ops, rng), []


# ---------------------------------------------------------------------------
# search: the r_n DFS and the hitting-set search; ff and polyring nearly idle
# ---------------------------------------------------------------------------

def _search(seed, workdir):
    ops = [Op(f"rn n={n}", ["rn", "--n", str(n)], ref.check_rn(n)) for n in (14, 15, 16)]
    for q, d in ((2, 6), (5, 2), (3, 3)):
        ops.append(Op(f"extremal q={q} D={d}",
                      ["extremal", "--q", str(q), "--max-degree", str(d), "--budget", "200"],
                      ref.check_extremal(q, d)))
    return _shuffled(ops, random.Random(seed)), []


_OPERATION_LISTS = {"certify": _certify, "enumerate": _enumerate,
             "factor_large": _factor_large, "search": _search}


def build(workload: str, seed: int, workdir: str):
    """(timed operations, known-crash operations) for one workload.

    Input files are written under `workdir`, which must exist.
    """
    return _OPERATION_LISTS[workload](seed, workdir)
