"""Independent reference values the benchmark checks the program's stdout against.

Sources, by operation:

* decimal densities (`density`, `tables`, `figure1`): the paper's product and
  series formulas evaluated with the stdlib `decimal` module at 30 extra
  digits, rounded half up;
* `checkpoint`: the exact product (1 - 1/q) * prod_{i<k} (1 + q^(-3^i));
* `empirical`, `greedy check`, `greedy enumerate`: the member count by degree
  from the Euler product prod_n (sum_{e in A} t^(n e))^(m(n, q)), with m(n, q)
  from the Moebius formula and A the integers with no ternary digit 2;
* `factor`: the factorization the input was built from;
* `progcheck` and `extremal`: progressions checked with `refalg` arithmetic.

Two values have no independent source cheap enough to run here, so they are
the stdout of the seed commit: the r_n values (minimality of each r_n) and
the extremal sizes (optimality of the hitting-set search).
"""

from __future__ import annotations

import decimal
import itertools
from fractions import Fraction

from refalg import Field, canonical_key, format_poly, parse_poly, poly_mul, prime_power

#: r_1..r_16 as printed by the seed commit's `rn --n 16` (seed stdout reference).
RN_SEED_STDOUT = (1, 2, 4, 5, 9, 11, 13, 14, 20, 24, 26, 30, 32, 36, 40, 41)

#: extremal sizes as printed by the seed commit (seed stdout reference).
EXTREMAL_SIZE_SEED_STDOUT = {(2, 6): 108, (5, 2): 120, (3, 3): 74}


class CheckFailed(Exception):
    """The program's output disagrees with the reference."""


def expect(cond, message):
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# certified decimals
# ---------------------------------------------------------------------------

def _series(kind, q, prec):
    """Reference value of a density quantity with `prec` significant digits."""
    with decimal.localcontext(decimal.Context(prec=prec)):
        Q = decimal.Decimal(q)
        eps = decimal.Decimal(10) ** -(prec + 2)
        if kind == "greedy":
            v = 1 - 1 / Q
            i = 1
            while Q ** (1 - 3**i) >= eps:
                v *= (1 - Q ** (1 - 2 * 3**i)) / (1 - Q ** (1 - 3**i))
                i += 1
            return v
        if kind == "lower_mq":
            v = 1 - 1 / (Q * Q)
            i = 1
            while Q ** (-(3**i)) >= eps:
                v *= 1 + Q ** (-(3**i))
                i += 1
            return v
        if kind == "upper_simple":
            return 1 - (Q - 1) / (Q**3 - 1)
        if kind == "upper_no":
            return (Q - 1) * sum(Q ** (-r) for r in RN_SEED_STDOUT)
        raise ValueError(kind)


def reference_decimal(kind: str, q: int, digits: int) -> str:
    """`digits` decimals of the quantity, or CheckFailed if the reference is ambiguous."""
    prec = digits + 30
    v = _series(kind, q, prec)
    # r_n beyond r_16 are unknown here: the omitted upper_no tail is at most q^(-r_16)
    slack = (
        decimal.Decimal(q) ** -RN_SEED_STDOUT[-1]
        if kind == "upper_no"
        else decimal.Decimal(10) ** -(digits + 20)
    )
    with decimal.localcontext(decimal.Context(prec=prec)):
        step = decimal.Decimal(10) ** -digits
        lo = (v - slack).quantize(step, rounding=decimal.ROUND_HALF_UP)
        hi = (v + slack).quantize(step, rounding=decimal.ROUND_HALF_UP)
    expect(lo == hi, f"reference for {kind} q={q} is ambiguous at {digits} digits")
    return str(lo)


def check_decimal(kind, q, digits):
    want = reference_decimal(kind, q, digits)

    def check(out):
        got = out.strip()
        expect(got == want, f"{kind} q={q} digits={digits}: got {got!r}, want {want!r}")

    return check


_TABLE_COLUMNS = {1: (("greedy", 6),), 2: (("lower_mq", 6),),
                  3: (("upper_simple", 9), ("upper_no", 9), ("lower_mq", 9))}
_TABLE_CELLS = {1: 12, 2: 12, 3: 42}


def check_table(which):
    def check(out):
        lines = out.strip().splitlines()
        n = _TABLE_CELLS[which]
        expect(len(lines) == n + 1, f"table {which}: {len(lines)} lines")
        expect(lines[-1] == f"{n}/{n} cells PASS", f"table {which}: {lines[-1]!r}")
        columns = {c for c, _ in _TABLE_COLUMNS[which]}
        for line in lines[:-1]:
            q_tok, column, _, computed_tok, status = line.split()
            q, computed = int(q_tok[len("q="):]), computed_tok[len("computed="):]
            expect(column in columns and status == "PASS", f"table {which}: {line!r}")
            want = reference_decimal(column, q, len(computed.split(".")[1]))
            expect(computed == want, f"table {which} q={q} {column}: {computed} != {want}")

    return check


def check_figure1(qmax):
    qs = [q for q in range(2, qmax + 1) if prime_power(q)]
    want = ["q,density"] + [f"{q},{reference_decimal('greedy', q, 6)}" for q in qs]

    def check(out):
        expect(out.strip().splitlines() == want, "figure1 rows differ from the reference")

    return check


def check_checkpoint(q, k):
    value = 1 - Fraction(1, q)
    for i in range(k):
        value *= 1 + Fraction(1, q ** (3**i))
    want = str(value)

    def check(out):
        expect(out.strip() == want, f"checkpoint q={q} k={k} differs from the product formula")

    return check


# ---------------------------------------------------------------------------
# greedy-set counts by degree (Euler product)
# ---------------------------------------------------------------------------

def _moebius(n):
    out, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    return -out if n > 1 else out


def irreducible_count(q, n):
    return sum(_moebius(d) * q ** (n // d) for d in range(1, n + 1) if n % d == 0) // n


def in_a3(e):
    while e:
        if e % 3 == 2:
            return False
        e //= 3
    return True


def _series_mul(a, b, top):
    out = [0] * (top + 1)
    for i, x in enumerate(a):
        if x:
            for j in range(top + 1 - i):
                out[i + j] += x * b[j]
    return out


def monic_member_counts(q, top):
    """c_d = number of monic greedy-set members of degree d, d = 0..top."""
    total = [1] + [0] * top
    for n in range(1, top + 1):
        base = [1 if d % n == 0 and in_a3(d // n) else 0 for d in range(top + 1)]
        m = irreducible_count(q, n)
        while m:
            if m & 1:
                total = _series_mul(total, base, top)
            m >>= 1
            if m:
                base = _series_mul(base, base, top)
    return total


def member_count(q, max_degree):
    """Nonzero members of degree <= max_degree (units included)."""
    return (q - 1) * sum(monic_member_counts(q, max_degree))


def check_empirical(q, max_degree):
    want = str(Fraction(member_count(q, max_degree), q ** (max_degree + 1)))

    def check(out):
        expect(out.strip() == want, f"empirical q={q} D={max_degree}: {out.strip()!r} != {want!r}")

    return check


def check_greedy_check(q, max_degree):
    want = (
        f"ok: {member_count(q, max_degree)} members up to degree {max_degree} "
        "match the exponent characterization; no progression found"
    )

    def check(out):
        expect(out.strip() == want, f"greedy check q={q} D={max_degree}: {out.strip()!r}")

    return check


def check_greedy_counts(q, max_degree):
    counts = monic_member_counts(q, max_degree)
    want = [f"{d} {(q - 1) * c}" for d, c in enumerate(counts)]

    def check(out):
        expect(out.strip().splitlines() == want, f"greedy enumerate q={q} D={max_degree} counts differ")

    return check


# ---------------------------------------------------------------------------
# greedy-set members, progressions, factorizations
# ---------------------------------------------------------------------------

def monic_polys(F, degree):
    for low in itertools.product(range(F.q), repeat=degree):
        yield low + (1,)


def greedy_members(F, max_degree):
    """Every nonzero greedy-set member of degree <= max_degree, canonical order.

    A member is a polynomial whose irreducible factors all occur with an
    exponent in A; valuations come from a sieve over prime powers, so no
    factorization code is shared with the program.
    """
    monics = [m for d in range(max_degree + 1) for m in monic_polys(F, d)]
    valuations = {m: {} for m in monics}
    by_degree = [[] for _ in range(max_degree + 1)]
    for m in monics:
        by_degree[len(m) - 1].append(m)
    for n in range(1, max_degree + 1):
        for prime in by_degree[n]:
            if valuations[prime]:
                continue  # a smaller prime already divides it
            power, j = (1,), 0
            while (j + 1) * n <= max_degree:
                j += 1
                power = tuple(poly_mul(F, list(power), list(prime)))
                for d in range(max_degree - j * n + 1):
                    for g in by_degree[d]:
                        valuations[tuple(poly_mul(F, list(power), list(g)))][prime] = j
    members = []
    for m in monics:
        if all(in_a3(e) for e in valuations[m].values()):
            members.extend(tuple(F.mul(c, u) for c in m) for u in range(1, F.q))
    return sorted(members, key=canonical_key)


def find_progression(F, polys, max_degree):
    """(base, ratio) of a strict progression inside `polys`, or None."""
    present = {tuple(p) for p in polys}
    ratios = [r for d in range(1, max_degree // 2 + 1)
              for r in (low + (lead,) for low in itertools.product(range(F.q), repeat=d)
                        for lead in range(1, F.q))]
    for a in sorted(present, key=canonical_key):
        for r in ratios:
            if len(a) - 1 + 2 * (len(r) - 1) > max_degree:
                continue
            mid = tuple(poly_mul(F, list(a), list(r)))
            if mid in present and tuple(poly_mul(F, list(mid), list(r))) in present:
                return a, r
    return None


def check_witness(F, polys, out):
    """`progcheck` printed a witness: it must be a strict progression inside `polys`."""
    line = out.strip()
    expect(line.startswith("progression: base="), f"progcheck found no progression: {line!r}")
    head = line[len("progression: "):].split(" members=")[0]
    fields = dict(part.split("=", 1) for part in head.split(" "))
    base, ratio = parse_poly(F, fields["base"]), parse_poly(F, fields["ratio"])
    present = {tuple(p) for p in polys}
    mid = poly_mul(F, base, ratio)
    top = poly_mul(F, mid, ratio)
    expect(len(ratio) >= 2, "witness ratio is a unit")
    expect(all(tuple(t) in present for t in (base, mid, top)), "witness terms are not in the input")


def check_extremal(q, max_degree):
    F = Field(q)
    want_size = EXTREMAL_SIZE_SEED_STDOUT[(q, max_degree)]

    def check(out):
        lines = out.strip().splitlines()
        expect(len(lines) == 2 and lines[0] == f"size={want_size}", f"extremal: {lines[:1]!r}")
        expect(lines[1].startswith("witness: "), "extremal: no witness line")
        witness = [parse_poly(F, t) for t in lines[1][len("witness: "):].split(", ")]
        expect(len({tuple(w) for w in witness}) == want_size, "extremal witness has the wrong size")
        expect(all(w and len(w) - 1 <= max_degree for w in witness), "extremal witness out of range")
        expect(find_progression(F, witness, max_degree) is None, "extremal witness has a progression")

    return check


def check_factor(F, unit, parts):
    """The printed factorization must be exactly unit * prod prime^e, canonically ordered."""
    pieces = [str(unit)] + [
        f"({format_poly(F, prime)})" + (f"^{e}" if e > 1 else "")
        for prime, e in sorted(parts, key=lambda pe: canonical_key(pe[0]))
    ]
    want = " * ".join(pieces)

    def check(out):
        expect(out.strip() == want, f"factorization over GF({F.q}) differs from the construction")

    return check


def check_rn(n):
    want = " ".join(map(str, RN_SEED_STDOUT[:n]))

    def check(out):
        expect(out.strip() == want, f"rn --n {n}: {out.strip()!r}")

    return check
