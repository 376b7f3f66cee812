"""Independent brute-force oracles the real implementations are checked against.

Nothing here shares code with the package's own factorization, counting or
search paths: schoolbook multiplication and long division of F_p coefficient
lists, the same over GF(p^k) with each element product taken through its
digit polynomial, the monic gcd by the textbook Euclid and the distinct-degree
split by the textbook one gcd per degree on that list arithmetic, irreducibility and factorization by literal trial
division over the monic enumeration, the default field modulus by a search
over every candidate, greedy-set member counts by factoring every monic polynomial,
integer factorization by trial division, the AP-free integer set by its
greedy definition, AP-free subset existence by exhaustive combinations and
by plain backtracking over sets, the largest progression-free set by
exhaustive combinations, the size of the reflected-degree free set by its
closed form, the greedy polynomial set by dividing every
polynomial by the square of every ratio, progressions by trying every
divisor pair with DigitField arithmetic, and exact rational enclosures,
their rounding and the certified density intervals on `fractions.Fraction`
endpoints (the package computes them on unreduced integer pairs).
"""

from fractions import Fraction
from functools import lru_cache
from math import factorial
from itertools import combinations, product

from gpfq.ff import make_field
from gpfq.polyring import (
    Poly,
    canonical_key,
    enumerate_monic,
    enumerate_polys,
    enumerate_upto,
    make_monic,
)


def _trim_list(cs):
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def fp_mul(p, a, b):
    """Product of two F_p coefficient lists (constant first), schoolbook."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return _trim_list(out)


def fp_divmod(p, a, b):
    """(quotient, remainder) of F_p coefficient lists by long division;
    b must be trimmed and nonzero, its leading coefficient need not be 1."""
    inv = pow(b[-1], p - 2, p)
    rem = list(a)
    quot = [0] * max(len(a) - len(b) + 1, 0)
    for i in range(len(quot) - 1, -1, -1):
        t = rem[i + len(b) - 1] * inv % p
        quot[i] = t
        for j, y in enumerate(b):
            rem[i + j] = (rem[i + j] - t * y) % p
    return _trim_list(quot), _trim_list(rem[: len(b) - 1])


class DigitField:
    """GF(p^k) on integer codes, each product taken through digit polynomials.

    A code's base-p digits, constant first, are the residue's coefficients.
    A product is the schoolbook product of the two digit lists (fp_mul),
    reduced by the modulus (fp_divmod); an inverse is a^(q-2).
    """

    def __init__(self, p, modulus):
        self.p = p
        self.modulus = list(modulus)
        self.k = len(modulus) - 1
        self.q = p**self.k

    def digits(self, code):
        return [code // self.p**i % self.p for i in range(self.k)]

    def code(self, digits):
        return sum(d * self.p**i for i, d in enumerate(digits))

    def add(self, a, b):
        return self.code([(x + y) % self.p for x, y in zip(self.digits(a), self.digits(b))])

    def neg(self, a):
        return self.code([-x % self.p for x in self.digits(a)])

    def mul(self, a, b):
        prod = fp_mul(self.p, self.digits(a), self.digits(b))
        return self.code(fp_divmod(self.p, prod, self.modulus)[1])

    def inv(self, a):
        result, e = 1, self.q - 2
        while e:
            if e & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            e >>= 1
        return result


def gfq_mul(field, a, b):
    """Product of two code lists over a DigitField, schoolbook."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = field.add(out[i + j], field.mul(x, y))
    return _trim_list(out)


def gfq_divmod(field, a, b):
    """(quotient, remainder) of code lists over a DigitField by long division;
    b must be trimmed and nonzero."""
    inv = field.inv(b[-1])
    rem = list(a)
    quot = [0] * max(len(a) - len(b) + 1, 0)
    for i in range(len(quot) - 1, -1, -1):
        t = field.mul(rem[i + len(b) - 1], inv)
        quot[i] = t
        for j, y in enumerate(b):
            rem[i + j] = field.add(rem[i + j], field.neg(field.mul(t, y)))
    return _trim_list(quot), _trim_list(rem[: len(b) - 1])


def field_ops(p, modulus):
    """(mul, div, times, minus, inv) over GF(p^k), k = len(modulus) - 1: the product and long
    division of code lists, and the product, difference and inverse of codes. Over GF(p) the
    lists run on fp_mul and fp_divmod, over GF(p^k) on gfq_mul and gfq_divmod."""
    k = len(modulus) - 1
    if k == 1:
        mul, div = (lambda a, b: fp_mul(p, a, b)), (lambda a, b: fp_divmod(p, a, b))
        times, minus, inv = (lambda a, b: a * b % p), (lambda a, b: (a - b) % p), (lambda a: pow(a, p - 2, p))
    else:
        field = DigitField(p, modulus)
        for name in ("add", "neg", "mul"):  # memoized: each code pair recurs across a powering
            setattr(field, name, lru_cache(maxsize=None)(getattr(field, name)))
        mul, div = (lambda a, b: gfq_mul(field, a, b)), (lambda a, b: gfq_divmod(field, a, b))
        times, minus, inv = field.mul, (lambda a, b: field.add(a, field.neg(b))), field.inv
    return mul, div, times, minus, inv


def monic_gcd(ops, a, b):
    """The monic gcd, as a tuple, of two code sequences not both zero, by the textbook Euclid
    on the list arithmetic `ops` of field_ops."""
    _, div, times, _, inv = ops
    a, b = _trim_list(list(a)), _trim_list(list(b))
    while b:
        a, b = b, div(a, b)[1]
    c = inv(a[-1])
    return tuple(times(c, x) for x in a)


def distinct_degree_brute(p, modulus, f):
    """[(d, product of the irreducible factors of degree d)] ascending in d, of a monic
    squarefree code sequence f over GF(p^k), k = len(modulus) - 1, by the textbook split
    (von zur Gathen and Gerhard, Modern Computer Algebra, Algorithm 14.3): for each degree
    d <= deg f / 2 in turn, h = x^(q^d) mod f by q-th powering of the last h, one monic
    gcd(h - x, f), and the part found divided out of f; what is left is one irreducible.
    The lists run on field_ops.
    """
    k = len(modulus) - 1
    ops = mul, div, _, minus, _ = field_ops(p, modulus)

    def power(a, e, m):
        result = [1]
        while e:
            if e & 1:
                result = div(mul(result, a), m)[1]
            e >>= 1
            if e:
                a = div(mul(a, a), m)[1]
        return result

    f, h, out = list(f), [0, 1], []
    d = 0
    while 2 * (d + 1) <= len(f) - 1:
        d += 1
        h = power(h, p**k, f)
        h_minus_x = h + [0] * (2 - len(h))
        h_minus_x[1] = minus(h_minus_x[1], 1)
        g = monic_gcd(ops, f, h_minus_x)
        if len(g) > 1:
            out.append((d, g))
            f = div(f, g)[0]
            h = div(h, f)[1]
    if len(f) > 1:
        out.append((len(f) - 1, tuple(f)))
    return out


def naive_is_irreducible(f):
    """Trial division by every monic polynomial of degree 1..deg/2."""
    _, m = make_monic(f)
    d = m.degree
    if d < 1:
        return False
    for e in range(1, d // 2 + 1):
        for g in enumerate_monic(f.spec, e):
            if (m % g).is_zero():
                return False
    return True


def default_modulus_brute(p, k):
    """The first monic irreducible of degree k over F_p, trying every
    coefficient tuple (constant first) in lexicographic order."""
    base = make_field(p)
    for low in product(range(p), repeat=k):
        cand = low + (1,)
        if naive_is_irreducible(Poly(base, cand)):
            return cand
    raise AssertionError("unreachable: an irreducible of every degree exists")


def trial_division_factorize(f):
    """(unit code, [(monic poly, exponent)]) by dividing out monics in canonical order.

    Composite candidates never divide: all their lower-degree prime factors
    were already removed, so every recorded divisor is automatically prime.
    Once no monic of degree <= deg m / 2 is left to try, the rest m is prime.
    """
    unit, m = make_monic(f)
    parts = []
    d = 1
    while 2 * d <= m.degree:
        for g in enumerate_monic(f.spec, d):
            if 2 * d > m.degree:
                break
            e = 0
            q, r = divmod(m, g)
            while r.is_zero():
                m = q
                e += 1
                if m.degree < g.degree:
                    break
                q, r = divmod(m, g)
            if e:
                parts.append((g, e))
        d += 1
    if m.degree >= 1:
        parts.append((m, 1))
    return unit.code, parts


def greedy_counts_brute(spec, max_degree):
    """Greedy-set members of each exact degree 0..max_degree: every monic
    polynomial is factored by trial division and, when each exponent has only
    the ternary digits 0 and 1, counts for its q - 1 unit multiples, which
    have the same factorization."""

    def ternary_01(e):
        while e:
            if e % 3 == 2:
                return False
            e //= 3
        return True

    counts = [0] * (max_degree + 1)
    for d in range(max_degree + 1):
        for f in enumerate_monic(spec, d):
            _, parts = trial_division_factorize(f)
            counts[d] += (spec.q - 1) * all(ternary_01(e) for _, e in parts)
    return counts


def greedy_apfree_integers(limit):
    """Greedy construction: admit n unless it completes a 3-term AP."""
    chosen = []
    chosen_set = set()
    for n in range(limit + 1):
        blocked = False
        for b in chosen:
            a = 2 * b - n
            if a >= 0 and a in chosen_set and a != b:
                blocked = True
                break
        if not blocked:
            chosen.append(n)
            chosen_set.add(n)
    return chosen


def ints_ap_free(seq):
    s = set(seq)
    return not any(b > a and 2 * b - a in s for a in s for b in s)


def apfree_subset_exists_brute(m, n):
    """Exhaustive combinations check; only sane for small n."""
    return any(ints_ap_free(c) for c in combinations(range(1, m + 1), n))


def rn_brute(n):
    m = n
    while not apfree_subset_exists_brute(m, n):
        m += 1
    return m


def apfree_subset_exists_backtrack(m, n):
    """Does [1, m] hold an n-element set with no 3-term AP? Plain backtracking:
    members join in increasing order, a candidate x only when no two members
    a < b have x = 2b - a, and only while enough integers are left above it."""
    members = set()

    def extend(low, need):
        if need == 0:
            return True
        for x in range(low, m - need + 2):
            if not any((x + a) % 2 == 0 and (x + a) // 2 in members for a in members):
                members.add(x)
                found = extend(x + 1, need - 1)
                members.discard(x)
                if found:
                    return True
        return False

    return extend(1, n)


def rn_backtrack(n):
    """r_n: the least m for which `apfree_subset_exists_backtrack(m, n)` holds."""
    m = n
    while not apfree_subset_exists_backtrack(m, n):
        m += 1
    return m


def factorint(n):
    """Prime factorization of n >= 1 as {prime: exponent}, by trial division."""
    out = {}
    f = 2
    while f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def trial_prime_power(n):
    """(p, k) with n = p^k, p prime, or None; by trial division."""
    fac = factorint(n) if n >= 2 else {}
    return next(iter(fac.items())) if len(fac) == 1 else None


def largest_free_set_brute(n, edges):
    """Largest subset of range(n) containing no edge, as the least sorted tuple.

    Subsets are tried largest first and in lexicographic order, so the first
    edge-free one is the answer. Only sane for n <= 15.
    """
    for size in range(n, -1, -1):
        for chosen in combinations(range(n), size):
            s = set(chosen)
            if not any(set(e) <= s for e in edges):
                return chosen
    raise AssertionError("unreachable: the empty set contains no edge")


def max_progression_free_brute(spec, max_degree):
    """(size, witness) of the largest progression-free set of nonzero
    polynomials of degree <= max_degree, the canonically least on ties.

    A progression (a, b, c) is found from the definition: a divides b,
    deg b > deg a, and c = (b / a) * b.
    """
    universe = sorted(enumerate_upto(spec, max_degree), key=canonical_key)
    assert len(universe) <= 15, "exhaustive search over more than 2^15 subsets"
    pos = {f: i for i, f in enumerate(universe)}
    edges = []
    for i, a in enumerate(universe):
        for b in universe:
            r, rem = divmod(b, a)
            if b.degree > a.degree and rem.is_zero() and r * b in pos:
                edges.append((i, pos[b], pos[r * b]))
    chosen = largest_free_set_brute(len(universe), edges)
    return len(chosen), tuple(universe[i] for i in chosen)


def reflected_free_size(q, max_degree):
    """Size of the reflected-degree free set: the (q - 1) * q^d nonzero
    polynomials of each degree d = max_degree - a, for every a <= max_degree
    with no ternary digit 2."""
    def ternary_digits(a):
        return {a // 3**i % 3 for i in range(a.bit_length())}

    return sum((q - 1) * q ** (max_degree - a) for a in range(max_degree + 1) if 2 not in ternary_digits(a))


def greedy_construct_divisions(spec, max_degree):
    """The greedy polynomial set up to max_degree by division: f of degree d
    is rejected when f = r^2 * a with deg r >= 1 and a, r*a already admitted,
    tried for every ratio r with 2 deg r <= d."""
    admitted = set(enumerate_polys(spec, 0))
    ratios = [(r, r * r) for d in range(1, max_degree // 2 + 1) for r in enumerate_polys(spec, d)]
    for d in range(1, max_degree + 1):
        for f in enumerate_polys(spec, d):
            ok = True
            for r, square in ratios:
                if 2 * r.degree > d:
                    break  # ratios are in canonical (degree-major) order
                a, rem = divmod(f, square)
                if rem.is_zero() and a in admitted and r * a in admitted:
                    ok = False
                    break
            if ok:
                admitted.add(f)
    return admitted


def has_progression_brute(polys, unit_tolerant=False):
    """(base, ratio) of the canonically least progression in `polys`, or None.

    From the divisibility definition: a member a divides a present m with
    deg m > deg a, and r * m is present for r = m / a. Unit-tolerant, m and
    r * m need only be present up to a unit multiple, so m runs over every
    unit multiple of every member. Products and quotients are DigitField's.
    """
    polys = list(polys)
    if not polys:
        return None
    spec = polys[0].spec
    field = DigitField(spec.p, spec.modulus)
    for name in ("add", "neg", "mul", "inv"):  # memoized: at most q^2 distinct calls each
        setattr(field, name, lru_cache(maxsize=None)(getattr(field, name)))
    members = {f.coeffs for f in polys}
    units = range(1, spec.q) if unit_tolerant else (1,)
    present = {tuple(field.mul(u, c) for c in m) for m in members for u in units}
    found = []
    for a in members:
        for m in present:
            if len(m) > len(a):
                r, rem = gfq_divmod(field, list(m), list(a))
                if not rem and tuple(gfq_mul(field, r, list(m))) in present:
                    found.append((len(a), a, len(r), tuple(r)))
    if not found:
        return None
    _, a, _, r = min(found)
    return Poly(spec, a), Poly(spec, r)


class FractionInterval:
    """[lo, hi] on Fraction endpoints: the reference for numeric.Interval's arithmetic."""

    def __init__(self, lo, hi):
        self.lo, self.hi = Fraction(lo), Fraction(hi)
        if self.lo > self.hi:
            raise ValueError(f"empty interval: {self.lo} > {self.hi}")

    def __add__(self, other):
        return FractionInterval(self.lo + other.lo, self.hi + other.hi)

    def __mul__(self, other):
        if self.lo < 0 or other.lo < 0:
            raise ValueError("interval multiplication requires non-negative operands")
        return FractionInterval(self.lo * other.lo, self.hi * other.hi)

    def scale(self, r):
        r = Fraction(r)
        return FractionInterval(self.lo * r, self.hi * r) if r >= 0 else FractionInterval(self.hi * r, self.lo * r)

    def __contains__(self, v):
        return self.lo <= Fraction(v) <= self.hi


def fraction_round_half_away(x, digits):
    """x rounded to `digits` fractional digits, ties away from zero, on Fractions."""
    s = 10**digits
    num = x.numerator * s
    q, r = divmod(abs(num), x.denominator)
    if 2 * r >= x.denominator:
        q += 1
    return Fraction(q if num >= 0 else -q, s)


def fraction_render_decimal(lo, hi, digits):
    """The decimal both endpoints round to, or the NeedsMorePrecision message when they differ."""
    a, b = (fraction_round_half_away(e, digits) * 10**digits for e in (lo, hi))
    if a != b:
        bits = [max(e.numerator.bit_length(), e.denominator.bit_length()) for e in (lo, hi)]
        return None, f"endpoints of {bits[0]} and {bits[1]} bits straddle a {digits}-digit rounding boundary"
    n = int(a)
    ip, fp = divmod(abs(n), 10**digits)
    return f"{'-' if n < 0 else ''}{ip}.{fp:0{digits}d}", None


def fraction_exp_upper(x):
    """e^x's series through x^8 plus the remainder bound 2 * x^9 / 9!, term by term on Fractions."""
    total, power = Fraction(0), Fraction(1)
    for j in range(9):
        total += power / factorial(j)
        power *= x
    return total + 2 * power / factorial(9)


def fraction_density_interval(kind, q, param, rns=None):
    """The certified interval of density kind greedy | lower_mq (param: product depth) or
    upper_no (param: term count, `rns` the first r_n values), from the closed forms on Fractions."""
    if kind == "upper_no":
        rns = rns[:param]
        partial = (q - 1) * sum(Fraction(1, q**r) for r in rns)
        return FractionInterval(partial, partial + Fraction(1, q ** rns[-1]))
    value = 1 - Fraction(1, q)
    if kind == "greedy":
        for i in range(1, param + 1):
            a = 3**i
            value *= (1 - Fraction(1, q ** (2 * a - 1))) / (1 - Fraction(1, q ** (a - 1)))
        tail = fraction_exp_upper(4 * Fraction(1, q ** (3 ** (param + 1) - 1)))
    else:
        for i in range(param + 1):
            value *= 1 + Fraction(1, q ** (3**i))
        tail = fraction_exp_upper(2 * Fraction(1, q ** (3 ** (param + 1))))
    return FractionInterval(value, value * tail)
