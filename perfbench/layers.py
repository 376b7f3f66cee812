"""Per-layer microbenchmarks: warm in-process timings of each layer's public functions.

Usage:
  layers.py --seed N [--quick]    print {metric: value} as JSON for every case
  layers.py --case NAME           run one case in this (fresh) process, print its value

Inputs come from the seed through `refalg`, never from the package under
test. Cases that would hit a module-level cache (the r_n cache behind
`upper_bound_no`, `rn_sequence` and table 3) run in a fresh process each.
What each metric should move end to end is recorded in `layer_map.json`.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import reference  # noqa: E402
from refalg import Field  # noqa: E402
from workloads import FACTOR_INPUTS, factor_input  # noqa: E402

_MIN_SAMPLE_S = 0.01
_MIN_TOTAL_S = 0.1


def _per_call(fn, calls, min_total_s=_MIN_TOTAL_S):
    """Median seconds per call of fn() (which makes `calls` calls), over repeats.

    Each sample repeats fn() until it lasts _MIN_SAMPLE_S; samples are taken
    until `min_total_s` has passed, with at least one and at most five.
    """
    samples = []
    start = perf_counter()
    while len(samples) < 5 and (not samples or perf_counter() - start < min_total_s):
        n = 0
        t0 = perf_counter()
        while True:
            fn()
            n += 1
            elapsed = perf_counter() - t0
            if elapsed >= _MIN_SAMPLE_S:
                break
        samples.append(elapsed / (n * calls))
    return statistics.median(samples)


def _field(q):
    from gpfq.ff import make_field
    from refalg import prime_power

    return make_field(*prime_power(q))


def _random_poly(spec, degree, rng):
    from gpfq.polyring import Poly

    return Poly(spec, [rng.randrange(spec.q) for _ in range(degree)] + [rng.randrange(1, spec.q)])


def _pattern_poly(q, degree, rng):
    """The factor_large construction for GF(q) at `degree`: fixed degree pattern."""
    from gpfq.polyring import Poly

    pattern = next(p for fq, p, _ in FACTOR_INPUTS if fq == q and sum(d * e for d, e in p) == degree)
    return Poly(_field(q), factor_input(Field(q), pattern, rng)[0])


# ---------------------------------------------------------------------------
# warm in-process cases
# ---------------------------------------------------------------------------

def _ff_cases(rng, per_call):
    out = {}
    for name, q in (("gf2", 2), ("gf3", 3), ("gf16", 16), ("gf512", 512)):
        spec = _field(q)
        pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(2000)]
        units = [rng.randrange(1, q) for _ in range(2000)]
        mul, inv = spec.mul_c, spec.inv_c

        def run_mul():
            for a, b in pairs:
                mul(a, b)

        def run_inv():
            for a in units:
                inv(a)

        out[f"ff.mul_c_ns.{name}"] = per_call(run_mul, len(pairs)) * 1e9
        if q != 2:
            out[f"ff.inv_c_ns.{name}"] = per_call(run_inv, len(units)) * 1e9
    return out


def _polyring_cases(rng, per_call):
    from gpfq.polyring import gcd

    out = {}
    for name, q in (("gf2", 2), ("gf3", 3)):
        spec = _field(q)
        for d in (16, 64, 256):
            f, g = _random_poly(spec, d, rng), _random_poly(spec, d, rng)
            big = _random_poly(spec, 2 * d, rng)
            out[f"polyring.mul_us.{name}_d{d}"] = per_call(lambda: f * g, 1) * 1e6
            out[f"polyring.divmod_us.{name}_d{d}"] = per_call(lambda: divmod(big, f), 1) * 1e6
            out[f"polyring.gcd_us.{name}_d{d}"] = per_call(lambda: gcd(f, g), 1) * 1e6
    return out


def _factor_cases(rng, per_call):
    from gpfq.factor import factorization_exponents, factorize
    from gpfq.progfree import greedy_member

    out = {}
    for name, q, d in (("gf2_d256", 2, 256), ("gf3_d128", 3, 128), ("gf16_d48", 16, 48),
                       ("gf512_d16", 512, 16)):
        f = _pattern_poly(q, d, rng)
        out[f"factor.factorize_ms.{name}"] = per_call(lambda: factorize(f), 1) * 1e3
    spec = _field(2)
    small = [_random_poly(spec, 13, rng) for _ in range(200)]
    out["factor.exponents_us.gf2_d13"] = per_call(
        lambda: [factorization_exponents(f) for f in small], len(small)) * 1e6
    out["progfree.greedy_member_us.gf2_d13"] = per_call(
        lambda: [greedy_member(f) for f in small], len(small)) * 1e6
    return out


def _progfree_cases(rng, per_call):
    from gpfq.polyring import Poly
    from gpfq.progfree import has_progression, max_progression_free_subset

    spec = _field(2)
    members = reference.greedy_members(Field(2), 13)
    rng.shuffle(members)
    polys = [Poly(spec, m) for m in members]
    return {
        "progfree.has_progression_ms.gf2_d13": per_call(lambda: has_progression(polys), 1) * 1e3,
        "progfree.extremal_ms.gf2_d6": per_call(
            lambda: max_progression_free_subset(spec, 6, 200), 1) * 1e3,
    }


def _endpoint_bits(iv):
    return max(max(e.numerator.bit_length(), e.denominator.bit_length()) for e in (iv.lo, iv.hi))


def _density_numeric_cases(rng, per_call):
    from fractions import Fraction

    from gpfq.density import checkpoint_density, greedy_density_interval
    from gpfq.numeric import exp_upper, render_decimal

    out = {}
    for depth in (3, 6, 9):
        out[f"density.greedy_interval_ms.q2_depth{depth}"] = per_call(
            lambda: greedy_density_interval(2, depth), 1) * 1e3
        out[f"density.endpoint_bits.q2_depth{depth}"] = _endpoint_bits(greedy_density_interval(2, depth))
    out["density.checkpoint_ms.q2_k9"] = per_call(lambda: checkpoint_density(2, 9), 1) * 1e3
    iv = greedy_density_interval(2, 6)
    out["numeric.render_decimal_us.q2_depth6"] = per_call(lambda: render_decimal(iv, 24), 1) * 1e6
    x = Fraction(4, 2 ** (3**7 - 1))  # the greedy tail argument at q=2, depth 6
    out["numeric.exp_upper_us"] = per_call(lambda: exp_upper(x), 1) * 1e6
    return out


# ---------------------------------------------------------------------------
# fresh-process cases (module-level caches)
# ---------------------------------------------------------------------------

def _fresh_upper_bound_no():
    from gpfq.density import upper_bound_no

    return lambda: upper_bound_no(2, 9), 1e3


def _fresh_rn():
    from gpfq.density import rn_sequence

    return lambda: rn_sequence(16), 1.0


def _fresh_table(which):
    def setup():
        from gpfq.tables import verify_table

        return lambda: verify_table(which), 1e3
    return setup


FRESH = {
    "density.upper_bound_no_ms.q2_d9": _fresh_upper_bound_no,
    "density.rn_sequence_s.n16": _fresh_rn,
    "tables.verify_ms.1": _fresh_table(1),
    "tables.verify_ms.2": _fresh_table(2),
    "tables.verify_ms.3": _fresh_table(3),
}

_FRESH_REPEATS = 2


def _run_fresh(name, env, repeats):
    """Median over fresh processes of one cold call (import excluded)."""
    values = []
    for _ in range(repeats):
        done = subprocess.run([sys.executable, os.path.abspath(__file__), "--case", name],
                              capture_output=True, text=True, env=env, timeout=60, check=True)
        values.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(values)


def run_all(seed, quick=False):
    """Every case; `quick` takes one sample each (for the smoke test)."""
    rng = random.Random(seed)
    min_total_s = 0.0 if quick else _MIN_TOTAL_S

    def per_call(fn, calls):
        return _per_call(fn, calls, min_total_s)

    out = {}
    for cases in (_ff_cases, _polyring_cases, _factor_cases, _progfree_cases, _density_numeric_cases):
        out.update(cases(rng, per_call))
    env = dict(os.environ)
    for name in FRESH:
        out[name] = _run_fresh(name, env, 1 if quick else _FRESH_REPEATS)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--case", choices=sorted(FRESH))
    parser.add_argument("--quick", action="store_true", help="one sample per case")
    args = parser.parse_args(argv)
    if args.case:
        call, scale = FRESH[args.case]()
        t0 = perf_counter()
        call()
        print(repr((perf_counter() - t0) * scale))
        return 0
    print(json.dumps(run_all(args.seed, args.quick)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
