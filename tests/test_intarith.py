"""Integer helper sanity checks, against trial division where it is feasible."""

import time

import pytest

from _oracles import factorint, trial_prime_power
from gpfq.intarith import divisors, is_prime, prime_power, prime_powers_upto


def test_is_prime():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29}
    assert {n for n in range(31) if is_prime(n)} == primes
    assert is_prime(7919)
    assert not is_prime(7921)  # 89^2


def test_factorint():
    assert factorint(1) == {}
    assert factorint(12) == {2: 2, 3: 1}
    assert factorint(343) == {7: 3}
    assert factorint(2 * 3 * 5 * 7 * 11) == {2: 1, 3: 1, 5: 1, 7: 1, 11: 1}


def test_prime_power():
    assert prime_power(2) == (2, 1)
    assert prime_power(343) == (7, 3)
    assert prime_power(1024) == (2, 10)
    assert prime_power(6) is None
    assert prime_power(1) is None


def test_against_trial_division():
    for n in range(-2, 10**5):
        fac = factorint(n) if n >= 1 else {}
        assert is_prime(n) == (list(fac.values()) == [1]), n
        assert prime_power(n) == trial_prime_power(n), n


def _lucas_lehmer(p):
    """2^p - 1 is prime (p an odd prime) iff the Lucas-Lehmer residue is 0."""
    m, s = 2**p - 1, 4
    for _ in range(p - 2):
        s = (s * s - 2) % m
    return s == 0


def test_large():
    assert _lucas_lehmer(61) and is_prime(2**61 - 1)
    assert prime_power(2**61 - 1) == (2**61 - 1, 1)
    assert prime_power((2**61 - 1) ** 6) == (2**61 - 1, 6)
    assert prime_power(47**2000) == (47, 2000)
    assert prime_power(3**9000) == (3, 9000)
    assert prime_power((2**61 - 1) * 1000003) is None
    assert prime_power(1000003**2 * 1000033) is None
    # strong pseudoprimes to the first 8 and the first 12 prime bases
    for p, q in ((149491 * 747451, 34233211), (399165290221, 798330580441)):
        assert not is_prime(p * q)
        assert prime_power(p * q) is None
    # 2^89 - 1 is a Mersenne prime past the range the 13 bases decide
    assert _lucas_lehmer(89)
    with pytest.raises(ValueError):
        is_prime(2**89 - 1)
    with pytest.raises(ValueError):
        prime_power(2**89 - 1)
    start = time.monotonic()
    with pytest.raises(ValueError):
        prime_power(10**4299 + 7)  # the longest --q argparse accepts
    assert time.monotonic() - start < 2


def test_divisors():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(49) == [1, 7, 49]


def test_prime_powers_upto():
    got = prime_powers_upto(30)
    assert got == [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29]
