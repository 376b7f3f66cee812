"""Integer helpers: primality, prime powers, divisors, and the paper's
integer sequences m(n, q) and N_k.

`is_prime` and `prime_power` answer at once for integers of any size: a
deterministic Miller-Rabin test and integer k-th roots. The divisor helpers
scan, which suits their arguments, polynomial degrees.
"""

from functools import lru_cache
from math import log2


def is_prime(n: int) -> bool:
    """Primality by Miller-Rabin with the first 13 primes as bases.

    These bases decide every n below 3317044064679887385961981, about 3.3e24
    (Sorenson and Webster, 2015). A larger n without a factor among them
    raises ValueError.
    """
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2:
        return False
    for a in bases:
        if n % a == 0:
            return n == a
    if n >= 3317044064679887385961981:
        raise ValueError(f"primality is decided below 3.3e24 only, not for this {n.bit_length()}-bit number")
    s = ((n - 1) & (1 - n)).bit_length() - 1  # 2^s exactly divides n - 1
    for a in bases:  # n passes a if a^d = 1 or a^(2^i d) = -1 for an i < s, d = (n-1)/2^s
        x = pow(a, (n - 1) >> s, n)
        if x != 1 and all(pow(x, 1 << i, n) != n - 1 for i in range(s)):
            return False
    return True


def _iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 1: Newton's method from a start above the root."""
    b = n.bit_length()
    x = 1 << (b // k + 1) if b > 1000 * k else int(2 ** (log2(n) / k) * (1 + 2**-30)) + 1
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def prime_power(n: int):
    """Return (p, k) with n = p^k and p prime, or None if n is not a prime power.

    A factor up to 43 settles it at once. Otherwise every prime factor exceeds
    2^5, so n = r^k needs k <= bits(n) / 5; n is reduced to its root for each
    prime k that divides out, and what is left must be prime (`is_prime`
    raises ValueError if that is past its range).
    """
    if n < 2:
        return None
    for p in range(2, 44):  # the least divisor found is prime
        if n % p == 0:
            k = 0
            while n % p == 0:
                n, k = n // p, k + 1
            return (p, k) if n == 1 else None
    k, e = 1, 2
    while e <= n.bit_length() // 5:
        if is_prime(e) and _iroot(n, e) ** e == n:
            n, k = _iroot(n, e), k * e
        else:
            e += 1
    return (n, k) if is_prime(n) else None


def divisors(n: int) -> list:
    """Sorted positive divisors of n >= 1, by a scan (n is a degree here)."""
    return [d for d in range(1, n + 1) if n % d == 0]


def prime_divisors(n: int) -> list:
    return [d for d in divisors(n) if is_prime(d)]


def prime_powers_upto(n: int) -> list:
    """All prime powers p^k <= n, ascending."""
    return [m for m in range(2, n + 1) if prime_power(m) is not None]


@lru_cache(maxsize=None)
def count_irreducibles(q: int, n: int) -> int:
    """m(n, q), by inverting the divisor sum  sum_{d | n} d*m(d, q) = q^n."""
    if n < 1:
        raise ValueError("degree must be >= 1")
    total = q**n
    for d in divisors(n):
        if d < n:
            total -= d * count_irreducibles(q, d)
    assert total % n == 0
    return total // n


def nk(k: int) -> int:
    """(3^k - 1) / 2: the reflection points 1, 4, 13, 40, ... (all-ones in ternary)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return (3**k - 1) // 2
