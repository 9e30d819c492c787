"""Small number-theory helpers: trial division, and a strong-pseudoprime
test for the primality of large parameters."""

from __future__ import annotations

import math

# The least composite that passes the strong-pseudoprime test to the first
# thirteen primes is 3317044064679887385961981 (Sorenson and Webster, 2015),
# so the test is exact below it; a family parameter that large fails a cap.
_STRONG_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Whether n is prime, in time bounded by its number of digits: trial
    division below 2**32, the strong-pseudoprime test above it."""
    if n < 4:
        return n >= 2
    if n % 2 == 0:
        return False
    if n >= 2**32:
        return _strong_probable_prime(n)
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _strong_probable_prime(n: int) -> bool:
    """Miller-Rabin on an odd n > 41: with n - 1 = d * 2**s and d odd,
    each base a of :data:`_STRONG_BASES` must give a**d = 1, or
    a**(d * 2**r) = -1 for some r < s, modulo n."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _STRONG_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_factors(n: int) -> list[int]:
    """Distinct prime divisors of n, ascending."""
    out: list[int] = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return out


def prime_power_base(n: int) -> int | None:
    """The prime p with n = p**k (k >= 1), or None when n is not a prime power."""
    ps = prime_factors(n)
    return ps[0] if len(ps) == 1 else None


def p_part(n: int, p: int) -> int:
    """Largest power of p dividing n."""
    m = 1
    while n % p == 0:
        n //= p
        m *= p
    return m


def multiplicative_order(a: int, modulus: int) -> int:
    """Least k >= 1 with a**k = 1 modulo `modulus`; a must be a unit."""
    if math.gcd(a, modulus) != 1:
        raise ValueError(f"{a} is not a unit modulo {modulus}")
    k = 1
    x = a % modulus
    while x != 1 % modulus:
        x = x * a % modulus
        k += 1
    return k
