"""The primality test: trial division below 2**32, the strong-pseudoprime
test to the first thirteen prime bases above it."""

import math

import pytest

from maxcyc.numutil import _strong_probable_prime, is_prime


def trial_division(n):
    return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))


def test_is_prime_matches_trial_division_below_10_5():
    assert [n for n in range(10**5) if is_prime(n)] == [
        n for n in range(10**5) if trial_division(n)
    ]


def test_strong_test_matches_trial_division_below_10_5():
    # the route above 2**32, on the odd n above every base
    odd = range(43, 10**5, 2)
    assert [n for n in odd if _strong_probable_prime(n)] == [n for n in odd if trial_division(n)]


@pytest.mark.parametrize("n, factors", [
    (2**32 + 1, (641, 6700417)),
    (2**67 - 1, (193707721, 761838257287)),
    # a strong pseudoprime to every base up to 31: base 37 rejects it
    (3825123056546413051, (149491, 747451, 34233211)),
    # a strong pseudoprime to every base up to 37: base 41 rejects it
    (318665857834031151167461, (399165290221, 798330580441)),
])
def test_composites_above_2_32_are_rejected(n, factors):
    assert math.prod(factors) == n
    assert not is_prime(n)


@pytest.mark.parametrize("n", [2**32 - 5, 2**32 + 15, 2**61 - 1, 10**18 + 3, 2**89 - 1])
def test_primes_around_and_above_2_32(n):
    assert is_prime(n)
