"""The package's primality test and factorization against sympy as an oracle."""

import random

import pytest
import sympy

from soficrank.primes import isprime, prime_factors

CARMICHAEL_BELOW_10_4 = [561, 1105, 1729, 2465, 2821, 6601, 8911]
# strong pseudoprimes to the first several prime bases (Jaeschke 1993)
STRONG_PSEUDOPRIMES = [
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    3825123056546413051,
]
# primes that divide a Miller-Rabin base, which must be skipped mod n
BASE_DIVISORS = [73, 193, 407521, 299210837]


def assert_agrees(ns):
    bad = [n for n in ns if isprime(n) != sympy.isprime(n)]
    assert bad == []


def test_every_small_n():
    assert_agrees(range(200000))


def test_random_odd_machine_words():
    rng = random.Random(20261018)
    assert_agrees(rng.randrange(1 << 50, 1 << 63) | 1 for _ in range(2000))


def test_hard_inputs():
    semiprimes = []
    p = q = 1 << 31
    for _ in range(6):
        p, q = sympy.prevprime(p), sympy.nextprime(q)
        semiprimes += [p * q, p * p, q * q]
    cases = [2**61 - 1] + semiprimes + CARMICHAEL_BELOW_10_4 + STRONG_PSEUDOPRIMES
    assert_agrees(cases + BASE_DIVISORS)
    assert isprime(2**61 - 1) and all(map(isprime, BASE_DIVISORS))
    assert not any(map(isprime, CARMICHAEL_BELOW_10_4 + STRONG_PSEUDOPRIMES))


def test_beyond_two_to_the_64_raises():
    with pytest.raises(ValueError):
        isprime(2**64)
    assert isprime(2**64 - 59)  # the largest prime below 2^64


def test_prime_factors_match_factorint():
    bad = [n for n in range(1, 10001) if prime_factors(n) != sorted(sympy.factorint(n))]
    assert bad == []
