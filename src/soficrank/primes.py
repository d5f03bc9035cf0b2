"""Primality and factorization of machine-word integers.

``isprime`` is exact for every n < 2^64: trial division by the primes up to
47, then strong probable-prime (Miller-Rabin) tests to Sinclair's seven
bases 2, 325, 9375, 28178, 450775, 9780504, 1795265022, which no composite
below 2^64 passes (each base is reduced mod n and skipped when that is 0).
Larger n raise ``ValueError``: the rank engine's primes stay below 2^63.

``prime_factors`` finds the distinct primes of a small modulus (Sanov and
grid moduli) by trial division.
"""

__all__ = ["isprime", "prime_factors"]

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
_BASES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)
_LIMIT = 1 << 64


def isprime(n):
    """True when the integer n is prime; exact for n < 2^64."""
    if n >= _LIMIT:
        raise ValueError("isprime is exact only below 2^64, got %d" % n)
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n < 53 * 53:
        return True
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _BASES:
        a %= n
        if a == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_factors(n):
    """The distinct primes dividing the integer n >= 1, in increasing order."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out.append(n)
    return out
