"""Ranks at grid models of Z^k by splitting over characters.

At the translation model of (Z/n)^k that grid_quotient builds (the model
records n, and invariants._stage_ranks reads it there), linearize(f) is
block-circulant: every block is a combination of commuting translations.
Over a field holding the n-th roots of unity the characters
chi_a(x^s) = zeta^(a.s), a in (Z/n)^k, diagonalize all translations at once,
so rank L(f) = sum_a rank f(chi_a), where f(chi_a) is the small m x n matrix
of entries sum_s c_s zeta^(a.s).

The units u of Z/n act on characters by a -> u.a, and f(chi_(u.a)) is the
Galois conjugate zeta -> zeta^u of f(chi_a), so every character of one orbit
O has the same rank over Q(zeta_n).  For a prime p = 1 (mod n) and w a
primitive n-th root of unity mod p, evaluating f(chi_a) at zeta = w reduces
it modulo a prime of Z[zeta_n] above p, which can only lower its rank.
Hence, with one representative a_O per orbit,

    sum_O |O| * rank_p f(chi_(a_O))  <=  sum_a rank_Q(zeta) f(chi_a)
                                     =  rank_Q L(f),

and equality holds for all but finitely many p.  Each prime's value is thus
a lower bound for the rational rank, just as a mod-p rank of L(f) is, and
rank.multimodular_rank certifies it by the same rule.

fourier_ranks ranks all of a grid stage's matrices in one call, under that
one rule: one batch of primes per round for the whole stage.  The orbits
and the exponents a.s mod n of every monomial s of the stage are worked
out once per call; per batch there is one root of unity (the primes' roots
joined by CRT), one power table and one table of character values
zeta^(a.s), and every matrix still open reads them.  _split_values ranks
a matrix's orbits once modulo the product of the batch's primes, and at
the first orbit with a pivot that is not a unit there it ranks each prime
alone, over the same table reduced modulo that prime.
"""

from __future__ import annotations

from math import gcd, prod
from operator import mul

from .primes import prime_factors
from .rank import DEFAULT_POLICY, multimodular_rank

__all__ = ["character_orbits", "fourier_ranks"]


def character_orbits(k, n):
    """One (representative, orbit size) pair per orbit of (Z/n)^k under
    a -> u.a for the units u of Z/n; the sizes add up to n^k.

    A point a of order m = n / gcd(a, n) has u.a depending on u mod m only,
    and the units of Z/n reach every unit of Z/m, so its orbit is
    {u.a : u a unit of Z/m}, of size phi(m).  Points are indexed as
    sum_i a_i n^i; representatives come out in increasing index order.
    Not memoized: fourier_ranks builds them once per call, which is once
    per grid stage.
    """
    weights = [n ** i for i in range(k)]
    units = {}
    seen = bytearray(n ** k)
    out = []
    i = seen.find(0)
    while i >= 0:
        a = tuple(i // w % n for w in weights)
        m = n // gcd(n, *a)
        us = units.get(m)
        if us is None:
            us = units[m] = [u for u in range(m) if gcd(u, m) == 1]
        cols = [[u * c % n * w for u in us] for c, w in zip(a, weights)]
        for j in map(sum, zip(*cols)):
            seen[j] = 1
        out.append((a, len(us)))
        i = seen.find(0, i + 1)
    return tuple(out)


def _root_of_unity(n, p):
    """A primitive n-th root of unity mod a prime p = 1 (mod n); ValueError
    for any other p, which holds none."""
    e, r = divmod(p - 1, n)
    if r:
        raise ValueError("%d is not 1 mod %d" % (p, n))
    factors = prime_factors(n)
    for x in range(1, p):  # x = 1 gives w = 1, the root for n = 1
        w = pow(x, e, p)
        if all(pow(w, n // l, p) != 1 for l in factors):
            return w


def _rank_mod(rows, N):
    """Rank of a small dense matrix modulo a squarefree N, or None when a
    pivot is not a unit mod N (a composite N then has no common elimination).

    Fraction-free: a row is scaled by the pivot, a unit, before the pivot
    row is subtracted, which keeps the rank modulo every prime factor.
    """
    A = [list(r) for r in rows]
    rank = 0
    for c in range(len(A[0])):
        pr = next((i for i in range(rank, len(A)) if A[i][c]), None)
        if pr is None:
            continue
        A[rank], A[pr] = A[pr], A[rank]
        prow = A[rank]
        if gcd(piv := prow[c], N) != 1:
            return None
        for i in range(rank + 1, len(A)):
            f = A[i][c]
            if f:
                A[i] = [(x * piv - f * y) % N for x, y in zip(A[i], prow)]
        rank += 1
    return rank


def _split_values(entries, orbits, chars, primes):
    """[sum_O |O| rank_p f(chi_(a_O)) for p in primes], distinct primes, for
    f given as ``entries`` (lists of (coefficient, monomial column) pairs)
    and ``chars`` the character value table modulo N, the primes' product:
    one pass modulo N, or once an orbit's matrix meets a pivot that is not
    a unit mod N, one pass per prime over the table reduced mod p, where
    every nonzero pivot is a unit."""
    N = prod(primes)
    total = 0
    for (_, size), values in zip(orbits, chars):
        mat = [[sum([c * values[m] for c, m in x]) % N for x in row] for row in entries]
        r = _rank_mod(mat, N)
        if r is None:
            return [
                _split_values(entries, orbits, [[v % p for v in row] for row in chars], (p,))[0]
                for p in primes]
        total += size * r
    return [total] * len(primes)


def fourier_ranks(matrices, n, policy=None):
    """Ranks over Q of linearize(f) at the grid model of (Z/n)^k for every f
    in ``matrices`` (over Z^k), each certified by the agreement
    rule over primes p = 1 (mod n), without linearizing.

    One call serves a whole stage: it builds the character orbits and the
    exponents a.s mod n of every monomial s of the matrices once, and for
    each batch of primes one root, one power table and one table of
    character values, which every matrix still open reads.  Returns one
    RankResult per matrix, with method ``fourier_mod_p``, each the one the
    rule would give that matrix alone; it is uncertified when the policy's
    window holds too few such primes.  The caller must know that the model
    is that grid: a model that grid_quotient built records n.
    """
    policy = policy or DEFAULT_POLICY
    orbits = character_orbits(matrices[0].family.rank, n)
    # every monomial of the stage once, in order of first use
    monomials = dict.fromkeys(
        g.payload for f in matrices for row in f.entries for x in row for g in x.terms)
    column = {s: i for i, s in enumerate(monomials)}
    entries = [[[[(c, column[g.payload]) for g, c in x.terms.items()] for x in row]
                for row in f.entries] for f in matrices]
    exponents = [[sum(map(mul, a, s)) % n for s in monomials] for a, _ in orbits]

    def rank_at(primes, todo):
        N = prod(primes)
        w = sum(_root_of_unity(n, p) * (N // p) * pow(N // p, -1, p) for p in primes) % N
        powers = [1]
        for _ in range(n - 1):
            powers.append(powers[-1] * w % N)
        chars = [[powers[e] for e in row] for row in exponents]
        return [_split_values(entries[i], orbits, chars, primes) for i in todo]

    return multimodular_rank(rank_at, len(matrices), policy, "fourier_mod_p", modulus=n)
