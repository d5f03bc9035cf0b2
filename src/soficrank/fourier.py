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
out once per call, the orbits by formula from the prime powers dividing n,
with no search over (Z/n)^k; per batch there is one root of unity (the
primes' roots joined by CRT) and one power table.  The orbits are then
taken a slice of _SLICE at a time: each slice gets one table of character
values zeta^(a.s), which every matrix still open reads, and _split_values
ranks a matrix's orbits of that slice together, in one fraction-free
elimination modulo the product of the batch's primes along the pivot
sequence of one lead orbit.
An orbit that this does not rank at every prime of the batch, because one
of its pivots is not a unit or its remainder is not zero, is eliminated
again alone, and at a pivot that is not a unit there, that orbit alone is
ranked at each prime.  Each prime's value is an exact rank, so the values
do not depend on how the orbits are sliced.
"""

from __future__ import annotations

from itertools import product
from math import gcd, prod
from operator import add, mul

from .primes import prime_factors
from .rank import DEFAULT_POLICY, multimodular_rank

__all__ = ["character_orbits", "fourier_ranks"]

# orbits ranked together in one elimination; the koszul_euler solve time
# levels off from 64 up, and the slice bounds what one elimination holds
_SLICE = 64


def character_orbits(k, n):
    """One (representative, orbit size) pair per orbit of (Z/n)^k under
    a -> u.a for the units u of Z/n; the sizes add up to n^k.

    The units of Z/n = prod Z/p^e act on (Z/n)^k = prod (Z/p^e)^k one
    factor p^e || n at a time, so an orbit is a product of one orbit per
    factor, and its size is the product of theirs.  Over Z/p^e a point of
    order p^j is p^(e-j) b, with b in (Z/p^j)^k not zero mod p, on which
    the units act freely through their residues mod p^j: its orbit has
    phi(p^j) points and holds one normal form b, whose first coordinate
    that is a unit mod p is 1 and whose coordinates before it are multiples
    of p.  Scaled by n / p^j rather than p^(e-j), that form is moved by the
    unit n / p^e at p and is zero at every other prime, so the
    representative of a product of orbits is the sum of its factors' scaled
    forms mod n.  Nothing of size n^k is built and nothing is searched.
    Not memoized: fourier_ranks builds them once per call, which is once
    per grid stage.
    """
    orbits = [((0,) * k, 1)]
    for p in prime_factors(n):
        forms = [((0,) * k, 1)]
        q = p
        while n % q == 0:
            forms += [(tuple(n // q * x for x in (*head, 1, *tail)), q - q // p)
                      for i in range(k)
                      for head in product(range(0, q, p), repeat=i)
                      for tail in product(range(q), repeat=k - 1 - i)]
            q *= p
        orbits = [(tuple((x + y) % n for x, y in zip(a, b)), s * t)
                  for a, s in orbits for b, t in forms]
    return tuple(orbits)


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


def _eliminate(entries, chars, width, N):
    """(r, ok) for the matrices f(chi_O) of a slice of ``width`` orbits, f
    given as ``entries`` (lists of (coefficient, monomial column) pairs) and
    ``chars`` the slice's character values modulo N, one list over its
    orbits per monomial: ok[j] says that orbit j has rank r modulo every
    prime factor of N.

    Each entry is evaluated over the whole slice with one list sweep per
    term.  Every orbit is then eliminated fraction-free modulo N along one
    pivot sequence, read from the slice's last orbit, the lead: a row is
    scaled by the pivot before the pivot row is subtracted.  Where an
    orbit's pivots are all units mod N (their product is), every step is
    invertible modulo each prime factor, and its r pivot rows stay
    independent there; if its rows below them end at zero, its rank is r
    modulo each factor.  The lead's own rows below always end at zero, so
    in a slice of one orbit only a pivot that is not a unit leaves ok False.
    """
    def evaluate(x):
        acc = [0] * width
        for c, m in x:
            acc = [a + c * v for a, v in zip(acc, chars[m])]
        return [a % N for a in acc]

    A = [[evaluate(x) for x in row] for row in entries]
    lead = width - 1
    units = [1] * width
    rank = 0
    for c in range(len(A[0])):
        pr = next((i for i in range(rank, len(A)) if A[i][c][lead]), None)
        if pr is None:
            continue
        A[rank], A[pr] = A[pr], A[rank]
        prow = A[rank]
        piv = prow[c]
        units = [u * v % N for u, v in zip(units, piv)]
        for i in range(rank + 1, len(A)):
            f = A[i][c]
            if any(f):
                A[i] = [[(x * v - g * y) % N for x, v, g, y in zip(xs, piv, f, ys)]
                        for xs, ys in zip(A[i], prow)]
        rank += 1
    ok = [gcd(u, N) == 1 for u in units]
    for row in A[rank:]:
        for values in row:
            ok = [k and not v for k, v in zip(ok, values)]
    return rank, ok


def _split_values(entries, sizes, chars, primes):
    """[sum_O |O| rank_p f(chi_(a_O)) for p in primes] over one slice of
    orbits, of sizes ``sizes``, for distinct primes, with f's ``entries``
    and the slice's ``chars`` modulo N, the primes' product, as _eliminate
    reads them.

    The slice is eliminated once modulo N.  Each orbit that this does not
    rank is eliminated again alone, modulo N, and if a pivot there is not a
    unit, that orbit alone is ranked once per prime over its values reduced
    mod p, where every nonzero pivot is a unit.
    """
    N = prod(primes)
    rank, ok = _eliminate(entries, chars, len(sizes), N)
    total = rank * sum(size for size, good in zip(sizes, ok) if good)
    values = [total] * len(primes)
    for j, good in enumerate(ok):
        if good:
            continue
        alone = [[v[j]] for v in chars]
        rank, (good,) = _eliminate(entries, alone, 1, N)
        ranks = [rank] * len(primes) if good else [
            _eliminate(entries, [[v % p for v in col] for col in alone], 1, p)[0]
            for p in primes]
        values = [v + sizes[j] * r for v, r in zip(values, ranks)]
    return values


def fourier_ranks(matrices, n, policy=None):
    """Ranks over Q of linearize(f) at the grid model of (Z/n)^k for every f
    in ``matrices`` (over Z^k), each certified by the agreement
    rule over primes p = 1 (mod n), without linearizing.

    One call serves a whole stage: it builds the character orbits and the
    exponents a.s mod n of every monomial s of the matrices once, and for
    each batch of primes one root, one power table and one table of
    character values, built a slice of orbits at a time, which every matrix
    still open reads slice by slice.  Returns one
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
    # one list over the orbits per monomial
    exponents = [[sum(map(mul, a, s)) % n for a, _ in orbits] for s in monomials]
    sizes = [size for _, size in orbits]

    def rank_at(primes, todo):
        N = prod(primes)
        w = sum(_root_of_unity(n, p) * (N // p) * pow(N // p, -1, p) for p in primes) % N
        powers = [1]
        for _ in range(n - 1):
            powers.append(powers[-1] * w % N)
        totals = [[0] * len(primes) for _ in todo]
        for lo in range(0, len(orbits), _SLICE):
            chars = [[powers[e] for e in col[lo:lo + _SLICE]] for col in exponents]
            for t, i in zip(totals, todo):
                values = _split_values(entries[i], sizes[lo:lo + _SLICE], chars, primes)
                t[:] = map(add, t, values)
        return totals

    return multimodular_rank(rank_at, len(matrices), policy, "fourier_mod_p", modulus=n)
