"""Ranks at grid models of Z^k by splitting over characters.

At the translation model of (Z/n)^k that grid_quotient builds (the model
records n, and invariants._rank_table reads it there), linearize(f) is
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

A character of order m is a character of every stage whose modulus m
divides, with the same rank over Q(zeta_m) there, and its orbit has the
same size phi(m) at each.  So fourier_ranks ranks all the grid stages of a
sequence in one call, under that one rule: each round draws one batch of
primes p = 1 (mod L), L the lcm of the moduli, for every stage and matrix.
The orbits of each order m dividing some modulus are built once, in
(Z/m)^k (by formula from the prime powers dividing m, with no search), and
ranked once per prime, at w^(L/m), w one root of order L per prime (the
batch's roots joined by CRT); a stage's value at a prime is the sum over
the orbits of the orders dividing its modulus.  Each orbit stores its
exponents (L/m)(a.s mod m), one per monomial s, and a batch raises w to
each distinct exponent once, so nothing is sized by L or by a modulus.
The orbits are grouped by the set of stages whose moduli their order
divides and taken a slice of _SLICE at a time within a group: each slice
gets one table of character values zeta^(a.s), which every matrix still
open at a stage of the group reads, and _split_values ranks a matrix's
orbits of that slice together, in one fraction-free elimination modulo the
product of the batch's primes along the pivot sequence of one lead orbit.
An orbit that this does not rank at every prime of the batch, because one
of its pivots is not a unit (it is zero modulo some prime of the batch) or
its remainder is not zero, is eliminated again alone, and at a pivot that
is not a unit there, that orbit alone is ranked at each prime.  Each
prime's value is an exact rank, so the values do not depend on how the
orbits are sliced or grouped.
"""

from __future__ import annotations

from itertools import product
from math import lcm, prod
from operator import add, mul

from .primes import prime_factors
from .rank import DEFAULT_POLICY, multimodular_rank

__all__ = ["character_orbits", "fourier_ranks"]

# orbits ranked together in one elimination; the koszul_euler solve time
# levels off from 64 up, and the slice bounds what one elimination holds
_SLICE = 64


def character_orbits(k, m):
    """One (representative, orbit size) pair per orbit of the points of
    exact order m in (Z/m)^k under a -> u.a for the units u of Z/m; every
    orbit has phi(m) points.

    The units of Z/m = prod Z/p^e act on (Z/m)^k = prod (Z/p^e)^k one
    factor p^e || m at a time, so an orbit is a product of one orbit per
    factor.  A point of order p^e of (Z/p^e)^k is one that is not zero
    mod p, on which the units act freely: its orbit has phi(p^e) points and
    holds one normal form b, whose first coordinate that is a unit mod p is
    1 and whose coordinates before it are multiples of p.  Scaled by
    m / p^e, that form is moved by a unit at p and is zero at every other
    prime, so the representative of a product of orbits is the sum of its
    factors' scaled forms mod m.  Nothing of size m^k is built and nothing
    is searched.  Not memoized: fourier_ranks builds each order once per
    call.
    """
    orbits = [((0,) * k, 1)]
    for p in prime_factors(m):
        q = p
        while m % (q * p) == 0:
            q *= p
        forms = [tuple(m // q * x for x in (*head, 1, *tail))
                 for i in range(k)
                 for head in product(range(0, q, p), repeat=i)
                 for tail in product(range(q), repeat=k - 1 - i)]
        phi = q - q // p
        orbits = [(tuple((x + y) % m for x, y in zip(a, b)), s * phi)
                  for a, s in orbits for b in forms]
    return tuple(orbits)


def _root_of_unity(n, p, moduli=None):
    """A primitive n-th root of unity mod a prime p = 1 (mod n); ValueError
    for any other p, which holds none.  ``moduli``, when given, are numbers
    whose lcm is n: the primes of n are read from them one at a time, so
    trial division never runs up to sqrt(n)."""
    e, r = divmod(p - 1, n)
    if r:
        raise ValueError("%d is not 1 mod %d" % (p, n))
    factors = {l for m in moduli or (n,) for l in prime_factors(m)}
    for x in range(1, p):  # x = 1 gives w = 1, the root for n = 1
        w = pow(x, e, p)
        if all(pow(w, n // l, p) != 1 for l in factors):
            return w


def _eliminate(entries, chars, width, primes):
    """(r, ok) for the matrices f(chi_O) of a slice of ``width`` orbits, f
    given as ``entries`` (lists of (coefficient, monomial column) pairs) and
    ``chars`` the slice's character values modulo N, the product of the
    distinct ``primes``, one list over its orbits per monomial: ok[j] says
    that orbit j has rank r modulo every one of those primes.

    Each entry is evaluated over the whole slice with one list sweep per
    term.  Every orbit is then eliminated fraction-free modulo N along one
    pivot sequence, read from the slice's last orbit, the lead: a row is
    scaled by the pivot before the pivot row is subtracted.  Where an
    orbit's pivots are all units mod N (their product is), every step is
    invertible modulo each prime factor, and its r pivot rows stay
    independent there; if its rows below them end at zero, its rank is r
    modulo each factor.  The product is a unit exactly when it is nonzero
    modulo every prime, which is how it is tested.  The lead's own rows
    below always end at zero, so in a slice of one orbit only a pivot that
    is not a unit leaves ok False.
    """
    N = prod(primes)

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
    ok = units
    for p in primes:  # a unit mod N exactly when nonzero mod each prime
        ok = [k and u % p for k, u in zip(ok, units)]
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
    rank, ok = _eliminate(entries, chars, len(sizes), primes)
    total = rank * sum(size for size, good in zip(sizes, ok) if good)
    values = [total] * len(primes)
    for j, good in enumerate(ok):
        if good:
            continue
        alone = [[v[j]] for v in chars]
        rank, (good,) = _eliminate(entries, alone, 1, primes)
        ranks = [rank] * len(primes) if good else [
            _eliminate(entries, [[v % p for v in col] for col in alone], 1, (p,))[0]
            for p in primes]
        values = [v + sizes[j] * r for v, r in zip(values, ranks)]
    return values


def fourier_ranks(matrices, moduli, policy=None):
    """Ranks over Q of linearize(f) at the grid model of (Z/n)^k for every
    grid modulus n in ``moduli`` and every f in ``matrices`` (over Z^k),
    each certified by the agreement rule over primes p = 1 (mod L), L the
    lcm of the moduli, without linearizing.

    One call serves a whole grid sequence.  A character of order m has the
    same rank over Q(zeta_m) at every stage whose modulus m divides, so the
    orbits of each order m dividing some modulus are built once, by
    character_orbits(k, m), and ranked once per prime, and a stage's value
    at a prime is the sum over the orbits of the orders dividing its
    modulus.  The orbits are grouped by the set of stages whose moduli
    their order divides and sliced within each group.  Each orbit a of
    order m stores its exponents (L/m)(a.s mod m), one per monomial s.  Per
    batch of primes there is one root w of order L, its power at each
    distinct exponent, and one table of character values per slice, which
    every matrix still open at a stage of the group reads.  Nothing is
    sized by L.  The rule runs over the (stage s, matrix i) pairs, as its
    matrices s * len(matrices) + i, and each pair closes on its own values,
    so every pair gets the RankResult the rule would give it alone at
    modulus L: for one modulus n, the one at n.  Returns one list of
    RankResults per stage, one per matrix, with method ``fourier_mod_p``; a
    result is uncertified when the policy's window holds too few primes
    p = 1 (mod L).  The caller must know that each model is that grid: a
    model that grid_quotient built records n.
    """
    policy = policy or DEFAULT_POLICY
    L, count = lcm(*moduli), len(matrices)
    # every monomial of the matrices once, in order of first use
    monomials = dict.fromkeys(
        g.payload for f in matrices for row in f.entries for x in row for g in x.terms)
    column = {s: i for i, s in enumerate(monomials)}
    entries = [[[[(c, column[g.payload]) for g, c in x.terms.items()] for x in row]
                for row in f.entries] for f in matrices]
    # the orbits of each order m dividing some modulus once, grouped under
    # the stages whose moduli m divides
    groups = {}
    for m in sorted({m for n in moduli for m in range(1, n + 1) if n % m == 0}):
        stages = tuple(j for j, n in enumerate(moduli) if n % m == 0)
        groups.setdefault(stages, []).extend(
            (m, a, size) for a, size in character_orbits(matrices[0].family.rank, m))
    # per group: its stages, one list of the exponents (L/m)(a.s mod m) over
    # its orbits per monomial, and the orbit sizes
    groups = [(stages, [[L // m * (sum(map(mul, a, s)) % m) for m, a, _ in orbits]
                        for s in monomials], [size for *_, size in orbits])
              for stages, orbits in groups.items()]
    used = {e for _, exponents, _ in groups for col in exponents for e in col}

    def rank_at(primes, todo):
        N = prod(primes)
        w = sum(_root_of_unity(L, p, moduli) * (N // p) * pow(N // p, -1, p) for p in primes) % N
        power = {e: pow(w, e, N) for e in used}
        totals = {divmod(t, count): [0] * len(primes) for t in todo}
        for stages, exponents, sizes in groups:
            # each matrix open at a stage of the group, and those stages' totals
            open_ = [(entries[i], ts) for i in range(count)
                     if (ts := [totals[s, i] for s in stages if (s, i) in totals])]
            for lo in range(0, len(sizes), _SLICE):
                chars = [[power[e] for e in col[lo:lo + _SLICE]] for col in exponents]
                for f, ts in open_:
                    values = _split_values(f, sizes[lo:lo + _SLICE], chars, primes)
                    for t in ts:
                        t[:] = map(add, t, values)
        return [totals[divmod(t, count)] for t in todo]

    results = multimodular_rank(rank_at, len(moduli) * count, policy, "fourier_mod_p", modulus=L)
    return [results[i:i + count] for i in range(0, len(results), count)]
