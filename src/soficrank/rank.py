"""Exact rank over Q and over F_p for sparse integer matrices.

rank_mod_p runs sparse Gaussian elimination modulo one prime, row by row.
It reads the rows of the residual below in increasing row index and reduces
each by the pivot rows stored so far, in the order they were made: a heap
of their ordinals, onto which the ordinal of a pivot column that fills in
is pushed.  A stored pivot row holds no earlier pivot column, so each is
applied at most once.  A nonempty remainder becomes the next pivot row,
pivoting on its column with the fewest entries in the residual, counted
once, ties going to the lowest column index.  The loop stops once the
pivots reach the bound B below: rank_p(M) <= rank_Q(M) <= B for every prime
p, so no later row can raise the rank.  Row index order matters at a
linearized matrix, whose row v*m + j is block row j at point v of the
model: in index order the block rows interleave, while in linearize's order
the first rows all come from block row 0, whose rank alone may fall short
of B.  The residual reads both stores of the SparseIntMatrix in their
stored order, so the pass is deterministic given the prime and the order in
which the matrix's entries were given.

Before that loop, one preprocessing step over Z, _residual, contracts the
edge rows: rows that are +-(e_i - e_j) over Z, as every row of the
linearized d_1 of F_k at a permutation model is.  The SparseIntMatrix holds
them apart, in its edge store, as (row, +1 column, -1 column), so no row is
tested for its shape here.  A union-find over the columns, a list with path
halving, takes each edge; an edge that joins two components is a pivot, one
whose ends are already joined is dependent and dropped.  Every row of the
row map, the residual, has each column replaced by the root of its
component and the merged entries summed as integers.  This is exact over Z:
an edge row is a +-1 pivot, and eliminating with it substitutes one column
by another in the other rows, a unimodular step.  The row space of the edge
rows is the kernel of the map summing coordinates over each component, over
any ring, so rank_p(M) = unions + rank_p(residual) for every prime p, p = 2
included.

The same step then drops every residual column that repeats an earlier
one up to sign over Z, that is, equals it or its negative: such a column
adds nothing to the column space, so the rank is unchanged.  At a regular
model a differential that is a right multiple of a norm element N_H has
columns constant on H-orbits, and all but one of each orbit's copies
would otherwise be carried through every row operation; after the +-1
character split of invariants, some of those copies come back negated.
Columns equal up to sign over Z are equal up to sign modulo every prime,
so the drop is exact at each.  Columns that agree only modulo the prime in
use are kept.  rank_mod_p reduces the kept entries modulo p as it reads
them.

None of this work depends on the prime, and a matrix's stores never
change, so _residual does it once per matrix: it keeps its record (the
unions, the residual rows in increasing row index, each kept column's
entry count and the bound B below) in the matrix's _residual slot, and
every pass and the proof check read that record.  No pass writes into the
shared rows; each reduces a copy modulo its prime.

rank_over_rationals first tries a proof.  Every rank mod p is a lower bound
on the rank over Q, and the rank over Q is at most the bound B = unions +
min(distinct nonzero residual rows, distinct nonzero residual columns),
where the residual is the one above, taken over Z, rows are keyed on
their exact integers and columns on their exact integers up to sign, never
on residues.  The contraction is
unimodular, so rank_p(M) <= rank_Q(M) <= B, and one rank_mod_p pass that
reaches B proves the rank (method bound_mod_p).  B costs O(nnz), once per
matrix.  With an empty row map the residual is empty, and B is the unions.
The pass runs at one fixed prime, 1073741789, the largest below 2^30: a
CPython int holds 30 bits per digit, so every residue is a one-digit int
and a product of two residues has at most two digits.  At a prime
dividing a minor that decides the rank, the pass falls short of B, which
is no proof; the agreement rule below then runs as it would without the
pass, and the pass's value still counts as a lower bound.

multimodular_rank holds the agreement rule, for every engine whose value at
a prime is a lower bound on the rational rank, and applies it to several
matrices at once.  Each round draws one batch of k distinct random primes
p_1..p_k, and the engine gives the value of every matrix still open at
each, in batch order.  A matrix's maximum value is certified once k of the
primes used attain it, and the matrix is then closed; while any stays
open, fresh primes are drawn (the maximum observed value is always a valid
lower bound).  The batches depend only on the policy and the modulus,
never on the values, so each matrix gets what the rule would give it
alone.  rank_over_rationals runs the rule on one matrix, with one
rank_mod_p pass per prime, and falls back to exact fraction-free (Bareiss)
elimination when the matrix is small enough.  fourier.fourier_ranks runs
it on every (stage, matrix) pair of a grid sequence at once, with the
character split of the grid models (see that module).

rank_dense_bareiss is the exact engine, behind that fallback and behind
invariants.finite_group_exact_betti, the finite-group oracle, which calls
it once per integer character block of an elementary abelian 2-subgroup
(see there) and sums the ranks.  It keeps
each column that does not repeat an earlier one up to sign over Z (such a
repeat adds nothing to the column space, so the rank over Q is unchanged)
and runs fraction-free elimination on those, with no prime and no step
shared with rank_mod_p.  It keys the columns on their exact integers up to
sign as _residual does, but by its own code, so a wrong drop in the
modular engine cannot be masked by the oracle.  It takes the rows in
their given order, reduces each by the pivot rows stored so far over the
columns that hold no pivot yet, and stores what is left as the next pivot
row.  That is Bareiss elimination with the pivot rows moved first, so every division
is exact.  A step whose multiplier is 0 would only rescale the row, so the
row skips it and is rescaled once, by every skipped step together, when
it becomes a pivot row.  It stops once every distinct column holds a
pivot, since no later row can raise the rank; every entry has been read
through operator.index before that.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from operator import index

from .primes import isprime

__all__ = [
    "RankPolicy",
    "RankResult",
    "rank_mod_p",
    "rank_over_rationals",
    "multimodular_rank",
    "rank_dense_bareiss",
    "DEFAULT_POLICY",
]

_MACHINE_WORD = 1 << 63
_PROOF_PRIME = 1073741789  # the largest prime below 2^30


def _check_prime(p):
    p = index(p)
    if p >= _MACHINE_WORD:
        raise ValueError("prime must fit in a machine word")
    if not isprime(p):
        raise ValueError("%d is not prime" % p)
    return p


def _residual(M):
    """The record of M's prime-independent work, built on first use and
    kept in M's ``_residual`` slot, in O(nnz).

    Returns ``(unions, rows, count, bound)``.  A union-find over the
    columns, a list with path halving, takes the edge store; ``unions``
    counts the edges that join two components.  ``rows`` is the row map
    with every column read as the root of its component and the merged
    entries summed over Z, less the rows that cancel and less every column
    that repeats an earlier one up to sign, as a list in increasing row
    index.  ``count`` maps each kept column to its entries in ``rows``, and
    ``bound`` is unions + min(distinct rows, kept columns), rows keyed on
    exact integers.  The rows may be M's own row dicts, and every pass
    shares them: nothing may change them.  Two kept columns may still agree
    modulo a prime: a drop keyed over Z leaves the rank modulo every prime
    that of the full residual.  M's stores never change, so the record
    holds for as long as M does.
    """
    if M._residual is not None:
        return M._residual
    _, heads, tails = M._edges
    rows = M._row_map
    unions = 0
    if heads:
        parent = list(range(M.cols))
        for a, b in zip(heads, tails):
            # both ends to their roots, halving the paths on the way
            while parent[a] != a:
                parent[a] = a = parent[parent[a]]
            while parent[b] != b:
                parent[b] = b = parent[parent[b]]
            if a != b:
                parent[a] = b
                unions += 1
    if heads and rows:
        # only the residual reads the roots: point every column at its own
        for c, up in enumerate(parent):
            while parent[up] != up:
                up = parent[up]
            parent[c] = up
        merged_rows = {}
        for r, row in rows.items():
            merged = {}
            for c, v in row.items():
                c = parent[c]
                merged[c] = merged.get(c, 0) + v
            merged = {c: v for c, v in merged.items() if v}
            if merged:
                merged_rows[r] = merged
        rows = merged_rows
    entries = {}  # column -> its rows and values, interleaved
    for r, row in rows.items():
        for c, v in row.items():
            col = entries.get(c)
            if col is None:
                entries[c] = [r, v]
            else:
                col += r, v
    # a column that repeats an earlier one up to sign adds nothing to the
    # column space: key each on its values, negated when the first is < 0
    first = {}
    for c, col in entries.items():
        if col[1] < 0:
            col[1::2] = [-v for v in col[1::2]]
        first.setdefault(tuple(col), c)
    if len(first) < len(entries):
        kept = set(first.values())
        rows = {r: {c: v for c, v in row.items() if c in kept} for r, row in rows.items()}
    rows = [rows[r] for r in sorted(rows)]
    count = {c: len(col) // 2 for col, c in first.items()}
    distinct_rows = len(set(map(frozenset, map(dict.items, rows))))
    M._residual = unions, rows, count, unions + min(distinct_rows, len(count))
    return M._residual


def rank_mod_p(M, p, stats=None):
    """Rank of M over F_p; always a lower bound for the rank over Q.

    _residual contracts the edge store (rows +-(e_i - e_j)), each union one
    pivot, merges the rows of the row map through the roots, drops every
    column that repeats an earlier one up to sign and takes the bound B, all
    over Z and once per matrix.  The pass only eliminates mod p: the
    residual rows are read in increasing row index, each reduced mod p by
    the pivot rows stored so far, in the order they were made; a nonempty
    remainder becomes the next pivot row, pivoting on its column with the
    fewest entries in the residual, then the lowest index.  The loop stops
    once the pivots reach B, which no rank modulo any prime exceeds.
    Every step is exact for every prime (see the module docstring).  ``p``
    is one prime below 2^63; a value that is not an integer, a tuple of
    primes included, raises TypeError.

    ``stats``, if a dict, receives ``initial_nnz``, which is ``M.nnz``,
    ``peak_nnz``, the larger of ``M.nnz`` and the entries held in the
    stored pivot rows, and ``pivots``, the rank; each union counts one
    pivot.
    """
    p = _check_prime(p)
    unions, residual, count, bound = _residual(M)
    pivots = []  # (pivot column, rest of the row divided by minus the pivot)
    ordinal = {}  # pivot column -> its place in pivots
    held = 0
    rank = unions
    for row in residual:
        row = {c: w for c, v in row.items() if (w := v % p)}
        heap = [ordinal[c] for c in row if c in ordinal]
        heapify(heap)
        while heap:
            c, rest = pivots[heappop(heap)]
            f = row.pop(c, 0)
            if not f:
                continue  # pushed twice, or cancelled since its push
            for cc, v in rest:
                if cc in row:
                    nv = (row[cc] + f * v) % p
                    if nv:
                        row[cc] = nv
                    else:
                        del row[cc]
                elif nv := f * v % p:
                    row[cc] = nv
                    if cc in ordinal:
                        heappush(heap, ordinal[cc])
        if not row:
            continue
        c = min(row, key=lambda c: (count[c], c))
        inv = pow(row.pop(c), -1, p)
        ordinal[c] = len(pivots)
        pivots.append((c, [(cc, -v * inv % p) for cc, v in row.items()]))
        held += 1 + len(row)
        rank += 1
        if rank == bound:
            break  # no later row can raise the rank
    if stats is not None:
        stats["initial_nnz"] = nnz = M.nnz
        stats["peak_nnz"] = max(nnz, held)
        stats["pivots"] = rank
    return rank


def rank_dense_bareiss(dense_rows):
    """Exact rank over Q of an integer matrix given as dense rows.

    The working copy holds each column once up to sign, in the order of its
    first occurrence, negated when its first nonzero entry is negative: a
    column that equals an earlier one or its negative over Z adds nothing
    to the column space, so the rank is unchanged.
    Fraction-free (Bareiss) elimination then takes the rows in order: each
    is reduced by the pivot rows stored so far, over the columns that hold
    no pivot yet, and becomes the next pivot row if anything is left; the
    scaling of a step whose multiplier is 0 waits until then.  It
    stops once every distinct column holds a pivot.  No prime is used
    anywhere.  Rows of unequal length raise ValueError, and an entry that
    is not an integer raises TypeError (operator.index), since truncating
    either would give a wrong exact rank.
    """
    n = len(dense_rows[0]) if dense_rows else 0
    if any(len(r) != n for r in dense_rows):
        raise ValueError("rank_dense_bareiss needs rows of equal length")
    cols = {}
    for c in zip(*dense_rows):
        c = tuple(map(index, c))
        if next(filter(None, c), 0) < 0:
            c = tuple(-x for x in c)
        cols[c] = None
    # each pivot: its position among the columns free before it, its value,
    # and the rest of its row over the columns still free after it
    pivots = []
    for row in zip(*cols):
        if not any(row):
            continue
        row = list(row)
        # the Bareiss row is row * prev / base: a step whose multiplier is 0
        # only scales it by d / prev, so it is skipped and base is kept
        prev = base = 1
        for t, d, rest in pivots:
            a = row.pop(t)
            if a:
                row = [(d * x - a * y) // base for x, y in zip(row, rest)]
                base = d
            prev = d
        t = next((t for t, x in enumerate(row) if x), None)
        if t is not None:
            if base != prev:
                row = [x * prev // base for x in row]  # every skipped step at once
            pivots.append((t, row.pop(t), row))
            if not row:
                break  # every distinct column holds a pivot
    return len(pivots)


@dataclass(frozen=True)
class RankPolicy:
    """Multi-modular certification policy for multimodular_rank; every
    field is an integer, checked on construction (primes fit a word)."""

    primes_count: int = 3
    prime_bits: tuple = (50, 62)
    dense_threshold: int = 500
    max_rounds: int = 3
    seed: int = 0

    def __post_init__(self):
        for name in ("primes_count", "dense_threshold", "max_rounds", "seed"):
            object.__setattr__(self, name, index(getattr(self, name)))
        bits = tuple(map(index, self.prime_bits))
        object.__setattr__(self, "prime_bits", bits)
        if self.primes_count < 1 or self.max_rounds < 1:
            raise ValueError("primes_count and max_rounds must be at least 1")
        if self.dense_threshold < 0:
            raise ValueError("dense_threshold must be non-negative")
        if len(bits) != 2 or not 0 <= bits[0] < bits[1] <= 63:
            raise ValueError("prime_bits needs two integers lo hi with 0 <= lo < hi <= 63")


DEFAULT_POLICY = RankPolicy()


@dataclass(frozen=True)
class RankResult:
    rank: int
    # bound_mod_p: proved, one pass at the proof prime met the bound over Z;
    # sparse_mod_p | fourier_mod_p: the agreement rule of multimodular_rank;
    # dense_fraction_free: exact, by Bareiss or for the zero matrix
    method: str
    primes_used: tuple
    certified: bool


# the rank of a zero matrix, and of the zero map a stage never linearizes
_ZERO_MAP = RankResult(0, "dense_fraction_free", (), True)


def _prime_in_class(x, hi, modulus):
    """Smallest prime p >= x with p < hi and p = 1 (mod modulus), or None."""
    x += (1 - x) % modulus
    while x < hi:
        if isprime(x):
            return x
        x += modulus
    return None


def _draw_primes(rng, bits, count, used, modulus=1):
    """Up to ``count`` fresh random primes p = 1 (mod modulus) in the window
    [2^bits[0], 2^bits[1]); fewer when the window holds fewer."""
    lo, hi = 1 << bits[0], 1 << bits[1]
    out = []
    attempts = 0
    while len(out) < count and attempts < 64 * count:
        attempts += 1
        p = _prime_in_class(rng.randrange(lo, hi), hi, modulus)
        if p is None:
            p = _prime_in_class(lo + 1, hi, modulus)
            if p is None:
                break
        if p in used or p in out:
            continue
        out.append(p)
    return out


def multimodular_rank(rank_at, count, policy, method, modulus=1):
    """The certification rule, for every engine that ranks modulo primes,
    applied to ``count`` matrices at once; one RankResult per matrix.

    ``rank_at(batch, todo)`` takes a tuple of distinct primes and the
    indices of the matrices still open, and returns for each of those the
    rank at each prime, in batch order, each a lower bound for the rank
    over Q.  Each round draws one batch of ``primes_count`` fresh primes
    p = 1 (mod ``modulus``) from the policy's window and calls
    ``rank_at`` once.  A matrix's maximum value so far is certified once
    ``primes_count`` of the primes used attain it, and it is then closed:
    no later round ranks it.  When the rounds or the window run out, every
    open matrix gets its maximum uncertified.  The batches depend only on
    the policy and the modulus, so each matrix gets the result that the
    rule would give it alone.
    """
    rng = random.Random(policy.seed)
    used = []
    values = [{} for _ in range(count)]
    results = [None] * count
    k = policy.primes_count
    for _ in range(policy.max_rounds):
        todo = [i for i, r in enumerate(results) if r is None]
        batch = tuple(_draw_primes(rng, policy.prime_bits, k, used, modulus)) if todo else ()
        if not batch:
            break
        used += batch
        for i, at in zip(todo, rank_at(batch, todo), strict=True):
            ranks = values[i]
            ranks.update(zip(batch, at, strict=True))
            best = max(ranks.values())
            if sum(1 for p in used if ranks[p] == best) >= k:
                results[i] = RankResult(best, method, tuple(used), True)
    return [r or RankResult(max(ranks.values(), default=0), method, tuple(used), False)
            for r, ranks in zip(results, values)]


def rank_over_rationals(M, policy=None):
    """Certified rank over Q of a sparse integer matrix.

    One rank_mod_p pass at the proof prime that reaches the bound over Z
    (see the module docstring) proves the rank, under any policy.
    Otherwise certification is the rule of multimodular_rank over random
    large primes, with one rank_mod_p pass per drawn prime as the engine.
    Falls back to Bareiss when rows + cols is at most the policy's
    dense_threshold; policy exhaustion beyond it returns the best lower
    bound uncertified: the rule's value, or the proof pass's when that is
    larger, with the proof prime first in primes_used.  Every pass and the
    proof check read the one record of _residual, built once per matrix.
    """
    if policy is None:
        policy = DEFAULT_POLICY
    if M.is_zero():
        return _ZERO_MAP
    # a lower bound that meets an upper bound is the rank
    rank = rank_mod_p(M, _PROOF_PRIME)
    if rank == _residual(M)[3]:
        return RankResult(rank, "bound_mod_p", (_PROOF_PRIME,), True)
    (result,) = multimodular_rank(
        lambda batch, _: [[rank_mod_p(M, p) for p in batch]], 1, policy, "sparse_mod_p"
    )
    if result.certified:
        return result
    if M.rows + M.cols <= policy.dense_threshold:
        exact = rank_dense_bareiss(M.to_dense())
        return RankResult(exact, "dense_fraction_free", result.primes_used, True)
    if rank > result.rank:
        return RankResult(rank, result.method, (_PROOF_PRIME,) + result.primes_used, False)
    return result

