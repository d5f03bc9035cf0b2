"""Finite-scale approximants of the rank invariants of ZG chain complexes.

Every pipeline reduces to exact ranks of linearized matrices at finite
permutation models: at a genuine stage of degree d the homology rank in
degree j is n_j*d - rank L(d_j) - rank L(d_{j+1}), so the emitted value
(that quantity over d) is an exact rational.  Each series pipeline ranks
the differentials or relation matrices it needs once at each stage, in
one rank table (_rank_table), and a point is certified exactly when every
rank behind it is.  Every pipeline but relative reads its points from one
formula, the Betti table (_betti_table): betti, the mean-rank route mrk_j
(equal to the Betti value term by term), euler, the additivity defect of
d_1, which is b_1 of the complex K -> d_1 for kernel rows K, and vrk,
which is b_0 of the presentation complex R: ZG^m -> ZG^n of a module with
relation rows R (of the one-term complex (n) of a free module).  relative
is the difference b_0(M2) - b_0(M2/M1), in which the n*d terms cancel: it
ranks both relation matrices in one rank table and builds its points with
the same _point.  No rank outlives the call that computed it.  Heuristic
(non-genuine) models are rejected, because the image need not sit inside
the kernel there.

Ranks come from _stage_ranks.  At the translation model of (Z/n)^k that
grid_quotient built, which records n, it splits each rank over characters
without linearizing; no model is recognized from its images.  Characters
in one orbit of a -> u.a, u a unit mod n, are Galois conjugates and have
equal rank over Q(zeta_n); evaluating one representative per orbit at a
root of unity mod a prime p = 1 (mod n) can only lower that rank, so each
prime's weighted sum is a lower bound on rank_Q L(f) = sum_chi rank
f(chi), certified by the same agreement rule as a sparse mod-p rank.
Every other model, and any uncertified split, takes linearize and the
sparse engine, with its Bareiss fallback.  Once every matrix of a grid
stage has passed the size cap, one fourier.fourier_ranks call ranks them
all: it builds the stage's character orbits once, by formula from the
prime powers dividing n (no search over the n^k characters), draws one
batch of primes per round for the whole stage, and makes one root of unity
and one table of character values per batch, which every matrix still open
reads.
Nothing is cached across stages or calls.

A literal mean rank is built on one path for every family: module elements
are truncated to a finite window of group elements, and a finite family is
its own window.  It is certified only over a finite family, and only when
both of its ranks are; window-truncated values over infinite families are
heuristics and never certified.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from fractions import Fraction
from operator import index

from .fourier import fourier_ranks
from .groups import (
    FiniteQuotient,
    FiniteTable,
    QuotientSequence,
    extend_to_word,
    regular_quotient,
)
from .linearize import (
    DEFAULT_SIZE_CAP, SizeCapExceeded, SparseIntMatrix, check_size_cap, linearize,
)
from .rank import _ZERO_MAP, DEFAULT_POLICY, rank_dense_bareiss, rank_over_rationals
from .ring import ChainComplex, RingElement, RingMatrix

__all__ = [
    "SeriesPoint",
    "ApproximantSeries",
    "ModulePresentation",
    "betti_approximants",
    "vrk_approximants",
    "relative_vrk_approximants",
    "mrk_j_approximants",
    "euler_characteristic",
    "euler_approximants",
    "juzvinskii_defect",
    "finite_group_exact_betti",
    "literal_mean_rank_point",
    "series_to_csv",
]


@dataclass(frozen=True)
class SeriesPoint:
    degree: int
    value: Fraction
    certified: bool


@dataclass(frozen=True)
class ApproximantSeries:
    """A sequence of (model degree, exact rational) approximant values.

    ``chain`` is inherited from the quotient sequence; only under chain=True
    does the series approximate the limiting invariant.
    """

    invariant_label: str
    points: tuple
    chain: bool

    def __post_init__(self):
        pts = tuple(self.points)
        object.__setattr__(self, "points", pts)
        degrees = [p.degree for p in pts]
        if any(a >= b for a, b in zip(degrees, degrees[1:])):
            raise ValueError("point degrees must strictly increase")
        for p in pts:
            if not isinstance(p.value, Fraction):
                raise TypeError("series values must be exact rationals")

    def values(self):
        return [p.value for p in self.points]

    def __iter__(self):
        return iter(self.points)


def series_to_csv(series_list, path):
    """Write series rows to the file at ``path``: invariant_label, degree,
    value_num, value_den, certified."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["invariant_label", "degree", "value_num", "value_den", "certified"])
        for s in series_list:
            for p in s.points:
                w.writerow(
                    [
                        s.invariant_label,
                        p.degree,
                        p.value.numerator,
                        p.value.denominator,
                        "true" if p.certified else "false",
                    ]
                )


@dataclass(frozen=True)
class ModulePresentation:
    """Cokernel presentation: free rank n, relation rows spanning the
    relation submodule (relations may be None for a free module)."""

    family: object
    free_rank: int
    relations: object = None  # RingMatrix or None

    def __post_init__(self):
        object.__setattr__(self, "free_rank", index(self.free_rank))
        if self.free_rank < 1:
            raise ValueError("free rank must be positive")
        rel = self.relations
        if rel is not None:
            if not isinstance(rel, RingMatrix):
                raise TypeError("relations must be a RingMatrix or None")
            if rel.family != self.family:
                raise ValueError("relation matrix family mismatch")
            if rel.cols != self.free_rank:
                raise ValueError(
                    "relation matrix has %d columns, expected %d"
                    % (rel.cols, self.free_rank)
                )


def _check_generators(M, *gens):
    """Check that each of ``gens`` is a RingMatrix whose rows are vectors
    of the module M: over its family, with free_rank columns."""
    for g in gens:
        if not isinstance(g, RingMatrix) or g.family != M.family or g.cols != M.free_rank:
            raise ValueError(
                "generators must be a RingMatrix of %d-column rows over the "
                "module's family" % M.free_rank
            )


# ---------------------------------------------------------------------------
# one rank table per stage

def _stage_ranks(q, matrices, policy, size_cap):
    """The RankResult over Q of linearize(f, q) for each f in ``matrices``,
    None the zero map.

    At a model that grid_quotient built, which records its modulus n, the
    stage's nonzero matrices, once each is within the size cap, go to one
    fourier.fourier_ranks call, which splits every rank over the characters
    of (Z/n)^k without linearizing and without building the model's
    permutations: one batch of primes per round, and one root and one
    table of character values per batch, for all of them.  Any other
    model, or an uncertified split, takes the sparse engine.
    """
    n = q._grid
    nonzero = [f for f in matrices if f is not None]
    split = iter(())
    if n is not None and nonzero:
        for f in nonzero:
            check_size_cap(f, q, size_cap)
        split = iter(fourier_ranks(nonzero, n, policy))
    results = []
    for f in matrices:
        if f is None:
            results.append(_ZERO_MAP)
            continue
        result = next(split, None)
        if result is None or not result.certified:
            result = rank_over_rationals(linearize(f, q, size_cap), policy)
        results.append(result)
    return results


def _rank_table(family, Q, matrices, policy, size_cap):
    """Q as a QuotientSequence of genuine models over ``family``, and for
    each of its stages the degree d and the RankResult of every matrix in
    ``matrices`` at that stage (None the zero map), each ranked once."""
    if not isinstance(Q, QuotientSequence):
        Q = QuotientSequence(tuple(Q))
    for q in Q:
        if not q.genuine:
            raise ValueError(
                "homology pipelines require genuine quotients; "
                "got heuristic model %r" % q.label
            )
    if family != Q.family:
        raise ValueError("pipeline and quotient families differ")
    policy = policy or DEFAULT_POLICY
    table = [(q.degree, _stage_ranks(q, matrices, policy, size_cap)) for q in Q]
    return Q, table


def _point(d, value, ranks):
    """The point value at degree d, certified when every rank behind it is."""
    return SeriesPoint(d, value, all(r.certified for r in ranks))


def _betti_table(C, Q, degrees, policy, size_cap):
    """Q as a QuotientSequence, and for each of its stages the degree d, the
    RankResults of d_lo ... d_{hi+1} (lo and hi the ends of the range
    ``degrees``), each ranked once, and the Betti point of every j in
    ``degrees``: (n_j*d - rank L(d_j) - rank L(d_{j+1})) / d, certified when
    both of its ranks are."""
    differentials = [C.differential(i) for i in range(degrees[0], degrees[-1] + 2)]
    Q, table = _rank_table(C.family, Q, differentials, policy, size_cap)
    return Q, [
        (d, ranks, [
            _point(d, Fraction(C.rank_of(j) * d - low.rank - high.rank, d), (low, high))
            for j, low, high in zip(degrees, ranks, ranks[1:])
        ])
        for d, ranks in table
    ]


def _betti_series(label, C, Q, j, policy, size_cap):
    """The degree-j series of the Betti table under ``label``."""
    if not 0 <= j <= C.top_degree:
        raise ValueError("degree index %d outside the complex" % j)
    Q, table = _betti_table(C, Q, range(j, j + 1), policy, size_cap)
    return ApproximantSeries(label, tuple(points[0] for _, _, points in table), Q.chain)


def _kernel_complex(C, kernel_rows):
    """The complex K -> d_1 of a two-term complex C and the rows K of
    ``kernel_rows`` (C itself when None); ChainComplex checks that K is over
    C's family, has n_1 columns and that K*d_1 = 0."""
    if C.top_degree != 1:
        raise ValueError("juzvinskii_defect expects a two-term complex")
    if kernel_rows is None:
        return C
    if not isinstance(kernel_rows, RingMatrix):
        raise ValueError("kernel rows must be a RingMatrix")
    return ChainComplex(C.family, (kernel_rows.rows,) + C.ranks, (kernel_rows,) + C.differentials)


def _module_complex(M):
    """The presentation complex R: ZG^m -> ZG^n of M for its m relation
    rows R, or the one-term complex (n) of a free module, whose d_0 and d_1
    are None and rank as zero maps; its b_0 is the rank density of M."""
    R = M.relations
    if R is None:
        return ChainComplex(M.family, (M.free_rank,), ())
    return ChainComplex(M.family, (R.rows, M.free_rank), (R,))


# ---------------------------------------------------------------------------
# pipelines

def betti_approximants(C, Q, j, policy=None, size_cap=DEFAULT_SIZE_CAP):
    """Homology-rank density series in degree j along a genuine sequence.

    Stage value at degree d: (n_j*d - rank L(d_j) - rank L(d_{j+1})) / d.
    """
    return _betti_series("betti[j=%d]" % j, C, Q, j, policy, size_cap)


def vrk_approximants(M, Q, policy=None, size_cap=DEFAULT_SIZE_CAP):
    """Rank density of a presented module: (n*d - rank L(relations)) / d,
    the degree-0 Betti value of its presentation complex R: ZG^m -> ZG^n
    (of the one-term complex (n) when it has no relations)."""
    return _betti_series("vrk", _module_complex(M), Q, 0, policy, size_cap)


def relative_vrk_approximants(M2, gens, Q, policy=None, size_cap=DEFAULT_SIZE_CAP):
    """Rank density of a submodule relative to its ambient module.

    The submodule is generated by the rows of the RingMatrix ``gens``,
    vectors of the presented module; the value is vrk(M2) - vrk(M2/M1)
    stage by stage, where M2/M1 appends those rows as extra relation rows.
    That is the difference of two degree-0 Betti values, in which the n*d
    terms cancel: (rank L(relations of M2/M1) - rank L(relations of M2)) / d.
    Both relation matrices are ranked together, in one rank table call per
    stage, and a point is certified when both of its ranks are.
    """
    _check_generators(M2, gens)
    quotient = gens if M2.relations is None else M2.relations.vstack(gens)
    Q, table = _rank_table(M2.family, Q, (M2.relations, quotient), policy, size_cap)
    points = tuple(
        _point(d, Fraction(r_q.rank - r_o.rank, d), (r_o, r_q)) for d, (r_o, r_q) in table
    )
    return ApproximantSeries("relative_vrk", points, Q.chain)


def mrk_j_approximants(C, Q, j, policy=None, size_cap=DEFAULT_SIZE_CAP):
    """Mean-rank route to the degree-j series: vrk(coker d_{j+1}) minus the
    rank density n_{j-1} - vrk(coker d_j) of the image of d_j.  Term by term
    that is (n_j*d - rank L(d_{j+1}))/d - rank L(d_j)/d, the Betti value, so
    it is read from the same Betti table and equals it at every stage."""
    return _betti_series("mrk[j=%d]" % j, C, Q, j, policy, size_cap)


def euler_characteristic(C):
    """Alternating sum of the free ranks."""
    return sum((-1) ** j * C.rank_of(j) for j in range(C.top_degree + 1))


def euler_approximants(C, Q, policy=None, size_cap=DEFAULT_SIZE_CAP):
    """Betti series of every degree of C, then the per-stage residual of
    their alternating sum against chi, from one rank table per stage.

    Telescoping of rank-nullity makes the residual exactly 0 at every
    finite stage for every valid bounded complex.  Each Betti value is
    certified when its two ranks are, and a residual when every rank of
    its stage is.
    """
    degrees = range(C.top_degree + 1)
    Q, table = _betti_table(C, Q, degrees, policy, size_cap)
    chi = euler_characteristic(C)
    series = [
        ApproximantSeries(
            "betti[j=%d]" % j, tuple(points[j] for _, _, points in table), Q.chain
        )
        for j in degrees
    ]
    residuals = tuple(
        _point(d, sum((-1) ** j * p.value for j, p in enumerate(points)) - chi, ranks)
        for d, ranks, points in table
    )
    return series + [ApproximantSeries("euler_residual", residuals, Q.chain)]


def juzvinskii_defect(C, Q, kernel_rows=None, policy=None, size_cap=DEFAULT_SIZE_CAP):
    """Additivity-defect series of a two-term complex (n_1, n_0) with d_1.

    ``kernel_rows`` is a caller-supplied matrix whose rows generate
    ker d_1 (kernels of ZG-matrices are not algorithmically presentable in
    general); None means the kernel is zero.  The value at each stage is
    the rank density of the image presented absolutely (coker of the
    kernel rows) minus its density relative to the target module
    (n_0 - vrk(coker d_1)); zero defect is the additivity of the rank
    under d_1.  Term by term that is (n_1*d - rank L(K) - rank L(d_1))/d for
    K the kernel rows: the degree-1 Betti value of the complex K -> d_1,
    which is how it is computed.  Building that complex checks that K is
    over C's family, has n_1 columns and that K*d_1 = 0 (ValueError).
    """
    return _betti_series(
        "juzvinskii_defect", _kernel_complex(C, kernel_rows), Q, 1, policy, size_cap
    )


def finite_group_exact_betti(C, size_cap=DEFAULT_SIZE_CAP):
    """Exact homology-rank densities over a finite-table group.

    Uses the regular model of degree g = |G| and unconditional dense
    fraction-free ranks over Z (rank_dense_bareiss: exact repeated columns
    dropped, no primes); a single exact stage, no limit involved.  Serves
    as the brute-force oracle for the approximant pipelines, and shares no
    step with their modular engine.  ``size_cap`` bounds the total
    dimension (m + n) * g of each linearized differential, and so the dense
    copy and the memory; it does not bound the Bareiss time, which grows
    with the cube of that dimension and with the length of the integers.
    """
    fam = C.family
    if not isinstance(fam, FiniteTable):
        raise ValueError("finite_group_exact_betti needs a FiniteTable family")
    q = regular_quotient(fam)
    g = fam.order
    ranks = {}
    for j in range(1, C.top_degree + 1):
        ranks[j] = rank_dense_bareiss(linearize(C.differential(j), q, size_cap).to_dense())
    out = []
    for j in range(C.top_degree + 1):
        r_low = ranks.get(j, 0)
        r_high = ranks.get(j + 1, 0)
        out.append(Fraction(C.rank_of(j) * g - r_low - r_high, g))
    return out


# ---------------------------------------------------------------------------
# literal mean rank on finite (or windowed) integer presentations

def literal_mean_rank_point(
    M, A, B, F, q, window=None, policy=None, size_cap=DEFAULT_SIZE_CAP
):
    """Literal rank density of the measured subgroup at one finite model.

    A and B are RingMatrix objects whose rows are vectors of the module.
    Constructs the integer presentation of the d-fold sum of the module
    modulo the translation relations delta_v (x) b - delta_{sigma(s) v} (x) sb
    for b a row of B, s in F, v in [d], stacks the images of the rows of A
    as extra rows, and returns (rank[A | relations] - rank[relations]) / d.

    Module elements are truncated to supports inside a finite ``window`` of
    group elements and relation instances leaving it are skipped.  A finite
    family is its own window: the whole group, whatever ``window`` says, so
    nothing is truncated.  Over an infinite family the window must be
    supplied, and the value is a documented heuristic, not a certified bound.

    Returns a SeriesPoint at the model's degree.  It is certified only over
    a finite family and only when both ranks behind it are; a windowed
    value is never certified.  Raises SizeCapExceeded before building the
    d-fold rows when their most possible count plus the d*N columns exceeds
    size_cap (None means no cap).
    """
    policy = policy or DEFAULT_POLICY
    fam = M.family
    if not isinstance(q, FiniteQuotient) or q.family != fam:
        raise ValueError("model family mismatch")
    _check_generators(M, A, B)
    finite = isinstance(fam, FiniteTable)
    if finite:
        window = fam.elements()
    elif window is None:
        raise ValueError("a literal mean rank over an infinite family needs a window")
    for s in F:
        fam.check_member(s)
    d = q.degree
    worder = sorted(set(window), key=lambda w: fam.sort_key(w.payload))
    windex = {w: i for i, w in enumerate(worder)}
    slot = len(worder)

    def vecify(vec):
        return {
            comp * slot + windex[el]: c
            for comp, x in enumerate(vec)
            for el, c in x.terms.items()
        }

    def in_window(vec):
        return all(el in windex for x in vec for el in x.terms)

    def translate(s, vec):
        return tuple(RingElement.monomial(s) * x for x in vec)

    # each relation row translated so that its first support element runs
    # over the window, keeping the translates that stay inside it
    rel_rows = []
    for rel_row in M.relations.entries if M.relations is not None else ():
        supports = [el for x in rel_row for el in x.terms]
        if not supports:
            continue
        u0_inv = ~supports[0]
        for w in worder:
            translated = translate(w * u0_inv, rel_row)
            if in_window(translated):
                rel_rows.append(vecify(translated))

    N = M.free_rank * slot
    big_cols = d * N
    # d rows per relation row, per (b, s) pair and per A generator, at most
    max_rows = d * (len(rel_rows) + B.rows * len(F) + A.rows)
    if size_cap is not None and max_rows + big_cols > size_cap:
        raise SizeCapExceeded(
            "literal mean-rank matrix of %d rows and %d columns exceeds cap %d"
            % (max_rows, big_cols, size_cap)
        )

    def place(v, small):
        return [(v * N + pos, c) for pos, c in small.items()]

    rows = []
    # module relations, one copy per coordinate of the d-fold sum
    for small in rel_rows:
        for v in range(d):
            rows.append(place(v, small))
    # translation relations from B and F; a zero b gives none, and the
    # relation at v is zero exactly when sigma(s) v = v and sb = b
    for b in B.entries:
        if not in_window(b) or not (bvec := vecify(b)):
            continue
        for s in F:
            sb = translate(s, b)
            if not in_window(sb):
                continue
            sbvec = vecify(sb)
            minus_sb = {pos: -c for pos, c in sbvec.items()}
            perm = extend_to_word(q, s)
            for v in range(d):
                if perm[v] != v or sbvec != bvec:
                    rows.append(place(v, bvec) + place(perm[v], minus_sb))
    rel_count = len(rows)
    # measured generators from A
    for a in A.entries:
        if not in_window(a):
            raise ValueError("A generator has support outside the window")
        avec = vecify(a)
        if not avec:
            continue
        for v in range(d):
            rows.append(place(v, avec))

    def certified_rank(row_lists):
        # the constructor sums the two ends of a relation at a fixed point
        triplets = [(i, c, x) for i, row in enumerate(row_lists) for c, x in row]
        return rank_over_rationals(SparseIntMatrix(len(row_lists), big_cols, triplets), policy)

    rel = certified_rank(rows[:rel_count])
    full = certified_rank(rows) if len(rows) > rel_count else rel
    certified = finite and rel.certified and full.certified
    return SeriesPoint(d, Fraction(full.rank - rel.rank, d), certified)

