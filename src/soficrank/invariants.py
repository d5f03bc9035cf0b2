"""Finite-scale approximants of the rank invariants of ZG chain complexes.

Every pipeline reduces to exact ranks of linearized differentials at finite
permutation models: at a genuine stage of degree d the homology rank in
degree j is n_j*d - rank L(d_j) - rank L(d_{j+1}), so the emitted value
(that quantity over d) is an exact rational.  The complex pipelines (betti,
euler, mrk_j) rank each differential they need once per stage
(_stage_ranks) and read every value of that stage from the one table; no
rank outlives the call that computed it.  Heuristic (non-genuine)
models are rejected by the homology pipelines, because the image need not
sit inside the kernel there.

Ranks of differentials and relation matrices come from _model_rank.  At the
translation model of (Z/n)^k it splits the rank over characters without
linearizing (fourier.fourier_rank).  Characters in one orbit of a -> u.a,
u a unit mod n, are Galois conjugates and have equal rank over Q(zeta_n);
evaluating one representative per orbit at a root of unity mod a prime
p = 1 (mod n) can only lower that rank, so each prime's weighted sum is a
lower bound on rank_Q L(f) = sum_chi rank f(chi), certified by the same
agreement rule as a sparse mod-p rank.  Every other model, a policy with
explicit primes, and any uncertified split take linearize and the sparse
engine, with its Bareiss fallback.

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

from .fourier import fourier_rank
from .groups import (
    FiniteQuotient,
    FiniteTable,
    QuotientSequence,
    extend_to_word,
    grid_modulus,
    regular_quotient,
)
from .linearize import (
    DEFAULT_SIZE_CAP, SizeCapExceeded, SparseIntMatrix, check_size_cap, linearize,
)
from .rank import DEFAULT_POLICY, rank_dense_bareiss, rank_over_rationals
from .ring import RingElement, RingMatrix

__all__ = [
    "SeriesPoint",
    "ApproximantSeries",
    "ModulePresentation",
    "FiniteSubgroupSpec",
    "betti_approximants",
    "vrk_approximants",
    "relative_vrk_approximants",
    "mrk_j_approximants",
    "euler_characteristic",
    "euler_approximants",
    "euler_identity_check",
    "juzvinskii_defect",
    "finite_group_exact_betti",
    "literal_mean_rank",
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

    def last(self):
        return self.points[-1]

    def __iter__(self):
        return iter(self.points)


def series_to_csv(series_list, f):
    """Write series rows: invariant_label, degree, value_num, value_den, certified."""
    close = False
    if isinstance(f, str):
        f = open(f, "w", newline="")
        close = True
    try:
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
    finally:
        if close:
            f.close()


@dataclass(frozen=True)
class ModulePresentation:
    """Cokernel presentation: free rank n, relation rows spanning the
    relation submodule (relations may be None for a free module)."""

    family: object
    free_rank: int
    relations: object = None  # RingMatrix or None

    def __post_init__(self):
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


@dataclass(frozen=True)
class FiniteSubgroupSpec:
    """Finitely many generators of an abelian subgroup of a presented module;
    each generator is a length-n vector of ring elements."""

    family: object
    length: int
    generators: tuple

    def __post_init__(self):
        gens = tuple(tuple(v) for v in self.generators)
        object.__setattr__(self, "generators", gens)
        for vec in gens:
            if len(vec) != self.length:
                raise ValueError("generator vectors must have length %d" % self.length)
            for x in vec:
                if not isinstance(x, RingElement) or x.family != self.family:
                    raise ValueError("generator entries must be ring elements")


# ---------------------------------------------------------------------------
# certified ranks, one per differential per stage

def _model_rank(f, q, policy, size_cap):
    """(rank, certified) of linearize(f, q) over Q.

    At the translation model of (Z/n)^k the rank is split over characters
    (fourier.fourier_rank) without linearizing; any other model, a policy
    with explicit primes, or an uncertified split takes the sparse engine.
    """
    n = grid_modulus(q)
    if n is not None and not policy.explicit_primes:
        check_size_cap(f, q, size_cap)
        result = fourier_rank(f, n, policy)
        if result.certified:
            return result.rank, True
    result = rank_over_rationals(linearize(f, q, size_cap), policy)
    return result.rank, result.certified


def _stage_ranks(C, q, indices, policy, size_cap):
    """{i: (rank, certified)} of L(d_i) at q, one _model_rank call per index;
    d_0 and d_{k+1} are zero maps, (0, True)."""
    ranks = {}
    for i in indices:
        d = C.differential(i)
        ranks[i] = (0, True) if d is None else _model_rank(d, q, policy, size_cap)
    return ranks


def _genuine_sequence(X, Q, what):
    """Q as a QuotientSequence of genuine models over the family of X, a
    complex or module named ``what`` in the error."""
    if not isinstance(Q, QuotientSequence):
        Q = QuotientSequence(tuple(Q))
    for q in Q:
        if not q.genuine:
            raise ValueError(
                "homology pipelines require genuine quotients; "
                "got heuristic model %r" % q.label
            )
    if X.family != Q.family:
        raise ValueError("%s and quotient families differ" % what)
    return Q


def _complex_sequence(C, Q, j=0):
    """Q as a genuine QuotientSequence of C's family, with 0 <= j <= top."""
    if not 0 <= j <= C.top_degree:
        raise ValueError("degree index %d outside the complex" % j)
    return _genuine_sequence(C, Q, "complex")


def _betti_point(C, j, d, ranks):
    (r_low, cert_low), (r_high, cert_high) = ranks[j], ranks[j + 1]
    value = Fraction(C.rank_of(j) * d - r_low - r_high, d)
    return SeriesPoint(d, value, cert_low and cert_high)


# ---------------------------------------------------------------------------
# pipelines

def betti_approximants(C, Q, j, policy=None, size_cap=DEFAULT_SIZE_CAP):
    """Homology-rank density series in degree j along a genuine sequence.

    Stage value at degree d: (n_j*d - rank L(d_j) - rank L(d_{j+1})) / d.
    """
    policy = policy or DEFAULT_POLICY
    Q = _complex_sequence(C, Q, j)
    points = tuple(
        _betti_point(C, j, q.degree, _stage_ranks(C, q, (j, j + 1), policy, size_cap))
        for q in Q
    )
    return ApproximantSeries("betti[j=%d]" % j, points, Q.chain)


def vrk_approximants(M, Q, policy=None, size_cap=DEFAULT_SIZE_CAP, label="vrk"):
    """Rank density of a presented module: (n*d - rank L(relations)) / d."""
    policy = policy or DEFAULT_POLICY
    Q = _genuine_sequence(M, Q, "module")
    points = []
    for q in Q:
        d = q.degree
        if M.relations is None:
            r, cert = 0, True
        else:
            r, cert = _model_rank(M.relations, q, policy, size_cap)
        points.append(SeriesPoint(d, Fraction(M.free_rank * d - r, d), cert))
    return ApproximantSeries(label, tuple(points), Q.chain)


def _append_generators(M, gens):
    rows = [list(vec) for vec in gens.generators]
    if not rows:
        return M
    extra = RingMatrix(M.family, rows)
    rel = extra if M.relations is None else M.relations.vstack(extra)
    return ModulePresentation(M.family, M.free_rank, rel)


def relative_vrk_approximants(M2, gens, Q, policy=None, size_cap=DEFAULT_SIZE_CAP):
    """Rank density of a submodule relative to its ambient module.

    The submodule is given by generating vectors inside the presented
    module; the value is vrk(M2) - vrk(M2/M1) stage by stage, where M2/M1
    appends the generators as extra relation rows.
    """
    if gens.family != M2.family or gens.length != M2.free_rank:
        raise ValueError("generators do not live in the ambient module")
    outer = vrk_approximants(M2, Q, policy, size_cap)
    quotient = vrk_approximants(_append_generators(M2, gens), Q, policy, size_cap)
    points = tuple(
        SeriesPoint(a.degree, a.value - b.value, a.certified and b.certified)
        for a, b in zip(outer.points, quotient.points)
    )
    return ApproximantSeries("relative_vrk", points, outer.chain)


def mrk_j_approximants(C, Q, j, policy=None, size_cap=DEFAULT_SIZE_CAP):
    """Mean-rank route to the degree-j series: vrk(coker d_{j+1}) minus the
    rank density n_{j-1} - vrk(coker d_j) of the image of d_j, cross-checked
    stage by stage against the Betti value from the same ranks."""
    policy = policy or DEFAULT_POLICY
    Q = _complex_sequence(C, Q, j)
    n_j, n_low = C.rank_of(j), C.rank_of(j - 1)
    points = []
    for q in Q:
        d = q.degree
        ranks = _stage_ranks(C, q, (j, j + 1), policy, size_cap)
        (r_low, cert_low), (r_high, cert_high) = ranks[j], ranks[j + 1]
        value = Fraction(n_j * d - r_high, d) - (n_low - Fraction(n_low * d - r_low, d))
        check = _betti_point(C, j, d, ranks)
        if value != check.value:
            raise RuntimeError(
                "mean-rank/betti cross-check failed at degree %d: %s vs %s"
                % (d, value, check.value)
            )
        points.append(SeriesPoint(d, value, cert_low and cert_high))
    return ApproximantSeries("mrk[j=%d]" % j, tuple(points), Q.chain)


def euler_characteristic(C):
    """Alternating sum of the free ranks."""
    return sum((-1) ** j * C.rank_of(j) for j in range(C.top_degree + 1))


def euler_approximants(C, Q, policy=None, size_cap=DEFAULT_SIZE_CAP):
    """Betti series of every degree of C, then the per-stage residual of
    their alternating sum against chi, from one rank table per stage.

    Telescoping of rank-nullity makes the residual exactly 0 at every
    finite stage for every valid bounded complex.  A residual is certified
    only when every Betti value it sums is.
    """
    policy = policy or DEFAULT_POLICY
    Q = _complex_sequence(C, Q)
    degrees = range(C.top_degree + 1)
    chi = euler_characteristic(C)
    stages = []
    for q in Q:
        ranks = _stage_ranks(C, q, range(C.top_degree + 2), policy, size_cap)
        stages.append([_betti_point(C, j, q.degree, ranks) for j in degrees])
    series = [
        ApproximantSeries("betti[j=%d]" % j, tuple(s[j] for s in stages), Q.chain)
        for j in degrees
    ]
    residuals = tuple(
        SeriesPoint(
            s[0].degree,
            sum((-1) ** j * p.value for j, p in enumerate(s)) - chi,
            all(p.certified for p in s),
        )
        for s in stages
    )
    return series + [ApproximantSeries("euler_residual", residuals, Q.chain)]


def euler_identity_check(C, Q, policy=None, size_cap=DEFAULT_SIZE_CAP):
    """Per-stage (degree, residual) of the alternating Betti sum against chi."""
    residuals = euler_approximants(C, Q, policy, size_cap)[-1]
    return [(p.degree, p.value) for p in residuals]


def juzvinskii_defect(C, Q, kernel_rows=None, policy=None, size_cap=DEFAULT_SIZE_CAP):
    """Additivity-defect series of a two-term complex (n_1, n_0) with d_1.

    ``kernel_rows`` is a caller-supplied matrix whose rows generate
    ker d_1 (kernels of ZG-matrices are not algorithmically presentable in
    general); None means the kernel is zero.  The value at each stage is
    the rank density of the image presented absolutely (coker of the
    kernel rows) minus its density relative to the target module; zero
    defect is the additivity of the rank under d_1.
    """
    if C.top_degree != 1:
        raise ValueError("juzvinskii_defect expects a two-term complex")
    d1 = C.differential(1)
    n1, n0 = C.rank_of(1), C.rank_of(0)
    if kernel_rows is not None:
        if not isinstance(kernel_rows, RingMatrix) or kernel_rows.family != C.family:
            raise ValueError("kernel rows must be a RingMatrix over the same family")
        if kernel_rows.cols != n1:
            raise ValueError("kernel rows must have %d columns" % n1)
        if not (kernel_rows * d1).is_zero():
            raise ValueError("kernel rows are not annihilated by d_1")
    image_abs = vrk_approximants(
        ModulePresentation(C.family, n1, kernel_rows), Q, policy, size_cap
    )
    target_coker = vrk_approximants(
        ModulePresentation(C.family, n0, d1), Q, policy, size_cap
    )
    points = tuple(
        SeriesPoint(
            a.degree,
            a.value - (n0 - b.value),
            a.certified and b.certified,
        )
        for a, b in zip(image_abs.points, target_coker.points)
    )
    return ApproximantSeries("juzvinskii_defect", points, image_abs.chain)


def finite_group_exact_betti(C, size_cap=DEFAULT_SIZE_CAP):
    """Exact homology-rank densities over a finite-table group.

    Uses the regular model of degree g = |G| and unconditional dense
    fraction-free ranks over Z (rank_dense_bareiss: exact repeated columns
    dropped, no primes); a single exact stage, no limit involved.  Serves
    as the brute-force oracle for the approximant pipelines, and shares no
    step with their modular engine.
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

def literal_mean_rank(M, A, B, F, q, window=None, policy=None, size_cap=DEFAULT_SIZE_CAP):
    """Literal rank density of the measured subgroup at one finite model, as
    an exact rational; literal_mean_rank_point also says whether it is
    certified."""
    return literal_mean_rank_point(M, A, B, F, q, window, policy, size_cap).value


def literal_mean_rank_point(
    M, A, B, F, q, window=None, policy=None, size_cap=DEFAULT_SIZE_CAP
):
    """Literal rank density of the measured subgroup at one finite model.

    Constructs the integer presentation of the d-fold sum of the module
    modulo the translation relations delta_v (x) b - delta_{sigma(s) v} (x) sb
    for b in B, s in F, v in [d], stacks the images of the A generators as
    extra rows, and returns (rank[A | relations] - rank[relations]) / d.

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
    if A.family != fam or B.family != fam or A.length != M.free_rank or B.length != M.free_rank:
        raise ValueError("subgroup specs must live in the presented module")
    finite = isinstance(fam, FiniteTable)
    if finite:
        window = fam.elements()
    elif window is None:
        raise ValueError("literal_mean_rank over an infinite family needs a window")
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
    max_rows = d * (len(rel_rows) + len(B.generators) * len(F) + len(A.generators))
    if size_cap is not None and max_rows + big_cols > size_cap:
        raise SizeCapExceeded(
            "literal mean-rank matrix of %d rows and %d columns exceeds cap %d"
            % (max_rows, big_cols, size_cap)
        )

    def place(v, small):
        return {v * N + pos: c for pos, c in small.items()}

    rows = []
    # module relations, one copy per coordinate of the d-fold sum
    for small in rel_rows:
        for v in range(d):
            rows.append(place(v, small))
    # translation relations from B and F
    for b in B.generators:
        if not in_window(b):
            continue
        bvec = vecify(b)
        for s in F:
            sb = translate(s, b)
            if not in_window(sb):
                continue
            sbvec = vecify(sb)
            perm = extend_to_word(q, s)
            for v in range(d):
                row = place(v, bvec)
                target = perm[v]
                for pos, c in sbvec.items():
                    key = target * N + pos
                    nval = row.get(key, 0) - c
                    if nval:
                        row[key] = nval
                    else:
                        row.pop(key, None)
                if row:
                    rows.append(row)
    rel_count = len(rows)
    # measured generators from A
    for a in A.generators:
        if not in_window(a):
            raise ValueError("A generator has support outside the window")
        avec = vecify(a)
        if not avec:
            continue
        for v in range(d):
            rows.append(place(v, avec))

    def certified_rank(row_dicts):
        trips = [(i, pos, c) for i, row in enumerate(row_dicts) for pos, c in row.items()]
        result = rank_over_rationals(SparseIntMatrix(len(row_dicts), big_cols, trips), policy)
        return result.rank, result.certified

    rank_rel, cert_rel = certified_rank(rows[:rel_count]) if rel_count else (0, True)
    if len(rows) > rel_count:
        rank_full, cert_full = certified_rank(rows)
    else:
        rank_full, cert_full = rank_rel, cert_rel
    certified = finite and cert_rel and cert_full
    return SeriesPoint(d, Fraction(rank_full - rank_rel, d), certified)

