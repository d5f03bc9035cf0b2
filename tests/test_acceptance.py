"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; the whole suite is part of the normal pytest run.
"""

import functools
import random
import time
from fractions import Fraction

from soficrank import (
    FiniteTable,
    Free,
    FreeAbelian,
    ModulePresentation,
    RingElement,
    RingMatrix,
    augmentation,
    betti_approximants,
    build_complex,
    euler_approximants,
    euler_characteristic,
    finite_group_exact_betti,
    grid_sequence,
    juzvinskii_defect,
    literal_mean_rank_point,
    mrk_j_approximants,
    parse_ring_matrix,
    rank_dense_bareiss,
    rank_mod_p,
    rank_over_rationals,
    regular_quotient,
    regular_sequence,
    sanov_sequence,
    soficity_defect,
    vrk_approximants,
)
from soficrank.linearize import SparseIntMatrix
from soficrank.rank import _draw_primes

from conftest import build_s3_table


def criterion(n, description):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                print("ACCEPTANCE %d FAIL: %s" % (n, description))
                raise
            print("ACCEPTANCE %d PASS: %s" % (n, description))

        return run

    return wrap


def f2_example_complex():
    fam = Free(2)
    d1 = parse_ring_matrix("a - 1 ; b - 1", fam)
    return fam, build_complex(fam, (2, 1), [d1])


def koszul_complex():
    fam = FreeAbelian(2)
    d2 = parse_ring_matrix("y - 1, 1 - x", fam)
    d1 = parse_ring_matrix("x - 1 ; y - 1", fam)
    return fam, build_complex(fam, (1, 2, 1), [d2, d1])


@criterion(1, "free-group example: per-stage 1 + 1/d and 1/d at Sanov stages 24/120/2880, under 60 s")
def test_criterion_1_free_group_example():
    t0 = time.perf_counter()
    fam, C = f2_example_complex()
    Q = sanov_sequence([3, 5, 15], fam)
    degrees = [q.degree for q in Q]
    assert degrees == [24, 120, 2880]
    s1 = betti_approximants(C, Q, 1)
    s0 = betti_approximants(C, Q, 0)
    for point, d in zip(s1.points, degrees):
        assert point.value == 1 + Fraction(1, d)
        assert abs(point.value - 1) == Fraction(1, d)  # limit target beta_1 = 1
        assert point.certified
    for point, d in zip(s0.points, degrees):
        assert point.value == Fraction(1, d)
        assert abs(point.value - 0) == Fraction(1, d)  # limit target beta_0 = 0
    elapsed = time.perf_counter() - t0
    assert elapsed <= 60.0, "took %.1f s" % elapsed


@criterion(2, "Euler identity: alternating Betti sum minus chi is exactly 0 at every stage")
def test_criterion_2_euler_identity():
    fam, C = f2_example_complex()
    assert euler_characteristic(C) == -1
    Q = sanov_sequence([3, 5, 15], fam)
    for point in euler_approximants(C, Q)[-1]:
        assert point.value == 0
    fam2, K = koszul_complex()
    assert euler_characteristic(K) == 0
    Q2 = grid_sequence(2, [2, 3, 5], fam2)
    for point in euler_approximants(K, Q2)[-1]:
        assert point.value == 0


@criterion(3, "amenable vanishing: t-2 exactly 0; Koszul degree-1/2 series <= 2/d and nonincreasing")
def test_criterion_3_amenable_vanishing():
    fam = FreeAbelian(1)
    C = build_complex(fam, (1, 1), [parse_ring_matrix("t - 2", fam)])
    Q = grid_sequence(1, [3, 5, 7, 101], fam)
    for j in (0, 1):
        for point in betti_approximants(C, Q, j):
            assert point.value == 0
    fam2, K = koszul_complex()
    Q2 = grid_sequence(2, [2, 3, 5], fam2)
    d_last = Q2.quotients[-1].degree
    for j in (1, 2):
        values = [p.value for p in betti_approximants(K, Q2, j)]
        assert all(a >= b for a, b in zip(values, values[1:])), values
        assert values[-1] <= Fraction(2, d_last)


@criterion(4, "additivity defect: free-group gap converges to 1 at rate 1/d; Z analogue exactly 0")
def test_criterion_4_juzvinskii_defect():
    fam, C = f2_example_complex()
    Q = sanov_sequence([3, 15], fam)
    series = juzvinskii_defect(C, Q)
    by_degree = {p.degree: p.value for p in series.points}
    assert abs(by_degree[24] - 1) <= Fraction(1, 24)
    assert abs(by_degree[2880] - 1) <= Fraction(1, 2880)
    # the absolute density of the image is 2 against the relative 1 - 1/d
    free2 = ModulePresentation(fam, 2, None)
    assert all(p.value == 2 for p in vrk_approximants(free2, Q))
    famz = FreeAbelian(1)
    Cz = build_complex(famz, (1, 1), [parse_ring_matrix("t - 2", famz)])
    Qz = grid_sequence(1, [3, 5, 7, 101], famz)
    for point in juzvinskii_defect(Cz, Qz):
        assert point.value == 0


def _random_finite_complexes(fam, rng, count):
    norm = RingElement(fam, [(g, 1) for g in fam.elements()])
    one = RingElement.one(fam)

    def rand_elt(max_terms=3):
        out = RingElement.zero(fam)
        for _ in range(rng.randrange(1, max_terms + 1)):
            out = out + RingElement.monomial(
                fam.element(rng.randrange(fam.order)), rng.randrange(-3, 4)
            )
        return out

    def aug_zero():
        f = rand_elt()
        return f - augmentation(f) * one

    def rand_matrix(m, n, gen):
        return RingMatrix(fam, [[gen() for _ in range(n)] for _ in range(m)])

    out = []
    while len(out) < count:
        kind = len(out) % 4
        if kind == 0:
            n1, n0 = rng.randrange(1, 4), rng.randrange(1, 4)
            out.append(build_complex(fam, (n1, n0), [rand_matrix(n1, n0, rand_elt)]))
        elif kind == 1:
            n2, n1, n0 = (rng.randrange(1, 3) for _ in range(3))
            d2 = rand_matrix(n2, n1, lambda: norm * rng.randrange(-2, 3))
            d1 = rand_matrix(n1, n0, aug_zero)
            out.append(build_complex(fam, (n2, n1, n0), [d2, d1]))
        elif kind == 2:
            n2, n1, n0 = (rng.randrange(1, 3) for _ in range(3))
            d2 = rand_matrix(n2, n1, aug_zero)
            d1 = rand_matrix(n1, n0, lambda: norm * rng.randrange(-2, 3))
            out.append(build_complex(fam, (n2, n1, n0), [d2, d1]))
        else:
            u = rand_elt()
            # any polynomial in u commutes with u, so the Koszul pattern closes
            v = RingElement.coerce(rng.randrange(-2, 3), fam) + rng.randrange(-2, 3) * u + u * u
            d2 = RingMatrix(fam, [[v, -u]])
            d1 = RingMatrix(fam, [[u], [v]])
            out.append(build_complex(fam, (1, 2, 1), [d2, d1]))
    return out


@criterion(5, "finite-group oracle: >= 20 randomized complexes, pipelines match exactly")
def test_criterion_5_finite_group_oracle():
    rng = random.Random(2024)
    s3 = FiniteTable(build_s3_table())
    families = [FiniteTable.cyclic(2), FiniteTable.cyclic(4), s3]
    total = 0
    for fam in families:
        Q = regular_sequence(fam)
        for C in _random_finite_complexes(fam, rng, 8):
            oracle = finite_group_exact_betti(C)
            chi = euler_characteristic(C)
            alternating = sum((-1) ** j * oracle[j] for j in range(len(oracle)))
            assert alternating == chi
            for j in range(C.top_degree + 1):
                assert betti_approximants(C, Q, j).points[0].value == oracle[j]
                assert mrk_j_approximants(C, Q, j).points[0].value == oracle[j]
            total += 1
    assert total >= 20


def benchmark_matrix(total_dim=100_000, block=40, nnz_per_row=10, seed=0):
    """Block-diagonal sparse square matrix with rows+cols == total_dim.

    Each block is a dense-ish random integer block; rows carry at most
    ``nnz_per_row`` nonzeros (well under the 50/row contract).
    """
    n = total_dim // 2
    rng = random.Random(seed)
    trips = []
    start = 0
    while start < n:
        size = min(block, n - start)
        for i in range(size):
            cols = rng.sample(range(size), min(nnz_per_row, size))
            for c in cols:
                v = rng.randint(-9, 9)
                if v:
                    trips.append((start + i, start + c, v))
        start += size
    return SparseIntMatrix(n, n, trips)


@criterion(6, "rank engine: 200+ random matrices match Bareiss; 1e5-dim benchmark under 10 min, prime-independent")
def test_criterion_6_rank_engine():
    rng = random.Random(8191)
    checked = 0
    sizes = [rng.randrange(2, 41) for _ in range(170)]
    sizes += [rng.randrange(41, 121) for _ in range(26)]
    sizes += [rng.randrange(200, 301) for _ in range(4)]
    for n in sizes:
        m = rng.randrange(max(2, n - 5), n + 6)
        per_row = rng.randrange(1, 5)
        trips = []
        for i in range(m):
            for j in rng.sample(range(n), min(per_row, n)):
                v = rng.randint(-9, 9)
                if v:
                    trips.append((i, j, v))
        M = SparseIntMatrix(m, n, trips)
        res = rank_over_rationals(M)
        assert res.rank == rank_dense_bareiss(M.to_dense()), (m, n)
        checked += 1
    assert checked >= 200

    bench = benchmark_matrix(total_dim=100_000, block=40, nnz_per_row=10, seed=0)
    assert bench.rows + bench.cols == 100_000
    row_counts = {}
    for r, _, _ in bench.triplets:
        row_counts[r] = row_counts.get(r, 0) + 1
    assert max(row_counts.values()) <= 50
    primes = _draw_primes(random.Random(1), (50, 51), 3, [])
    ranks = []
    for p in primes:
        t0 = time.perf_counter()
        ranks.append(rank_mod_p(bench, p))
        assert time.perf_counter() - t0 <= 600.0
    assert len(set(ranks)) == 1, ranks


@criterion(7, "soficity: genuine multiplicativity defect 0 on 10 pairs; separation reached along sequences")
def test_criterion_7_soficity_defects():
    famf = Free(2)
    a, b = famf.generators()
    words = [a, b, a * b, b * a, ~a, a * b * ~a, a * a, b * ~a, ~b * a, a * b * a]
    pairs_f = [(words[i], words[(i + 3) % 10]) for i in range(10)]
    seq_f = sanov_sequence([3, 5, 15], famf)
    for q in seq_f:
        for d in soficity_defect(q, pairs_f):
            assert d.mult_defect == 0
    for s, t in pairs_f:
        if s == t:
            continue
        seps = [soficity_defect(q, [(s, t)])[0].sep_defect for q in seq_f]
        tails = [i for i in range(len(seps)) if all(x == 0 for x in seps[i:])]
        assert tails, (s, t, seps)

    famz = FreeAbelian(1)
    t = famz.generators()[0]
    elems = [famz.identity(), t, t ** 2, t ** 3, t ** 4, t ** 5, t ** 7, ~t, t ** -2, t ** 6]
    pairs_z = [(elems[i], elems[(i + 1) % 10]) for i in range(10)]
    seq_z = grid_sequence(1, [2, 3, 6, 12], famz)
    for q in seq_z:
        for d in soficity_defect(q, pairs_z):
            assert d.mult_defect == 0
    for s, u in pairs_z:
        seps = [soficity_defect(q, [(s, u)])[0].sep_defect for q in seq_z]
        tails = [i for i in range(len(seps)) if all(x == 0 for x in seps[i:])]
        assert tails, (s, u, seps)

    s3 = FiniteTable(build_s3_table())
    e = s3.elements()
    pairs_t = [(e[i % 6], e[(i * 2 + 1) % 6]) for i in range(10)]
    for d in soficity_defect(regular_quotient(s3), pairs_t):
        assert d.mult_defect == 0


@criterion(8, "literal mean rank: density of the group ring is 1 exactly; additivity on direct sums")
def test_criterion_8_literal_mean_rank():
    for order in (2, 4):
        fam = FiniteTable.cyclic(order)
        q = regular_quotient(fam)
        M = ModulePresentation(fam, 1, None)
        one_vec = (RingElement.one(fam),)
        spec = RingMatrix(fam, [one_vec])
        value = literal_mean_rank_point(M, spec, spec, fam.elements(), q).value
        oracle = vrk_approximants(M, regular_sequence(fam)).points[0].value
        assert value == oracle == 1

        # additivity: ZG (+) ZG/(norm)
        norm = RingElement(fam, [(g, 1) for g in fam.elements()])
        M2 = ModulePresentation(fam, 1, RingMatrix(fam, [[norm]]))
        v1 = literal_mean_rank_point(M, spec, spec, fam.elements(), q).value
        v2 = literal_mean_rank_point(M2, spec, spec, fam.elements(), q).value
        zero = RingElement.zero(fam)
        one = RingElement.one(fam)
        Msum = ModulePresentation(fam, 2, RingMatrix(fam, [[zero, norm]]))
        AB = RingMatrix(fam, [[one, zero], [zero, one]])
        vsum = literal_mean_rank_point(Msum, AB, AB, fam.elements(), q).value
        assert vsum == v1 + v2
