from fractions import Fraction

import pytest

from soficrank import (
    FiniteTable,
    ModulePresentation,
    RankPolicy,
    RingElement,
    RingMatrix,
    SizeCapExceeded,
    betti_approximants,
    build_complex,
    euler_approximants,
    euler_characteristic,
    finite_group_exact_betti,
    grid_quotient,
    grid_sequence,
    juzvinskii_defect,
    literal_mean_rank_point,
    mrk_j_approximants,
    parse_ring_element,
    parse_ring_matrix,
    random_quotient,
    rank_dense_bareiss,
    rank_over_rationals,
    regular_quotient,
    regular_sequence,
    relative_vrk_approximants,
    sanov_sequence,
    series_to_csv,
    vrk_approximants,
)
from soficrank.linearize import linearize
from soficrank import invariants
from conftest import build_s3_table, check_shared_batches
from test_linearize import rational_rank


@pytest.fixture(scope="module")
def f2_complex(f2):
    d1 = parse_ring_matrix("a - 1 ; b - 1", f2)
    return build_complex(f2, (2, 1), [d1])


@pytest.fixture(scope="module")
def koszul(z2grid):
    d2 = parse_ring_matrix("y - 1, 1 - x", z2grid)
    d1 = parse_ring_matrix("x - 1 ; y - 1", z2grid)
    return build_complex(z2grid, (1, 2, 1), [d2, d1])


# ---------------------------------------------------------------------------
# betti approximants

def test_free_group_example_betti_series(f2, f2_complex):
    Q = sanov_sequence([3, 15], f2)
    s1 = betti_approximants(f2_complex, Q, 1)
    assert [p.value for p in s1.points] == [Fraction(25, 24), Fraction(2881, 2880)]
    s0 = betti_approximants(f2_complex, Q, 0)
    assert [p.value for p in s0.points] == [Fraction(1, 24), Fraction(1, 2880)]
    assert all(p.certified for p in s1.points)


def test_free_group_closed_form_at_small_moduli(f2, f2_complex):
    # the Schreier graph of every Sanov model is connected, so
    # rank L(d1) = d - 1 and both j = 1 approximants are (2d - (d - 1)) / d
    Q = sanov_sequence([3, 5, 7, 9], f2)
    want = [Fraction(q.degree + 1, q.degree) for q in Q.quotients]
    for series in (betti_approximants(f2_complex, Q, 1),
                   mrk_j_approximants(f2_complex, Q, 1)):
        assert [p.value for p in series.points] == want
        assert all(p.certified for p in series.points)


def test_stage_rank_against_independent_oracle(f2, f2_complex):
    # at the smallest stage, check the linearized rank with rational Gaussian
    # elimination written in the tests, independent of the engine
    Q = sanov_sequence([3], f2)
    L = linearize(f2_complex.differential(1), Q.quotients[0])
    assert rational_rank(L.to_dense()) == 23
    s1 = betti_approximants(f2_complex, Q, 1)
    assert s1.points[0].value == Fraction(2 * 24 - 23, 24)


def test_zero_differential_complex_gives_ranks(f2):
    z = RingMatrix.zero(f2, 3, 2)
    C = build_complex(f2, (3, 2), [z])
    Q = sanov_sequence([3, 5], f2)
    assert [p.value for p in betti_approximants(C, Q, 1)] == [3, 3]
    assert [p.value for p in betti_approximants(C, Q, 0)] == [2, 2]


def test_betti_rejects_random_models(f2, f2_complex):
    from soficrank import QuotientSequence

    Q = QuotientSequence((random_quotient(f2, 10, 1),))
    with pytest.raises(ValueError):
        betti_approximants(f2_complex, Q, 1)


def test_betti_degree_range_checked(f2, f2_complex):
    Q = sanov_sequence([3], f2)
    with pytest.raises(ValueError):
        betti_approximants(f2_complex, Q, 2)


def test_direct_sum_additivity(f2, f2_complex):
    # d1 = (a - 1 ; b - 1) twice along the diagonal
    dsum = parse_ring_matrix("a - 1, 0 ; b - 1, 0 ; 0, a - 1 ; 0, b - 1", f2)
    Csum = build_complex(f2, (4, 2), [dsum])
    Q = sanov_sequence([3, 5], f2)
    for j in (0, 1):
        single = betti_approximants(f2_complex, Q, j)
        double = betti_approximants(Csum, Q, j)
        for p1, p2 in zip(single.points, double.points):
            assert p2.value == 2 * p1.value


# ---------------------------------------------------------------------------
# vrk approximants

def test_free_module_has_constant_rank_density(f2, z2grid, count_calls):
    # a free module is the one-term complex (n): both of its maps are zero
    # and nothing is ranked, at a Sanov model and at a grid model
    certified = count_calls(invariants, "rank_over_rationals")
    split = count_calls(invariants, "fourier_ranks")
    for M, Q in ((ModulePresentation(f2, 3, None), sanov_sequence([3, 5], f2)),
                 (ModulePresentation(z2grid, 3, None), grid_sequence(2, [3], z2grid))):
        points = vrk_approximants(M, Q).points
        assert [(p.value, p.certified) for p in points] == [(3, True)] * len(Q.quotients)
    assert certified == split == []


def test_t_minus_two_module_vanishes(z1):
    M = ModulePresentation(z1, 1, parse_ring_matrix("t - 2", z1))
    Q = grid_sequence(1, [3, 5, 7], z1)
    assert [p.value for p in vrk_approximants(M, Q)] == [0, 0, 0]


def test_free_group_example_vrk(f2):
    M = ModulePresentation(f2, 1, parse_ring_matrix("a - 1 ; b - 1", f2))
    Q = sanov_sequence([3, 15], f2)
    assert [p.value for p in vrk_approximants(M, Q)] == [
        Fraction(1, 24),
        Fraction(1, 2880),
    ]


# ---------------------------------------------------------------------------
# relative vrk

def test_relative_of_zero_submodule(f2):
    M = ModulePresentation(f2, 1, None)
    zero = RingMatrix(f2, [[RingElement.zero(f2)]])
    Q = sanov_sequence([3, 5], f2)
    rel = relative_vrk_approximants(M, zero, Q)
    assert [p.value for p in rel.points] == [0, 0]


def test_relative_of_full_module_equals_vrk(f2):
    M = ModulePresentation(f2, 2, None)
    basis = RingMatrix.identity(f2, 2)
    Q = sanov_sequence([3, 5], f2)
    rel = relative_vrk_approximants(M, basis, Q)
    outer = vrk_approximants(M, Q)
    assert [p.value for p in rel.points] == [p.value for p in outer.points]


def test_relative_over_a_grid_ranks_both_relation_matrices_in_one_call(
    z2grid, count_calls, grid_stages
):
    M = ModulePresentation(z2grid, 1, parse_ring_matrix("x - 1", z2grid))
    gens = parse_ring_matrix("y - 1", z2grid)
    Q = grid_sequence(2, [2, 3], z2grid)
    stages = count_calls(invariants, "_stage_ranks")
    rel = relative_vrk_approximants(M, gens, Q)
    # one stage call per grid, holding the outer and the quotient relations
    assert len(stages) == 2
    assert [(n, count) for n, count, *_ in grid_stages] == [(2, 2), (3, 2)]
    check_shared_batches(grid_stages)
    quotient = parse_ring_matrix("x - 1 ; y - 1", z2grid)
    for n, q, point in zip((2, 3), Q, rel.points):
        outer, inner = (rank_over_rationals(linearize(f, q)) for f in (M.relations, quotient))
        # x - 1 has n cycles of length n, and x - 1 ; y - 1 one component
        assert point.value == Fraction(inner.rank - outer.rank, n * n) == Fraction(n - 1, n * n)
        assert point.certified == (outer.certified and inner.certified)


def test_augmentation_ideal_relative_series(f2):
    M = ModulePresentation(f2, 1, None)
    gens = parse_ring_matrix("a - 1 ; b - 1", f2)
    Q = sanov_sequence([3, 15], f2)
    rel = relative_vrk_approximants(M, gens, Q)
    assert [p.value for p in rel.points] == [
        Fraction(23, 24),
        Fraction(2879, 2880),
    ]
    # absolute density of the same submodule presented freely is 2
    free2 = ModulePresentation(f2, 2, None)
    absolute = vrk_approximants(free2, Q)
    gaps = [a.value - r.value for a, r in zip(absolute.points, rel.points)]
    assert gaps == [Fraction(25, 24), Fraction(2881, 2880)]


# ---------------------------------------------------------------------------
# mean-rank route and Euler identities

def test_mrk_equals_betti_pointwise(f2, f2_complex, koszul, z2grid):
    Qf = sanov_sequence([3, 5], f2)
    for j in (0, 1):
        a = mrk_j_approximants(f2_complex, Qf, j)
        b = betti_approximants(f2_complex, Qf, j)
        assert [p.value for p in a.points] == [p.value for p in b.points]
    Qk = grid_sequence(2, [2, 3], z2grid)
    for j in (0, 1, 2):
        a = mrk_j_approximants(koszul, Qk, j)
        b = betti_approximants(koszul, Qk, j)
        assert [p.value for p in a.points] == [p.value for p in b.points]


def test_mrk_ranks_each_differential_once_per_stage(
    f2, f2_complex, koszul, z2grid, count_calls, grid_stages
):
    linearized = count_calls(invariants, "linearize")
    mrk_j_approximants(f2_complex, sanov_sequence([3, 5], f2), 1)
    assert len(linearized) == 2  # d_1 at both stages; d_2 is zero
    mrk_j_approximants(koszul, grid_sequence(2, [2, 3], z2grid), 1)
    # one stage call per grid, ranking d_1 and d_2 together
    assert [(n, count) for n, count, *_ in grid_stages] == [(2, 2), (3, 2)]
    check_shared_batches(grid_stages)


def test_mrk_zero_complex(f2):
    z = RingMatrix.zero(f2, 2, 2)
    C = build_complex(f2, (2, 2), [z])
    Q = sanov_sequence([3], f2)
    assert mrk_j_approximants(C, Q, 1).points[0].value == 2


def test_koszul_series_decay(koszul, z2grid):
    Q = grid_sequence(2, [2, 3, 5], z2grid)
    s1 = betti_approximants(koszul, Q, 1)
    assert [p.value for p in s1.points] == [
        Fraction(1, 2),
        Fraction(2, 9),
        Fraction(2, 25),
    ]
    s2 = betti_approximants(koszul, Q, 2)
    assert [p.value for p in s2.points] == [
        Fraction(1, 4),
        Fraction(1, 9),
        Fraction(1, 25),
    ]


def test_euler_characteristic_values(f2_complex, koszul):
    assert euler_characteristic(f2_complex) == -1
    assert euler_characteristic(koszul) == 0


def test_euler_residual_exactly_zero(f2, f2_complex, koszul, z2grid):
    Qf = sanov_sequence([3, 5], f2)
    assert all(p.value == 0 for p in euler_approximants(f2_complex, Qf)[-1])
    Qk = grid_sequence(2, [2, 3, 5], z2grid)
    assert all(p.value == 0 for p in euler_approximants(koszul, Qk)[-1])


def test_euler_check_ranks_each_differential_once(f2, f2_complex, count_calls):
    Q = sanov_sequence([3, 5], f2)
    # an earlier pipeline on the same matrices leaves nothing behind to reuse
    mrk_j_approximants(f2_complex, Q, 1)
    linearized = count_calls(invariants, "linearize")
    certified = count_calls(invariants, "rank_over_rationals")
    assert all(p.value == 0 for p in euler_approximants(f2_complex, Q)[-1])
    assert len(linearized) == len(certified) == 2  # d_1 at both stages


# ---------------------------------------------------------------------------
# additivity defect

def test_defect_zero_for_full_rank_linearizations(f2, z1):
    one = RingMatrix.identity(f2, 1)
    C = build_complex(f2, (1, 1), [one])
    Q = sanov_sequence([3, 5], f2)
    assert [p.value for p in juzvinskii_defect(C, Q)] == [0, 0]
    two = parse_ring_matrix("2", z1)
    Cz = build_complex(z1, (1, 1), [two])
    Qz = grid_sequence(1, [3, 5], z1)
    assert [p.value for p in juzvinskii_defect(Cz, Qz)] == [0, 0]


def test_defect_zero_for_t_minus_two(z1):
    C = build_complex(z1, (1, 1), [parse_ring_matrix("t - 2", z1)])
    Q = grid_sequence(1, [3, 5, 7], z1)
    assert [p.value for p in juzvinskii_defect(C, Q)] == [0, 0, 0]


def test_defect_free_group_augmentation(f2, f2_complex):
    Q = sanov_sequence([3, 15], f2)
    series = juzvinskii_defect(f2_complex, Q)
    values = [p.value for p in series.points]
    assert values == [Fraction(25, 24), Fraction(2881, 2880)]
    assert abs(values[0] - 1) == Fraction(1, 24)
    assert abs(values[1] - 1) == Fraction(1, 2880)


def test_defect_kernel_rows_validated(f2, f2_complex, z1):
    Q = sanov_sequence([3], f2)
    for bad in (
        parse_ring_matrix("a", f2),  # one column, d1 has two rows
        parse_ring_matrix("a, b, 1", f2),  # three columns
        parse_ring_matrix("a, 1", f2),  # a*(a - 1) + (b - 1) != 0
        parse_ring_matrix("1, 1", z1),  # over another family
        [[1, 1]],  # not a RingMatrix
    ):
        with pytest.raises(ValueError):
            juzvinskii_defect(f2_complex, Q, kernel_rows=bad)


def test_defect_with_genuine_kernel_rows(z1):
    # d1 = (1 - t ; t - 1): kernel generated by (1, 1)
    d1 = parse_ring_matrix("1 - t ; t - 1", z1)
    C = build_complex(z1, (2, 1), [d1])
    K = parse_ring_matrix("1, 1", z1)
    assert (K * d1).is_zero()
    Q = grid_sequence(1, [3, 5, 7], z1)
    series = juzvinskii_defect(C, Q, kernel_rows=K)
    # image density (1 - 1/d) appears on both sides: defect is 1/d -> 0
    assert [p.value for p in series.points] == [
        Fraction(1, 3),
        Fraction(1, 5),
        Fraction(1, 7),
    ]


def test_defect_needs_two_term_complex(koszul, z2grid):
    Q = grid_sequence(2, [2], z2grid)
    with pytest.raises(ValueError):
        juzvinskii_defect(koszul, Q)


# ---------------------------------------------------------------------------
# finite group oracle

def test_trivial_group_ordinary_betti():
    triv = FiniteTable([[0]])
    # 0 -> Z -> Z^2 -> Z with integer matrices, over the trivial group
    d2 = RingMatrix(triv, [[2, -4]])
    d1 = RingMatrix(triv, [[2], [1]])
    C = build_complex(triv, (1, 2, 1), [d2, d1])
    values = finite_group_exact_betti(C)
    # ordinary rational Betti numbers: ranks are 1 and 1
    assert values == [Fraction(0), Fraction(0), Fraction(0)]
    d2b = RingMatrix(triv, [[0, 0]])
    C2 = build_complex(triv, (1, 2, 1), [d2b, d1])
    assert finite_group_exact_betti(C2) == [0, 1, 1]


def test_z2_norm_element_betti():
    z2 = FiniteTable.cyclic(2)
    d1 = parse_ring_matrix("1 + t", z2)
    C = build_complex(z2, (1, 1), [d1])
    L = linearize(d1, regular_quotient(z2))
    assert sorted(L.to_dense()[0]) == [1, 1]
    assert rational_rank(L.to_dense()) == 1
    assert finite_group_exact_betti(C) == [Fraction(1, 2), Fraction(1, 2)]


def test_s3_transposition_betti(s3):
    s = s3.element(1)  # a transposition
    d1 = RingMatrix(s3, [[RingElement.monomial(s) - RingElement.one(s3)]])
    C = build_complex(s3, (1, 1), [d1])
    # oracle: rank of the regular block equals 6 minus the number of orbits
    # of left multiplication by s, i.e. 6 - 3 = 3
    assert finite_group_exact_betti(C) == [Fraction(3, 6), Fraction(3, 6)]


def test_oracle_matches_bareiss_on_edge_rows(s3):
    """Rows +g - h across two entries and inside one, beside a row that is
    not one, against Bareiss on the dense regular-model matrix built from
    the multiplication table by hand: P(g) sends w to table[g][w]."""
    d1 = parse_ring_matrix("s12, -r123 ; s13 - s23, 0 ; r132 - 1, 2*s23", s3)
    table = build_s3_table()
    m, n, g = 3, 2, 6
    dense = [[0] * (n * g) for _ in range(m * g)]
    for j in range(m):
        for k in range(n):
            for elem, coeff in d1.entries[j][k].terms.items():
                for w in range(g):
                    dense[table[elem.payload][w] * m + j][w * n + k] += coeff
    r1 = rank_dense_bareiss(dense)
    C = build_complex(s3, (m, n), [d1])
    assert finite_group_exact_betti(C) == [Fraction(n * g - r1, g), Fraction(m * g - r1, g)]


def test_pipelines_match_oracle_on_regular_stage(s3):
    z4 = FiniteTable.cyclic(4)
    for fam in (FiniteTable.cyclic(2), z4, s3):
        norm = RingElement(fam, [(g, 1) for g in fam.elements()])
        d1 = RingMatrix(fam, [[norm]])
        C = build_complex(fam, (1, 1), [d1])
        oracle = finite_group_exact_betti(C)
        Q = regular_sequence(fam)
        for j in (0, 1):
            assert betti_approximants(C, Q, j).points[0].value == oracle[j]
            assert mrk_j_approximants(C, Q, j).points[0].value == oracle[j]


def test_norm_multiple_matches_oracle(s3, count_calls):
    """d1 = A * (1 + s + s^2) with s of order 3: the columns of L(d1) are
    constant on the orbits of s, so two in three repeat one before them."""
    from soficrank import rank

    z6 = FiniteTable.cyclic(6)
    for fam, s in ((s3, s3.element(4)), (z6, z6.element(2))):
        g = [fam.element(i) for i in range(fam.order)]
        one = RingElement.one(fam)
        norm = one + RingElement.monomial(s) + RingElement.monomial(s * s)
        A = [[3 * one - RingElement.monomial(g[1]), one + 2 * RingElement.monomial(g[5])],
             [RingElement.monomial(g[3]) - one, 2 * one + RingElement.monomial(g[1] * g[3])]]
        d1 = RingMatrix(fam, [[a * norm for a in row] for row in A])
        L = linearize(d1, regular_quotient(fam))
        assert len({tuple(col) for col in zip(*L.to_dense())}) == L.cols // 3
        C = build_complex(fam, (2, 2), [d1])
        oracle = finite_group_exact_betti(C)
        calls = count_calls(rank, "rank_mod_p")
        Q = regular_sequence(fam)
        for j in (0, 1):
            point = betti_approximants(C, Q, j).points[0]
            assert (point.value, point.certified) == (oracle[j], True)
        assert calls


def test_oracle_is_exact_over_z_without_primes(s3, count_calls):
    """The oracle shares no step with the modular engine: on the same
    norm-multiple d1, finite_group_exact_betti calls neither rank_mod_p nor
    isprime, and each value is (n_j g - r_j - r_{j+1}) / g with the ranks
    taken by Fraction-Gauss elimination of the linearization."""
    from soficrank import rank

    modular = count_calls(rank, "rank_mod_p")
    primality = count_calls(rank, "isprime")
    z6 = FiniteTable.cyclic(6)
    for fam, s in ((s3, s3.element(4)), (z6, z6.element(2))):
        g = [fam.element(i) for i in range(fam.order)]
        one = RingElement.one(fam)
        norm = one + RingElement.monomial(s) + RingElement.monomial(s * s)
        A = [[3 * one - RingElement.monomial(g[1]), one + 2 * RingElement.monomial(g[5])],
             [RingElement.monomial(g[3]) - one, 2 * one + RingElement.monomial(g[1] * g[3])]]
        d1 = RingMatrix(fam, [[a * norm for a in row] for row in A])
        C = build_complex(fam, (2, 2), [d1])
        oracle = finite_group_exact_betti(C)
        assert (modular, primality) == ([], [])
        ranks = {1: rational_rank(linearize(d1, regular_quotient(fam)).to_dense())}
        assert oracle == [
            Fraction(C.rank_of(j) * fam.order - ranks.get(j, 0) - ranks.get(j + 1, 0), fam.order)
            for j in (0, 1)
        ]


# ---------------------------------------------------------------------------
# literal mean rank

def one_vector(fam, n=1):
    """The first basis vector of ZG^n, as the one row of a RingMatrix."""
    return RingMatrix(fam, [[1] + [0] * (n - 1)])


def test_literal_zero_subgroups():
    z2 = FiniteTable.cyclic(2)
    M = ModulePresentation(z2, 1, None)
    zero = RingMatrix(z2, [[RingElement.zero(z2)]])
    q = regular_quotient(z2)
    assert literal_mean_rank_point(M, zero, zero, z2.elements(), q).value == 0


def test_literal_full_group_ring_density_one():
    for n in (2, 4):
        fam = FiniteTable.cyclic(n)
        M = ModulePresentation(fam, 1, None)
        A = one_vector(fam)
        B = one_vector(fam)
        q = regular_quotient(fam)
        assert literal_mean_rank_point(M, A, B, fam.elements(), q).value == 1


def test_literal_z2_small_f_set_brute_force():
    # independent oracle: build the quotient presentation explicitly and
    # compute ranks with the test-local rational elimination
    z2 = FiniteTable.cyclic(2)
    M = ModulePresentation(z2, 1, None)
    A = one_vector(z2)
    B = one_vector(z2)
    t = z2.element(1)
    q = regular_quotient(z2)
    value = literal_mean_rank_point(M, A, B, [t], q).value
    # basis of M^2 = Z[Z/2]^2: coordinates (v, elem) for v in {0,1}
    # relations delta_v (x) 1 - delta_{sigma(t) v} (x) t for v in {0,1}
    rel = [
        [1, 0, 0, -1],  # v=0: (0,e) - (1,t)
        [0, -1, 1, 0],  # v=1: (1,e) - (0,t)
    ]
    a_rows = [
        [1, 0, 0, 0],
        [0, 0, 1, 0],
    ]
    r_rel = rational_rank(rel)
    r_full = rational_rank(rel + a_rows)
    assert value == Fraction(r_full - r_rel, 2)
    assert value == 1


def test_literal_direct_sum_additivity():
    for n in (2, 4):
        fam = FiniteTable.cyclic(n)
        q = regular_quotient(fam)
        F = fam.elements()
        norm = RingElement(fam, [(g, 1) for g in fam.elements()])
        # M1 = ZG free, M2 = ZG / (norm element)
        M1 = ModulePresentation(fam, 1, None)
        M2 = ModulePresentation(fam, 1, RingMatrix(fam, [[norm]]))
        A1 = B1 = one_vector(fam)
        v1 = literal_mean_rank_point(M1, A1, B1, F, q).value
        v2 = literal_mean_rank_point(M2, A1, B1, F, q).value
        Msum = ModulePresentation(
            fam, 2, RingMatrix(fam, [[RingElement.zero(fam), norm]])
        )
        zero = RingElement.zero(fam)
        one = RingElement.one(fam)
        AB = RingMatrix(fam, [[one, zero], [zero, one]])
        vsum = literal_mean_rank_point(Msum, AB, AB, F, q).value
        assert vsum == v1 + v2


def test_literal_window_over_infinite_family(z1):
    t = z1.generators()[0]
    window = [t ** k for k in range(-2, 3)]
    M = ModulePresentation(z1, 1, None)
    A = B = one_vector(z1)
    from soficrank import grid_quotient

    q = grid_quotient(1, 3, z1)
    value = literal_mean_rank_point(M, A, B, [t], q, window=window).value
    assert 0 <= value <= 1
    # deterministic
    assert value == literal_mean_rank_point(M, A, B, [t], q, window=window).value
    with pytest.raises(ValueError):
        literal_mean_rank_point(M, A, B, [t], q)  # no window


def test_literal_point_carries_both_rank_flags():
    z2 = FiniteTable.cyclic(2)
    q = regular_quotient(z2)
    M = ModulePresentation(z2, 1, parse_ring_matrix("2*e - 2*t", z2))
    A = one_vector(z2)
    point = literal_mean_rank_point(M, A, A, z2.elements(), q)
    assert point.certified and point.degree == 2
    assert point.value == literal_mean_rank_point(M, A, A, z2.elements(), q).value
    # the relation rows 2*(e - t), beside the translation edges, have rank
    # 3 over Q, below their bound 4; they have rank 2 mod 2 and 3 mod 3,
    # and the window holds no other prime: the relation rank stays
    # uncertified
    tiny = RankPolicy(primes_count=2, prime_bits=(1, 2), dense_threshold=0)
    assert not literal_mean_rank_point(M, A, A, z2.elements(), q, policy=tiny).certified


def test_literal_windowed_point_is_uncertified(z1):
    t = z1.generators()[0]
    window = [t ** k for k in range(-2, 3)]
    M = ModulePresentation(z1, 1, None)
    A = one_vector(z1)
    from soficrank import grid_quotient

    q = grid_quotient(1, 3, z1)
    point = literal_mean_rank_point(M, A, A, [t], q, window=window)
    assert not point.certified
    assert point.value == literal_mean_rank_point(M, A, A, [t], q, window=window).value


def test_literal_size_cap_counts_rows_and_columns(count_calls):
    z2 = FiniteTable.cyclic(2)
    q = regular_quotient(z2)
    M = ModulePresentation(z2, 1, RingMatrix(z2, [[2]]))
    A = one_vector(z2)
    F = z2.elements()
    # d = 2 rows for each of 2 relation rows, 2 (b, s) pairs and 1 A
    # generator, plus d*N = 4 columns: 14
    assert (
        literal_mean_rank_point(M, A, A, F, q, size_cap=14).value
        == literal_mean_rank_point(M, A, A, F, q).value
    )
    ranked = count_calls(invariants, "rank_over_rationals")
    with pytest.raises(SizeCapExceeded, match="exceeds cap 13"):
        literal_mean_rank_point(M, A, A, F, q, size_cap=13)
    assert ranked == []


def test_literal_window_rejects_outside_generators(z1):
    t = z1.generators()[0]
    window = [z1.identity(), t]
    M = ModulePresentation(z1, 1, None)
    outside = RingMatrix(z1, [[RingElement.monomial(t ** 5)]])
    from soficrank import grid_quotient

    q = grid_quotient(1, 3, z1)
    with pytest.raises(ValueError):
        literal_mean_rank_point(M, outside, one_vector(z1), [t], q, window=window)


# generator arguments that are not rows of vectors of a rank-1 module over Z/4
GENERATOR_MISFITS = {
    "not_a_matrix": lambda fam: ((RingElement.one(fam),),),
    "other_family": lambda fam: RingMatrix(FiniteTable.cyclic(3), [[1]]),
    "wrong_columns": lambda fam: RingMatrix(fam, [[1, 0]]),
}


@pytest.mark.parametrize("misfit", GENERATOR_MISFITS.values(), ids=list(GENERATOR_MISFITS))
def test_generators_must_be_rows_of_module_vectors(misfit):
    fam = FiniteTable.cyclic(4)
    M = ModulePresentation(fam, 1, None)
    bad, good = misfit(fam), one_vector(fam)
    message = "^generators must be a RingMatrix of 1-column rows over the module's family$"
    with pytest.raises(ValueError, match=message):
        relative_vrk_approximants(M, bad, regular_sequence(fam))
    q = regular_quotient(fam)
    for A, B in ((bad, good), (good, bad)):
        with pytest.raises(ValueError, match=message):
            literal_mean_rank_point(M, A, B, fam.elements(), q)


def test_integer_generator_entries_coerce():
    fam = FiniteTable.cyclic(4)
    M = ModulePresentation(fam, 1, None)
    ones = RingMatrix(fam, [[1]])
    point = literal_mean_rank_point(M, ones, ones, fam.elements(), regular_quotient(fam))
    assert point.value == 1 and point.certified


# ---------------------------------------------------------------------------
# certification: a point is certified exactly when every rank behind it is

# The window [2, 4) holds only the primes 2 and 3, and none that is 1 mod 3,
# so at the grid of degree 3 every rank takes the sparse engine with no
# Bareiss fallback: L(2) = 2*I has rank 0 mod 2 and 3 mod 3 and stays
# uncertified, while L(1) = I is certified.
TINY_WINDOW = RankPolicy(primes_count=2, prime_bits=(1, 2), dense_threshold=0)


def _pipeline_and_matrices(name, fam, a, b):
    """The series of one pipeline over matrices with entries a*t - a and
    b*t - b, and the matrices whose ranks are behind each of its points.

    At grid 3, k*t - k has rank 2 over Q, below the bound 3 of
    rank_over_rationals, so TINY_WINDOW's primes 2 and 3 decide it: for
    k = 1 its rows are edge rows, exact modulo every prime, and for k = 2
    the rank mod 2 is 0.
    """
    Q = grid_sequence(1, [3], fam)
    ea, eb = "%d*t - %d" % (a, a), "%d*t - %d" % (b, b)
    ab = parse_ring_matrix("%s, 0 ; 0, %s" % (ea, eb), fam)
    top = parse_ring_matrix("%s, 0" % ea, fam)
    bottom = parse_ring_matrix("0 ; %s" % eb, fam)
    if name in ("betti", "mrk_j"):
        C = build_complex(fam, (1, 2, 1), [top, bottom])
        pipeline = betti_approximants if name == "betti" else mrk_j_approximants
        return pipeline(C, Q, 1, TINY_WINDOW), [bottom, top]
    if name == "vrk":
        M = ModulePresentation(fam, 2, ab)
        return vrk_approximants(M, Q, TINY_WINDOW), [ab]
    if name == "relative_vrk":
        M = ModulePresentation(fam, 2, top)
        zero, gen = parse_ring_element("0", fam), parse_ring_element(eb, fam)
        gens = RingMatrix(fam, [[zero, gen]])
        return relative_vrk_approximants(M, gens, Q, TINY_WINDOW), [top, ab]
    C = build_complex(fam, (2, 1), [bottom])
    return juzvinskii_defect(C, Q, top, TINY_WINDOW), [top, bottom]


@pytest.mark.parametrize("a, b", [(1, 1), (1, 2), (2, 1), (2, 2)])
@pytest.mark.parametrize(
    "name", ["betti", "mrk_j", "vrk", "relative_vrk", "juzvinskii_defect"]
)
def test_point_certified_exactly_when_its_ranks_are(z1, name, a, b):
    series, behind = _pipeline_and_matrices(name, z1, a, b)
    q = grid_quotient(1, 3, z1)
    flags = [rank_over_rationals(linearize(f, q), TINY_WINDOW).certified for f in behind]
    if a == b:
        assert flags == [a == 1] * len(behind)
    (point,) = series.points
    assert point.certified == all(flags)


# ---------------------------------------------------------------------------
# serialization

def test_series_csv_schema(tmp_path, f2, f2_complex):
    Q = sanov_sequence([3], f2)
    s = betti_approximants(f2_complex, Q, 1)
    path = str(tmp_path / "series.csv")
    series_to_csv([s], path)
    lines = open(path).read().splitlines()
    assert lines[0] == "invariant_label,degree,value_num,value_den,certified"
    assert lines[1] == "betti[j=1],24,25,24,true"
    # a pathlib.Path writes the same bytes
    series_to_csv([s], tmp_path / "path.csv")
    assert (tmp_path / "path.csv").read_bytes() == (tmp_path / "series.csv").read_bytes()


def test_series_independent_of_prime_choices(f2, f2_complex):
    from soficrank import RankPolicy

    Q = sanov_sequence([3, 5], f2)
    runs = [
        betti_approximants(f2_complex, Q, 1, policy=RankPolicy(seed=seed))
        for seed in (1, 2, 3)
    ]
    values = [[p.value for p in s.points] for s in runs]
    assert values[0] == values[1] == values[2]
    assert all(p.certified for s in runs for p in s.points)
