import random
from fractions import Fraction
from operator import index

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from soficrank import (
    RankPolicy,
    RankResult,
    SparseIntMatrix,
    grid_quotient,
    parse_ring_matrix,
    rank_dense_bareiss,
    rank_mod_p,
    rank_over_rationals,
    sanov_quotient,
)
from soficrank.linearize import linearize
from soficrank.rank import _PROOF_PRIME, _residual, multimodular_rank
from test_linearize import dense_product, rational_rank


def scaled_cycle(k, n):
    """k * (1 - t) at the n-cycle: rows k*(e_i - e_(i+1)).  For k > 1 none
    is an edge row, and the rank over Q, n - 1, sits below the bound n of
    rank_over_rationals, so a policy decides it."""
    return SparseIntMatrix(n, n, [(i, c, v) for i in range(n)
                                  for c, v in ((i, k), ((i + 1) % n, -k))])


def random_sparse(rng, m, n, per_row=3, lo=-9, hi=9):
    trips = []
    for i in range(m):
        for j in rng.sample(range(n), min(per_row, n)):
            v = rng.randint(lo, hi)
            if v:
                trips.append((i, j, v))
    return SparseIntMatrix(m, n, trips)


# ---------------------------------------------------------------------------
# rank_mod_p

def test_zero_matrix():
    assert rank_mod_p(SparseIntMatrix(4, 5), 7) == 0


def test_proportional_rows_mod_5():
    m = SparseIntMatrix.from_dense([[2, 4], [1, 2]])
    assert rank_mod_p(m, 5) == 1


def test_mod_p_rank_drop():
    m = SparseIntMatrix.from_dense([[2]])
    assert rank_mod_p(m, 2) == 0
    assert rank_mod_p(m, 3) == 1


def test_p_must_be_prime():
    m = SparseIntMatrix.from_dense([[1]])
    # a Carmichael number and a strong pseudoprime to the first nine prime bases
    for p in (0, 1, 6, 561, 3825123056546413051, 1 << 63):
        with pytest.raises(ValueError):
            rank_mod_p(m, p)
    assert rank_mod_p(m, 2**61 - 1) == 1


def test_mod_p_matches_oracle_on_randoms():
    rng = random.Random(23)
    for _ in range(30):
        m = random_sparse(rng, rng.randrange(1, 12), rng.randrange(1, 12))
        expected = rational_rank(m.to_dense())
        # large prime: no bad reduction for these small entries
        assert rank_mod_p(m, (1 << 61) - 1) == expected


def test_stats_reporting():
    stats = {}
    m = SparseIntMatrix.from_dense([[1, 1], [1, 0]])
    rank_mod_p(m, 5, stats)
    assert stats["pivots"] == 2
    assert stats["initial_nnz"] == 3
    assert stats["peak_nnz"] >= 3


def test_initial_nnz_is_the_matrix_nnz():
    # the 5 is 0 mod 5 and still counts: initial_nnz is M.nnz, at any prime
    m = SparseIntMatrix.from_dense([[1, 5], [0, 1], [1, -1]])
    for p in (5, 7):
        stats = {}
        assert rank_mod_p(m, p, stats) == 2
        assert stats["initial_nnz"] == m.nnz == 5


def test_tuple_of_primes_raises_type_error():
    # rank_mod_p takes one prime, and a tuple is no integer
    with pytest.raises(TypeError):
        rank_mod_p(SparseIntMatrix.from_dense([[1]]), (5, 7))


def test_primes_that_disagree_leave_the_rank_uncertified():
    # column 0 holds only the 3: a pivot at 2, zero at 3
    m = SparseIntMatrix.from_dense([[3, 1], [0, 1]])
    assert (rank_mod_p(m, 2), rank_mod_p(m, 3)) == (2, 1)
    policy = RankPolicy(primes_count=2, prime_bits=(1, 2), dense_threshold=0, max_rounds=1)
    # m sits at its bound, so the proof pass decides it before any policy
    assert rank_over_rationals(m, policy) == RankResult(2, "bound_mod_p", (_PROOF_PRIME,), True)
    # 3 * (1 - t) at the 3-cycle, rank 2 below its bound 3: the two primes
    # of the window [2, 4) disagree
    m = scaled_cycle(3, 3)
    assert (rank_mod_p(m, 2), rank_mod_p(m, 3)) == (2, 0)
    assert rank_over_rationals(m, policy) == RankResult(2, "sparse_mod_p", (3, 2), False)


def test_pass_at_each_prime_stops_at_the_bound():
    # two kept columns bound the rank by 2 over Z; rows in index order reach
    # it on the -1 and the 1 of rows 0 and 1
    m = SparseIntMatrix.from_dense([[-1, 0, -1], [0, 0, 1], [2, 0, 0]])
    assert _residual(m)[3] == 2
    assert rank_mod_p(m, 2) == rank_mod_p(m, 3) == 2


def test_multimodular_rank_falls_back_only_after_a_failed_batch():
    # a fake engine, called once per batch with the rank at each prime in
    # batch order; 2 is a bad reduction, and the window [2, 16) holds 2, 3,
    # 5, 7, 11 and 13
    calls = []

    def rank_at(primes, todo):
        calls.append(primes)
        return [[4 if p == 2 else 5 for p in primes]]

    policy = RankPolicy(primes_count=2, prime_bits=(1, 4), seed=2)
    assert multimodular_rank(rank_at, 1, policy, "fake") == [RankResult(5, "fake", (3, 2, 7, 5), True)]
    assert calls == [(3, 2), (7, 5)]
    calls.clear()
    policy = RankPolicy(primes_count=1, prime_bits=(1, 4), seed=2)
    assert multimodular_rank(rank_at, 1, policy, "fake") == [RankResult(5, "fake", (3,), True)]
    assert calls == [(3,)]


def test_multimodular_rank_closes_each_matrix_alone():
    # three fake matrices under one rule: 2 is a bad reduction of the first
    # alone, the second agrees everywhere, the third never settles; the
    # window [2, 16) under seed 2 gives the batches (3, 2), (7, 5), (13, 11)
    table = [
        lambda p: 4 if p == 2 else 5,
        lambda p: 1,
        lambda p: p,
    ]
    calls = []

    def rank_at(primes, todo):
        calls.append((primes, tuple(todo)))
        return [[table[i](p) for p in primes] for i in todo]

    policy = RankPolicy(primes_count=2, prime_bits=(1, 4), seed=2)
    together = multimodular_rank(rank_at, 3, policy, "fake")
    assert calls == [((3, 2), (0, 1, 2)), ((7, 5), (0, 2)), ((13, 11), (2,))]
    assert together == [
        RankResult(5, "fake", (3, 2, 7, 5), True),
        RankResult(1, "fake", (3, 2), True),
        RankResult(13, "fake", (3, 2, 7, 5, 13, 11), False),
    ]
    alone = [
        multimodular_rank(lambda primes, _: [[f(p) for p in primes]], 1, policy, "fake")[0]
        for f in table
    ]
    assert together == alone
    assert multimodular_rank(rank_at, 0, policy, "fake") == []


# ---------------------------------------------------------------------------
# the edge phase: rows +-(e_i - e_j) contracted by union-find

P50 = 1125899906842597  # the largest prime below 2^50


def dense_rank_mod(dense_rows, p):
    """Rank over F_p by plain Gauss-Jordan elimination on a dense copy."""
    A = [[v % p for v in row] for row in dense_rows]
    rank = 0
    for c in range(len(A[0]) if A else 0):
        pivot = next((i for i in range(rank, len(A)) if A[i][c]), None)
        if pivot is None:
            continue
        A[rank], A[pivot] = A[pivot], A[rank]
        inv = pow(A[rank][c], -1, p)
        for i, row in enumerate(A):
            if i != rank and row[c]:
                f = row[c] * inv % p
                A[i] = [(x - f * y) % p for x, y in zip(row, A[rank])]
        rank += 1
    return rank


@st.composite
def edge_mixed_matrices(draw):
    """Edge rows in both sign orders, repeated, closing cycles and joining
    columns already joined, mixed with rows that are not edges over Z:
    (1, 1), (2, -2), (1, -1, 1), singletons and wide rows."""
    n = draw(st.integers(3, 8))
    col = st.integers(0, n - 1)

    def distinct(k):
        return draw(st.lists(col, min_size=k, max_size=k, unique=True))

    kinds = ["edge", "repeat", "cycle", "plus", "double", "three", "single", "wide"]
    rows, edges = [], []
    for _ in range(draw(st.integers(1, 14))):
        kind = draw(st.sampled_from(kinds))
        if kind in ("edge", "repeat", "cycle"):
            if kind == "repeat" and edges:
                ends = [draw(st.sampled_from(edges))]
            elif kind == "cycle":
                i, j, k = distinct(3)
                ends = [(i, j), (j, k), (k, i)]
            else:
                ends = [tuple(distinct(2))]
            for a, b in ends:
                s = draw(st.sampled_from((1, -1)))
                rows.append({a: s, b: -s})
                edges.append((a, b))
        elif kind in ("plus", "double"):
            i, j = distinct(2)
            rows.append({i: 1, j: 1} if kind == "plus" else {i: 2, j: -2})
        elif kind == "three":
            i, j, k = distinct(3)
            rows.append({i: 1, j: -1, k: 1})
        elif kind == "single":
            rows.append({draw(col): draw(st.sampled_from((1, -1, 2, 3, -6)))})
        else:
            cs = draw(st.lists(col, min_size=min(3, n), max_size=n, unique=True))
            rows.append({c: draw(st.integers(-3, 3).filter(bool)) for c in cs})
    order = draw(st.permutations(range(len(rows))))
    trips = [(r, c, v) for r, k in enumerate(order) for c, v in rows[k].items()]
    return SparseIntMatrix(len(rows), n, trips)


@settings(max_examples=200, deadline=None)
@given(edge_mixed_matrices())
def test_edge_phase_matches_dense_elimination(M):
    dense = M.to_dense()
    ranks = [dense_rank_mod(dense, p) for p in (2, 3, P50)]
    assert [rank_mod_p(M, p) for p in (2, 3, P50)] == ranks
    assert rank_over_rationals(M).rank == rank_dense_bareiss(dense)


@st.composite
def tall_matrices(draw):
    """More rows than columns, so the rank is settled before the last row
    is read: rows drawn whole, exact repeats of earlier rows and edge rows,
    then columns that repeat earlier ones over Z; rows shuffled."""
    n = draw(st.integers(1, 5))
    entry = st.sampled_from((-6, -3, -2, -1, 1, 2, 3, 4))
    rows = []
    for _ in range(draw(st.integers(n + 4, n + 10))):
        kind = draw(st.sampled_from(["whole", "repeat", "edge"]))
        if kind == "repeat" and rows:
            rows.append(dict(draw(st.sampled_from(rows))))
        elif kind == "edge" and n > 1:
            i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
            s = draw(st.sampled_from((1, -1)))
            rows.append({i: s, j: -s})
        else:
            rows.append(draw(st.dictionaries(st.integers(0, n - 1), entry, min_size=1, max_size=n)))
    copies = draw(st.lists(st.integers(0, n - 1), max_size=3))
    for row in rows:
        for k, c in enumerate(copies):
            if c in row:
                row[n + k] = row[c]
    order = draw(st.permutations(range(len(rows))))
    trips = [(r, c, v) for r, k in enumerate(order) for c, v in rows[k].items()]
    return SparseIntMatrix(len(rows), n + len(copies), trips)


@settings(max_examples=200, deadline=None)
@given(tall_matrices())
def test_tall_matrices_match_dense_elimination(M):
    dense = M.to_dense()
    ranks = [dense_rank_mod(dense, p) for p in (2, 3, P50)]
    for p, rank in zip((2, 3, P50), ranks):
        stats = {}
        assert rank_mod_p(M, p, stats) == rank
        assert stats["pivots"] == rank
        assert stats["peak_nnz"] >= stats["initial_nnz"] == M.nnz
    assert rank_over_rationals(M).rank == rank_dense_bareiss(dense)


@settings(max_examples=100, deadline=None)
@given(edge_mixed_matrices(), st.randoms(use_true_random=False))
def test_ranks_do_not_depend_on_input_order(M, rnd):
    # the edge contraction and the column drop read the entries in the
    # order they were given
    trips = list(M.triplets)
    rnd.shuffle(trips)
    S = SparseIntMatrix(M.rows, M.cols, trips)
    ranks = [rank_mod_p(M, p) for p in (2, 3, P50)]
    assert [rank_mod_p(S, p) for p in (2, 3, P50)] == ranks
    assert rank_over_rationals(S) == rank_over_rationals(M)


def test_contracted_rows_count_in_stats(f2):
    d1 = parse_ring_matrix("a - 1 ; b - 1", f2)
    L = linearize(d1, sanov_quotient(5, f2))
    d = L.cols
    stats = {}
    assert rank_mod_p(L, P50, stats) == d - 1
    assert stats == {"initial_nnz": L.nnz, "peak_nnz": L.nnz, "pivots": d - 1}


# ---------------------------------------------------------------------------
# repeated columns: a column equal over Z to an earlier one is dropped

@st.composite
def repeated_column_matrices(draw):
    """Columns repeated exactly, equal only mod 2 or 3 (c and c +- p*e_r),
    or equal only once the edge phase reads them through find (c beside
    x and y with x + y = c and an edge row joining x and y), among edge
    rows and wide rows; rows and columns shuffled."""
    m = draw(st.integers(1, 6))
    entry = st.integers(-3, 3)
    cols = [
        draw(st.dictionaries(st.integers(0, m - 1), entry.filter(bool), max_size=m))
        for _ in range(draw(st.integers(1, 4)))
    ]
    extra = []  # rows below the first m, each a dict column -> value

    def some_col():
        return draw(st.integers(0, len(cols) - 1))

    kinds = ["copy", "mod", "split", "edge", "wide"]
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(kinds))
        n = len(cols)
        s = draw(st.sampled_from((1, -1)))
        if kind == "copy":
            cols.append(dict(cols[some_col()]))
        elif kind == "mod":
            col = dict(cols[some_col()])
            r, p = draw(st.integers(0, m - 1)), draw(st.sampled_from((2, 3)))
            col[r] = col.get(r, 0) + s * p
            cols.append({r: v for r, v in col.items() if v})
        elif kind == "split":
            base = cols[some_col()]
            x = {r: draw(entry) for r in base}
            cols.append({r: v for r, v in x.items() if v})
            cols.append({r: v - x[r] for r, v in base.items() if v != x[r]})
            extra.append({n: s, n + 1: -s})
        elif kind == "edge" and n > 1:
            i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
            extra.append({i: s, j: -s})
        elif kind == "wide":
            cs = draw(st.lists(st.integers(0, n - 1), min_size=min(3, n), max_size=n, unique=True))
            extra.append({c: draw(entry.filter(bool)) for c in cs})
    row_order = draw(st.permutations(range(m + len(extra))))
    col_order = draw(st.permutations(range(len(cols))))
    trips = [(row_order[r], col_order[c], v) for c, col in enumerate(cols) for r, v in col.items()]
    trips += [(row_order[m + k], col_order[c], v)
              for k, row in enumerate(extra) for c, v in row.items()]
    return SparseIntMatrix(m + len(extra), len(cols), trips)


@settings(max_examples=200, deadline=None)
@given(repeated_column_matrices())
def test_repeated_columns_match_dense_elimination(M):
    dense = M.to_dense()
    ranks = [dense_rank_mod(dense, p) for p in (2, 3, P50)]
    assert [rank_mod_p(M, p) for p in (2, 3, P50)] == ranks
    assert rank_over_rationals(M).rank == rank_dense_bareiss(dense)


@pytest.mark.parametrize("p", [2, 5, P50])
@pytest.mark.parametrize("edge", [False, True], ids=["plain", "edge"])
def test_columns_equal_only_mod_p_are_kept(p, edge):
    # (1, 1) and (1 + p, 1) differ over Z and agree mod p: both are kept;
    # the third column repeats the first over Z, once an edge row joins
    # the first two columns in the second case, and is dropped
    if edge:
        dense = [[1, 0, 1 + p, 1], [0, 1, 1, 1], [1, -1, 0, 0]]
    else:
        dense = [[1, 1 + p, 1], [1, 1, 1]]
    M = SparseIntMatrix.from_dense(dense)
    unions, _, count, _ = _residual(M)
    assert (unions, len(count)) == (int(edge), 2)
    assert rank_mod_p(M, p) == dense_rank_mod(dense, p) == 1 + int(edge)
    assert rank_dense_bareiss(dense) == 2 + int(edge)


def test_dropped_columns_count_in_stats(f2):
    rng = random.Random(107)
    base = random_sparse(rng, 12, 5, per_row=3).to_dense()
    tripled = SparseIntMatrix.from_dense([row * 3 for row in base])
    rank = rational_rank(base)
    # the same columns beside the edge rows of a Sanov model
    d1 = parse_ring_matrix("a - 1 ; b - 1", f2)
    L = linearize(d1, sanov_quotient(5, f2))
    edged = SparseIntMatrix(
        L.rows + tripled.rows, L.cols + tripled.cols,
        list(L.triplets) + [(L.rows + r, L.cols + c, v) for r, c, v in tripled.triplets])
    for M, want in ((tripled, rank), (edged, L.cols - 1 + rank)):
        stats = {}
        assert rank_mod_p(M, P50, stats) == want
        assert set(stats) == {"initial_nnz", "peak_nnz", "pivots"}
        assert stats["initial_nnz"] == M.nnz
        assert stats["pivots"] == want
        assert stats["peak_nnz"] >= stats["initial_nnz"]


# ---------------------------------------------------------------------------
# rank_over_rationals

def edge_cycle_matrices():
    """A 4-cycle of edge rows (rank 3); the same beside a row that is not
    an edge and holds the only entry of column 4 (rank 4); and the cycle
    beside rows 2*(e_0 - e_4), 2*(e_4 - e_5), 2*(e_5 - e_0), rank 2 below
    their bound 3 once column 0 reads as its root (rank 5)."""
    cycle = [(0, 0, 1), (0, 1, -1), (1, 1, 1), (1, 2, -1),
             (2, 3, 1), (2, 2, -1), (3, 3, 1), (3, 0, -1)]
    edges_only = SparseIntMatrix(4, 5, cycle)
    mixed = SparseIntMatrix(5, 5, cycle + [(4, 4, 2), (4, 0, 1)])
    below = SparseIntMatrix(7, 6, cycle + [(4, 0, 2), (4, 4, -2), (5, 4, 2), (5, 5, -2),
                                           (6, 5, 2), (6, 0, -2)])
    return edges_only, mixed, below


# the window [4, 8) holds two primes, never the three that certify
TWO_PRIME_POLICY = RankPolicy(primes_count=3, prime_bits=(2, 3))


def test_exact_paths_see_edge_rows():
    edges_only, mixed, below = edge_cycle_matrices()
    assert not edges_only.is_zero() and edges_only._row_map == {}
    # both sit at their bound: the proof pass decides them under any policy
    for M, want in ((edges_only, 3), (mixed, 4)):
        for pol in (None, TWO_PRIME_POLICY):
            assert rank_over_rationals(M, pol) == RankResult(
                want, "bound_mod_p", (_PROOF_PRIME,), True)
        assert rank_dense_bareiss(M.to_dense()) == want
    # below its bound, the result is Bareiss's
    res = rank_over_rationals(below, TWO_PRIME_POLICY)
    assert (res.rank, res.method, res.certified) == (5, "dense_fraction_free", True)
    assert sorted(res.primes_used) == [5, 7]


def test_each_matrix_builds_its_residual_once(monkeypatch):
    from soficrank import rank

    # a build is a call to _residual on a matrix whose record is not set yet
    builds = []
    build = rank._residual

    def counted(M):
        if getattr(M, "_residual", None) is None:
            builds.append(M)
        return build(M)

    monkeypatch.setattr(rank, "_residual", counted)
    # the proof decides the first two; the third runs the rule and Bareiss
    for M in edge_cycle_matrices():
        builds.clear()
        rank_over_rationals(M, TWO_PRIME_POLICY)
        assert builds == [M]
        rank_mod_p(M, 11)
        assert builds == [M]


def test_identity_certified():
    res = rank_over_rationals(SparseIntMatrix(6, 6, [(i, i, 1) for i in range(6)]))
    assert res == RankResult(6, "bound_mod_p", (_PROOF_PRIME,), True)
    # below its bound, three random primes certify the rank
    res = rank_over_rationals(scaled_cycle(2, 6))
    assert res.rank == 5
    assert res.certified
    assert res.method == "sparse_mod_p"
    assert len(res.primes_used) == 3


# ---------------------------------------------------------------------------
# the proof: a pass at the proof prime that meets the rank's bound over Z

P = _PROOF_PRIME


@pytest.mark.parametrize("M, want", [
    # rank 2 over Q, rank 1 mod P
    pytest.param(SparseIntMatrix.from_dense([[1, 1], [0, P]]), 2, id="entry-P"),
    # two columns equal mod P that differ over Z
    pytest.param(SparseIntMatrix.from_dense([[1, 1 + P], [1, 1]]), 2, id="columns-equal-mod-P"),
    # the edge e_0 - e_1 beside the row e_0 + (P - 1) e_1: read through the
    # roots, that row is P times the root's column, zero mod P
    pytest.param(SparseIntMatrix(2, 2, [(0, 0, 1), (0, 1, -1), (1, 0, 1), (1, 1, P - 1)]), 2,
                 id="edge-beside-row"),
    # rank 1, one below the bound 2, and rank 1 mod P
    pytest.param(SparseIntMatrix.from_dense([[1, 2], [2, 4]]), 1, id="one-below-bound"),
])
def test_proof_pass_below_the_bound_is_no_proof(M, want):
    assert rank_mod_p(M, P) < _residual(M)[3]
    res = rank_over_rationals(M)
    assert res.rank == want == rational_rank(M.to_dense())
    assert res.certified
    assert res.method != "bound_mod_p"


def test_bound_reads_columns_through_their_roots():
    # the edge e_0 - e_1 beside the rows e_0 and e_1: through the roots both
    # rows are one column, so the bound is 1 + 1, the rank
    M = SparseIntMatrix(3, 2, [(0, 0, 1), (0, 1, -1), (1, 0, 1), (2, 1, 1)])
    assert _residual(M)[3] == 2
    assert rank_over_rationals(M) == RankResult(2, "bound_mod_p", (P,), True)


def test_all_edge_matrix_is_proved_by_its_unions(f2):
    L = linearize(parse_ring_matrix("a - 1 ; b - 1", f2), sanov_quotient(5, f2))
    assert L._row_map == {}
    assert rank_over_rationals(L) == RankResult(L.cols - 1, "bound_mod_p", (P,), True)
    # no residual: the bound is the union count
    assert _residual(L) == (L.cols - 1, [], {}, L.cols - 1)


def near_p_matrices():
    """Small dense matrices whose entries are 0, +-1, 2 or near a multiple
    of the proof prime, with edge rows among them."""
    entry = st.sampled_from((0, 0, 1, -1, 2, P, -P, P - 1, P + 1, 2 * P))
    return st.integers(1, 4).flatmap(lambda n: st.lists(
        st.one_of(st.lists(entry, min_size=n, max_size=n),
                  st.permutations([1, -1] + [0] * (n - 2)) if n > 1 else st.just([1])),
        min_size=1, max_size=5))


@settings(max_examples=200, deadline=None)
@given(near_p_matrices())
def test_proof_never_certifies_a_wrong_rank(dense):
    M = SparseIntMatrix.from_dense(dense)
    want = rational_rank(dense)
    _, rows, _, bound = _residual(M)
    shared = [dict(row) for row in rows]
    assert bound >= want
    res = rank_over_rationals(M)
    assert res.rank == want and res.certified
    # every pass reads the one record and writes nothing into its rows
    primes = (2, 3, P)
    assert [rank_mod_p(M, p) for p in primes] == [
        rank_mod_p(SparseIntMatrix.from_dense(dense), p) for p in primes]
    assert _residual(M)[1] == shared


def test_circulant_rank(z1):
    L = linearize(parse_ring_matrix("t - 2", z1), grid_quotient(1, 3, z1))
    assert rank_over_rationals(L).rank == 3


def test_random_8x8_matches_bareiss():
    rng = random.Random(31)
    for _ in range(10):
        m = random_sparse(rng, 8, 8, per_row=4)
        res = rank_over_rationals(m)
        assert res.rank == rank_dense_bareiss(m.to_dense())
        assert res.certified


def test_bareiss_matches_fraction_gauss():
    rng = random.Random(37)
    for _ in range(40):
        rows = rng.randrange(1, 10)
        cols = rng.randrange(1, 10)
        m = random_sparse(rng, rows, cols, per_row=min(cols, 4))
        assert rank_dense_bareiss(m.to_dense()) == rational_rank(m.to_dense())


@st.composite
def zero_multiplier_matrices(draw):
    """Dense rows that give Bareiss runs of zero multipliers: a first row
    with a pivot of size 2 to 9, then a run of rows that are zero on a
    growing set of leading columns, so each meets the pivots before it with
    multiplier 0, then free rows; entries -1, 0 and 1 elsewhere."""
    c = draw(st.integers(2, 5))
    entry = st.sampled_from([-1, 0, 1])
    pivot = st.sampled_from([s * v for s in (1, -1) for v in range(2, 10)])
    rows = [[draw(pivot)] + draw(st.lists(entry, min_size=c - 1, max_size=c - 1))]
    for i in range(1, draw(st.integers(1, 3)) + 1):
        zeros = min(i, c - 1)
        rows.append([0] * zeros + draw(st.lists(entry, min_size=c - zeros, max_size=c - zeros)))
    rows += draw(st.lists(st.lists(entry, min_size=c, max_size=c), min_size=1, max_size=2))
    return rows


@settings(max_examples=300, deadline=None)
@given(zero_multiplier_matrices())
@example([[-2, -1, 1], [0, 1, 0], [1, 0, 0]])
def test_bareiss_with_zero_multipliers_matches_fraction_gauss(dense):
    # in the example, the second row meets the pivot -2 with multiplier 0;
    # stored unscaled, it would turn the third row's last step into -1 // -2
    assert rank_dense_bareiss(dense) == rational_rank(dense)


@st.composite
def bareiss_column_matrices(draw):
    """Dense rows whose columns repeat an earlier one exactly, are zero, or
    equal one only up to sign (the whole column or some entries), up to a
    scalar, or on the support; columns shuffled."""
    m = draw(st.integers(0, 5))
    entry = st.integers(-3, 3)
    cols = [draw(st.lists(entry, min_size=m, max_size=m)) for _ in range(draw(st.integers(0, 3)))]
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["copy", "zero", "negate", "scale", "flip", "support"]))
        if kind == "zero" or not cols:
            cols.append([0] * m)
            continue
        c = cols[draw(st.integers(0, len(cols) - 1))]
        if kind == "copy":
            cols.append(list(c))
        elif kind == "negate":
            cols.append([-v for v in c])
        elif kind == "scale":
            k = draw(st.sampled_from((2, 3, -2)))
            cols.append([k * v for v in c])
        elif kind == "flip":
            cols.append([draw(st.sampled_from((v, -v))) for v in c])
        else:
            cols.append([draw(entry.filter(bool)) if v else 0 for v in c])
    cols = draw(st.permutations(cols))
    return [[col[i] for col in cols] for i in range(m)]


@settings(max_examples=200, deadline=None)
@given(bareiss_column_matrices())
@example([])  # 0 x n
@example([[], [], []])  # m x 0
@example([[0]])
@example([[-2]])
def test_bareiss_repeated_columns_match_fraction_gauss(dense):
    assert rank_dense_bareiss(dense) == rational_rank(dense)


def column_bareiss(dense_rows):
    """Reference: fraction-free elimination column by column, with a pivot
    search down each column, over the distinct columns."""
    n = len(dense_rows[0]) if dense_rows else 0
    if any(len(r) != n for r in dense_rows):
        raise ValueError("column_bareiss needs rows of equal length")
    cols = dict.fromkeys(tuple(map(index, c)) for c in zip(*dense_rows))
    A = [list(r) for r in zip(*cols)]
    m = len(A)
    n = len(cols)
    prev = 1
    r = 0
    for j in range(n):
        if r == m:
            break
        pivot = next((i for i in range(r, m) if A[i][j]), None)
        if pivot is None:
            continue
        if pivot != r:
            A[r], A[pivot] = A[pivot], A[r]
        Ar = A[r]
        pj = Ar[j]
        for i in range(r + 1, m):
            Ai = A[i]
            aij = Ai[j]
            if aij:
                for k in range(j + 1, n):
                    Ai[k] = (Ai[k] * pj - aij * Ar[k]) // prev
                Ai[j] = 0
            elif prev != 1 or pj != 1:
                for k in range(j + 1, n):
                    if Ai[k]:
                        Ai[k] = Ai[k] * pj // prev
        prev = pj
        r += 1
    return r


@st.composite
def oracle_matrices(draw):
    """Tall, wide and rank-deficient integer matrices (a product of an
    m x r and an r x n factor), with zero rows and repeated rows and
    columns put in, shuffled."""
    m, n = draw(st.integers(0, 9)), draw(st.integers(0, 9))
    r = draw(st.integers(0, min(m, n)))
    entry = st.integers(-4, 4)
    a = draw(st.lists(st.lists(entry, min_size=r, max_size=r), min_size=m, max_size=m))
    b = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=r, max_size=r))
    rows = [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] if b else [0] * n
            for row in a]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["zero row", "repeat row", "repeat column"]))
        if kind == "zero row":
            rows.append([0] * n)
        elif kind == "repeat row" and rows:
            rows.append(list(draw(st.sampled_from(rows))))
        elif kind == "repeat column" and rows and n:
            c = draw(st.integers(0, n - 1))
            rows = [row + [row[c]] for row in rows]
            n += 1
    rows = draw(st.permutations(rows))
    order = draw(st.permutations(range(n)))
    return [[row[c] for c in order] for row in rows]


@settings(max_examples=300, deadline=None)
@given(oracle_matrices())
@example([])
@example([[0, 0], [0, 0]])
@example([[1, 1, 2], [2, 2, 4], [3, 3, 6], [0, 0, 0]])
def test_bareiss_matches_column_bareiss(dense):
    assert rank_dense_bareiss(dense) == column_bareiss(dense)


def test_bareiss_checks_rows_past_its_stop():
    # two distinct columns hold pivots after two rows; the third row is
    # still read
    with pytest.raises(TypeError):
        rank_dense_bareiss([[1, 0], [0, 1], [0.5, 1]])
    with pytest.raises(ValueError):
        rank_dense_bareiss([[1, 0], [0, 1], [1]])


def test_bareiss_rejects_ragged_rows():
    # a width read from the first row would give rank 0; the true rank is 1
    with pytest.raises(ValueError):
        rank_dense_bareiss([[0], [0, 1]])


@pytest.mark.parametrize("dense", [[[Fraction(1, 2)]], [[0.5, 1], [1, 2]]])
def test_bareiss_rejects_non_integers(dense):
    # int() would truncate these to rank 0 and 2; the true ranks are 1 and 1
    with pytest.raises(TypeError):
        rank_dense_bareiss(dense)


def test_non_integer_entry_is_not_ranked_as_zero():
    # a truncated 0.5 would give a certified rank 0
    with pytest.raises(TypeError):
        rank_over_rationals(SparseIntMatrix(1, 1, [(0, 0, 0.5)]))


def test_rank_deficient_products():
    rng = random.Random(41)
    for _ in range(10):
        r = rng.randrange(1, 4)
        a = random_sparse(rng, 9, r, per_row=1)
        b = random_sparse(rng, r, 9, per_row=5)
        m = SparseIntMatrix.from_dense(dense_product(a, b))
        expected = rational_rank(m.to_dense())
        assert expected <= r
        assert rank_over_rationals(m).rank == expected


def test_disagreement_falls_back_to_bareiss():
    # 2I sits at its bound, so the proof pass decides it
    m = SparseIntMatrix.from_dense([[2, 0, 0], [0, 2, 0], [0, 0, 2]])
    policy = RankPolicy(primes_count=2, prime_bits=(1, 2), max_rounds=2, seed=0)
    assert rank_over_rationals(m, policy) == RankResult(3, "bound_mod_p", (_PROOF_PRIME,), True)
    # 2(1 - t) at the 3-cycle has rank 0 mod 2 and rank 2 mod 3, below its
    # bound 3; tiny prime window forces the clash
    res = rank_over_rationals(scaled_cycle(2, 3), policy)
    assert res.rank == 2
    assert res.certified
    assert res.method == "dense_fraction_free"


def test_bareiss_runs_at_rows_plus_cols_equal_to_the_threshold():
    # 2(1 - t) at the 6-cycle, rows + cols = 12; the window [2, 4) holds
    # two primes, never the three that certify
    m = scaled_cycle(2, 6)
    policy = RankPolicy(primes_count=3, prime_bits=(1, 2), dense_threshold=12)
    assert rank_over_rationals(m, policy) == RankResult(5, "dense_fraction_free", (3, 2), True)
    policy = RankPolicy(primes_count=3, prime_bits=(1, 2), dense_threshold=11)
    assert rank_over_rationals(m, policy) == RankResult(5, "sparse_mod_p", (3, 2), False)


def test_policy_exhaustion_returns_lower_bound_uncertified():
    m = scaled_cycle(2, 3)
    policy = RankPolicy(
        primes_count=2, prime_bits=(1, 2), max_rounds=2, seed=0, dense_threshold=0
    )
    res = rank_over_rationals(m, policy)
    assert res.rank == 2  # max over {rank mod 2 = 0, rank mod 3 = 2}
    assert not res.certified


def test_uncertified_result_keeps_the_proof_pass_value():
    # 2(1 - t) at the 6-cycle: the pass finds the rank, 5, below the bound
    # 6, and the window [1, 2) holds no prime for the rule
    policy = RankPolicy(prime_bits=(0, 1), dense_threshold=0)
    res = rank_over_rationals(scaled_cycle(2, 6), policy)
    assert res == RankResult(5, "sparse_mod_p", (_PROOF_PRIME,), False)


def test_prime_window_honored():
    # the window [2, 4) holds only 2 and 3; with both dividing every entry,
    # the k-prime agreement rule certifies a wrong rank: this is why the
    # default window is 50-62 bits.  6(1 - t) at the 3-cycle (rank 2) sits
    # below its bound 3, so the rule decides it
    policy = RankPolicy(primes_count=2, prime_bits=(1, 2), dense_threshold=0, max_rounds=1)
    res = rank_over_rationals(scaled_cycle(6, 3), policy)
    assert res.primes_used == (3, 2)
    assert res.rank == 0
    assert res.certified
    # [[6]] sits at its bound: the proof pass gives its rank, 1
    res = rank_over_rationals(SparseIntMatrix.from_dense([[6]]), policy)
    assert res == RankResult(1, "bound_mod_p", (_PROOF_PRIME,), True)


def test_policy_validates_its_fields():
    m = SparseIntMatrix.from_dense([[1, 2], [3, 4]])
    for bad in (
        dict(primes_count=0), dict(primes_count=2.5), dict(max_rounds=0),
        dict(dense_threshold=-1), dict(seed=1.5), dict(prime_bits=(62, 50)),
        dict(prime_bits=(63, 64)), dict(prime_bits=(-1, 4)), dict(prime_bits=(3, 3)),
        dict(prime_bits=(50.0, 62)), dict(prime_bits=(50, 62, 63)),
    ):
        with pytest.raises((ValueError, TypeError)):
            rank_over_rationals(m, RankPolicy(**bad))
    policy = RankPolicy(prime_bits=[0, 63])
    assert policy.prime_bits == (0, 63)
    assert rank_over_rationals(m, policy).rank == 2


def test_deterministic_under_seed():
    m = SparseIntMatrix.from_dense([[1, 2], [3, 4]])
    r1 = rank_over_rationals(m, RankPolicy(seed=5))
    r2 = rank_over_rationals(m, RankPolicy(seed=5))
    assert r1 == r2


# ---------------------------------------------------------------------------
# invariance properties

def test_mod_p_below_rational_rank_and_generic_equality():
    from sympy import nextprime

    rng = random.Random(43)
    for _ in range(15):
        m = random_sparse(rng, 7, 7, per_row=3)
        rq = rational_rank(m.to_dense())
        hits = 0
        for _ in range(5):
            p = int(nextprime(rng.randrange(1 << 50, 1 << 62)))
            rp = rank_mod_p(m, p)
            assert rp <= rq
            hits += rp == rq
        assert hits >= 1


def test_block_diag_additivity():
    rng = random.Random(47)
    a = random_sparse(rng, 6, 5)
    b = random_sparse(rng, 4, 7)
    shifted = tuple((r + a.rows, c + a.cols, v) for r, c, v in b.triplets)
    ab = SparseIntMatrix(a.rows + b.rows, a.cols + b.cols, a.triplets + shifted)
    assert (
        rank_over_rationals(ab).rank
        == rank_over_rationals(a).rank + rank_over_rationals(b).rank
    )


def test_rank_invariant_under_permutation_and_sign():
    rng = random.Random(53)
    m = random_sparse(rng, 6, 6)
    rows = list(range(6))
    cols = list(range(6))
    rng.shuffle(rows)
    rng.shuffle(cols)
    flipped = SparseIntMatrix(
        6, 6,
        [(rows[r], cols[c], -v if rows[r] == 0 else v) for r, c, v in m.triplets],
    )
    assert rank_over_rationals(flipped).rank == rank_over_rationals(m).rank

