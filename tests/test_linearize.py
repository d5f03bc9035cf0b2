import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soficrank import (
    FiniteQuotient,
    FiniteTable,
    Free,
    FreeAbelian,
    RankResult,
    RingElement,
    RingMatrix,
    SizeCapExceeded,
    SparseIntMatrix,
    extend_to_word,
    grid_quotient,
    parse_ring_matrix,
    random_quotient,
    rank_over_rationals,
    regular_quotient,
    sanov_quotient,
    write_matrix_market,
)
from soficrank.linearize import linearize
from soficrank.groups import perm_inverse
from conftest import build_s3_table


def rational_rank(dense):
    """Independent oracle: Gaussian elimination over Fraction."""
    A = [[Fraction(x) for x in row] for row in dense]
    m = len(A)
    n = len(A[0]) if m else 0
    rank = 0
    for col in range(n):
        piv = next((i for i in range(rank, m) if A[i][col]), None)
        if piv is None:
            continue
        A[rank], A[piv] = A[piv], A[rank]
        pr = A[rank]
        inv = 1 / pr[col]
        for i in range(m):
            if i != rank and A[i][col]:
                f = A[i][col] * inv
                A[i] = [a - f * b for a, b in zip(A[i], pr)]
        rank += 1
        if rank == m:
            break
    return rank


def dense_product(a, b):
    """Independent oracle: the dense integer product of two sparse matrices."""
    assert a.cols == b.rows
    bd = b.to_dense()
    return [
        [sum(row[k] * bd[k][c] for k in range(b.rows)) for c in range(b.cols)]
        for row in a.to_dense()
    ]


# ---------------------------------------------------------------------------
# SparseIntMatrix basics

def test_triplets_deduplicated_and_sorted():
    m = SparseIntMatrix(2, 2, [(1, 1, 3), (0, 0, 1), (1, 1, -3), (0, 1, 4)])
    assert m.triplets == ((0, 0, 1), (0, 1, 4))
    assert m.nnz == 2


def test_triplet_range_checked():
    with pytest.raises(ValueError):
        SparseIntMatrix(2, 2, [(2, 0, 1)])


@pytest.mark.parametrize("value", [Fraction(1, 2), Fraction(3, 2), 0.5])
def test_non_integer_entries_rejected(value):
    # int() would store 1/2 as nothing and 3/2 as 1
    with pytest.raises(TypeError):
        SparseIntMatrix(2, 2, [(0, 0, value)])


@pytest.mark.parametrize("dims, triplets", [
    ((2, 2), [(0.5, 0, 1), (1, 1.5, 1)]),
    ((2, 2), [(0, 1.0, 1)]),
    ((2.7, 2), []),
    ((2, 2.0), []),
])
def test_non_integer_indices_and_dimensions_rejected(dims, triplets):
    # int() would put 0.5 in row 0, 1.5 in column 1 and give 2.7 two rows
    with pytest.raises(TypeError):
        SparseIntMatrix(*dims, triplets)


@st.composite
def shuffled_triplets(draw):
    """Triplets with repeated positions and cancelling pairs, shuffled twice."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    entry = st.tuples(st.integers(0, m - 1), st.integers(0, n - 1), st.integers(-3, 3))
    trips = draw(st.lists(entry, max_size=20))
    for r, c, v in draw(st.lists(entry, max_size=6)):
        trips += [(r, c, v), (r, c, -v)]
    return m, n, draw(st.permutations(trips)), draw(st.permutations(trips))


@settings(max_examples=200, deadline=None)
@given(shuffled_triplets())
def test_constructor_matches_summing_oracle(case):
    m, n, trips, reordered = case
    acc = {}
    for r, c, v in trips:
        acc[r, c] = acc.get((r, c), 0) + v
    want = tuple(sorted((r, c, v) for (r, c), v in acc.items() if v))
    dense = [[acc.get((r, c), 0) for c in range(n)] for r in range(m)]
    M, N = SparseIntMatrix(m, n, trips), SparseIntMatrix(m, n, reordered)
    assert M.triplets == N.triplets == want
    assert M.nnz == N.nnz == len(want)
    assert M.to_dense() == N.to_dense() == dense
    assert M == N
    # every entry against its negation: rows cancel out as well as entries
    Z = SparseIntMatrix(m, n, trips + [(r, c, -v) for r, c, v in reordered])
    assert Z.is_zero() and Z.nnz == 0 and Z.triplets == ()
    assert rank_over_rationals(Z) == RankResult(0, "dense_fraction_free", (), True)


def test_equality_reads_both_stores():
    edge = SparseIntMatrix(2, 3, [(0, 0, 1), (0, 1, -1)])
    assert edge == SparseIntMatrix(2, 3, [(0, 1, -1), (0, 0, 1)])
    for other in ([(0, 0, -1), (0, 1, 1)], [(1, 0, 1), (1, 1, -1)],
                  [(0, 0, 1), (0, 2, -1)], [(0, 0, 1), (0, 1, 1)]):
        assert edge != SparseIntMatrix(2, 3, other)


def test_from_dense_rejects_ragged_rows():
    with pytest.raises(ValueError):
        SparseIntMatrix.from_dense([[1, 2], [3]])


def test_matrix_market_round_trip(tmp_path):
    # unsorted, with a repeated entry and a pair that cancels
    m = SparseIntMatrix(2, 3, [(1, 0, -7), (0, 2, 1), (1, 2, 4), (0, 1, 5),
                               (0, 2, 2), (1, 2, -4)])
    path = str(tmp_path / "m.mtx")
    write_matrix_market(m, path)
    lines = open(path).read().splitlines()
    assert lines[0] == "%%MatrixMarket matrix coordinate integer general"
    assert lines[1] == "2 3 3"
    assert lines[2:] == ["1 2 5", "1 3 3", "2 1 -7"]
    # a pathlib.Path writes the same bytes
    write_matrix_market(m, tmp_path / "path.mtx")
    assert (tmp_path / "path.mtx").read_bytes() == (tmp_path / "m.mtx").read_bytes()


# ---------------------------------------------------------------------------
# linearize

def test_identity_entry_gives_identity_matrix(f2):
    q = sanov_quotient(3, f2)
    f = RingMatrix.identity(f2, 1)
    d = q.degree
    assert linearize(f, q) == SparseIntMatrix(d, d, [(i, i, 1) for i in range(d)])


def test_cyclic_shift_matrix(z1):
    q = grid_quotient(1, 3, z1)
    f = parse_ring_matrix("t", z1)
    L = linearize(f, q)
    # P(t) sends basis vector w to sigma(t) w = w + 1 mod 3
    assert L.to_dense() == [[0, 0, 1], [1, 0, 0], [0, 1, 0]]


def test_circulant_t_minus_two(z1):
    q = grid_quotient(1, 3, z1)
    L = linearize(parse_ring_matrix("t - 2", z1), q)
    dense = L.to_dense()
    for i in range(3):
        assert dense[i][i] == -2
        assert dense[(i + 1) % 3][i] == 1
    # 3x3 determinant expansion: -8 + 1 = -7, so full rank over Q
    a = dense
    det = (
        a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
        - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
        + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0])
    )
    assert det == -7
    assert rational_rank(dense) == 3


def test_linearize_shape_and_block_layout(f2):
    q = sanov_quotient(3, f2)
    d1 = parse_ring_matrix("a - 1 ; b - 1", f2)
    L = linearize(d1, q)
    assert (L.rows, L.cols) == (48, 24)


def test_functoriality_on_genuine_models(f2, s3, z2grid):
    cases = [
        (parse_ring_matrix("a - 1, b ; 1, a b^-1", f2),
         parse_ring_matrix("b ; a - 2", f2), sanov_quotient(3, f2)),
        (parse_ring_matrix("s12 + r123, e ; 0, s23", s3),
         parse_ring_matrix("r132 ; s13 - 1", s3), regular_quotient(s3)),
        # the Koszul composite d2 * d1 = 0 stays zero at a grid model
        (parse_ring_matrix("y - 1, 1 - x", z2grid),
         parse_ring_matrix("x - 1 ; y - 1", z2grid), grid_quotient(2, 2, z2grid)),
    ]
    for A, B, q in cases:
        product = dense_product(linearize(A, q), linearize(B, q))
        assert linearize(A * B, q).to_dense() == product


def test_functoriality_fails_for_random_table_model(s3):
    q = random_quotient(s3, 6, seed=2)
    s, t = s3.element(1), s3.element(4)
    A = RingMatrix(s3, [[RingElement.monomial(s)]])
    B = RingMatrix(s3, [[RingElement.monomial(t)]])
    assert linearize(A * B, q).to_dense() != dense_product(linearize(A, q), linearize(B, q))


def test_functoriality_fails_for_random_grid_model(z2grid):
    q = random_quotient(z2grid, 8, seed=5)
    x, y = z2grid.generators()
    A = RingMatrix(z2grid, [[RingElement.monomial(x)]])
    B = RingMatrix(z2grid, [[RingElement.monomial(y)]])
    # B*A has normal form xy whose extension composes in the fixed coordinate
    # order, so the mismatch shows against the reversed product
    assert linearize(B * A, q).to_dense() != dense_product(linearize(B, q), linearize(A, q))


def test_rank_invariant_under_orientation_flip(f2, s3, z1):
    def linearize_flipped(f, q):
        m, n, d = f.rows, f.cols, q.degree
        trips = []
        for j in range(m):
            for k in range(n):
                for g, coeff in f.entries[j][k].terms.items():
                    p = perm_inverse(extend_to_word(q, g))
                    for w in range(d):
                        trips.append((p[w] * m + j, w * n + k, coeff))
        return SparseIntMatrix(m * d, n * d, trips)

    cases = [
        (parse_ring_matrix("a - 1 ; b - 1", f2), sanov_quotient(3, f2)),
        (parse_ring_matrix("2*a*b^-1 - 3, b ; 1, a + b", f2), sanov_quotient(3, f2)),
        (parse_ring_matrix("s12 + 2*r123 ; s23 - 1", s3), regular_quotient(s3)),
        (parse_ring_matrix("t - 2", z1), grid_quotient(1, 5, z1)),
    ]
    for f, q in cases:
        r1 = rational_rank(linearize(f, q).to_dense())
        r2 = rational_rank(linearize_flipped(f, q).to_dense())
        assert r1 == r2


def block_triplets(f, q):
    """The triplets of every block, in the order (j, k, term, w)."""
    m, n, d = f.rows, f.cols, q.degree
    trips = []
    for j in range(m):
        for k in range(n):
            for g, coeff in f.entries[j][k].terms.items():
                p = extend_to_word(q, g)
                for w in range(d):
                    trips.append((p[w] * m + j, w * n + k, coeff))
    return trips


def triplet_linearize(f, q):
    """Oracle: the block triplets summed by the SparseIntMatrix constructor."""
    return SparseIntMatrix(f.rows * q.degree, f.cols * q.degree, block_triplets(f, q))


def summed_dense(f, q):
    """Oracle: the block triplets summed into a dense matrix by a plain loop."""
    dense = [[0] * (f.cols * q.degree) for _ in range(f.rows * q.degree)]
    for r, c, v in block_triplets(f, q):
        dense[r][c] += v
    return dense


def stored_order(M):
    """Both stores as rank_mod_p reads them: the rows of the row map and,
    within each row, the columns in stored order; then the edge rows as
    (row, +1 column, -1 column) in stored order."""
    return ([(r, list(row.items())) for r, row in M._row_map.items()],
            list(zip(*M._edges)))


def _free_words(fam):
    a, b = fam.generators()
    e = fam.identity()
    return [e, a, b, ~a, ~b, a * b, b * a, a * a, a * ~b, b * b * ~a]


def _lattice_points(fam):
    x, y = fam.generators()
    return [x ** i * y ** j for i in range(-2, 3) for j in range(-2, 3)]


# each family with the elements terms are drawn from and a genuine model
LINEARIZE_FAMILIES = [
    (Free(2), _free_words, lambda fam: sanov_quotient(3, fam)),
    (FreeAbelian(2), _lattice_points, lambda fam: grid_quotient(2, 3, fam)),
    (FiniteTable(build_s3_table(), identity_index=0), FiniteTable.elements,
     regular_quotient),
]


@st.composite
def linearize_cases(draw):
    """A ring matrix of 1-3 x 1-3 entries at the family's genuine model or
    at a random model of degree 1-6, where two terms often act alike at
    some points.  Each row is drawn as one of:

    - up to four random terms per entry;
    - an edge row +g - h (or -g + h), in one entry or across two;
    - an edge row beside a pair +x - y in one entry, which cancels at the
      points where x and y act alike, so that only those rows are edges.
    """
    fam, elements, genuine = draw(st.sampled_from(LINEARIZE_FAMILIES))
    elem = st.sampled_from(elements(fam))
    term = st.tuples(elem, st.integers(-3, 3))
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    entries = []
    for _ in range(m):
        kind = draw(st.sampled_from(["random", "edge", "cancel"]))
        if kind == "random":
            entries.append([RingElement(fam, draw(st.lists(term, max_size=4)))
                            for _ in range(n)])
            continue
        row = [[] for _ in range(n)]
        k1, k2 = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        g = draw(elem)
        h = draw(elem.filter(lambda h: k1 != k2 or h != g))
        s = draw(st.sampled_from((1, -1)))
        row[k1].append((g, s))
        row[k2].append((h, -s))
        if kind == "cancel":
            x, y = draw(st.lists(elem, min_size=2, max_size=2, unique=True))
            t = draw(st.sampled_from((1, -1, 2)))
            row[draw(st.integers(0, n - 1))] += [(x, t), (y, -t)]
        entries.append([RingElement(fam, terms) for terms in row])
    if draw(st.booleans()):
        q = genuine(fam)
    else:
        q = random_quotient(fam, draw(st.integers(1, 6)), draw(st.integers(0, 99)))
    return RingMatrix(fam, entries), q


@settings(max_examples=300, deadline=None)
@given(linearize_cases())
def test_linearize_matches_triplet_oracle(case):
    f, q = case
    L, want = linearize(f, q), triplet_linearize(f, q)
    assert L == want
    assert stored_order(L) == stored_order(want)
    dense = summed_dense(f, q)
    assert L.to_dense() == want.to_dense() == dense
    assert L.nnz == sum(v != 0 for row in dense for v in row)


def test_linearize_keeps_order_when_terms_cancel(f2):
    # a and b act alike, so the b term empties every row the a term made,
    # and the a*b term makes them again in its own order
    a, b = f2.generators()
    p = (1, 2, 0, 4, 3)
    q = FiniteQuotient(f2, 5, (p, p), False)
    f = RingMatrix(f2, [[RingElement(f2, [(a, 2), (b, -2), (a * b, 1)]), RingElement.monomial(b)]])
    L, want = linearize(f, q), triplet_linearize(f, q)
    assert L == want and stored_order(L) == stored_order(want)
    # the order of a*b's image (p p), not of a's (p)
    assert [r for r, _ in stored_order(L)[0]] == [2, 0, 1, 3, 4]
    assert linearize(RingMatrix(f2, [[RingElement(f2, [(a, 1), (b, -1)])]]), q).is_zero()


@pytest.mark.parametrize("text", [
    "a - 1",  # identity second: the pairs are sigma(a) itself
    "1 - a",  # identity first: one inverse, of sigma(a)
    "-a + 1",  # identity second, with the -1 term first
    "a, -1",  # identity second, in another entry
    "a - b",
])
def test_edge_rows_match_triplet_oracle(f2, text):
    f = parse_ring_matrix(text, f2)
    # a fixes two points of the random model and agrees with b at one, so
    # "a - 1", "1 - a" and "a - b" each make a zero row there
    rand = random_quotient(f2, 6, 3)
    a, b = rand.gen_images
    assert sum(a[w] == w for w in range(6)) == 2
    assert sum(a[w] == b[w] for w in range(6)) == 1
    for q in (sanov_quotient(5, f2), rand):
        L, want = linearize(f, q), triplet_linearize(f, q)
        assert L == want
        assert stored_order(L) == stored_order(want)
        assert L._row_map == {}
        dropped = 0 if (f.cols == 2 or q.genuine) else 1 if text == "a - b" else 2
        assert len(L._edges[0]) == q.degree - dropped


def test_block_diagonal_linearization(f2):
    q = sanov_quotient(3, f2)
    combined = linearize(parse_ring_matrix("a - 1, 0 ; 0, b - 1", f2), q)
    # every triplet stays inside one of the two diagonal blocks
    for r, c, _ in combined.triplets:
        v, j = divmod(r, 2)
        w, k = divmod(c, 2)
        assert j == k


def test_size_cap(f2):
    q = sanov_quotient(15, f2)
    f = parse_ring_matrix("a - 1 ; b - 1", f2)
    with pytest.raises(SizeCapExceeded):
        linearize(f, q, size_cap=1000)


def test_sanov_edge_rows_held_compactly(f2):
    # every row of d1 at a Sanov model is an edge row, or a zero row where
    # a or b fixes a point; the edge store holds them in under 3 MB (about
    # 5.7 MB as one dict per row)
    q = sanov_quotient(21, f2)
    d1 = parse_ring_matrix("a - 1 ; b - 1", f2)
    tracemalloc.start()
    try:
        L = linearize(d1, q)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert L._row_map == {}
    fixed = sum(p[w] == w for p in q.gen_images for w in range(q.degree))
    assert len(L._edges[0]) == 2 * q.degree - fixed
    assert held < 3_000_000
