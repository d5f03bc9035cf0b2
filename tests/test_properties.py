"""Property tests on random small inputs over Z/n (n <= 6) and S_3 at their
regular models: the complex pipelines against the finite-group oracle, the
module pipelines against Bareiss ranks, and the additivity defect against
the Betti number of the complex it measures."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from soficrank import (
    FiniteTable,
    ModulePresentation,
    RingElement,
    RingMatrix,
    build_complex,
    euler_approximants,
    finite_group_exact_betti,
    juzvinskii_defect,
    literal_mean_rank_point,
    mrk_j_approximants,
    rank_dense_bareiss,
    regular_sequence,
    relative_vrk_approximants,
    vrk_approximants,
)
from soficrank.linearize import linearize
from conftest import build_s3_table

GROUPS = [FiniteTable.cyclic(n) for n in range(1, 7)] + [
    FiniteTable(build_s3_table(), identity_index=0)
]


def orbit_sum(h):
    """N_h = 1 + h + ... + h^(o-1) for h of order o, so (1 - h) N_h = 0."""
    terms, p = [(h, 1)], h
    while p != h.family.identity():
        p = p * h
        terms.append((p, 1))
    return RingElement(h.family, terms)


def ring_elements(fam):
    term = st.tuples(st.sampled_from(fam.elements()), st.integers(-2, 2))
    return st.lists(term, max_size=3).map(lambda terms: RingElement(fam, terms))


@st.composite
def complexes(draw):
    """A random two- or three-term complex; a three-term one has
    d_2[i][k] = a_ik u_k and d_1[k][j] = v_k b_kj with u_k v_k = 0."""
    fam = draw(st.sampled_from(GROUPS))
    elems = fam.elements()

    def element():
        return draw(ring_elements(fam))

    ranks = draw(st.lists(st.integers(1, 2), min_size=2, max_size=3))  # n_k..n_0
    if len(ranks) == 2:
        d1 = RingMatrix(fam, [[element() for _ in range(ranks[1])] for _ in range(ranks[0])])
        return build_complex(fam, ranks, [d1])
    pairs = []
    for _ in range(ranks[1]):
        kind = draw(st.sampled_from(["1 - h, N_h", "N_h, 1 - h", "0, v", "u, 0"]))
        if kind == "0, v":
            pairs.append((RingElement.zero(fam), element()))
        elif kind == "u, 0":
            pairs.append((element(), RingElement.zero(fam)))
        else:
            h = draw(st.sampled_from(elems))
            one_minus_h = RingElement.one(fam) - RingElement.monomial(h)
            pair = (one_minus_h, orbit_sum(h))
            pairs.append(pair if kind == "1 - h, N_h" else pair[::-1])
    d2 = RingMatrix(fam, [[element() * u for u, _ in pairs] for _ in range(ranks[0])])
    d1 = RingMatrix(fam, [[v * element() for _ in range(ranks[2])] for _, v in pairs])
    return build_complex(fam, ranks, [d2, d1])


@settings(max_examples=60, deadline=None)
@given(complexes())
def test_pipelines_match_the_oracle(C):
    Q = regular_sequence(C.family)
    oracle = finite_group_exact_betti(C)
    *betti, residual = euler_approximants(C, Q)
    assert [s.invariant_label for s in betti] == [
        "betti[j=%d]" % j for j in range(C.top_degree + 1)
    ]
    for j, s in enumerate(betti):
        (point,) = s.points
        assert point.value == oracle[j] and point.certified
    assert [(p.value, p.certified) for p in residual.points] == [(0, True)]
    for j in range(C.top_degree + 1):
        assert mrk_j_approximants(C, Q, j).values() == [oracle[j]]


@st.composite
def presentations(draw):
    """Free rank 1-2 with 0-2 random relation rows (None for none)."""
    fam = draw(st.sampled_from(GROUPS))
    n = draw(st.integers(1, 2))
    rows = draw(st.lists(st.lists(ring_elements(fam), min_size=n, max_size=n), max_size=2))
    return ModulePresentation(fam, n, RingMatrix(fam, rows) if rows else None)


@settings(max_examples=60, deadline=None)
@given(presentations())
def test_module_ranks_match_bareiss(M):
    fam, n = M.family, M.free_rank
    Q = regular_sequence(fam)
    (q,) = Q
    g = fam.order
    r = 0 if M.relations is None else rank_dense_bareiss(linearize(M.relations, q).to_dense())
    expected = Fraction(n * g - r, g)
    (point,) = vrk_approximants(M, Q).points
    assert point.value == expected and point.certified
    one, zero = RingElement.one(fam), RingElement.zero(fam)
    basis = [[one if i == k else zero for k in range(n)] for i in range(n)]
    std = RingMatrix(fam, basis)
    literal = literal_mean_rank_point(M, std, std, fam.elements(), q)
    assert literal.value == expected and literal.certified


@st.composite
def kernel_complexes(draw):
    """A two-term complex with d_1[k][j] = (1 - h_k) b_kj and kernel rows K
    with K[i][k] = a_ik c_k N_{h_k}, c_k in {1, 2}, so K d_1 = 0; or K = None."""
    fam = draw(st.sampled_from(GROUPS))
    n2, n1, n0 = draw(st.lists(st.integers(1, 2), min_size=3, max_size=3))
    hs = [draw(st.sampled_from(fam.elements())) for _ in range(n1)]
    vs = [RingElement.one(fam) - RingElement.monomial(h) for h in hs]
    d1 = RingMatrix(fam, [[v * draw(ring_elements(fam)) for _ in range(n0)] for v in vs])
    C = build_complex(fam, [n1, n0], [d1])
    if draw(st.booleans()):
        return C, None
    us = [orbit_sum(h) * draw(st.sampled_from([1, 2])) for h in hs]
    K = RingMatrix(fam, [[draw(ring_elements(fam)) * u for u in us] for _ in range(n2)])
    return C, K


@settings(max_examples=60, deadline=None)
@given(kernel_complexes())
def test_defect_is_the_betti_number_of_the_kernel_complex(case):
    # value = n_1 - (rank K + rank d_1)/g, degree 1 of the complex K -> d_1
    C, K = case
    full = C
    if K is not None:
        ranks = [K.rows, C.rank_of(1), C.rank_of(0)]
        full = build_complex(C.family, ranks, [K, C.differential(1)])
    (point,) = juzvinskii_defect(C, regular_sequence(C.family), K).points
    assert point.value == finite_group_exact_betti(full)[1] and point.certified


@settings(max_examples=60, deadline=None)
@given(presentations(), st.data())
def test_relative_rank_matches_bareiss(M, data):
    fam, n = M.family, M.free_rank
    (q,) = Q = regular_sequence(fam)
    vector = st.lists(ring_elements(fam), min_size=n, max_size=n)
    gens = data.draw(st.lists(vector, min_size=1, max_size=2))
    relations = [] if M.relations is None else [list(row) for row in M.relations.entries]

    def rank(rows):
        return rank_dense_bareiss(linearize(RingMatrix(fam, rows), q).to_dense()) if rows else 0

    expected = Fraction(rank(relations + gens) - rank(relations), fam.order)
    spec = RingMatrix(fam, gens)
    (point,) = relative_vrk_approximants(M, spec, Q).points
    assert point.value == expected and point.certified
