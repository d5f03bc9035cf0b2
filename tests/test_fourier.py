import tracemalloc
from fractions import Fraction
from itertools import product
from math import gcd, lcm

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from soficrank import (
    FiniteQuotient,
    FiniteTable,
    FreeAbelian,
    ModulePresentation,
    RankPolicy,
    RankResult,
    RingElement,
    RingMatrix,
    SizeCapExceeded,
    build_complex,
    grid_quotient,
    grid_sequence,
    parse_ring_matrix,
    random_quotient,
    rank_over_rationals,
    regular_quotient,
    sanov_quotient,
    vrk_approximants,
)
from soficrank import fourier, invariants
from soficrank.fourier import _root_of_unity, character_orbits, fourier_ranks
from soficrank.groups import _grid_images, perm_compose, perm_inverse
from soficrank.linearize import linearize
from soficrank.primes import isprime, prime_factors
from conftest import build_s3_table, check_shared_batches

# largest grid modulus per rank, so that the sparse reference stays small
MAX_MODULUS = {1: 15, 2: 8, 3: 4}


def laurent(fam, terms):
    return RingElement(fam, [(fam._wrap(tuple(s)), c) for s, c in terms])


def one_stage(matrices, n, policy=None):
    """fourier_ranks of one grid stage, modulus n: its one list of results."""
    (results,) = fourier_ranks(matrices, (n,), policy)
    return results


@st.composite
def grid_cases(draw, k=None, n=None):
    """(f, n): a random small Laurent matrix over Z^k and a grid modulus,
    often made rank-deficient by a factor 1 - x_i^e with e | n or by a
    repeated row; k and n are drawn unless given."""
    k = k or draw(st.integers(1, 3))
    n = n or draw(st.integers(1, MAX_MODULUS[k]))
    fam = FreeAbelian(k)
    m, c = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    exponent = st.tuples(*[st.integers(-3, 3)] * k)
    term = st.tuples(exponent, st.integers(-3, 3))
    rows = [
        [laurent(fam, draw(st.lists(term, max_size=3))) for _ in range(c)]
        for _ in range(m)
    ]
    if draw(st.booleans()):
        i = draw(st.integers(0, k - 1))
        e = draw(st.sampled_from([e for e in range(1, n + 1) if n % e == 0]))
        shift = [0] * k
        shift[i] = e
        factor = laurent(fam, [((0,) * k, 1), (shift, -1)])
        r = draw(st.integers(0, m - 1))
        rows[r] = [factor * x for x in rows[r]]
    if draw(st.booleans()):
        rows.append(list(rows[0]))
    return RingMatrix(fam, rows), n


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(grid_cases())
def test_fourier_matches_sparse_engine(case):
    f, n = case
    (split,) = one_stage([f], n)
    sparse = rank_over_rationals(linearize(f, grid_quotient(f.family.rank, n, f.family)))
    assert (split.rank, split.certified) == (sparse.rank, sparse.certified)
    assert split.method == "fourier_mod_p"
    assert all((p - 1) % n == 0 for p in split.primes_used)


def test_fourier_known_rank_deficiency(z1):
    # 1 - t^3 at Z/6 vanishes exactly at the characters a with 3a = 0 mod 6
    f = parse_ring_matrix("1 - t^3", z1)
    assert one_stage([f], 6)[0].rank == 6 - 3
    # 1 + t + t^2 vanishes exactly at the two characters of order 3, at
    # every stage whose modulus 3 divides: a root of order L rather than 3
    # at those characters takes no zero
    f = parse_ring_matrix("1 + t + t^2", z1)
    assert one_stage([f], 6)[0].rank == 6 - 2
    assert [r.rank for (r,) in fourier_ranks([f], (4, 6, 9))] == [4, 6 - 2, 9 - 2]


def test_fourier_falls_back_prime_by_prime(z1):
    # the window [2, 8) holds 3, 5 and 7, all = 1 (mod 2); the value 3 of
    # 2t + 1 at the trivial orbit is not a unit mod 15 or 21, so in a batch
    # holding 3 that orbit is ranked one prime at a time, and rank 1 mod 3
    # is a bad reduction
    f = parse_ring_matrix("2*t + 1", z1)
    policy = RankPolicy(primes_count=2, prime_bits=(1, 3), max_rounds=2, seed=0)
    assert one_stage([f], 2, policy) == [RankResult(2, "fourier_mod_p", (5, 3, 7), True)]
    policy = RankPolicy(primes_count=2, prime_bits=(1, 3), max_rounds=1, seed=1)
    assert one_stage([f], 2, policy) == [RankResult(2, "fourier_mod_p", (3, 7), False)]


KOSZUL = {
    2: ("y - 1, 1 - x", "x - 1 ; y - 1"),
    3: ("z - 1, 1 - y, x - 1",
        "y - 1, 1 - x, 0 ; z - 1, 0, 1 - x ; 0, z - 1, 1 - y",
        "x - 1 ; y - 1 ; z - 1"),
}


@pytest.mark.parametrize("k, moduli", [(2, (2, 3, 5, 12)), (3, (2, 3, 4))])
def test_stage_call_matches_each_differential_alone(k, moduli):
    # the Koszul complex of Z^k: every differential of a stage in one call,
    # under the default window and under [2, 8), which holds two primes
    # p = 1 (mod n) for n = 2 only
    fam = FreeAbelian(k)
    ds = [parse_ring_matrix(text, fam) for text in KOSZUL[k]]
    narrow = RankPolicy(primes_count=2, prime_bits=(1, 3))
    for n in moduli:
        stage = one_stage(ds, n)
        assert stage == [one_stage([d], n)[0] for d in ds]
        assert all(r.certified for r in stage)
        stage = one_stage(ds, n, narrow)
        assert stage == [one_stage([d], n, narrow)[0] for d in ds]
        assert [r.certified for r in stage] == [n == 2] * len(ds)


def test_stage_call_closes_each_differential_in_its_own_round(z1):
    # the window [2, 8) holds 3, 5 and 7, all = 1 (mod 2).  t^3 + t takes
    # the unit values 2 and -2 and closes on the first batch; 2t + 1 takes
    # 3 at the trivial orbit, a bad reduction mod 3 that sends that orbit to
    # one prime at a time, and needs the next round, or stays uncertified
    # without one
    f = parse_ring_matrix("2*t + 1", z1)
    g = parse_ring_matrix("t^3 + t", z1)
    policy = RankPolicy(primes_count=2, prime_bits=(1, 3), max_rounds=2, seed=0)
    first = RankResult(2, "fourier_mod_p", (5, 3), True)
    later = RankResult(2, "fourier_mod_p", (5, 3, 7), True)
    assert one_stage([f, g], 2, policy) == [later, first]
    assert one_stage([g, f], 2, policy) == [first, later]
    assert [one_stage([h], 2, policy)[0] for h in (f, g)] == [later, first]
    policy = RankPolicy(primes_count=2, prime_bits=(1, 3), max_rounds=1, seed=0)
    short = RankResult(2, "fourier_mod_p", (5, 3), False)
    assert one_stage([f, g], 2, policy) == [short, first]


@st.composite
def grid_stages(draw):
    """(matrices, n): one to three random small Laurent matrices over one
    Z^k, at one grid modulus."""
    f, n = draw(grid_cases())
    more = draw(st.lists(grid_cases(f.family.rank, n), max_size=2))
    return [f, *(g for g, _ in more)], n


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(grid_stages(), st.sampled_from([None, RankPolicy(primes_count=2, prime_bits=(1, 7))]))
def test_stage_call_matches_random_matrices_alone(case, policy):
    matrices, n = case
    stage = one_stage(matrices, n, policy)
    assert stage == [one_stage([f], n, policy)[0] for f in matrices]


def plain_rank_mod(rows, p):
    """Rank of a dense matrix over F_p by Gauss-Jordan elimination with
    inverses."""
    rows = [[x % p for x in row] for row in rows]
    rank = 0
    for c in range(len(rows[0])):
        pr = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[rank], rows[pr] = rows[pr], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c] * inv
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def reference_split(f, n, p, w=None):
    """sum_O |O| rank_p f(chi_O) over the orbits of (Z/n)^k, found by
    search: each orbit's matrix evaluated at the primitive n-th root of
    unity w mod p (by default the one a call at n alone reduces to), and
    ranked by plain elimination."""
    w = w or _root_of_unity(n, p)
    total = 0
    for a, size in reference_orbits(f.family.rank, n):
        rows = [[sum(c * pow(w, sum(x * y for x, y in zip(a, g.payload)) % n, p)
                     for g, c in entry.terms.items()) for entry in row]
                for row in f.entries]
        total += size * plain_rank_mod(rows, p)
    return total


def sweep_root(moduli, n, p):
    """The primitive n-th root of unity mod p that a sweep over ``moduli``
    reduces to at the stage n: w^(L/n), w its root of order L = lcm."""
    L = lcm(*moduli)
    return pow(_root_of_unity(L, p), L // n, p)


def recorded_sweep(matrices, moduli, policy=None):
    """fourier_ranks(matrices, moduli, policy), and the (batch, todo,
    values) of each round of its rule."""
    batches = []
    rule = fourier.multimodular_rank

    def recorded(rank_at, count, policy, method, modulus):
        def engine(batch, todo):
            values = rank_at(batch, todo)
            batches.append((batch, todo, values))
            return values

        return rule(engine, count, policy, method, modulus=modulus)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fourier, "multimodular_rank", recorded)
        results = fourier_ranks(matrices, moduli, policy)
    assert batches
    return results, batches


def check_split_values(matrices, moduli, policy=None):
    """fourier_ranks(matrices, moduli, policy), after checking the value of
    every matrix at every stage and every prime of every batch against
    reference_split at the sweep's root.  The rule ranks the pairs
    (stage s, matrix i) as the matrices s * len(matrices) + i."""
    results, batches = recorded_sweep(matrices, moduli, policy)
    for batch, todo, values in batches:
        for t, at in zip(todo, values, strict=True):
            s, i = divmod(t, len(matrices))
            n = moduli[s]
            assert at == [reference_split(matrices[i], n, p, sweep_root(moduli, n, p))
                          for p in batch]
    return results


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(grid_cases())
def test_split_values_match_plain_elimination_at_each_prime(case):
    f, n = case
    check_split_values([f], (n,))


def test_split_values_match_plain_elimination_on_fixed_cases(z1):
    check_split_values([parse_ring_matrix("1 - t^3", z1)], (6,))
    check_split_values([parse_ring_matrix("1 - t^3", z1)], (4, 6, 9))
    fam = FreeAbelian(3)
    koszul = [parse_ring_matrix(text, fam) for text in KOSZUL[3]]
    for n in (2, 3, 4, 6):  # (Z/6)^3 has 112 orbits, more than one slice
        check_split_values(koszul, (n,))
    check_split_values(koszul, (2, 3, 4, 6))
    # the value 3 at the trivial orbit is the only pivot that is not a unit
    # mod 15 or 21; the other orbit takes -1
    f = parse_ring_matrix("2*t + 1", z1)
    policy = RankPolicy(primes_count=2, prime_bits=(1, 3), max_rounds=2, seed=0)
    check_split_values([f], (2,), policy)


def stage_engine(matrices, n):
    """The rank_at that a call at the one stage n hands to its rule,
    captured without running the rule."""
    engines = []

    def capture(rank_at, count, policy, method, modulus):
        engines.append(rank_at)
        return [None] * count

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fourier, "multimodular_rank", capture)
        fourier_ranks(matrices, (n,))
    return engines[0]


# moduli that are not a chain: every stage has an order that another lacks
SWEEPS = [
    (2, KOSZUL[2], (4, 6)),
    (2, KOSZUL[2], (3, 5)),
    (1, ("1 - t^7, t^2 - 1", "t^13 - 1 ; t^11 + t - 2", "t^3 - t"), (7, 11, 13)),
]


@pytest.mark.parametrize("k, texts, moduli", SWEEPS, ids=["4-6", "3-5", "7-11-13"])
def test_sweep_values_equal_one_stage_values_at_every_prime(k, texts, moduli):
    fam = FreeAbelian(k)
    matrices = [parse_ring_matrix(text, fam) for text in texts]
    results, batches = recorded_sweep(matrices, moduli)
    engines = [stage_engine(matrices, n) for n in moduli]
    for batch, todo, values in batches:
        assert all((p - 1) % lcm(*moduli) == 0 for p in batch)
        for t, at in zip(todo, values, strict=True):
            s, i = divmod(t, len(matrices))
            assert at == engines[s](batch, [i])[0]
    assert [[(r.rank, r.certified) for r in stage] for stage in results] == [
        [(r.rank, r.certified) for r in one_stage(matrices, n)] for n in moduli]
    assert all(r.certified and r.method == "fourier_mod_p" for st in results for r in st)


def characters_of_order(k, m):
    """The points of exact order m of (Z/m)^k, by search."""
    return sum(1 for a in product(range(m), repeat=k) if gcd(m, *a) == 1)


def exact_orbits(k, m):
    """reference_orbits(k, m) of the points of exact order m only."""
    return tuple((a, size) for a, size in reference_orbits(k, m) if gcd(m, *a) == 1)


def test_sweep_ranks_each_order_dividing_a_modulus_once(monkeypatch):
    # at 4 and 6 the orders are 1, 2, 3, 4 and 6: 48 characters of Z^2,
    # against 16 + 36 for the stages ranked apart and 144 for (Z/12)^2
    fam = FreeAbelian(2)
    f = parse_ring_matrix(KOSZUL[2][1], fam)
    built, ranked = [], []
    orbits, split = fourier.character_orbits, fourier._split_values

    def build(k, n):
        built.append(n)
        return orbits(k, n)

    def rank(entries, sizes, chars, primes):
        ranked.extend(sizes)
        return split(entries, sizes, chars, primes)

    monkeypatch.setattr(fourier, "character_orbits", build)
    monkeypatch.setattr(fourier, "_split_values", rank)
    results = fourier_ranks([f], (4, 6))
    orders = [1, 2, 3, 4, 6]
    assert built == orders
    assert [len(r.primes_used) for (r,) in results] == [3, 3]  # one batch
    assert sum(ranked) == sum(characters_of_order(2, m) for m in orders) == 48
    assert sorted(ranked) == sorted(size for m in orders for _, size in exact_orbits(2, m))


def test_sweep_at_coprime_moduli_near_1e5_builds_nothing_of_size_lcm(z1, grid_sweeps):
    # L = 99999 * 100000, about 10^10: a power table, an orbit set or a
    # character table of length L would not fit in memory
    moduli = (99999, 100000)
    M = ModulePresentation(z1, 1, parse_ring_matrix("t - 1", z1))
    tracemalloc.start()
    try:
        series = vrk_approximants(M, grid_sequence(1, moduli, z1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [(p.value, p.certified) for p in series] == [(Fraction(1, n), True) for n in moduli]
    assert [m for m, *_ in grid_sweeps] == [moduli]
    check_shared_batches(grid_sweeps)
    assert peak < 2**20  # a power table of length 10^5 mod N alone takes over 5 MB


def test_window_short_of_primes_one_mod_the_lcm_falls_back_to_the_sparse_engine(
    z2grid, count_calls, grid_sweeps
):
    # [2, 32) holds four primes = 1 (mod 3), 7 13 19 31, and four = 1
    # (mod 4), 5 13 17 29, but only 13 = 1 (mod 12): the sweep at 3 and 4
    # certifies nothing, and every rank is linearized
    linearized = count_calls(invariants, "linearize")
    d2, d1 = (parse_ring_matrix(text, z2grid) for text in KOSZUL[2])
    C = build_complex(z2grid, (1, 2, 1), [d2, d1])
    policy = RankPolicy(prime_bits=(1, 5))
    series = invariants.euler_approximants(C, grid_sequence(2, [3, 4], z2grid), policy)
    assert [[(p.value, p.certified) for p in s] for s in series[:3]] == [
        [(Fraction(b, n * n), True) for n in (3, 4)] for b in (1, 2, 1)]
    ((moduli, _, results, _, _),) = grid_sweeps
    assert moduli == (3, 4)
    assert [[(r.primes_used, r.certified) for r in stage] for stage in results] == [
        [((13,), False)] * 2] * 2
    assert len(linearized) == 4


def test_grid_sequence_checks_every_size_cap_before_ranking(z2grid, count_calls):
    calls = count_calls(invariants, "fourier_ranks")
    M = ModulePresentation(z2grid, 1, parse_ring_matrix("x - 1", z2grid))
    with pytest.raises(SizeCapExceeded, match="^linearized total dimension 200 exceeds cap 199$"):
        vrk_approximants(M, grid_sequence(2, [5, 10]), size_cap=199)
    assert calls == []


@st.composite
def grid_sequences(draw):
    """(matrices, moduli): one to three random small Laurent matrices over
    one Z^k, at two or three distinct grid moduli."""
    matrices, n = draw(grid_stages())
    k = matrices[0].family.rank
    moduli = draw(st.lists(st.integers(1, MAX_MODULUS[k]), min_size=1, max_size=2,
                           unique=True).filter(lambda ms: n not in ms))
    return matrices, (n, *moduli)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(grid_sequences())
def test_sweep_matches_one_stage_calls_on_random_matrices(case):
    matrices, moduli = case
    results = check_split_values(matrices, moduli)
    assert [[(r.rank, r.certified) for r in stage] for stage in results] == [
        [(r.rank, r.certified) for r in one_stage(matrices, n)] for n in moduli]


def split_cases(z1):
    """(matrices, moduli, policy) for stages and sweeps whose orbits meet
    every path of the split: slices led by a rank-deficient orbit, orbits
    ranked again alone, and orbits ranked one prime at a time."""
    fam = FreeAbelian(3)
    koszul = [parse_ring_matrix(text, fam) for text in KOSZUL[3]]
    narrow = RankPolicy(primes_count=2, prime_bits=(1, 3), max_rounds=2, seed=0)
    return [(koszul, (n,), None) for n in (2, 3, 4, 6)] + [
        (koszul, (2, 3, 4, 6), None),
        (koszul, (2,), narrow),
        ([parse_ring_matrix("1 - t^3", z1)], (6,), None),
        ([parse_ring_matrix("1 - t^3", z1)], (4, 6, 9), None),
        ([parse_ring_matrix("2*t + 1", z1), parse_ring_matrix("t^3 + t", z1)], (2,), narrow),
    ]


@pytest.mark.parametrize("size", [1, 2, 3])
def test_slice_size_leaves_every_result(z1, monkeypatch, size):
    cases = split_cases(z1)
    default = [fourier_ranks(*case) for case in cases]
    monkeypatch.setattr(fourier, "_SLICE", size)
    assert [fourier_ranks(*case) for case in cases] == default


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(grid_stages(), st.sampled_from([1, 2, 3]))
def test_slice_size_leaves_random_results(case, size):
    matrices, n = case
    default = one_stage(matrices, n)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fourier, "_SLICE", size)
        assert one_stage(matrices, n) == default


def reference_orbits(k, n):
    """The orbits of (Z/n)^k under a -> u.a, u a unit, by search: every
    point, indexed as sum_i a_i n^i, is marked in a bytearray, and each
    point not yet marked is the representative of a new orbit, in
    increasing index order."""
    weights = [n ** i for i in range(k)]
    units = {}
    seen = bytearray(n ** k)
    out = []
    i = seen.find(0)
    while i >= 0:
        a = tuple(i // w % n for w in weights)
        m = n // gcd(n, *a)
        us = units.get(m)
        if us is None:
            us = units[m] = [u for u in range(m) if gcd(u, m) == 1]
        cols = [[u * c % n * w for u in us] for c, w in zip(a, weights)]
        for j in map(sum, zip(*cols)):
            seen[j] = 1
        out.append((a, len(us)))
        i = seen.find(0, i + 1)
    return tuple(out)


def orbit_count(k, n):
    """prod over p^e || n of 1 + sum_{j=1..e} (p^(jk) - p^((j-1)k)) / phi(p^j):
    the points of order p^j, over the size of each of their orbits."""
    count = 1
    for p in prime_factors(n):
        factor, j = 1, 1
        while n % p ** j == 0:
            factor += (p ** (j * k) - p ** ((j - 1) * k)) // (p ** j - p ** (j - 1))
            j += 1
        count *= factor
    return count


ORBIT_CASES = [(k, n) for k in (1, 2, 3) for n in range(1, 31)] + [
    (k, n) for k in (1, 2) for n in (36, 40, 48)]


def test_character_orbits_partition_the_group():
    # the orbits of the orders m | n, scaled by n / m, are those of (Z/n)^k
    for k, n in ORBIT_CASES:
        units = [u for u in range(n) if gcd(u, n) == 1]
        seen = set()
        orbits = {}
        for m in (m for m in range(1, n + 1) if n % m == 0):
            phi = sum(1 for u in range(m) if gcd(u, m) == 1)
            for a, size in character_orbits(k, m):
                assert all(0 <= x < m for x in a) and gcd(m, *a) == 1
                assert size == phi
                orbit = {tuple(u * (n // m) * x % n for x in a) for u in units}
                assert len(orbit) == size
                assert not orbit & seen
                seen |= orbit
                orbits[frozenset(orbit)] = size
        assert len(seen) == n ** k
        assert len(orbits) == orbit_count(k, n)
        assert orbits == {frozenset(tuple(u * x % n for x in a) for u in units): size
                          for a, size in reference_orbits(k, n)}


def test_orbit_order_leaves_every_result(z1, monkeypatch):
    # each prime's value is an exact rank, so neither the representatives
    # nor their order, which decides the slices, may change a result
    fam = FreeAbelian(2)
    koszul = [parse_ring_matrix(text, fam) for text in KOSZUL[2]]
    cases = [(koszul, (n,), None) for n in (40, 80)] + [(koszul, (40, 80), None)]
    cases += split_cases(z1)
    default = [fourier_ranks(*case) for case in cases]
    monkeypatch.setattr(fourier, "character_orbits", exact_orbits)
    assert [fourier_ranks(*case) for case in cases] == default
    monkeypatch.setattr(fourier, "character_orbits", lambda k, m: exact_orbits(k, m)[::-1])
    assert [fourier_ranks(*case) for case in cases] == default


def test_grid_modulus_reads_the_model(z2grid):
    # grid_quotient records n on its models; no model is recognized later
    q = grid_quotient(2, 5, z2grid)
    assert q._grid == 5
    assert grid_quotient(3, 1)._grid == 1
    x, y = q.gen_images
    swapped = FiniteQuotient(z2grid, 25, (y, x), True, "swapped axes")
    given = FiniteQuotient(z2grid, 25, (x, y), True, q.label)
    assert given == q
    assert swapped._grid is None and given._grid is None
    s3 = FiniteTable(build_s3_table())
    for other in (sanov_quotient(3), regular_quotient(s3), random_quotient(z2grid, 9, 0)):
        assert other._grid is None


def relabelled_grid(fam, n):
    """The grid model of (Z/n)^k conjugated by a fixed relabelling of points:
    genuine and isomorphic to the grid, but not the canonical translations."""
    q = grid_quotient(fam.rank, n, fam)
    sigma = tuple((7 * v + 3) % q.degree for v in range(q.degree))
    images = tuple(
        perm_compose(sigma, perm_compose(p, perm_inverse(sigma))) for p in q.gen_images
    )
    return q, FiniteQuotient(fam, q.degree, images, True, "relabelled grid")


def test_noncanonical_free_abelian_model_takes_sparse_path(z2grid, count_calls):
    calls = count_calls(invariants, "fourier_ranks")
    M = ModulePresentation(z2grid, 1, parse_ring_matrix("x - 1 ; y^2 - 1", z2grid))
    canonical, relabelled = relabelled_grid(z2grid, 4)
    # the grid's own images, given from outside rather than built
    given = FiniteQuotient(z2grid, 16, canonical.gen_images, True, "given grid")
    (sparse,) = vrk_approximants(M, [relabelled]).points
    (sparse_given,) = vrk_approximants(M, [given]).points
    assert calls == []
    (split,) = vrk_approximants(M, [canonical]).points
    assert [list(moduli) for _, moduli, _ in calls] == [[4]]  # one call, at n = 4
    # the cokernel is Z[(Z/4)^2] / (x - 1, y^2 - 1) = Z[Z/2], of rank 2
    assert sparse == split == sparse_given
    assert sparse.value == Fraction(2, 16) and sparse.certified


def test_grid_differentials_skip_linearization(z2grid, monkeypatch):
    def refuse(*args):
        raise AssertionError("linearized a grid differential")

    monkeypatch.setattr(invariants, "linearize", refuse)
    d2 = parse_ring_matrix("y - 1, 1 - x", z2grid)
    d1 = parse_ring_matrix("x - 1 ; y - 1", z2grid)
    C = build_complex(z2grid, (1, 2, 1), [d2, d1])
    series = invariants.betti_approximants(C, grid_sequence(2, [3, 6]), 1)
    assert [p.value for p in series] == [Fraction(2, 9), Fraction(2, 36)]
    assert all(p.certified for p in series)


def translations(k, n):
    """The unit translations of (Z/n)^k, point v = sum_i c_i n^i, computed
    from the coordinates of each point."""
    images = []
    for i in range(k):
        image = []
        for v in range(n ** k):
            c = v // n ** i % n
            image.append(v + ((c + 1) % n - c) * n ** i)
        images.append(tuple(image))
    return tuple(images)


def test_grid_path_never_builds_the_images(z2grid):
    d2 = parse_ring_matrix("y - 1, 1 - x", z2grid)
    d1 = parse_ring_matrix("x - 1 ; y - 1", z2grid)
    C = build_complex(z2grid, (1, 2, 1), [d2, d1])
    Q = grid_sequence(2, (2, 3, 5), z2grid)
    series = invariants.euler_approximants(C, Q)
    assert all(p.certified for s in series for p in s)
    for q, n in zip(Q, (2, 3, 5)):
        assert "gen_images" not in q.__dict__
        first = q.gen_images
        assert first == _grid_images(2, n) == translations(2, n)
        assert q.gen_images is first


def test_uncertified_split_builds_the_images_for_the_sparse_engine(z1):
    # 2t - 2 at grid 3: the window [2, 4) holds no prime = 1 (mod 3), so the
    # split stays uncertified and the sparse engine linearizes the model
    f = parse_ring_matrix("2*t - 2", z1)
    q = grid_quotient(1, 3, z1)
    policy = RankPolicy(primes_count=2, prime_bits=(1, 2), dense_threshold=0)
    assert "gen_images" not in q.__dict__
    _, [(_, (result,))] = invariants._rank_table(z1, [q], [f], policy, 10**6)
    assert result == RankResult(2, "sparse_mod_p", (3, 2), False)
    assert q.__dict__["gen_images"] == translations(1, 3) == ((1, 2, 0),)


def test_grid_path_keeps_the_size_cap(z2grid):
    M = ModulePresentation(z2grid, 1, parse_ring_matrix("x - 1", z2grid))
    with pytest.raises(SizeCapExceeded):
        vrk_approximants(M, grid_sequence(2, [10]), size_cap=199)
    assert vrk_approximants(M, grid_sequence(2, [10]), size_cap=200).points[0].certified


def test_root_of_unity_has_exact_order():
    for n in range(1, 41):
        primes = [p for p in range(n + 1, 10**4, n) if isprime(p)][:2]
        assert len(primes) == 2
        for p in primes:
            w = _root_of_unity(n, p)
            assert [k for k in range(1, n + 1) if pow(w, k, p) == 1] == [n]


def test_root_of_unity_reads_the_primes_from_the_moduli():
    for moduli in ((4, 6), (3, 5), (7, 11, 13), (40, 80), (1,)):
        L = lcm(*moduli)
        primes = [p for p in range(L + 1, 100 * L, L) if isprime(p)][:2]
        assert len(primes) == 2
        for p in primes:
            w = _root_of_unity(L, p, moduli)
            assert w == _root_of_unity(L, p)
            assert [k for k in range(1, L + 1) if pow(w, k, p) == 1] == [L]


def test_root_of_unity_needs_p_one_mod_n():
    # 7 = 3 (mod 4): F_7 holds no primitive 4th root of unity
    with pytest.raises(ValueError):
        _root_of_unity(4, 7)
