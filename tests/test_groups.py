import copy
import itertools
import pickle
import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soficrank import (
    ChainComplex,
    FiniteQuotient,
    FiniteTable,
    Free,
    FreeAbelian,
    ModulePresentation,
    QuotientSequence,
    extend_to_word,
    grid_quotient,
    grid_sequence,
    parse_ring_element,
    random_quotient,
    regular_quotient,
    regular_sequence,
    sanov_quotient,
    sanov_sequence,
    soficity_defect,
)
from soficrank import groups
from soficrank.linearize import SparseIntMatrix
from soficrank.rank import rank_mod_p
from soficrank.groups import _sl2_size, identity_perm, perm_compose, perm_inverse, perm_power

from conftest import build_s3_table, free_word, s3_elements, then_perms


# ---------------------------------------------------------------------------
# group law

def test_free_abelian_multiply():
    fam = FreeAbelian(2)
    x, y = fam.generators()
    assert (x * y).payload == (1, 1)
    assert x * y == y * x
    assert x * ~x == fam.identity()
    assert (x ** -3).payload == (-3, 0)


def test_free_multiply_cancels(f2):
    a, b = f2.generators()
    assert (a * b) * ~b == a
    assert ~a * a == f2.identity()
    w = a * b * ~a
    assert w.payload == (1, 2, -1)
    assert (w * w).payload == (1, 2, 2, -1)  # seam cancellation
    assert (w ** 3).payload == (1, 2, 2, 2, -1)
    assert w ** -1 == ~w


def test_s3_table_multiplication(s3):
    # (12)*(13) = (123) with the table convention 'apply left factor first'
    e, s12, s13, s23, r123, r132 = s3.elements()
    assert s12 * s13 == r123
    # full cross-check against the permutation oracle
    elems = s3_elements()
    for i in range(6):
        for j in range(6):
            expected = elems.index(then_perms(elems[i], elems[j]))
            assert (s3.element(i) * s3.element(j)).payload == expected


def test_family_mismatch_rejected(f2):
    other = Free(2, gen_names=("u", "v"))
    with pytest.raises(ValueError):
        f2.generators()[0] * other.generators()[0]


NAME_BUILDERS = {
    "free": lambda names: Free(2, gen_names=names),
    "free_abelian": lambda names: FreeAbelian(2, gen_names=names),
    # element 0 is the identity of the cyclic group
    "finite_table": lambda names: FiniteTable.cyclic(3, names=("one",) + names),
}


@pytest.mark.parametrize("family", sorted(NAME_BUILDERS))
@pytest.mark.parametrize(
    "names",
    [("d", "e"), ("a", "2"), ("a", "1x"), ("a", "b c"), ("a", "b-1"), ("a", ""), ("a", "b^2")],
)
def test_names_the_grammar_reads_otherwise_are_rejected(family, names):
    with pytest.raises(ValueError):
        NAME_BUILDERS[family](names)


def test_names_are_identifiers_and_e_is_the_identity():
    f = Free(2, gen_names=("_u1", "V"))
    assert parse_ring_element("_u1*V", f).terms == {f.generator(0) * f.generator(1): 1}
    # the identity of a table may be 'e' or any other identifier
    for names in (("e", "t", "t2"), ("one", "t", "t2")):
        z3 = FiniteTable.cyclic(3, names=names)
        assert parse_ring_element(names[0], z3).terms == {z3.identity(): 1}
    # default names skip 'e', so a fifth free generator is reachable by name
    f5 = Free(5)
    assert f5.gen_names == ("a", "b", "c", "d", "f")
    assert parse_ring_element("f", f5).terms == {f5.generator(4): 1}


@pytest.mark.parametrize("family", [Free(2), FreeAbelian(2)], ids=["free", "free_abelian"])
@pytest.mark.parametrize("i", [-1, 2])
def test_generator_index_is_checked(family, i):
    with pytest.raises(IndexError):
        family.generator(i)


def test_group_axioms_randomized(f2, s3):
    rng = random.Random(1)

    def random_free_word():
        letters = [rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(6))]
        return free_word(f2, letters)

    for fam, sample in ((f2, random_free_word), (s3, lambda: s3.element(rng.randrange(6)))):
        e = fam.identity()
        for _ in range(60):
            a, b, c = sample(), sample(), sample()
            assert (a * b) * c == a * (b * c)
            assert a * e == a == e * a
            assert a * ~a == e


def test_finite_table_validation():
    # non-associative "table"
    with pytest.raises(ValueError):
        FiniteTable([[0, 1], [1, 1]])
    # a loop with two-sided inverses that only the associativity check rejects
    loop = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
    with pytest.raises(ValueError, match=r"not associative at \(1,1,2\)"):
        FiniteTable(loop)
    # no identity at declared index
    with pytest.raises(ValueError):
        FiniteTable([[1, 0], [0, 1]], identity_index=0)
    # valid Z/2
    fam = FiniteTable([[0, 1], [1, 0]])
    assert fam.order == 2


def random_loop(n, rng):
    """A random Latin square on 0..n-1 whose row and column 0 are the identity."""
    t = [[i if j == 0 else j if i == 0 else None for j in range(n)] for i in range(n)]
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(c):
        if c == len(cells):
            return True
        i, j = cells[c]
        options = [v for v in range(n) if v not in t[i][:j] and all(t[r][j] != v for r in range(i))]
        rng.shuffle(options)
        for v in options:
            t[i][j] = v
            if fill(c + 1):
                return True
        t[i][j] = None
        return False

    assert fill(0)
    return t


GROUP_TABLES = [FiniteTable.cyclic(n).table for n in range(1, 7)] + [build_s3_table()]


@st.composite
def small_tables(draw):
    """Latin squares with identity 0 (of orders 5 and 6: the smaller ones are
    all groups), groups relabeled with 0 kept fixed, and Z/m x (a Latin
    square), whose element 1 = (1, e) reaches only Z/m x {e}."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["loop", "group", "product"]))
    if kind == "loop":
        return random_loop(draw(st.integers(5, 6)), rng)
    if kind == "product":
        m = draw(st.integers(2, 3))
        loop = random_loop(5, rng)
        pairs = [(a, b) for b in range(len(loop)) for a in range(m)]
        return [[pairs.index(((a + c) % m, loop[b][d])) for c, d in pairs] for a, b in pairs]
    table = draw(st.sampled_from(GROUP_TABLES))
    g = len(table)
    new = [0] + rng.sample(range(1, g), g - 1)
    old = {v: k for k, v in enumerate(new)}
    return [[new[table[old[i]][old[j]]] for j in range(g)] for i in range(g)]


def is_associative_at(table, x, y, z):
    return table[table[x][y]][z] == table[x][table[y][z]]


@settings(max_examples=150, deadline=None)
@given(small_tables())
def test_associativity_check_matches_triple_loop(table):
    g = range(len(table))
    has_inverses = all(any(table[i][j] == 0 == table[j][i] for j in g) for i in g)
    associative = all(is_associative_at(table, x, y, z) for x in g for y in g for z in g)
    try:
        FiniteTable(table)
    except ValueError as exc:
        assert not (has_inverses and associative)
        if has_inverses:
            found = re.search(r"not associative at \((\d+),(\d+),(\d+)\)", str(exc))
            assert not is_associative_at(table, *map(int, found.groups()))
    else:
        assert has_inverses and associative


@pytest.mark.parametrize("inverse_line", ["1 0", "1 3"])
def test_inverse_table_range_checked(inverse_line):
    # 1-based 0 would become the Python index -1, and 3 is past the end
    with pytest.raises(ValueError, match="inverse table entry out of range"):
        FiniteTable.from_text("2\n1 2\n2 1\n%s\n" % inverse_line)


# the table of the s3 fixture in the file format: order, rows, inverses
S3_TABLE_TEXT = """\
6
1 2 3 4 5 6
2 1 5 6 3 4
3 6 1 5 4 2
4 5 6 1 2 3
5 4 2 3 6 1
6 3 4 2 1 5
1 2 3 4 6 5
"""


def test_table_text_round_trip(s3):
    # the documented format: order, g rows, inverse line, all 1-based
    assert FiniteTable.from_text(S3_TABLE_TEXT, names=s3.gen_names) == s3


# one table-file token: an index, a word that is not one, or a comment
TABLE_TOKENS = st.one_of(
    st.integers(-3, 7).map(str), st.sampled_from(["x", "2.0", "1e3", "-", "#", "# c"])
)


@st.composite
def table_texts(draw):
    """Short table text: an order in -3..5, then ragged rows of tokens."""
    rows = draw(st.lists(st.lists(TABLE_TOKENS, max_size=6), max_size=8))
    return "\n".join([str(draw(st.integers(-3, 5)))] + [" ".join(r) for r in rows]) + "\n"


@settings(deadline=None)
@given(table_texts())
def test_any_table_text_parses_or_is_a_value_error(text):
    try:
        fam = FiniteTable.from_text(text)
    except ValueError:
        pass
    else:
        assert isinstance(fam, FiniteTable)


@pytest.mark.parametrize(
    "text, line, word",
    [
        ("2\n1 x\n2 1\n1 2\n", 2, "x"),
        # file lines count comments and blank lines
        ("# Z/2\n2\n\n1 2\n2 1  # row 2\n1 2.0\n", 6, "2.0"),
    ],
)
def test_table_text_names_the_line_of_a_bad_entry(text, line, word):
    with pytest.raises(ValueError) as err:
        FiniteTable.from_text(text)
    assert str(err.value) == "table line %d: %r is not an integer" % (line, word)


def table_text(table):
    """The file format of a table given 0-based: order, rows, inverses."""
    inverse = [row.index(0) for row in table]
    rows = [" ".join(str(k + 1) for k in row) for row in list(table) + [inverse]]
    return "\n".join([str(len(table))] + rows) + "\n"


@st.composite
def respelled_texts(draw):
    """A group table, its text, and the same text with some indices spelled
    '+k' or '0k' and some lines ending in a comment."""
    table = draw(st.sampled_from(GROUP_TABLES))
    text = table_text(table)
    lines = []
    for line in text.splitlines():
        words = [draw(st.sampled_from([w, "+" + w, "0" + w])) for w in line.split()]
        lines.append(" ".join(words) + draw(st.sampled_from(["", "  # comment"])))
    return table, text, "\n".join(lines) + "\n"


@settings(deadline=None)
@given(respelled_texts())
def test_respelled_indices_parse_to_the_same_table(case):
    table, text, respelled = case
    fam, again = FiniteTable.from_text(text), FiniteTable.from_text(respelled)
    assert fam == again == FiniteTable(table)
    assert hash(fam) == hash(again)


@pytest.mark.parametrize("bad", ["0", "7"])
@pytest.mark.parametrize(
    "line, message",
    [(4, "table entry out of range"), (8, "inverse table entry out of range")],
    ids=["row", "inverse"],
)
def test_index_out_of_range_is_named(line, message, bad):
    # the word replaced is the line's index 6 = g, so every other word of
    # the line is a canonical index in range
    lines = S3_TABLE_TEXT.splitlines()
    lines[line - 1] = " ".join(bad if w == "6" else w for w in lines[line - 1].split())
    with pytest.raises(ValueError, match="^%s$" % message):
        FiniteTable.from_text("\n".join(lines) + "\n")


# a loop with two-sided inverses, generated by 1 and 2; Light's test passes
# at 1 and fails only at the last generator, 2
LOOP_TEXT = """\
6
1 2 3 4 5 6
2 6 5 3 4 1
3 5 1 2 6 4
4 3 2 6 1 5
5 4 6 1 2 3
6 1 4 5 3 2
1 6 3 5 4 2
"""


def test_non_associative_table_text_names_its_witness():
    table = [[int(w) - 1 for w in line.split()] for line in LOOP_TEXT.splitlines()[1:7]]
    assert groups._generating_set(table, 0) == [1, 2]
    with pytest.raises(ValueError, match=r"^table is not associative at \(1,2,2\)$"):
        FiniteTable.from_text(LOOP_TEXT)


@pytest.mark.parametrize("order", [-1, 0])
def test_table_order_must_be_positive(order):
    # the line count fits the order: g rows and the inverse line
    with pytest.raises(ValueError, match="^group order must be positive, got %d$" % order):
        FiniteTable.from_text("%d\n" % order + "1\n" * (order + 1))


@pytest.mark.parametrize(
    "inverse, message",
    [
        # the inverse row given, then computed from the table
        ((0, 2, 1), "inverse table wrong at element 1"),
        (None, "element 1 has no two-sided inverse"),
    ],
)
def test_inverse_messages_name_the_element(inverse, message):
    # element 1 has a right inverse (1*2 = 0) but 2*1 = 2
    table = [[0, 1, 2], [1, 2, 0], [2, 2, 2]]
    with pytest.raises(ValueError, match="^%s$" % message):
        FiniteTable(table, inverse=inverse)


# ---------------------------------------------------------------------------
# family identity: equal families are interchangeable

EQUAL_FAMILIES = {
    "free": lambda: Free(2),
    "free_abelian": lambda: FreeAbelian(2, "xy"),
    "finite_table": lambda: FiniteTable.from_text(S3_TABLE_TEXT),
}


@pytest.mark.parametrize("build", EQUAL_FAMILIES.values(), ids=list(EQUAL_FAMILIES))
def test_families_built_twice_are_interchangeable(build):
    one, two = build(), build()
    assert one is not two
    assert one == two and not one != two
    assert hash(one) == hash(two)
    counts = {g: 1 for g in one.generators()}
    for g in two.generators():
        counts[g] += 1
    assert list(counts.values()) == [2] * len(one.gen_names)
    # an element of one multiplies with the other's, and ranks as its own
    a, b = one.generators()[1], two.generators()[1]
    assert a * b == two.multiply(b, a) == one.power(b, 2)


@pytest.mark.parametrize(
    "one, two",
    [
        (Free(2, "xy"), FreeAbelian(2, "xy")),
        (Free(2), Free(3)),
        (FreeAbelian(2), FreeAbelian(3)),
        (Free(2, "ab"), Free(2, "ba")),
        (FreeAbelian(2, "xy"), FreeAbelian(2, "uv")),
        (FiniteTable.cyclic(3, names=("one", "t", "u")), FiniteTable.cyclic(3)),
        # Z/2 with its identity at index 1 and at index 0 (a group table
        # fixes its identity, so the index cannot differ alone)
        (FiniteTable([[1, 0], [0, 1]], identity_index=1, names=("a", "b")),
         FiniteTable([[0, 1], [1, 0]], names=("a", "b"))),
        (FiniteTable.cyclic(2, names=("e", "t")), FiniteTable.cyclic(3, names=("e", "t", "u"))),
    ],
)
def test_families_differing_in_type_rank_names_or_identity_are_unequal(one, two):
    assert one != two and two != one
    assert not one == two
    with pytest.raises(ValueError, match="does not belong"):
        one.generators()[-1] * two.generators()[-1]


def sample_element(fam, draw):
    if isinstance(fam, Free):
        letters = draw(st.lists(st.sampled_from([1, -1, 2, -2]), max_size=6))
        return free_word(fam, letters)
    if isinstance(fam, FreeAbelian):
        return fam._wrap(tuple(draw(st.integers(-3, 3)) for _ in range(fam.rank)))
    return fam.element(draw(st.integers(0, fam.order - 1)))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(EQUAL_FAMILIES)), st.data())
def test_power_is_repeated_multiplication(kind, data):
    fam = EQUAL_FAMILIES[kind]()
    a = sample_element(fam, data.draw)
    for base, sign in ((a, 1), (~a, -1)):
        product = fam.identity()
        assert fam.power(a, 0) == product
        for k in range(1, 21):
            product = product * base
            assert fam.power(a, sign * k) == product


# ---------------------------------------------------------------------------
# extend_to_word

def test_extend_identity_is_identity(f2, s3):
    for q in (sanov_quotient(3), regular_quotient(s3), random_quotient(f2, 10, 3)):
        assert extend_to_word(q, q.family.identity()) == identity_perm(q.degree)


def test_extend_grid_shift(z1):
    q = grid_quotient(1, 5, z1)
    t = z1.generators()[0]
    p = extend_to_word(q, t ** 3)
    assert p == tuple((v + 3) % 5 for v in range(5))


# 15 and 21 are the benchmark's moduli and the first composite ones
@pytest.mark.parametrize("m", [3, 5, 7, 9, 15, 21])
def test_extend_sanov_matches_matrix_oracle(f2, m):
    # oracle: arithmetic in SL2(Z/m) done directly in the test
    a, b = f2.generators()
    q = sanov_quotient(m, f2)

    def mat_mul(x, y):
        return ((x[0] * y[0] + x[1] * y[2]) % m, (x[0] * y[1] + x[1] * y[3]) % m,
                (x[2] * y[0] + x[3] * y[2]) % m, (x[2] * y[1] + x[3] * y[3]) % m)

    def mat_inv(x):
        # SL2: inverse of [[p,q],[r,s]] is [[s,-q],[-r,p]]
        return (x[3] % m, -x[1] % m, -x[2] % m, x[0] % m)

    A = (1, 2 % m, 0, 1)
    B = (1, 0, 2 % m, 1)
    word = a * b * ~a
    W = mat_mul(mat_mul(A, B), mat_inv(A))

    # enumerate SL2(Z/m) by brute force, in the same sorted order
    elements = sorted(
        (p, qq, r, s)
        for p in range(m) for qq in range(m) for r in range(m) for s in range(m)
        if (p * s - qq * r) % m == 1
    )
    assert len(elements) == q.degree
    index = {x: i for i, x in enumerate(elements)}
    assert q.gen_images == tuple(
        tuple(index[mat_mul(G, x)] for x in elements) for G in (A, B)
    )
    expected = tuple(index[mat_mul(W, x)] for x in elements)
    assert extend_to_word(q, word) == expected


def test_extend_is_homomorphism_on_genuine(f2, s3):
    rng = random.Random(7)
    quotients = [sanov_quotient(5, f2), grid_quotient(2, 4), regular_quotient(s3)]
    for q in quotients:
        fam = q.family
        if isinstance(fam, Free):
            sample = lambda: free_word(
                fam, [rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(5))]
            )
        elif isinstance(fam, FreeAbelian):
            sample = lambda: fam._wrap(
                tuple(rng.randrange(-3, 4) for _ in range(fam.rank))
            )
        else:
            sample = lambda: fam.element(rng.randrange(fam.order))
        for _ in range(20):
            w1, w2 = sample(), sample()
            lhs = extend_to_word(q, w1 * w2)
            rhs = perm_compose(extend_to_word(q, w1), extend_to_word(q, w2))
            assert lhs == rhs


def test_extend_long_free_power_is_one_perm_power(f2):
    q = sanov_quotient(5, f2)
    a, b = f2.generators()
    word = a ** (2 ** 20)
    start = time.perf_counter()
    p = extend_to_word(q, word)
    elapsed = time.perf_counter() - start
    assert p == perm_power(q.gen_images[0], 2 ** 20)
    assert elapsed < 0.5
    img_b_inv = perm_inverse(q.gen_images[1])
    assert extend_to_word(q, a ** 3 * b ** -2) == perm_compose(
        perm_power(q.gen_images[0], 3), perm_compose(img_b_inv, img_b_inv)
    )


def test_perm_power_matches_repeated_composition():
    rng = random.Random(3)
    p = list(range(8))
    rng.shuffle(p)
    p = tuple(p)
    acc = identity_perm(8)
    for k in range(1, 20):
        acc = perm_compose(acc, p)
        assert perm_power(p, k) == acc
    assert perm_power(p, -3) == perm_inverse(perm_power(p, 3))
    # the first power is p itself, so a one-letter word costs nothing
    assert perm_power(p, 1) is p


# ---------------------------------------------------------------------------
# soficity defects

def test_genuine_mult_defect_zero(f2, s3):
    a, b = f2.generators()
    pairs = [(a, b), (a * b, b * a), (a, a), (~a, b)]
    for d in soficity_defect(sanov_quotient(3, f2), pairs):
        assert d.mult_defect == 0
    e = s3.elements()
    table_pairs = [(e[1], e[2]), (e[4], e[5]), (e[0], e[3])]
    for d in soficity_defect(regular_quotient(s3), table_pairs):
        assert d.mult_defect == 0


def test_sep_defect_one_when_images_collide(z1):
    # t^5 and the identity map to the same permutation mod 5
    q = grid_quotient(1, 5, z1)
    t = z1.generators()[0]
    (d,) = soficity_defect(q, [(t ** 5, z1.identity())])
    assert d.mult_defect == 0
    assert d.sep_defect == 1


def test_sep_defect_not_applicable_for_equal_elements(z1):
    q = grid_quotient(1, 5, z1)
    t = z1.generators()[0]
    (d,) = soficity_defect(q, [(t, t)])
    assert d.sep_defect is None


def test_random_model_defects_by_direct_count(f2):
    q = random_quotient(f2, 100, seed=7)
    a, b = f2.generators()
    pairs = [(a, b), (a * b, b * a)]
    results = soficity_defect(q, pairs)
    # the oracle is an exhaustive count over [d], recomputed here
    for res, (s, t) in zip(results, pairs):
        ps = extend_to_word(q, s)
        pt = extend_to_word(q, t)
        pst = extend_to_word(q, s * t)
        good = sum(1 for v in range(100) if ps[pt[v]] == pst[v])
        apart = sum(1 for v in range(100) if ps[v] != pt[v])
        assert res.mult_defect == 1 - Fraction(good, 100)
        assert res.sep_defect == 1 - Fraction(apart, 100)
    # free-family models are homomorphisms, so mult defects vanish even here
    assert all(r.mult_defect == 0 for r in results)


def test_sep_defect_eventually_zero_along_sequences(f2, z1):
    t = z1.generators()[0]
    pairs_z = [(z1.identity(), t ** 6), (t, t ** 3)]
    seq = grid_sequence(1, [2, 3, 6, 12], z1)
    for s, u in pairs_z:
        defects = [
            soficity_defect(q, [(s, u)])[0].sep_defect for q in seq
        ]
        # find a stage after which separation is perfect
        tail_ok = [i for i in range(len(defects)) if all(x == 0 for x in defects[i:])]
        assert tail_ok, defects
    a, b = f2.generators()
    pairs_f = [(a, b), (a * b, b * a), (a, a * b * ~b * a)]
    seq_f = sanov_sequence([3, 15], f2)
    for s, u in pairs_f:
        if s == u:
            continue
        defects = [soficity_defect(q, [(s, u)])[0].sep_defect for q in seq_f]
        assert defects[-1] == 0


# ---------------------------------------------------------------------------
# providers

def test_grid_quotient_basics(z1):
    q = grid_quotient(1, 5, z1)
    assert q.degree == 5
    assert q.genuine
    assert q.gen_images[0] == (1, 2, 3, 4, 0)


def test_grid_quotient_rank2_commutes():
    q = grid_quotient(2, 3)
    assert q.degree == 9
    px, py = q.gen_images
    assert perm_compose(px, py) == perm_compose(py, px)


@pytest.mark.parametrize("duplicate", [
    copy.copy, copy.deepcopy, lambda q: pickle.loads(pickle.dumps(q)),
], ids=["copy", "deepcopy", "pickle"])
def test_unread_grid_model_copies_and_pickles(duplicate):
    # the images are built on first read; a copy made before that read, or
    # an unpickled model whose __dict__ starts out empty, must not recurse
    q = grid_quotient(2, 3)
    other = duplicate(q)
    assert not hasattr(q, "missing") and not hasattr(other, "missing")
    assert "gen_images" not in q.__dict__
    assert other._grid == 3
    assert other == q and hash(other) == hash(q)
    assert other.gen_images == q.gen_images == groups._grid_images(2, 3)


def test_model_repr_leaves_out_the_images():
    q = grid_quotient(2, 3)
    assert repr(q) == (
        "FiniteQuotient(family=FreeAbelian(2), degree=9, genuine=True, "
        "label='grid mod 3')"
    )
    assert "gen_images" not in q.__dict__


def test_sanov_degree_by_enumeration(f2):
    # degree equals |SL2(Z/m)|, enumerated by brute force; sanov_quotient
    # checks its degree against _sl2_size
    for m in range(2, 13):
        count = sum(
            1
            for p in range(m) for q in range(m) for r in range(m) for s in range(m)
            if (p * s - q * r) % m == 1
        )
        assert _sl2_size(m) == count
    assert _sl2_size(3) == 24
    assert sanov_quotient(3, f2).degree == 24
    assert sanov_quotient(5, f2).degree == 120
    assert sanov_quotient(15, f2).degree == 2880


def test_sanov_build_checks_its_point_count(monkeypatch, f2):
    # the unimodular first rows, m elements each, must number |SL2(Z/m)|
    # elements; a build that expects one more element must refuse, not
    # return a model
    size = _sl2_size
    monkeypatch.setattr(groups, "_sl2_size", lambda m: size(m) + 1)
    with pytest.raises(RuntimeError, match="failed to generate SL2"):
        sanov_quotient(15, f2)


def sanov_by_search(m):
    """Reference builder: the images of a and b on SL2(Z/m), its elements
    found by a search from the identity and put in sorted order of their
    entry tuples (p, q, r, s) by one sort of their integer codes
    ((p*m + q)*m + r)*m + s, whose base-m digits are the entries."""
    m2 = m * m
    codes = [m2 * m + 1]  # the identity (1, 0, 0, 1)
    found = {codes[0]: 0}  # code -> discovery index
    step_a, step_b = [], []  # discovery index -> that of its a- and b-neighbour
    for x in codes:
        hi, lo = divmod(x, m2)
        p, q = divmod(hi, m)
        r, s = divmod(lo, m)
        for y, step in ((((p + 2 * r) % m * m + (q + 2 * s) % m) * m2 + lo, step_a),
                        (hi * m2 + (r + 2 * p) % m * m + (s + 2 * q) % m, step_b)):
            i = found.get(y)
            if i is None:
                i = found[y] = len(codes)
                codes.append(y)
            step.append(i)
    order = sorted(range(len(codes)), key=codes.__getitem__)  # point -> discovery index
    point = [0] * len(codes)
    for i, k in enumerate(order):
        point[k] = i
    return (tuple([point[step_a[k]] for k in order]),
            tuple([point[step_b[k]] for k in order]))


def test_sanov_points_match_the_search(f2):
    # every odd modulus to 45: primes, prime powers 9, 25, 27 and the
    # composites 15, 21, 33, 35, 45, where gcd(p, m) takes several values
    for m in range(3, 46, 2):
        assert sanov_quotient(m, f2).gen_images == sanov_by_search(m), m


def test_sanov_generation_check_refuses_two_components():
    # six points in two blocks of three; the images keep each block to
    # itself, so the search from either block misses the other
    split = (1, 2, 0, 4, 5, 3)
    for home in (0, 4):
        with pytest.raises(RuntimeError, match="failed to generate SL2\\(Z/3\\)"):
            groups._check_sanov_blocks(split, 3, home)
    # one point crossing over joins the blocks in both directions
    groups._check_sanov_blocks((1, 2, 3, 4, 5, 0), 3, 0)
    groups._check_sanov_blocks((1, 2, 3, 4, 5, 0), 3, 4)


def test_sanov_rejects_even_or_small_modulus():
    with pytest.raises(ValueError):
        sanov_quotient(4)
    with pytest.raises(ValueError):
        sanov_quotient(1)


def test_regular_quotient_is_left_multiplication(s3):
    q = regular_quotient(s3)
    assert q.degree == 6
    for i in range(6):
        assert q.gen_images[i] == tuple(s3.table[i][j] for j in range(6))


def test_random_quotient_reproducible(f2):
    q1 = random_quotient(f2, 50, seed=11)
    q2 = random_quotient(f2, 50, seed=11)
    q3 = random_quotient(f2, 50, seed=12)
    assert q1.gen_images == q2.gen_images
    assert q1.gen_images != q3.gen_images
    assert not q1.genuine


def test_genuine_flag_validated():
    # non-commuting images cannot be a genuine FreeAbelian model
    with pytest.raises(ValueError):
        FiniteQuotient(
            FreeAbelian(2), 3, ((1, 0, 2), (0, 2, 1)), True, "bogus"
        )
    # the same images are fine as a heuristic model
    q = FiniteQuotient(FreeAbelian(2), 3, ((1, 0, 2), (0, 2, 1)), False, "ok")
    assert not q.genuine
    # images of Z/3 other than its table rows still get the table checked
    z3 = FiniteTable.cyclic(3)
    broken = ((0, 1, 2), (1, 2, 0), (1, 2, 0))
    with pytest.raises(ValueError, match="must respect the table"):
        FiniteQuotient(z3, 3, broken, True, "bogus")
    assert not FiniteQuotient(z3, 3, broken, False, "ok").genuine


def test_gen_image_must_be_permutation():
    with pytest.raises(ValueError):
        FiniteQuotient(FreeAbelian(1), 3, ((0, 0, 1),), False, "bad")
    # 1.0 == 1, so the float passes the permutation check; it is not an index
    with pytest.raises(TypeError):
        FiniteQuotient(Free(2), 3, ((1.0, 2, 0), (0, 1, 2)), False)


# ---------------------------------------------------------------------------
# builders: models made without checks, proved here

def symmetric_table(n):
    """S_n as a FiniteTable, elements in lexicographic order (identity first)."""
    elems = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(elems)}
    return FiniteTable([[index[then_perms(p, q)] for q in elems] for p in elems])


BUILT_MODELS = {
    **{
        "grid-k%d-n%d" % (k, n): (lambda k=k, n=n: grid_quotient(k, n))
        for k in (1, 2, 3)
        for n in (1, 2, 5, 6)
    },
    **{"sanov-%d" % m: (lambda m=m: sanov_quotient(m)) for m in (3, 5, 7, 9, 15)},
    "regular-cyclic6": lambda: regular_quotient(FiniteTable.cyclic(6)),
    "regular-s3": lambda: regular_quotient(FiniteTable(build_s3_table())),
    "regular-s4": lambda: regular_quotient(symmetric_table(4)),
    "random-free": lambda: random_quotient(Free(2), 30, 1),
    "random-free-abelian": lambda: random_quotient(FreeAbelian(3), 30, 2),
    "random-table": lambda: random_quotient(symmetric_table(3), 30, 3),
}


@pytest.mark.parametrize("build", BUILT_MODELS.values(), ids=list(BUILT_MODELS))
def test_built_models_pass_the_constructor(build):
    # the constructor checks every image and, for a genuine model, runs the
    # full relator proof that the builders skip
    q = build()
    assert FiniteQuotient(q.family, q.degree, q.gen_images, q.genuine, q.label) == q
    assert all(type(p) is tuple for p in q.gen_images)


def test_building_runs_no_check(monkeypatch, f2):
    def refuse(*args):
        raise AssertionError("a builder ran a check")

    monkeypatch.setattr(groups, "_check_perm", refuse)
    monkeypatch.setattr(FiniteQuotient, "_check_relators", refuse)
    for build in BUILT_MODELS.values():
        build()
    grid_sequence(2, [2, 4])
    sanov_sequence([3, 15], f2)
    regular_sequence(FiniteTable.cyclic(4))
    # the constructor still checks images given from outside
    with pytest.raises(AssertionError, match="ran a check"):
        FiniteQuotient(f2, 2, ((1, 0), (0, 1)), False)


# ---------------------------------------------------------------------------
# sequences

def test_sequence_degrees_strictly_increase(z1):
    with pytest.raises(ValueError):
        QuotientSequence((grid_quotient(1, 5, z1), grid_quotient(1, 5, z1)))


def test_sequence_chain_flag_from_divisibility(z1, f2):
    assert grid_sequence(1, [2, 4, 8], z1).chain
    assert not grid_sequence(1, [3, 5, 7], z1).chain
    assert sanov_sequence([3, 15], f2).chain
    assert not sanov_sequence([3, 5, 15], f2).chain


# ---------------------------------------------------------------------------
# integer arguments

def _power(family, k):
    return family.generators()[0] ** k


NON_INTEGER_COUNTS = {
    "free_abelian_power_float": lambda: _power(FreeAbelian(2), 1.5),
    "free_abelian_power_fraction": lambda: _power(FreeAbelian(2), Fraction(5, 2)),
    "free_power": lambda: _power(Free(2), 1.5),
    "table_power": lambda: _power(FiniteTable.cyclic(3), Fraction(3, 2)),
    "free_abelian_rank": lambda: FreeAbelian(2.5),
    "free_rank": lambda: Free(1.5),
    "table_entry": lambda: FiniteTable([[0, 1], [1.9, 0]]),
    "table_identity": lambda: FiniteTable([[0, 1], [1, 0]], identity_index=0.5),
    "table_inverse": lambda: FiniteTable([[0, 1], [1, 0]], inverse=[0, 1.5]),
    "cyclic_order": lambda: FiniteTable.cyclic(3.5),
    "grid_rank": lambda: grid_quotient(1.5, 3),
    "grid_modulus": lambda: grid_quotient(1, 3.5),
    "sanov_modulus": lambda: sanov_quotient(15.9),
    "random_degree": lambda: random_quotient(Free(2), 4.5, 0),
    "grid_sequence": lambda: grid_sequence(1, [3, 6.5]),
    "sanov_sequence": lambda: sanov_sequence([3, 15.9]),
    "complex_rank": lambda: ChainComplex(Free(1), (1.5,), ()),
    "prime": lambda: rank_mod_p(SparseIntMatrix.from_dense([[1]]), 7.9),
    "module_free_rank": lambda: ModulePresentation(FreeAbelian(1), Fraction(3, 2)),
}


@pytest.mark.parametrize(
    "build", NON_INTEGER_COUNTS.values(), ids=list(NON_INTEGER_COUNTS)
)
def test_non_integer_counts_rejected(build):
    # truncating 15.9 to 15 or x ** 1.5 to x would silently build another object
    with pytest.raises(TypeError):
        build()
