import random
from fractions import Fraction

import pytest

from soficrank import (
    Free,
    FreeAbelian,
    RingElement,
    RingMatrix,
    augmentation,
    build_complex,
    parse_ring_matrix,
)

from conftest import free_word, s3_elements, then_perms


def mono(g):
    return RingElement.monomial(g)


def test_product_in_free_group(f2):
    a, _ = f2.generators()
    one = RingElement.one(f2)
    f = (mono(a) - one) * mono(~a)
    # (a - 1) * a^-1 = 1 - a^-1
    assert f == one - mono(~a)


def test_product_in_laurent_ring(z1):
    t = mono(z1.generators()[0])
    two = RingElement.coerce(2, z1)
    assert (t - two) * (t + two) == t * t - RingElement.coerce(4, z1)


def test_product_in_s3_ring_table_oracle(s3):
    e, s12, s13, s23, r123, r132 = s3.elements()
    f = (mono(s12) + mono(s13)) * mono(r123)
    # oracle: compose the permutations directly
    elems = s3_elements()
    p1 = elems.index(then_perms(elems[1], elems[4]))
    p2 = elems.index(then_perms(elems[2], elems[4]))
    expected = mono(s3.element(p1)) + mono(s3.element(p2))
    assert f == expected
    # (12)(123) = (13) in the 'apply left first' convention
    assert s12 * r123 == s13


def test_augmentation_basics(f2):
    a, b = f2.generators()
    one = RingElement.one(f2)
    assert augmentation(mono(a) - one) == 0
    assert augmentation(2 * (mono(a) * mono(b)) + 3 * one) == 5


def test_augmentation_is_ring_hom(f2, s3):
    rng = random.Random(5)

    def random_element(fam, sample):
        out = RingElement.zero(fam)
        for _ in range(rng.randrange(1, 5)):
            out = out + RingElement.monomial(sample(), rng.randrange(-4, 5))
        return out

    free_sample = lambda: free_word(
        f2, [rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(4))]
    )
    table_sample = lambda: s3.element(rng.randrange(6))
    for fam, sample in ((f2, free_sample), (s3, table_sample)):
        for _ in range(40):
            f = random_element(fam, sample)
            g = random_element(fam, sample)
            assert augmentation(f * g) == augmentation(f) * augmentation(g)
            assert augmentation(f + g) == augmentation(f) + augmentation(g)


def test_ring_axioms_randomized(f2, z2grid, s3):
    rng = random.Random(9)

    def sampler(fam):
        if isinstance(fam, Free):
            return lambda: free_word(
                fam, [rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(4))]
            )
        if isinstance(fam, FreeAbelian):
            return lambda: fam._wrap(tuple(rng.randrange(-2, 3) for _ in range(fam.rank)))
        return lambda: fam.element(rng.randrange(fam.order))

    for fam in (f2, z2grid, s3):
        sample = sampler(fam)

        def rand_elt():
            out = RingElement.zero(fam)
            for _ in range(rng.randrange(0, 4)):
                out = out + RingElement.monomial(sample(), rng.randrange(-3, 4))
            return out

        one = RingElement.one(fam)
        for _ in range(30):
            f, g, h = rand_elt(), rand_elt(), rand_elt()
            assert (f * g) * h == f * (g * h)
            assert f * (g + h) == f * g + f * h
            assert (f + g) * h == f * h + g * h
            assert f * one == f == one * f
            assert len(f.support()) <= 8


def test_commutativity_and_noncommutativity(z2grid, f2):
    x, y = (RingElement.monomial(g) for g in z2grid.generators())
    assert x * y == y * x
    a, b = (RingElement.monomial(g) for g in f2.generators())
    assert a * b != b * a


def test_no_zero_coefficients_stored(f2, s3):
    a, b = f2.generators()
    f = mono(a) - mono(a)
    assert f.is_zero()
    assert f.terms == {}
    g = mono(a) + 2 * mono(b)
    # (1 - s)(1 + s) = 1 - s^2 = 0 for s = (12) of order 2: every term cancels
    s12 = s3.element(1)
    one = RingElement.one(s3)
    zeros = [g * 0, 0 * g, g + (-g), (one - mono(s12)) * (one + mono(s12))]
    # a matrix entry a*1 + a*(-1) that cancels only across k
    row = RingMatrix(f2, [[mono(a), mono(a)]])
    col = RingMatrix(f2, [[RingElement.one(f2)], [-RingElement.one(f2)]])
    zeros.append((row * col)[0, 0])
    for z in zeros:
        assert z.terms == {}


def test_ring_elements_equal_only_ring_elements(f2):
    a, _ = f2.generators()
    one = RingElement.one(f2)
    # equal values hash alike, so no int or group element may equal one
    assert one != 1 and 1 != one and one not in {1}
    assert mono(a) != a and a != mono(a)
    assert (mono(a) - mono(a)).is_zero() and mono(a) - mono(a) != 0
    assert one == RingElement.coerce(1, f2) and mono(a) == RingElement.coerce(a, f2)


@pytest.mark.parametrize("coeff", [Fraction(1, 2), Fraction(3, 2), 0.9])
def test_non_integer_coefficients_rejected(f2, coeff):
    # int() would store 1/2 and 0.9 as nothing and 3/2 as 1
    a, _ = f2.generators()
    with pytest.raises(TypeError):
        RingElement(f2, {a: coeff})
    with pytest.raises(TypeError):
        RingElement.monomial(a, coeff)


# ---------------------------------------------------------------------------
# matrices and complexes

def test_matrix_shape_mismatch(f2):
    m1 = RingMatrix.identity(f2, 2)
    m2 = RingMatrix.identity(f2, 3)
    with pytest.raises(ValueError):
        m1 * m2


def test_single_differential_always_valid(f2):
    d1 = parse_ring_matrix("a ; b - 1", f2)
    C = build_complex(f2, (2, 1), [d1])
    assert C.top_degree == 1
    assert C.rank_of(0) == 1 and C.rank_of(1) == 2
    assert C.differential(2) is None and C.differential(0) is None


def test_free_group_example_complex(f2):
    d1 = parse_ring_matrix("a - 1 ; b - 1", f2)
    C = build_complex(f2, (2, 1), [d1])
    assert C.differential(1).shape == (2, 1)


def test_koszul_complex_symbolic_zero(z2grid):
    d2 = parse_ring_matrix("y - 1, 1 - x", z2grid)
    d1 = parse_ring_matrix("x - 1 ; y - 1", z2grid)
    # oracle: expand (y-1)(x-1) - (x-1)(y-1) by hand
    x, y = (RingElement.monomial(g) for g in z2grid.generators())
    one = RingElement.one(z2grid)
    lhs = (y - one) * (x - one)
    xy = RingElement.monomial(z2grid.generators()[0] * z2grid.generators()[1])
    assert lhs == xy - x - y + one
    assert lhs - (x - one) * (y - one) == RingElement.zero(z2grid)
    C = build_complex(z2grid, (1, 2, 1), [d2, d1])
    assert C.top_degree == 2


def test_corrupted_koszul_rejected(z2grid):
    d2_bad = parse_ring_matrix("y - 1, x - 1", z2grid)  # sign flipped
    d1 = parse_ring_matrix("x - 1 ; y - 1", z2grid)
    with pytest.raises(ValueError) as err:
        build_complex(z2grid, (1, 2, 1), [d2_bad, d1])
    assert "(0,0)" in str(err.value)  # reports the first offending entry


def test_complex_shape_validation(f2):
    d1 = parse_ring_matrix("a - 1 ; b - 1", f2)
    with pytest.raises(ValueError):
        build_complex(f2, (3, 1), [d1])
    with pytest.raises(ValueError):
        build_complex(f2, (2, 1), [])


def test_block_diag_and_vstack(f2):
    m = parse_ring_matrix("a ; b", f2)
    st = m.vstack(m)
    assert st.shape == (4, 1)
