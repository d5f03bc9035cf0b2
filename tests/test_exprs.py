import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soficrank import (
    Free,
    FreeAbelian,
    ParseError,
    RingElement,
    parse_ring_element,
    parse_ring_matrix,
)
from soficrank.exprs import _TOKEN
from soficrank.groups import _check_names
from conftest import free_word


def test_basic_parse(f2):
    a, b = f2.generators()
    f = parse_ring_element("a - 1", f2)
    assert f.coefficient(a) == 1
    assert f.coefficient(f2.identity()) == -1
    assert len(f.terms) == 2


def test_coefficient_and_inverse_exponent(f2):
    a, b = f2.generators()
    f = parse_ring_element("2*a*b^-1 - 3", f2)
    assert f.coefficient(a * ~b) == 2
    assert f.coefficient(f2.identity()) == -3
    assert len(f.terms) == 2
    assert parse_ring_element("3*a", f2) == RingElement.monomial(a, 3)


def test_commuting_normal_form_cancels(z2grid):
    f = parse_ring_element("x^2*y - y*x^2", z2grid)
    assert f.is_zero()


def test_identity_spellings(f2):
    one = RingElement.one(f2)
    assert parse_ring_element("e", f2) == one
    assert parse_ring_element("1", f2) == one
    assert parse_ring_element("2*e", f2) == 2 * one
    assert parse_ring_element("2*1", f2) == 2 * one
    assert parse_ring_element("0", f2).is_zero()


def test_juxtaposition_and_whitespace(f2):
    a, b = f2.generators()
    assert parse_ring_element("ab", f2) == RingElement.monomial(a * b)
    assert parse_ring_element("a b", f2) == RingElement.monomial(a * b)
    assert parse_ring_element("2a", f2) == RingElement.monomial(a, 2)
    assert parse_ring_element("aba^-1", f2) == RingElement.monomial(a * b * ~a)


def test_leading_sign(f2):
    a, _ = f2.generators()
    assert parse_ring_element("-a + 1", f2) == RingElement.one(f2) - RingElement.monomial(a)


def test_syntax_errors_carry_positions(f2):
    with pytest.raises(ParseError) as err:
        parse_ring_element("a + ", f2)
    assert err.value.position == 4
    with pytest.raises(ParseError) as err:
        parse_ring_element("a $ b", f2)
    assert err.value.position == 2
    with pytest.raises(ParseError):
        parse_ring_element("a ^ b", f2)
    # a '*' after a coefficient needs a factor
    for text, position in (("3*", 2), ("-2*", 3), ("3*+a", 2)):
        with pytest.raises(ParseError) as err:
            parse_ring_element(text, f2)
        assert err.value.position == position
    # one input per error, with its message and position
    for text, message, position in (
        ("\u00b2", "unexpected character '\u00b2'", 0),
        ("a^\u00b2", "unexpected character '\u00b2'", 2),
        ("\u0663a", "unexpected character '\u0663'", 0),
        ("a + q", "unknown generator name 'q'", 4),
        ("3*", "expected a factor after '*', got 'end'", 2),
        ("a^-", "expected an integer exponent", 3),
        ("a^99999999", "exponent overflow (|exp| > 1048576)", 2),
        ("a + -b", "expected a term, got '-'", 4),
        ("a 2", "expected '+' or '-', got '2'", 2),
        ("a*2", "expected '+' or '-', got '*'", 1),
        # past int()'s digit limit (sys.get_int_max_str_digits, 4300)
        ("1" * 5000 + "a", "integer too long (5000 digits)", 0),
        ("a^" + "1" * 5000, "integer too long (5000 digits)", 2),
    ):
        with pytest.raises(ParseError) as err:
            parse_ring_element(text, f2)
        assert str(err.value) == "%s (at position %d)" % (message, position)
        assert err.value.position == position
    with pytest.raises(ParseError) as err:
        parse_ring_matrix("a, b ; a", f2)
    assert str(err.value) == "ragged matrix rows (at position 0)"


@settings(deadline=None)
@given(st.text())
def test_any_text_parses_or_is_a_located_parse_error(text):
    try:
        f = parse_ring_element(text, Free(2))
    except ParseError as err:
        assert 0 <= err.position <= len(text)
    else:
        assert isinstance(f, RingElement)


@given(st.one_of(st.text(), st.text(alphabet="ab_19\u00e9\u0663\u00b2\u00aa \n")))
def test_a_name_token_is_exactly_a_valid_name(text):
    # groups holds the one rule for names, and the tokenizer reads it
    match = _TOKEN.fullmatch(text)
    try:
        _check_names([text], 1, "generator", 0)
    except ValueError:
        assert match is None or match.lastgroup != "NAME"
    else:
        assert match.lastgroup == "NAME"


def test_unknown_generator(f2):
    with pytest.raises(ParseError) as err:
        parse_ring_element("a + q", f2)
    assert "q" in str(err.value)


def test_exponent_overflow_on_free_words(f2):
    with pytest.raises(ParseError) as err:
        parse_ring_element("a^99999999", f2)
    assert "overflow" in str(err.value)
    # abelian exponents do not blow up and stay exact
    z = FreeAbelian(1)
    f = parse_ring_element("t^99999999", z)
    assert list(f.terms)[0].payload == (99999999,)


def test_finite_table_names(s3):
    f = parse_ring_element("s12*r123 - s13", s3)
    assert f.is_zero()  # (12)(123) = (13)


def test_parse_print_round_trip_randomized(f2, z2grid, s3):
    rng = random.Random(17)

    def sample_elt(fam):
        if isinstance(fam, Free):
            return free_word(
                fam, [rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(5))]
            )
        if isinstance(fam, FreeAbelian):
            return fam._wrap(tuple(rng.randrange(-3, 4) for _ in range(fam.rank)))
        return fam.element(rng.randrange(fam.order))

    for fam in (f2, z2grid, s3):
        for _ in range(60):
            f = RingElement.zero(fam)
            for _ in range(rng.randrange(0, 5)):
                f = f + RingElement.monomial(sample_elt(fam), rng.randrange(-9, 10))
            assert parse_ring_element(str(f), fam) == f


def test_parse_matrix(f2):
    m = parse_ring_matrix("a - 1 ; b - 1", f2)
    assert m.shape == (2, 1)
    m2 = parse_ring_matrix("a, b ; 1, a b", f2)
    assert m2.shape == (2, 2)
    with pytest.raises(ParseError):
        parse_ring_matrix("a, b ; a", f2)
