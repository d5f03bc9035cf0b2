"""Text format for ring elements.

Grammar (ASCII tokens):

    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := [int] ['*'] factor*
    factor := gen ['^' ['-'] int]
    gen    := generator name, or 'e' / '1' for the identity

A token is a name (an ASCII letter or '_', then ASCII letters, digits or
'_'), an integer (ASCII digits) or one of '+', '-', '*', '^'; whitespace
separates tokens and any other character is an error.  A name token is
read as a run of generator names, longest match first ('ab' is a*b unless
'ab' is itself a name).  Integers are arbitrary precision up to the digit
limit of int() (sys.get_int_max_str_digits, 4300 by default; a longer one
is a ParseError); juxtaposed factors multiply in the group ('*' is
accepted between factors as well).  For free abelian families generators
commute and the normal form sorts them.  Free-group exponents are capped
(|exp| <= 2^20, else "exponent overflow") since the reduced word must be
materialized; other families take arbitrary exponents.  Canonical
printing (``str`` on a RingElement) round-trips through this parser.
"""

from __future__ import annotations

import re

from .groups import _NAME, Free
from .ring import RingElement, RingMatrix

__all__ = ["ParseError", "parse_ring_element", "parse_ring_matrix"]

# beyond this a free-group word would not be worth materializing
MAX_FREE_EXPONENT = 1 << 20

# one token per match; whitespace matches nothing and is skipped
_TOKEN = re.compile(
    r"(?P<NAME>%s)|(?P<INT>[0-9]+)|(?P<OP>[-+*^])|(?P<BAD>\S)" % _NAME.pattern
)


class ParseError(ValueError):
    """Syntax error with a character position."""

    def __init__(self, message, position):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position


def parse_ring_element(text, family):
    """Parse an expression to a RingElement; parse . print is the identity."""
    tokens = []
    for m in _TOKEN.finditer(text):
        if m.lastgroup == "BAD":
            raise ParseError("unexpected character %r" % m.group(), m.start())
        tokens.append((m.lastgroup, m.group(), m.start()))
    tokens.append(("END", "", len(text)))
    names = set(family.gen_names) | {"e"}
    lengths = sorted({len(name) for name in names}, reverse=True)
    free = isinstance(family, Free)

    def factor_at(i):
        # a factor starts at a name or at the integer 1, the identity
        return tokens[i][0] == "NAME" or tokens[i][1] == "1"

    def got(i):
        return tokens[i][1] or "end"

    def integer(i):
        """The INT token at i; int() refuses one beyond its digit limit."""
        try:
            return int(tokens[i][1])
        except ValueError:
            raise ParseError(
                "integer too long (%d digits)" % len(tokens[i][1]), tokens[i][2]
            ) from None

    def segments(name, pos):
        """The group elements that ``name`` spells, longest name first."""
        elements, j = [], 0
        while j < len(name):
            word = next((name[j:j + n] for n in lengths if name[j:j + n] in names), None)
            if word is None:
                raise ParseError("unknown generator name %r" % name, pos)
            elements.append(
                family.identity() if word == "e" else family.generator_named(word)
            )
            j += len(word)
        return elements

    terms = []
    i = 0
    while True:
        # the sign: optional before the first term, checked after each one
        sign = -1 if tokens[i][1] == "-" else 1
        i += tokens[i][1] in ("+", "-")
        start, coeff, elem = i, 1, family.identity()
        kind, val, pos = tokens[i]
        if kind == "INT" and val != "1":
            coeff, i = integer(i), i + 1
            if tokens[i][1] == "*":
                i += 1
                if not factor_at(i):
                    raise ParseError(
                        "expected a factor after '*', got %r" % got(i), tokens[i][2]
                    )
        while factor_at(i):
            kind, val, pos = tokens[i]
            # a name is segmented before its exponent is read
            factors = [family.identity()] if val == "1" else segments(val, pos)
            exponent, i = 1, i + 1
            if tokens[i][1] == "^":
                negative = tokens[i + 1][1] == "-"
                i += 1 + negative
                kind, val, pos = tokens[i]
                if kind != "INT":
                    raise ParseError("expected an integer exponent", pos)
                exponent, i = -integer(i) if negative else integer(i), i + 1
                if free and abs(exponent) > MAX_FREE_EXPONENT:
                    raise ParseError(
                        "exponent overflow (|exp| > %d)" % MAX_FREE_EXPONENT, pos
                    )
            for g in factors[:-1]:
                elem = family.multiply(elem, g)
            elem = family.multiply(elem, family.power(factors[-1], exponent))
            if tokens[i][1] == "*" and factor_at(i + 1):
                i += 1
        if i == start:
            raise ParseError("expected a term, got %r" % got(i), tokens[i][2])
        terms.append((elem, sign * coeff))
        kind, val, pos = tokens[i]
        if kind == "END":
            return RingElement(family, terms)
        if val not in ("+", "-"):
            raise ParseError("expected '+' or '-', got %r" % val, pos)


def parse_ring_matrix(text, family):
    """Parse a matrix: rows separated by ';', entries by ','."""
    rows = []
    for row_text in text.split(";"):
        row = [parse_ring_element(cell, family) for cell in row_text.split(",")]
        rows.append(row)
    if len({len(r) for r in rows}) != 1:
        raise ParseError("ragged matrix rows", 0)
    return RingMatrix(family, rows)
