"""Text format for ring elements.

Grammar (ASCII):

    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := [int] ['*'] factor*
    factor := gen ['^' ['-'] int]
    gen    := generator name, or 'e' / '1' for the identity

Integers are arbitrary precision; juxtaposed factors multiply in the group
('*' is accepted between factors as well).  For free abelian families
generators commute and the normal form sorts them.  Free-group exponents
are capped (|exp| <= 2^20, else "exponent overflow") since the reduced word
must be materialized; other families take arbitrary exponents.  Canonical
printing (``str`` on a RingElement) round-trips through this parser.
"""

from __future__ import annotations

from .groups import Free
from .ring import RingElement, RingMatrix

__all__ = ["ParseError", "parse_ring_element", "parse_ring_matrix"]

# beyond this a free-group word would not be worth materializing
MAX_FREE_EXPONENT = 1 << 20


class ParseError(ValueError):
    """Syntax error with a character position."""

    def __init__(self, message, position):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position


def _tokenize(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("INT", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("NAME", text[i:j], i))
            i = j
            continue
        if ch in "+-*^":
            tokens.append(("OP", ch, i))
            i += 1
            continue
        raise ParseError("unexpected character %r" % ch, i)
    tokens.append(("END", "", n))
    return tokens


def _segment_name(name, family, pos):
    """Split an identifier into generator names (or 'e'), longest match first."""
    words = sorted(set(family.gen_names) | {"e"}, key=len, reverse=True)
    segments = []
    i = 0
    while i < len(name):
        for w in words:
            if name.startswith(w, i):
                segments.append(w)
                i += len(w)
                break
        else:
            raise ParseError("unknown generator name %r" % name, pos)
    return segments


class _Parser:
    def __init__(self, text, family):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.family = family

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self):
        terms = {}
        sign = 1
        kind, val, _ = self.peek()
        if kind == "OP" and val in "+-":
            self.advance()
            sign = -1 if val == "-" else 1
        while True:
            coeff, elem = self.parse_term()
            coeff *= sign
            if coeff:
                n = terms.get(elem, 0) + coeff
                if n:
                    terms[elem] = n
                else:
                    del terms[elem]
            kind, val, pos = self.peek()
            if kind == "END":
                break
            if kind == "OP" and val in "+-":
                self.advance()
                sign = -1 if val == "-" else 1
                continue
            raise ParseError("expected '+' or '-', got %r" % val, pos)
        return RingElement(self.family, terms)

    def parse_term(self):
        coeff = 1
        have_any = False
        kind, val, pos = self.peek()
        if kind == "INT" and val != "1":
            coeff = int(val)
            self.advance()
            have_any = True
            kind, val, pos = self.peek()
            if kind == "OP" and val == "*":
                self.advance()
                kind, val, pos = self.peek()
                if not (kind == "NAME" or (kind == "INT" and val == "1")):
                    raise ParseError(
                        "expected a factor after '*', got %r" % (val or "end"), pos
                    )
        elif kind == "INT" and val == "1":
            # a lone '1' is the identity factor; handled by the factor loop
            pass
        elem = self.family.identity()
        while True:
            kind, val, pos = self.peek()
            if kind == "NAME" or (kind == "INT" and val == "1"):
                factor = self.parse_factor()
                elem = self.family.multiply(elem, factor)
                have_any = True
                kind, val, pos = self.peek()
                if kind == "OP" and val == "*":
                    nkind, nval, npos = self.tokens[self.pos + 1]
                    if nkind == "NAME" or (nkind == "INT" and nval == "1"):
                        self.advance()
                        continue
                continue
            break
        if not have_any:
            raise ParseError("expected a term, got %r" % (val or "end"), pos)
        return coeff, elem

    def parse_factor(self):
        kind, val, pos = self.advance()
        if kind == "INT" and val == "1":
            base = self.family.identity()
            segments = None
        elif kind == "NAME":
            segments = _segment_name(val, self.family, pos)
            base = self.family.identity()
            for name in segments[:-1]:
                base = self.family.multiply(base, self._gen(name))
            last = self._gen(segments[-1])
        else:
            raise ParseError("expected a generator, got %r" % val, pos)
        exponent = 1
        kind, val, _ = self.peek()
        if kind == "OP" and val == "^":
            self.advance()
            sign = 1
            kind, val, pos = self.advance()
            if kind == "OP" and val == "-":
                sign = -1
                kind, val, pos = self.advance()
            if kind != "INT":
                raise ParseError("expected an integer exponent", pos)
            exponent = sign * int(val)
            if isinstance(self.family, Free) and abs(exponent) > MAX_FREE_EXPONENT:
                raise ParseError("exponent overflow (|exp| > %d)" % MAX_FREE_EXPONENT, pos)
        if segments is None:
            return self.family.identity()
        return self.family.multiply(base, self.family.power(last, exponent))

    def _gen(self, name):
        if name == "e":
            return self.family.identity()
        return self.family.generator_named(name)


def parse_ring_element(text, family):
    """Parse an expression to a RingElement; parse . print is the identity."""
    return _Parser(text, family).parse()


def parse_ring_matrix(text, family):
    """Parse a matrix: rows separated by ';', entries by ','."""
    rows = []
    for row_text in text.split(";"):
        row = [parse_ring_element(cell, family) for cell in row_text.split(",")]
        rows.append(row)
    if len({len(r) for r in rows}) != 1:
        raise ParseError("ragged matrix rows", 0)
    return RingMatrix(family, rows)
