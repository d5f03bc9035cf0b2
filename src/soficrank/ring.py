"""Exact arithmetic in the integral group ring ZG, matrices over it, and
chain complexes with symbolically verified differentials.

Convention: differentials act by right multiplication on row vectors, so
applying ``d_{j+1}`` then ``d_j`` corresponds to the matrix product
``d_{j+1} * d_j`` over ZG, which must vanish.
"""

from __future__ import annotations

from operator import index

from .groups import GroupElement, GroupFamily

__all__ = [
    "RingElement",
    "RingMatrix",
    "ChainComplex",
    "augmentation",
    "build_complex",
]


class RingElement:
    """Finitely supported Z-valued function on group elements.

    Stored as a dict GroupElement -> nonzero int; the empty support is 0.
    The constructor is the one place that checks the terms and puts them
    in this normal form: like terms are summed in the order they first
    appear and zero sums are dropped.  Every operation hands it its raw
    terms and returns a new element; values are immutable by convention.
    A ring element equals only a ring element over the same family, never
    an int or a group element; ``is_zero()`` is the zero test.
    """

    __slots__ = ("family", "terms")

    def __init__(self, family, terms=()):
        if not isinstance(family, GroupFamily):
            raise TypeError("family must be a GroupFamily")
        clean = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for g, c in items:
            family.check_member(g)
            c = index(c) + clean.get(g, 0)
            if c:
                clean[g] = c
            else:
                clean.pop(g, None)
        self.family = family
        self.terms = clean

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls, family):
        return cls(family)

    @classmethod
    def one(cls, family):
        return cls(family, [(family.identity(), 1)])

    @classmethod
    def monomial(cls, g, coeff=1):
        return cls(g.family, [(g, coeff)])

    @classmethod
    def coerce(cls, value, family):
        if isinstance(value, RingElement):
            if value.family != family:
                raise ValueError("ring element from a different family")
            return value
        if isinstance(value, GroupElement):
            if value.family != family:
                raise ValueError("group element from a different family")
            return cls.monomial(value)
        if isinstance(value, int):
            return cls(family, [(family.identity(), value)])
        raise TypeError("cannot coerce %r to a ring element" % (value,))

    # -- arithmetic ---------------------------------------------------
    def _check(self, other):
        if not isinstance(other, RingElement):
            other = RingElement.coerce(other, self.family)
        elif other.family != self.family:
            raise ValueError("ring elements from different families")
        return other

    def __add__(self, other):
        other = self._check(other)
        return RingElement(self.family, [*self.terms.items(), *other.terms.items()])

    __radd__ = __add__

    def __neg__(self):
        return RingElement(self.family, {g: -c for g, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._check(other))

    def __rsub__(self, other):
        return self._check(other) - self

    def __mul__(self, other):
        if isinstance(other, int):
            return RingElement(self.family, {g: c * other for g, c in self.terms.items()})
        return RingElement(self.family, self._product_terms(self._check(other)))

    def _product_terms(self, other):
        """The raw terms of self * other, one per pair of terms."""
        mul = self.family.multiply
        return [(mul(s, t), fs * gt)
                for s, fs in self.terms.items() for t, gt in other.terms.items()]

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        return self._check(other) * self

    def __eq__(self, other):
        if not isinstance(other, RingElement):
            return NotImplemented
        return self.family == other.family and self.terms == other.terms

    def __hash__(self):
        return hash((self.family, frozenset(self.terms.items())))

    def is_zero(self):
        return not self.terms

    def support(self):
        return set(self.terms)

    def coefficient(self, g):
        return self.terms.get(g, 0)

    def augmentation(self):
        return sum(self.terms.values())

    def __str__(self):
        # canonical form; terms ordered by the family's normal-form order
        if not self.terms:
            return "0"
        fam = self.family
        identity = fam.identity()
        items = sorted(self.terms.items(), key=lambda gc: fam.sort_key(gc[0].payload))
        parts = []
        for g, c in items:
            if g == identity:
                body = str(abs(c))
            elif abs(c) == 1:
                body = fam.element_str(g.payload)
            else:
                body = "%d*%s" % (abs(c), fam.element_str(g.payload))
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    def __repr__(self):
        return "<%s>" % self


def augmentation(f):
    """Sum of coefficients; a ring homomorphism ZG -> Z."""
    return f.augmentation()


class RingMatrix:
    """Rectangular matrix over ZG, acting by right multiplication on row vectors."""

    __slots__ = ("family", "rows", "cols", "entries")

    def __init__(self, family, entries):
        entries = tuple(
            tuple(RingElement.coerce(x, family) for x in row) for row in entries
        )
        if not entries or not entries[0]:
            raise ValueError("matrix dimensions must be positive")
        cols = len(entries[0])
        if any(len(row) != cols for row in entries):
            raise ValueError("ragged rows")
        self.family = family
        self.rows = len(entries)
        self.cols = cols
        self.entries = entries

    @classmethod
    def zero(cls, family, rows, cols):
        z = RingElement.zero(family)
        return cls(family, [[z] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, family, n):
        one = RingElement.one(family)
        z = RingElement.zero(family)
        return cls(family, [[one if i == j else z for j in range(n)] for i in range(n)])

    @property
    def shape(self):
        return (self.rows, self.cols)

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other):
        return (
            isinstance(other, RingMatrix)
            and self.family == other.family
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.family, self.entries))

    def is_zero(self):
        return all(x.is_zero() for row in self.entries for x in row)

    def __mul__(self, other):
        if not isinstance(other, RingMatrix):
            return NotImplemented
        if self.family != other.family:
            raise ValueError("matrices over different group rings")
        if self.cols != other.rows:
            raise ValueError(
                "shape mismatch: %s * %s" % (self.shape, other.shape)
            )
        A, B = self.entries, other.entries
        return RingMatrix(self.family, [
            [RingElement(self.family, [
                term for k in range(self.cols) for term in A[i][k]._product_terms(B[k][j])
            ]) for j in range(other.cols)]
            for i in range(self.rows)
        ])

    def __add__(self, other):
        if not isinstance(other, RingMatrix):
            return NotImplemented
        if self.shape != other.shape or self.family != other.family:
            raise ValueError("shape or family mismatch")
        return RingMatrix(
            self.family,
            [
                [a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.entries, other.entries)
            ],
        )

    def __neg__(self):
        return RingMatrix(
            self.family, [[-a for a in row] for row in self.entries]
        )

    def vstack(self, other):
        if not isinstance(other, RingMatrix):
            raise TypeError("can only stack RingMatrix")
        if self.family != other.family or self.cols != other.cols:
            raise ValueError("stack needs equal families and column counts")
        return RingMatrix(self.family, self.entries + other.entries)

    def __str__(self):
        return "[" + "; ".join(
            ", ".join(str(x) for x in row) for row in self.entries
        ) + "]"

    def __repr__(self):
        return "RingMatrix(%dx%d: %s)" % (self.rows, self.cols, self)


class ChainComplex:
    """Bounded complex of finitely generated free ZG-modules.

    ``ranks`` lists n_k, ..., n_0 top degree first; ``differentials`` lists
    d_k, ..., d_1 in the same order, with d_j of shape n_j x n_{j-1}.  Every
    adjacent composite d_{j+1} * d_j is verified to be the zero matrix by
    exact symbolic multiplication.
    """

    __slots__ = ("family", "ranks", "differentials")

    def __init__(self, family, ranks, differentials):
        ranks = tuple(map(index, ranks))
        if not ranks or any(n < 1 for n in ranks):
            raise ValueError("ranks must be positive")
        differentials = tuple(differentials)
        if len(differentials) != len(ranks) - 1:
            raise ValueError(
                "expected %d differentials, got %d"
                % (len(ranks) - 1, len(differentials))
            )
        for i, d in enumerate(differentials):
            if not isinstance(d, RingMatrix) or d.family != family:
                raise ValueError("differential %d has the wrong family" % i)
            if d.shape != (ranks[i], ranks[i + 1]):
                raise ValueError(
                    "differential %d has shape %s, expected %s"
                    % (i, d.shape, (ranks[i], ranks[i + 1]))
                )
        for i in range(len(differentials) - 1):
            comp = differentials[i] * differentials[i + 1]
            for r in range(comp.rows):
                for c in range(comp.cols):
                    if not comp.entries[r][c].is_zero():
                        j = len(ranks) - 2 - i  # composite d_{j+1} * d_j
                        raise ValueError(
                            "composite d_%d*d_%d is nonzero at entry (%d,%d): %s"
                            % (j + 1, j, r, c, comp.entries[r][c])
                        )
        self.family = family
        self.ranks = ranks
        self.differentials = differentials

    @property
    def top_degree(self):
        return len(self.ranks) - 1

    def rank_of(self, j):
        """Free rank n_j of C_j (0 for degrees outside the complex)."""
        k = self.top_degree
        if 0 <= j <= k:
            return self.ranks[k - j]
        return 0

    def differential(self, j):
        """d_j: C_j -> C_{j-1} for 1 <= j <= top degree, else None."""
        k = self.top_degree
        if 1 <= j <= k:
            return self.differentials[k - j]
        return None

    def __repr__(self):
        return "ChainComplex(ranks=%s)" % (self.ranks,)


def build_complex(family, ranks, differentials):
    """Validate and build a chain complex; rejects any nonzero composite."""
    return ChainComplex(family, ranks, differentials)
