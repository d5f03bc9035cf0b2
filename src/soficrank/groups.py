"""Concrete group families with exact normal forms, plus finite permutation models.

Supported families: free abelian groups Z^d (integer vectors), free groups
F_k (reduced words), and finite groups given by an explicit multiplication
table.  A FiniteQuotient is a single finite-degree permutation model of the
group, one permutation per generator, flagged ``genuine`` when it arises
from an actual homomorphism onto a finite group acting on itself.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import groupby
from math import gcd
from operator import index, itemgetter

from .primes import prime_factors

__all__ = [
    "GroupFamily",
    "FreeAbelian",
    "Free",
    "FiniteTable",
    "GroupElement",
    "FiniteQuotient",
    "QuotientSequence",
    "PairDefect",
    "extend_to_word",
    "soficity_defect",
    "grid_quotient",
    "sanov_quotient",
    "regular_quotient",
    "random_quotient",
    "grid_sequence",
    "sanov_sequence",
    "regular_sequence",
    "random_sequence",
    "identity_perm",
    "perm_compose",
    "perm_inverse",
    "perm_power",
]

# default generator names; 'e' is the identity in the expression grammar
_ALPHABET = "abcdfghijklmnopqrstuvwxyz"

# a name, here and as a token of the expression grammar (see exprs)
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _check_names(names, count, what, identity=None):
    """``names`` as a tuple of ``count`` distinct names that the expression
    grammar (see exprs) reads back as themselves: ASCII identifiers
    (``_NAME``), with 'e' naming the element at index ``identity`` or
    nothing."""
    names = tuple(names)
    if len(names) != count or len(set(names)) != count:
        raise ValueError("need %d distinct %s names" % (count, what))
    for i, name in enumerate(names):
        if not (isinstance(name, str) and _NAME.fullmatch(name)):
            raise ValueError(
                "%s name %r is not a letter or '_' followed by letters, digits"
                " or '_'" % (what, name)
            )
        if name == "e" and i != identity:
            raise ValueError("%s name 'e' is reserved for the identity" % what)
    return names


# ---------------------------------------------------------------------------
# permutations (images of 0..d-1, stored as tuples)

def identity_perm(d):
    return tuple(range(d))


def perm_compose(p, q):
    """(p . q)(v) = p[q[v]], i.e. apply q first."""
    return tuple([p[x] for x in q])


def perm_inverse(p):
    inv = [0] * len(p)
    for v, w in enumerate(p):
        inv[w] = v
    return tuple(inv)


def perm_power(p, k):
    """p^k for any integer k, via cycle decomposition (cost O(d) regardless of k).

    p^1 is p itself, with no walk of its cycles.
    """
    d = len(p)
    if k == 0:
        return identity_perm(d)
    if k == 1:
        return p
    out = [0] * d
    seen = [False] * d
    for start in range(d):
        if seen[start]:
            continue
        cycle = [start]
        seen[start] = True
        v = p[start]
        while v != start:
            seen[v] = True
            cycle.append(v)
            v = p[v]
        n = len(cycle)
        shift = k % n
        for i, v in enumerate(cycle):
            out[v] = cycle[(i + shift) % n]
    return tuple(out)


def _check_perm(p, d):
    if len(p) != d or sorted(p) != list(range(d)):
        raise ValueError("gen_image is not a permutation of range(%d)" % d)


# ---------------------------------------------------------------------------
# group families

class GroupElement:
    """Normal-form element of one of the supported families.

    Payloads: integer vector (FreeAbelian), reduced word as a tuple of
    nonzero signed 1-based generator indices (Free), element index
    (FiniteTable).  Equality is equality of normal forms.
    """

    __slots__ = ("family", "payload")

    def __init__(self, family, payload):
        self.family = family
        self.payload = payload

    def __mul__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        return self.family.multiply(self, other)

    def __invert__(self):
        return self.family.inverse(self)

    def __pow__(self, k):
        return self.family.power(self, k)

    def __eq__(self, other):
        return (
            isinstance(other, GroupElement)
            and self.family == other.family
            and self.payload == other.payload
        )

    def __hash__(self):
        return hash((self.family, self.payload))

    def __repr__(self):
        return self.family.element_str(self.payload)


class GroupFamily:
    """Base class; concrete families implement the group law on payloads.

    A family is identified by a key tuple, set once with its hash by the
    constructor through ``_identify``: ``(rank, gen_names)`` for FreeAbelian
    and Free, ``(table, identity_index, gen_names)`` for FiniteTable.  Two
    families are equal when they are the same object, or of the same type
    with equal keys, and then their elements are interchangeable.  A payload
    is its own sort key unless the family says otherwise (Free).
    """

    gen_names: tuple

    def _identify(self, *key):
        self._key = key
        # every GroupElement hash hashes its family; a table's key is O(g^2)
        self._hash = hash((type(self).__name__,) + key)

    def __eq__(self, other):
        return self is other or (type(other) is type(self) and self._key == other._key)

    def __hash__(self):
        return self._hash

    def _wrap(self, payload):
        return GroupElement(self, payload)

    def check_member(self, a):
        if not isinstance(a, GroupElement) or a.family != self:
            raise ValueError("element does not belong to this group family")

    def generators(self):
        return [self.generator(i) for i in range(len(self.gen_names))]

    def generator_named(self, name):
        try:
            return self.generator(self.gen_names.index(name))
        except ValueError:
            raise KeyError("unknown generator name %r" % name) from None

    def power(self, a, k):
        self.check_member(a)
        k = index(k)
        if k == 0:
            return self.identity()
        base = a if k > 0 else self.inverse(a)
        k = abs(k)
        result = None
        while k:
            if k & 1:
                result = base if result is None else self.multiply(result, base)
            k >>= 1
            if k:
                base = self.multiply(base, base)
        return result

    def sort_key(self, payload):
        return payload

    def element_str(self, payload):
        """The word families' spelling: one name^exponent per run (_runs)."""
        parts = []
        for i, e in self._runs(payload):
            name = self.gen_names[i]
            parts.append(name if e == 1 else "%s^%d" % (name, e))
        return "*".join(parts) or "e"


class FreeAbelian(GroupFamily):
    """Z^d with elements stored as integer vectors; generators commute."""

    def __init__(self, rank, gen_names=None):
        rank = index(rank)
        if rank < 1:
            raise ValueError("rank must be positive")
        if gen_names is None:
            if rank == 1:
                gen_names = ("t",)
            elif rank <= 3:
                gen_names = tuple("xyz"[:rank])
            else:
                gen_names = tuple("x%d" % (i + 1) for i in range(rank))
        self.rank = rank
        self.gen_names = _check_names(gen_names, rank, "generator")
        self._identify(rank, self.gen_names)

    def __repr__(self):
        return "FreeAbelian(%d)" % self.rank

    def identity(self):
        return self._wrap((0,) * self.rank)

    def generator(self, i):
        if not 0 <= i < self.rank:
            raise IndexError("generator index out of range")
        v = [0] * self.rank
        v[i] = 1
        return self._wrap(tuple(v))

    def multiply(self, a, b):
        self.check_member(a)
        self.check_member(b)
        return self._wrap(tuple(x + y for x, y in zip(a.payload, b.payload)))

    def inverse(self, a):
        self.check_member(a)
        return self._wrap(tuple(-x for x in a.payload))

    def _runs(self, vector):
        """(generator index, exponent) of each nonzero coordinate."""
        return [(i, e) for i, e in enumerate(vector) if e]


class Free(GroupFamily):
    """Free group F_k; elements are reduced words over x_1^{+-1},...,x_k^{+-1}.

    A word is a tuple of nonzero ints: +i for generator i (1-based), -i for
    its inverse, with no adjacent cancelling pair.
    """

    def __init__(self, rank, gen_names=None):
        rank = index(rank)
        if rank < 1:
            raise ValueError("rank must be positive")
        if gen_names is None:
            if rank <= len(_ALPHABET):
                gen_names = tuple(_ALPHABET[:rank])
            else:
                gen_names = tuple("g%d" % (i + 1) for i in range(rank))
        self.rank = rank
        self.gen_names = _check_names(gen_names, rank, "generator")
        self._identify(rank, self.gen_names)

    def __repr__(self):
        return "Free(%d)" % self.rank

    def identity(self):
        return self._wrap(())

    def generator(self, i):
        if not 0 <= i < self.rank:
            raise IndexError("generator index out of range")
        return self._wrap((i + 1,))

    def multiply(self, a, b):
        self.check_member(a)
        self.check_member(b)
        word = list(a.payload)
        for l in b.payload:
            if word and word[-1] == -l:
                word.pop()
            else:
                word.append(l)
        return self._wrap(tuple(word))

    def inverse(self, a):
        self.check_member(a)
        return self._wrap(tuple(-l for l in reversed(a.payload)))

    def sort_key(self, payload):
        # length first, then letters; inverses sort after positives
        return (len(payload), tuple((abs(l), l < 0) for l in payload))

    def _runs(self, word):
        """(generator index, exponent) of each run of equal letters."""
        return [
            (abs(l) - 1, len(list(run)) * (1 if l > 0 else -1))
            for l, run in groupby(word)
        ]


def _generating_set(table, e):
    """Greedy generators of a finite magma with identity e: add the smallest
    element not yet reached, then close the reached set under right
    multiplication by the generators; every element is reached in the end."""
    reached = [False] * len(table)
    reached[e] = True
    members = [e]
    gens = []
    for c in range(len(table)):
        if reached[c]:
            continue
        gens.append(c)
        queue = [table[x][c] for x in members]
        while queue:
            y = queue.pop()
            if not reached[y]:
                reached[y] = True
                members.append(y)
                queue.extend(table[y][s] for s in gens)
    return gens


class FiniteTable(GroupFamily):
    """Finite group from an explicit multiplication table (0-based internally).

    ``table[i][j]`` is the index of element i * j.  Every entry goes
    through operator.index and must lie in range(g).  Associativity,
    identity and inverses are verified on construction (associativity by
    Light's test over a generating set S, O(g^2 |S|) with |S| <= log2 g for
    a group, each s reading whole rows through one itemgetter).  Every
    element counts as a generator for permutation models.
    """

    def __init__(self, table, inverse=None, identity_index=0, names=None):
        table = tuple(tuple(map(index, row)) for row in table)
        g = len(table)
        if g < 1 or any(len(row) != g for row in table):
            raise ValueError("table must be square and nonempty")
        indices = set(range(g))
        if not all(map(indices.issuperset, table)):
            raise ValueError("table entry out of range")
        e = index(identity_index)
        if not 0 <= e < g:
            raise ValueError("identity index out of range")
        elements = tuple(range(g))
        if table[e] != elements or tuple(row[e] for row in table) != elements:
            raise ValueError("index %d is not a two-sided identity" % e)
        wrong = "inverse table wrong at element %d"
        if inverse is None:
            # each element's first right inverse; a row without e fails the
            # two-sided check below whatever stands in for its inverse
            wrong = "element %d has no two-sided inverse"
            inverse = [row.index(e) if e in row else e for row in table]
        inverse = tuple(map(index, inverse))
        if len(inverse) != g:
            raise ValueError("inverse table has wrong length")
        if not indices.issuperset(inverse):
            raise ValueError("inverse table entry out of range")
        for i, j in enumerate(inverse):
            if table[i][j] != e or table[j][i] != e:
                raise ValueError(wrong % i)
        # Light's test: the s with (x*s)*y == x*(s*y) for all x, y are closed
        # under products, so checking s over a generating set suffices.  Row
        # x*s is table[row_x[s]], and times_s(row_x) reads x*(s*y) for every
        # y at once; the getter returns a tuple because g >= 2 whenever
        # there is a generator (g = 1 has an empty generating set)
        for s in _generating_set(table, e):
            times_s = itemgetter(*table[s])
            for x, row_x in enumerate(table):
                lhs = table[row_x[s]]
                rhs = times_s(row_x)
                if lhs != rhs:
                    y = next(y for y in range(g) if lhs[y] != rhs[y])
                    raise ValueError(
                        "table is not associative at (%d,%d,%d)" % (x, s, y)
                    )
        if names is None:
            names = tuple(
                "e" if i == e else "g%d" % (i + 1) for i in range(g)
            )
        names = _check_names(map(str, names), g, "element", e)
        self.table = table
        self.inverse_table = inverse
        self.identity_index = e
        self.order = g
        self.gen_names = names
        self._identify(table, e, names)

    @classmethod
    def cyclic(cls, n, names=None):
        """Z/n with generator t: element i is t^i."""
        n = index(n)
        if n < 1:
            raise ValueError("order must be positive")
        table = [[(i + j) % n for j in range(n)] for i in range(n)]
        if names is None and n > 1:
            names = tuple("e" if i == 0 else ("t" if i == 1 else "t%d" % i)
                          for i in range(n))
        return cls(table, identity_index=0, names=names)

    @classmethod
    def from_text(cls, text, names=None):
        """Parse the plain-text table format.

        First line: the order g >= 1.  Then g lines of g 1-based indices
        (row i, column j holds the index of element i*j).  Then one line of
        1-based inverse indices.  Identity is index 1.  '#' starts a comment
        and blank lines are skipped; an entry that is not an integer is
        named with its line.  A line spelled canonically (each entry one of
        '1' ... 'g') is read by dictionary lookup, any other line by int()
        word by word, so '+3' and '03' read as 3 and an index out of range
        reaches the constructor's range check.
        """
        # (line number in the text, content), comments and blank lines dropped
        lines = [l.split("#", 1)[0].strip() for l in text.splitlines()]
        lines = [(n, l) for n, l in enumerate(lines, 1) if l]
        if not lines:
            raise ValueError("empty table file")
        try:
            g = int(lines[0][1])
        except ValueError:
            raise ValueError("first line must be the group order") from None
        if g < 1:
            raise ValueError("group order must be positive, got %d" % g)
        if len(lines) != g + 2:
            raise ValueError("expected %d lines, got %d" % (g + 2, len(lines)))
        # the canonical spelling of each index, bounded by the line count
        # checked above; a line with a word it misses ('+3', '03', an index
        # out of range, a word that is no integer) is read by int() instead
        token = {str(i + 1): i for i in range(g)}.__getitem__
        rows = []
        for n, l in lines[1:]:
            words = l.split()
            try:
                row = list(map(token, words))
            except KeyError:
                row = []
                for x in words:
                    try:
                        row.append(int(x) - 1)
                    except ValueError:
                        raise ValueError(
                            "table line %d: %r is not an integer" % (n, x)
                        ) from None
            rows.append(row)
        table, inverse = rows[:g], rows[g]
        return cls(table, inverse=inverse, identity_index=0, names=names)

    def __repr__(self):
        return "FiniteTable(order=%d)" % self.order

    def identity(self):
        return self._wrap(self.identity_index)

    def generator(self, i):
        if not 0 <= i < self.order:
            raise IndexError("element index out of range")
        return self._wrap(i)

    def element(self, i):
        return self.generator(i)

    def elements(self):
        return [self._wrap(i) for i in range(self.order)]

    def multiply(self, a, b):
        self.check_member(a)
        self.check_member(b)
        return self._wrap(self.table[a.payload][b.payload])

    def inverse(self, a):
        self.check_member(a)
        return self._wrap(self.inverse_table[a.payload])

    def element_str(self, payload):
        return self.gen_names[payload]


# ---------------------------------------------------------------------------
# finite permutation models

@dataclass(frozen=True)
class FiniteQuotient:
    """A degree-d permutation model sigma: generators -> Sym(d), one image
    per name in ``family.gen_names``.

    ``genuine`` means the model comes from an actual homomorphism onto a
    finite group.  A model is made on one of two paths:

    - The constructor takes images from outside.  Every entry goes through
      operator.index, every image must be a permutation of range(d), and
      for a genuine FreeAbelian or FiniteTable model the images are
      extended along the defining relators (commutation, or the table).
    - ``_adopt`` is the private path of the builders in this module, which
      know their group in closed form.  It takes the images as built and
      checks nothing, so they must be tuples of int tuples, each a
      permutation of range(d), and a genuine model's relations must hold by
      construction (tests/test_groups.py runs the constructor's full proof
      on every builder's models).  Only grid_quotient's models record their
      modulus n as ``_grid``, which sends them to the Fourier path in
      invariants; every other model has None, even one built by the
      constructor from a grid's own images.  Likewise only
      regular_quotient's models record ``_regular`` True, which sends them
      to the character split of invariants; every other model has False,
      even one built from a table's own rows.  A grid model is adopted
      without images: the first read of ``gen_images`` builds the
      translations and stores them on the model, so the Fourier path,
      which never reads them, never builds them.

    The repr leaves out ``gen_images`` (d ints per generator).
    """

    family: GroupFamily
    degree: int
    gen_images: tuple = field(repr=False)
    genuine: bool
    label: str = ""

    _grid = None
    _regular = False

    @classmethod
    def _adopt(cls, family, degree, gen_images, genuine, label, grid=None, regular=False):
        """A model with ``gen_images`` as built, or built on first read
        when they are None and ``grid`` is set (see the class doc)."""
        q = cls.__new__(cls)
        q.__dict__.update(
            family=family, degree=degree, genuine=genuine, label=label, _grid=grid,
            _regular=regular,
        )
        if gen_images is not None:
            q.__dict__["gen_images"] = gen_images
        return q

    def __getattr__(self, name):
        # reached only when ordinary lookup fails; _grid is a class attribute,
        # so an unpickled model whose __dict__ is still empty does not recurse
        if name != "gen_images" or self._grid is None:
            raise AttributeError(
                "%r object has no attribute %r" % (type(self).__name__, name)
            )
        images = _grid_images(self.family.rank, self._grid)
        self.__dict__["gen_images"] = images
        return images

    def __post_init__(self):
        d = self.degree
        if d < 1:
            raise ValueError("degree must be positive")
        images = tuple(tuple(map(index, p)) for p in self.gen_images)
        object.__setattr__(self, "gen_images", images)
        expected = len(self.family.gen_names)
        if len(images) != expected:
            raise ValueError(
                "expected %d generator images, got %d" % (expected, len(images))
            )
        for p in images:
            _check_perm(p, d)
        if self.genuine:
            self._check_relators()

    def _check_relators(self):
        fam = self.family
        images = self.gen_images
        if isinstance(fam, FreeAbelian):
            for i in range(len(images)):
                for j in range(i + 1, len(images)):
                    if perm_compose(images[i], images[j]) != perm_compose(
                        images[j], images[i]
                    ):
                        raise ValueError(
                            "genuine FreeAbelian model requires commuting images"
                        )
        elif isinstance(fam, FiniteTable):
            if images[fam.identity_index] != identity_perm(self.degree):
                raise ValueError("genuine model must send the identity to id")
            for a in range(fam.order):
                for b in range(fam.order):
                    ab = fam.table[a][b]
                    if perm_compose(images[a], images[b]) != images[ab]:
                        raise ValueError(
                            "genuine FiniteTable model must respect the table"
                        )
        # Free families: any generator assignment extends to a homomorphism.


def extend_to_word(q, w):
    """Compose the quotient's gen_images along the normal form of w.

    A Free or FreeAbelian element costs one perm_power per (generator
    index, exponent) run of its normal form, composed left to right (the
    last run applies first), so a^(2^20) is one perm_power, not 2^20
    compositions; a FiniteTable element's image is looked up.  Returns the
    identity permutation for the identity element.  For genuine quotients
    the result depends only on the group element, not its spelling.
    """
    fam = q.family
    fam.check_member(w)
    if isinstance(fam, FiniteTable):
        if w.payload == fam.identity_index:
            return identity_perm(q.degree)
        return q.gen_images[w.payload]
    result = None
    for i, e in fam._runs(w.payload):
        p = perm_power(q.gen_images[i], e)
        result = p if result is None else perm_compose(result, p)
    return result if result is not None else identity_perm(q.degree)


@dataclass(frozen=True)
class PairDefect:
    s: GroupElement
    t: GroupElement
    mult_defect: Fraction
    sep_defect: object  # Fraction, or None when s == t


def soficity_defect(q, pairs):
    """Per-pair multiplicativity and separation defects of a finite model.

    mult_defect(s,t) = 1 - |{v : sigma_s sigma_t v = sigma_{st} v}| / d and
    sep_defect(s,t) = 1 - |{v : sigma_s v != sigma_t v}| / d (None for s = t).
    A sequence of models is a sofic approximation when both tend to 0.
    """
    d = q.degree
    out = []
    for s, t in pairs:
        ps = extend_to_word(q, s)
        pt = extend_to_word(q, t)
        pst = extend_to_word(q, s * t)
        good = sum(1 for v in range(d) if ps[pt[v]] == pst[v])
        mult = 1 - Fraction(good, d)
        if s == t:
            sep = None
        else:
            apart = sum(1 for v in range(d) if ps[v] != pt[v])
            sep = 1 - Fraction(apart, d)
        out.append(PairDefect(s, t, mult, sep))
    return out


# ---------------------------------------------------------------------------
# providers

class SizeCapExceeded(RuntimeError):
    """Raised when a model or a linearization would exceed the configured
    size cap (a resource guard, not a mathematical failure)."""


def _positive(value, what):
    n = index(value)
    if n < 1:
        raise ValueError("%s must be positive" % what)
    return n


def grid_quotient(rank, modulus, family=None):
    """Z^rank acting by translation on (Z/modulus)^rank; genuine, degree modulus^rank.

    The model records ``modulus`` as ``_grid`` and builds its translation
    images (_grid_images) on the first read of ``gen_images``.
    """
    rank = index(rank)
    n = _positive(modulus, "modulus")
    if family is None:
        family = FreeAbelian(rank)
    elif not isinstance(family, FreeAbelian) or family.rank != rank:
        raise ValueError("family does not match grid parameters")
    return FiniteQuotient._adopt(family, n ** rank, None, True, "grid mod %d" % n, n)


def _grid_images(rank, n):
    """Unit translations of (Z/n)^rank, point v = sum_i c_i n^i.

    Translation i adds 1 to coordinate c_i mod n: inside each block of n^(i+1)
    consecutive points it sends the first n^(i+1) - n^i points n^i ahead and
    wraps the last n^i back to the start of the block.
    """
    d = n ** rank
    images = []
    for i in range(rank):
        stride, block = n ** i, n ** (i + 1)
        img = []
        for b in range(0, d, block):
            img.extend(range(b + stride, b + block))
            img.extend(range(b, b + stride))
        images.append(tuple(img))
    return tuple(images)


def _sl2_size(m):
    size = m ** 3
    for p in prime_factors(m):
        size = size // (p * p) * (p * p - 1)
    return size


def _sanov_modulus(modulus):
    m = index(modulus)
    if m < 3 or m % 2 == 0:
        raise ValueError("sanov modulus must be odd and >= 3")
    return m


def sanov_quotient(modulus, family=None):
    """F_2 -> SL_2(Z/m) via a -> [[1,2],[0,1]], b -> [[1,0],[2,1]], m odd >= 3.

    The permutation model is the left regular action on SL_2(Z/m); for odd m
    the two images generate the whole group (2 is a unit, so powers of the
    images give all elementary matrices).  Kernels form a chain with trivial
    intersection along divisibility of the moduli.

    Points are the elements (u; w), first row u = (p, q) and second row
    w = (r, s), in sorted order of (p, q, r, s), and each element's point
    is given by a formula.  The first rows are the u unimodular mod m,
    gcd(p, q, m) = 1, in tuple order.  For such u, w -> ps - qr maps
    (Z/m)^2 onto Z/m with kernel (Z/m) u, so u heads exactly m elements,
    (u; w0 + t u) for t in Z/m and any one w0 of them, and they take the
    consecutive points from start[u] = m * (the number of earlier first
    rows).  With g = gcd(p, m) and h = m / g, the place of (r, s) in the
    block is (r // g) * g + s // h:

    - r = r0 + t p takes the h residues = r0 (mod g), each for g values of
      t, so r // g is the rank of r;
    - for a fixed r, t moves by multiples of h and s by multiples of h q,
      and gcd(q, g) = 1, so s takes the g residues of one class mod h, and
      s // h is the rank of s.

    One w0 per block: p + lam q is a unit mod m for the least lam >= 0 that
    makes it one (the product of the primes of m not dividing p is such a
    lam), and w0 = (-lam y, y) with y = (p + lam q)^-1 has ps - qr = 1.
    Left multiplication by a adds twice the second row to the first, and
    by b twice the first row to the second: a (u; w) = (u + 2w; w) and
    b (u; w) = (u; w + 2u), so both images come from the same formula,
    with no search and no sort.

    The images are shown to generate, not assumed to.  b sends t to t + 2,
    one m-cycle on each block since m is odd, so the orbit of the identity
    under <a, b> is a union of blocks; in a finite group the positive words
    reach the whole orbit.  So the images generate SL_2(Z/m) exactly when a
    search along the a-images from the identity's block, that of (1, 0),
    reaches every block (_check_sanov_blocks).  A build with other than
    |SL_2(Z/m)| points, or whose search misses a block, raises
    RuntimeError.
    """
    m = _sanov_modulus(modulus)
    if family is None:
        family = Free(2)
    elif not isinstance(family, Free) or family.rank != 2:
        raise ValueError("sanov quotient needs a rank-2 free family")
    # rows are coded as p*m + q; place[u][w] is the place of the second row
    # w in the block of the first row u, which depends on gcd(p, m) alone
    tables = {}
    place = []
    start = []  # first row -> its first point, None when not unimodular
    heads = []  # the unimodular first rows, in tuple order
    d = 0
    for p in range(m):
        g = gcd(p, m)
        table = tables.get(g)
        if table is None:
            h = m // g
            table = tables[g] = [r // g * g + s // h for r in range(m) for s in range(m)]
        place += [table] * m
        for q in range(m):
            if gcd(g, q) == 1:
                start.append(d)
                heads.append((p, q))
                d += m
            else:
                start.append(None)
    if d != _sl2_size(m):
        raise RuntimeError("Sanov images failed to generate SL2(Z/%d)" % m)
    img_a, img_b = [0] * d, [0] * d
    ts = range(m)
    for p, q in heads:
        lam = 0
        while gcd(p + lam * q, m) != 1:
            lam += 1
        y = pow(p + lam * q, -1, m)
        u = p * m + q
        first, table = start[u], place[u]
        ws = [(t * p - lam * y) % m * m + (t * q + y) % m for t in ts]  # w0 + t u
        points = [first + table[w] for w in ws]
        for x, z in zip(points, points[2:] + points[:2]):  # b: t -> t + 2
            img_b[x] = z
        for x, w in zip(points, ws):
            r, s = divmod(w, m)
            v = (p + 2 * r) % m * m + (q + 2 * s) % m
            img_a[x] = start[v] + place[v][w]
    _check_sanov_blocks(img_a, m, start[m])  # the identity's first row (1, 0)
    return FiniteQuotient._adopt(
        family, d, (tuple(img_a), tuple(img_b)), True, "Sanov mod %d" % m
    )


def _check_sanov_blocks(img_a, m, home):
    """Raise RuntimeError unless a search along the images ``img_a``, from
    the block of the point ``home``, reaches every block of m consecutive
    points (the generation check of sanov_quotient)."""
    seen = [False] * (len(img_a) // m)
    seen[home // m] = True
    todo = [home // m]
    for c in todo:
        for x in img_a[c * m:c * m + m]:
            b = x // m
            if not seen[b]:
                seen[b] = True
                todo.append(b)
    if not all(seen):
        raise RuntimeError("Sanov images failed to generate SL2(Z/%d)" % m)


def regular_quotient(family):
    """Left regular action of a finite-table group on itself; genuine, degree g.

    The model records ``_regular`` True: it is the regular model of its
    family's table, which invariants splits over characters.
    """
    if not isinstance(family, FiniteTable):
        raise ValueError("regular quotient needs a FiniteTable family")
    return FiniteQuotient._adopt(
        family, family.order, family.table, True, "regular |G|=%d" % family.order,
        regular=True,
    )


def random_quotient(family, degree, seed):
    """Uniformly random permutation per generator; heuristic (genuine = False)."""
    d = _positive(degree, "degree")
    rng = random.Random(seed)
    images = []
    for i in range(len(family.gen_names)):
        if isinstance(family, FiniteTable) and i == family.identity_index:
            images.append(identity_perm(d))
            continue
        img = list(range(d))
        rng.shuffle(img)
        images.append(tuple(img))
    return FiniteQuotient._adopt(
        family, d, tuple(images), False, "random d=%d seed=%r" % (d, seed)
    )


# ---------------------------------------------------------------------------
# sequences

@dataclass(frozen=True)
class QuotientSequence:
    """A finite prefix of a sofic approximation, one model per stage.

    ``chain`` asserts that the underlying kernels form a decreasing chain
    with trivial intersection; a finite prefix cannot certify this, so the
    flag is provider-asserted (providers set it from modulus divisibility).
    """

    quotients: tuple
    chain: bool = False

    def __post_init__(self):
        qs = tuple(self.quotients)
        object.__setattr__(self, "quotients", qs)
        if not qs:
            raise ValueError("empty quotient sequence")
        fam = qs[0].family
        for q in qs:
            if q.family != fam:
                raise ValueError("all quotients must share one family")
        _check_degrees([q.degree for q in qs])

    @property
    def family(self):
        return self.quotients[0].family

    def __iter__(self):
        return iter(self.quotients)

    def __len__(self):
        return len(self.quotients)


def _check_degrees(degrees, size_cap=None):
    """The stage degrees of a sequence strictly increase, and none exceeds
    size_cap (None means no cap).  The sequence builders check the degrees
    they compute from their parameters before they build any model."""
    for d in degrees:
        if size_cap is not None and d > size_cap:
            raise SizeCapExceeded("degree %d exceeds cap %d" % (d, size_cap))
    if any(a >= b for a, b in zip(degrees, degrees[1:])):
        raise ValueError("degrees must strictly increase")


def _divisibility_chain(moduli):
    return all(b % a == 0 for a, b in zip(moduli, moduli[1:]))


def grid_sequence(rank, moduli, family=None, size_cap=None):
    rank = index(rank)
    moduli = [_positive(n, "modulus") for n in moduli]
    _check_degrees([n ** rank for n in moduli], size_cap)
    qs = tuple(grid_quotient(rank, n, family) for n in moduli)
    return QuotientSequence(qs, chain=_divisibility_chain(moduli))


def sanov_sequence(moduli, family=None, size_cap=None):
    moduli = list(map(_sanov_modulus, moduli))
    _check_degrees(list(map(_sl2_size, moduli)), size_cap)
    qs = tuple(sanov_quotient(m, family) for m in moduli)
    return QuotientSequence(qs, chain=_divisibility_chain(moduli))


def random_sequence(family, degrees, seed, size_cap=None):
    """One random model per degree, the i-th drawn with seed + i; the
    models are heuristic, so the sequence asserts no kernel chain."""
    degrees = [_positive(d, "degree") for d in degrees]
    _check_degrees(degrees, size_cap)
    qs = tuple(random_quotient(family, d, seed + i) for i, d in enumerate(degrees))
    return QuotientSequence(qs, chain=False)


def regular_sequence(family):
    # single exact stage; the kernel is already trivial
    return QuotientSequence((regular_quotient(family),), chain=True)
