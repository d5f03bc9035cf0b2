"""Linearization: a matrix over ZG plus a finite permutation model becomes a
large sparse integer matrix, the finite-stage shadow of the differential.

Block layout for an m x n ring matrix at a degree-d model: rows are indexed
by (v, j) as v*m + j and columns by (w, k) as w*n + k (v-major, block-minor,
so permutation blocks stay contiguous).  The block for source j and target k
is sum_s f_jk(s) P(s), where P(s) maps basis vector delta_w to
delta_{sigma(s) w}.  With this orientation linearize(A*B) is the matrix
product of linearize(A) and linearize(B) for genuine models.
"""

from __future__ import annotations

from itertools import compress
from operator import eq, index

from .groups import SizeCapExceeded, extend_to_word, perm_inverse
from .ring import RingMatrix

__all__ = [
    "SparseIntMatrix",
    "SizeCapExceeded",
    "check_size_cap",
    "linearize",
    "write_matrix_market",
    "DEFAULT_SIZE_CAP",
]

DEFAULT_SIZE_CAP = 200_000


def _file_edges(row_map, edges):
    """Move every row of ``row_map`` that is +-(e_a - e_b) over Z into the
    edge store ``edges``, appending (index, a, b) with a the +1 column and b
    the -1 column, in the order of ``row_map``.  This is the one place a row
    is recognised as an edge by its shape."""
    er, eh, et = edges
    start = len(er)
    for r, row in row_map.items():
        if len(row) == 2:
            (a, u), (b, v) = row.items()
            if u + v == 0 and (u == 1 or u == -1):
                if u == -1:
                    a, b = b, a
                er.append(r)
                eh.append(a)
                et.append(b)
    for r in er[start:]:
        del row_map[r]


def _row_terms(f, j):
    """The terms (k, g, coeff) of row j of the ring matrix f, over its
    entries in column order."""
    return [(k, g, coeff) for k in range(f.cols) for g, coeff in f.entries[j][k].terms.items()]


def _is_edge_row(terms):
    """Whether the terms of a row of a ring matrix are exactly +g and -h,
    in either order, so that it linearizes to edge rows only."""
    return len(terms) == 2 and terms[0][2] in (1, -1) and terms[0][2] + terms[1][2] == 0


def _edge_rows_only(f):
    """Whether every nonzero row of the ring matrix f is +g - h, so that
    its linearization at every model is held in the edge store alone."""
    for j in range(f.rows):
        terms = _row_terms(f, j)
        if terms and not _is_edge_row(terms):
            return False
    return True


class SparseIntMatrix:
    """Sparse matrix of arbitrary-precision integers in two stores.

    A row that is +-(e_a - e_b) over Z, an edge row, is held in the edge
    store ``_edges``: three parallel lists of the row index, the column a of
    its +1 and the column b of its -1 (a != b).  Every other nonzero row is
    a dict in ``_row_map``, ``{row: {col: value}}``.  Every edge row lives
    in the edge store and nowhere else, so the two stores' row indices are
    disjoint; both keep their rows in the order they first appear.

    Triplets (row, col, value) are summed in the order they first appear;
    zero values and cancelled rows are dropped, and then the edge rows are
    filed.  Dimensions, indices and values go through operator.index, so a
    value that is not an integer raises TypeError rather than being
    truncated.  ``triplets`` is the view of both stores sorted by
    (row, col).

    The constructor is the one place that checks triplets and puts them in
    this normal form.  ``_adopt`` is the private path of ``linearize``,
    which builds both stores itself in the order the constructor would
    give them, and of the character split of a regular stage in
    invariants, which files each block's edge rows as the constructor
    would: it takes them as given, unchecked, so the row map must hold
    only non-empty rows of nonzero ints and no edge row, every index must
    be an int in range, and no row index may appear twice in the two
    stores.  Nothing may change the stores afterwards.

    The slot ``_residual`` holds the record of the work on the stores that
    no prime changes: the edge contraction, the residual rows and the rank
    bound over Z.  It is None until rank._residual first builds it, and
    only rank.py reads it.  Because the stores never change, it is built
    at most once per matrix and goes with it.
    """

    __slots__ = ("rows", "cols", "_row_map", "_edges", "_residual")

    def __init__(self, rows, cols, triplets=()):
        rows, cols = index(rows), index(cols)
        if rows < 0 or cols < 0:
            raise ValueError("negative dimensions")
        row_map = {}
        for r, c, v in triplets:
            r, c = index(r), index(c)
            if not 0 <= r < rows or not 0 <= c < cols:
                raise ValueError("triplet index out of range: (%d,%d)" % (r, c))
            v = index(v)
            if not v:
                continue
            row = row_map.get(r)
            if row is None:
                row = row_map[r] = {}
            n = row.get(c, 0) + v
            if n:
                row[c] = n
            else:
                del row[c]
                if not row:
                    del row_map[r]
        edges = ([], [], [])
        _file_edges(row_map, edges)
        self.rows = rows
        self.cols = cols
        self._row_map = row_map
        self._edges = edges
        self._residual = None

    @classmethod
    def _adopt(cls, rows, cols, row_map, edges):
        """A matrix whose stores are ``row_map`` and ``edges`` themselves,
        unchecked (see the class doc)."""
        M = cls.__new__(cls)
        M.rows, M.cols, M._row_map, M._edges = rows, cols, row_map, edges
        M._residual = None
        return M

    # -- constructors ---------------------------------------------------
    @classmethod
    def from_dense(cls, rows_of_ints):
        data = [list(r) for r in rows_of_ints]
        m = len(data)
        n = len(data[0]) if m else 0
        if any(len(row) != n for row in data):
            raise ValueError("from_dense needs rows of equal length")
        trips = [
            (i, j, v)
            for i, row in enumerate(data)
            for j, v in enumerate(row)
            if v
        ]
        return cls(m, n, trips)

    # -- basic queries ----------------------------------------------------
    @property
    def triplets(self):
        trips = [(r, c, v) for r, row in self._row_map.items()
                 for c, v in row.items()]
        for r, a, b in zip(*self._edges):
            trips += ((r, a, 1), (r, b, -1))
        return tuple(sorted(trips))

    @property
    def nnz(self):
        return sum(map(len, self._row_map.values())) + 2 * len(self._edges[0])

    def is_zero(self):
        return not self._row_map and not self._edges[0]

    def to_dense(self):
        out = [[0] * self.cols for _ in range(self.rows)]
        for r, row in self._row_map.items():
            for c, v in row.items():
                out[r][c] = v
        for r, a, b in zip(*self._edges):
            out[r][a] = 1
            out[r][b] = -1
        return out

    def __eq__(self, other):
        return isinstance(other, SparseIntMatrix) and (
            (self.rows, self.cols, self.triplets) == (other.rows, other.cols, other.triplets)
        )

    def __repr__(self):
        return "SparseIntMatrix(%dx%d, nnz=%d)" % (self.rows, self.cols, self.nnz)


def check_size_cap(f, q, size_cap):
    """Raise SizeCapExceeded when the linearization of f at q would have total
    dimension (m+n)*d above the cap (a resource guard, not a mathematical
    failure); None means no cap."""
    if not isinstance(f, RingMatrix):
        raise TypeError("expected a RingMatrix")
    if f.family != q.family:
        raise ValueError("ring matrix and quotient families differ")
    total = (f.rows + f.cols) * q.degree
    if size_cap is not None and total > size_cap:
        raise SizeCapExceeded(
            "linearized total dimension %d exceeds cap %d" % (total, size_cap)
        )


def linearize(f, q, size_cap=DEFAULT_SIZE_CAP):
    """Linearize an m x n ring matrix at a finite model into (m*d) x (n*d) ints.

    Both stores are built here, in the order the constructor would give
    them for the triplets in the order (j, k, term, w).  A row j of f whose
    terms, over all its entries, are exactly +g and -h, in either order,
    makes only edge rows: row v*m + j joins the column w*n + k of its first
    term x and the column w'*n + k' of its second term y, with
    sigma(x) w = v = sigma(y) w', so its pairs (w, w') come straight from
    the two permutations and one inverse.  When y is the identity, as in
    every g - 1 row, sigma(y) is the identity at every model, genuine or
    not, so w' = v = sigma(x) w and no inverse is taken.  A pair whose two
    ends coincide is the zero row the constructor drops; it needs k = k'
    and w' = w, so the pairs are filtered only when some w is such a point.
    Every other row j is summed into row dicts with the constructor's rules
    (zero sums and emptied rows dropped), and its edge rows are filed as
    soon as its block is complete, which keeps the constructor's order.
    Every index is in range by construction and every coefficient is a
    nonzero int (RingElement holds no others), so the stores go to
    SparseIntMatrix._adopt unchecked.

    Raises SizeCapExceeded when (m+n)*d exceeds the cap.
    """
    check_size_cap(f, q, size_cap)
    m, n, d = f.rows, f.cols, q.degree
    e = f.family.identity()
    perms = {}

    def perm(g):
        p = perms.get(g)
        if p is None:
            p = perms[g] = extend_to_word(q, g)
        return p

    row_map = {}
    edges = er, eh, et = [], [], []
    for j in range(m):
        terms = _row_terms(f, j)
        if _is_edge_row(terms):
            # edge rows, in the order the first term makes them: row
            # p1[w]*m + j meets the first term at column w*n + k1 and the
            # second at pair[w]*n + k2, where p2[pair[w]] = p1[w]
            (k1, g1, c1), (k2, g2, _) = terms
            p1 = perm(g1)
            if g2 == e:
                pair = p1  # p2 is the identity at every model
            else:
                inv2 = perm_inverse(perm(g2))
                pair = [inv2[v] for v in p1]
            rows = [v * m + j for v in p1]
            firsts = range(k1, n * d, n)
            seconds = pair if n == 1 else [w * n + k2 for w in pair]
            if k1 == k2 and any(map(eq, range(d), pair)):
                live = [a != b for a, b in zip(firsts, seconds)]
                rows, firsts, seconds = (list(compress(x, live))
                                         for x in (rows, firsts, seconds))
            er += rows
            eh += firsts if c1 == 1 else seconds
            et += seconds if c1 == 1 else firsts
            continue
        block = {}
        for k, g, coeff in terms:
            for v, c in zip(perm(g), range(k, n * d, n)):
                r = v * m + j
                row = block.get(r)
                if row is None:
                    block[r] = {c: coeff}
                    continue
                total = row.get(c, 0) + coeff
                if total:
                    row[c] = total
                else:
                    del row[c]
                    if not row:
                        del block[r]
        _file_edges(block, edges)
        row_map.update(block)
    return SparseIntMatrix._adopt(m * d, n * d, row_map, edges)


# -- MatrixMarket coordinate interchange (1-based, integer field) ----------

def write_matrix_market(M, path):
    with open(path, "w") as f:
        f.write("%%MatrixMarket matrix coordinate integer general\n")
        f.write("%d %d %d\n" % (M.rows, M.cols, M.nnz))
        for r, c, v in M.triplets:
            f.write("%d %d %d\n" % (r + 1, c + 1, v))
