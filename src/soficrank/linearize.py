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

from operator import index

from .groups import extend_to_word
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


class SizeCapExceeded(RuntimeError):
    """Raised when a linearization would exceed the configured size cap."""


class SparseIntMatrix:
    """Sparse matrix of arbitrary-precision integers, one dict per row.

    Triplets (row, col, value) are summed into ``{row: {col: value}}``, in
    the order they first appear; zero values and cancelled rows are dropped.
    Dimensions, indices and values go through operator.index, so a value
    that is not an integer raises TypeError rather than being truncated.
    ``triplets`` is the view sorted by (row, col).

    ``_adopt`` is the private path for code in this package that builds the
    row map itself: it takes the map as given, unchecked, so the map must
    hold only non-empty rows of nonzero ints, with every index an int in
    range.  Nothing may change the map afterwards.
    """

    __slots__ = ("rows", "cols", "_row_map")

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
        self.rows = rows
        self.cols = cols
        self._row_map = row_map

    @classmethod
    def _adopt(cls, rows, cols, row_map):
        """A matrix whose row map is ``row_map`` itself (see the class doc)."""
        M = cls.__new__(cls)
        M.rows, M.cols, M._row_map = rows, cols, row_map
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
        return tuple((r, c, v) for r, row in sorted(self._row_map.items())
                     for c, v in sorted(row.items()))

    @property
    def nnz(self):
        return sum(map(len, self._row_map.values()))

    @property
    def total_dimension(self):
        return self.rows + self.cols

    def is_zero(self):
        return not self._row_map

    def to_dense(self):
        out = [[0] * self.cols for _ in range(self.rows)]
        for r, row in self._row_map.items():
            for c, v in row.items():
                out[r][c] = v
        return out

    def __eq__(self, other):
        return (
            isinstance(other, SparseIntMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._row_map == other._row_map
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

    The row map is built here, with the constructor's rules: entries are
    summed in the order (j, k, term, w) in which they are met, and zero sums
    and emptied rows are dropped.  Every index is in range by construction
    and every coefficient is a nonzero int (RingElement holds no others), so
    the map goes to SparseIntMatrix._adopt unchecked.

    Raises SizeCapExceeded when (m+n)*d exceeds the cap.
    """
    check_size_cap(f, q, size_cap)
    m, n, d = f.rows, f.cols, q.degree
    perms = {}
    row_map = {}
    for j in range(m):
        for k in range(n):
            cols = range(k, n * d, n)
            for g, coeff in f.entries[j][k].terms.items():
                p = perms.get(g)
                if p is None:
                    p = extend_to_word(q, g)
                    perms[g] = p
                for v, c in zip(p, cols):
                    r = v * m + j
                    row = row_map.get(r)
                    if row is None:
                        row_map[r] = {c: coeff}
                        continue
                    total = row.get(c, 0) + coeff
                    if total:
                        row[c] = total
                    else:
                        del row[c]
                        if not row:
                            del row_map[r]
    return SparseIntMatrix._adopt(m * d, n * d, row_map)


# -- MatrixMarket coordinate interchange (1-based, integer field) ----------

def write_matrix_market(M, f):
    close = False
    if isinstance(f, str):
        f = open(f, "w")
        close = True
    try:
        f.write("%%MatrixMarket matrix coordinate integer general\n")
        f.write("%d %d %d\n" % (M.rows, M.cols, M.nnz))
        for r, c, v in M.triplets:
            f.write("%d %d %d\n" % (r + 1, c + 1, v))
    finally:
        if close:
            f.close()
