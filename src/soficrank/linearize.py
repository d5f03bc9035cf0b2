"""Linearization: a matrix over ZG plus a finite permutation model becomes a
large sparse integer matrix, the finite-stage shadow of the differential.

Block layout for an m x n ring matrix at a degree-d model: rows are indexed
by (v, j) as v*m + j and columns by (w, k) as w*n + k (v-major, block-minor,
so permutation blocks stay contiguous).  The block for source j and target k
is sum_s f_jk(s) P(s), where P(s) maps basis vector delta_w to
delta_{sigma(s) w}.  With this orientation linearize(A*B) equals
linearize(A) * linearize(B) for genuine models.
"""

from __future__ import annotations

from .groups import extend_to_word
from .ring import RingMatrix

__all__ = [
    "SparseIntMatrix",
    "SizeCapExceeded",
    "check_size_cap",
    "linearize",
    "quotient_complex",
    "write_matrix_market",
    "read_matrix_market",
    "DEFAULT_SIZE_CAP",
]

DEFAULT_SIZE_CAP = 200_000


class SizeCapExceeded(RuntimeError):
    """Raised when a linearization would exceed the configured size cap."""


class SparseIntMatrix:
    """Sparse matrix of arbitrary-precision integers.

    Triplets (row, col, value) are deduplicated (duplicates are summed),
    zero values dropped, and stored sorted by (row, col).
    """

    __slots__ = ("rows", "cols", "triplets")

    def __init__(self, rows, cols, triplets=()):
        rows = int(rows)
        cols = int(cols)
        if rows < 0 or cols < 0:
            raise ValueError("negative dimensions")
        acc = {}
        for r, c, v in triplets:
            if not 0 <= r < rows or not 0 <= c < cols:
                raise ValueError("triplet index out of range: (%d,%d)" % (r, c))
            v = int(v)
            if not v:
                continue
            key = (r, c)
            n = acc.get(key, 0) + v
            if n:
                acc[key] = n
            else:
                del acc[key]
        self.rows = rows
        self.cols = cols
        self.triplets = tuple(
            (r, c, acc[(r, c)]) for r, c in sorted(acc)
        )

    # -- constructors ---------------------------------------------------
    @classmethod
    def identity(cls, n):
        return cls(n, n, [(i, i, 1) for i in range(n)])

    @classmethod
    def zero(cls, rows, cols):
        return cls(rows, cols)

    @classmethod
    def from_dense(cls, rows_of_ints):
        data = [list(r) for r in rows_of_ints]
        m = len(data)
        n = len(data[0]) if m else 0
        trips = [
            (i, j, v)
            for i, row in enumerate(data)
            for j, v in enumerate(row)
            if v
        ]
        return cls(m, n, trips)

    # -- basic queries ----------------------------------------------------
    @property
    def nnz(self):
        return len(self.triplets)

    @property
    def total_dimension(self):
        return self.rows + self.cols

    def is_zero(self):
        return not self.triplets

    def to_dense(self):
        out = [[0] * self.cols for _ in range(self.rows)]
        for r, c, v in self.triplets:
            out[r][c] = v
        return out

    def row_maps(self):
        rows = [dict() for _ in range(self.rows)]
        for r, c, v in self.triplets:
            rows[r][c] = v
        return rows

    def __eq__(self, other):
        return (
            isinstance(other, SparseIntMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.triplets == other.triplets
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.triplets))

    def __mul__(self, other):
        if not isinstance(other, SparseIntMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("shape mismatch in sparse product")
        brows = other.row_maps()
        acc = {}
        for r, k, v in self.triplets:
            for c, w in brows[k].items():
                key = (r, c)
                n = acc.get(key, 0) + v * w
                if n:
                    acc[key] = n
                else:
                    del acc[key]
        return SparseIntMatrix(
            self.rows, other.cols, [(r, c, v) for (r, c), v in acc.items()]
        )

    @staticmethod
    def block_diag(a, b):
        trips = list(a.triplets)
        trips.extend((r + a.rows, c + a.cols, v) for r, c, v in b.triplets)
        return SparseIntMatrix(a.rows + b.rows, a.cols + b.cols, trips)

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

    Raises SizeCapExceeded when (m+n)*d exceeds the cap.
    """
    check_size_cap(f, q, size_cap)
    m, n, d = f.rows, f.cols, q.degree
    perms = {}
    trips = []
    for j in range(m):
        for k in range(n):
            for g, coeff in f.entries[j][k].terms.items():
                p = perms.get(g)
                if p is None:
                    p = extend_to_word(q, g)
                    perms[g] = p
                for w in range(d):
                    trips.append((p[w] * m + j, w * n + k, coeff))
    return SparseIntMatrix(m * d, n * d, trips)


def quotient_complex(C, q, size_cap=DEFAULT_SIZE_CAP):
    """Linearize every differential of a valid complex at a genuine model.

    Returns the matrices in the same top-down order as C.differentials and
    verifies that adjacent products are exactly zero.
    """
    if not q.genuine:
        raise ValueError(
            "quotient_complex requires a genuine model; "
            "use model_diagnostics for heuristic models"
        )
    mats = [linearize(d, q, size_cap) for d in C.differentials]
    for upper, lower in zip(mats, mats[1:]):
        if not (upper * lower).is_zero():
            raise RuntimeError("nonzero composite after linearization")
    return mats


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


def read_matrix_market(f):
    close = False
    if isinstance(f, str):
        f = open(f)
        close = True
    try:
        header = f.readline()
        if "coordinate" not in header or "integer" not in header:
            raise ValueError("unsupported MatrixMarket header: %r" % header)
        line = f.readline()
        while line.startswith("%"):
            line = f.readline()
        rows, cols, nnz = (int(x) for x in line.split())
        trips = []
        for _ in range(nnz):
            r, c, v = f.readline().split()
            trips.append((int(r) - 1, int(c) - 1, int(v)))
        return SparseIntMatrix(rows, cols, trips)
    finally:
        if close:
            f.close()
