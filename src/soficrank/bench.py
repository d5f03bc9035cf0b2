"""Deterministic sparse test matrices for the mod-p rank engine.

benchmark_matrix builds the block-diagonal matrix that acceptance
criterion 6 ranks at total dimension 1e5.  The end-to-end benchmark of the
pipelines lives in ``perfbench/``.
"""

from __future__ import annotations

import random

from .linearize import SparseIntMatrix

__all__ = ["benchmark_matrix"]


def benchmark_matrix(total_dim=100_000, block=40, nnz_per_row=10, seed=0):
    """Block-diagonal sparse square matrix with rows+cols == total_dim.

    Each block is a dense-ish random integer block; rows carry at most
    ``nnz_per_row`` nonzeros (well under the 50/row contract).
    """
    n = total_dim // 2
    rng = random.Random(seed)
    trips = []
    start = 0
    while start < n:
        size = min(block, n - start)
        for i in range(size):
            cols = rng.sample(range(size), min(nnz_per_row, size))
            for c in cols:
                v = rng.randint(-9, 9)
                if v:
                    trips.append((start + i, start + c, v))
        start += size
    return SparseIntMatrix(n, n, trips)
