"""soficrank: finite-scale rank invariants of group-ring chain complexes.

Exact arithmetic in integral group rings of concrete groups (Z^d, free
groups, explicit finite groups), linearization at finite permutation
models, a certified sparse integer rank engine, and the invariant
pipelines built on top: homology-rank densities, rank densities of
presented modules (absolute and relative), Euler characteristics,
additivity defects, and literal rank-density measurements.
"""

from .groups import (
    FiniteQuotient,
    FiniteTable,
    Free,
    FreeAbelian,
    GroupElement,
    QuotientSequence,
    extend_to_word,
    grid_quotient,
    grid_sequence,
    random_quotient,
    random_sequence,
    regular_quotient,
    regular_sequence,
    sanov_quotient,
    sanov_sequence,
    soficity_defect,
)
from .ring import ChainComplex, RingElement, RingMatrix, augmentation, build_complex
from .exprs import ParseError, parse_ring_element, parse_ring_matrix
from .linearize import SizeCapExceeded, SparseIntMatrix, write_matrix_market
from .rank import (
    RankPolicy,
    RankResult,
    rank_dense_bareiss,
    rank_mod_p,
    rank_over_rationals,
)
from .invariants import (
    ApproximantSeries,
    ModulePresentation,
    SeriesPoint,
    betti_approximants,
    euler_approximants,
    euler_characteristic,
    finite_group_exact_betti,
    juzvinskii_defect,
    literal_mean_rank_point,
    mrk_j_approximants,
    relative_vrk_approximants,
    series_to_csv,
    vrk_approximants,
)

__version__ = "0.1.0"
