"""
Full-Flag Johnson graphs FJ(n, k) on the symmetric group.

Vertices are the n! permutations of [n], read as full flags of nested
subsets; two are adjacent when their flags differ in exactly k positions.
The package builds these graphs, measures distances and diameters, takes
apart adjacency matrices into their recursive block structure, and analyzes
permutahedron spectra through the regularity matrix.
"""

from .config import (
    EIG_TOL,
    EIGEN_CAP,
    GRAPH_CAP,
    MATCH_TOL,
    MATRIX_CAP,
    MERGE_TOL,
    CapExceeded,
    TheoremViolation,
)
from .perms import (
    Perm,
    block_boundaries,
    check_permutation,
    compose,
    disorder,
    enumerate_permutations,
    identity,
    insertion,
    inverse,
    is_irreducible,
    is_permutation,
    kendall_distance,
    parse_permutation,
    perm_to_string,
    prefix_mismatch_count,
    prefix_set,
    rank,
    relative_pattern,
    reversal,
    unrank,
)
from .graphs import (
    EdgeList,
    FlagGraphSpec,
    adjacent,
    build_edges,
    check_ordering,
    degree,
    edges_to_csv,
    edges_to_dot,
    edges_to_json,
    generators,
    insertion_embedding_check,
    irreducible_count,
    irreducible_patterns,
    neighbors,
    pairwise_edges,
    prefix_mismatch_matrix,
)
from .metrics import (
    UNREACHED,
    DistanceProfile,
    bfs,
    diameter,
    diameter_lower_bound,
    edge_transposition_bound_check,
    is_connected,
)
from .blocks import (
    BlockAssertion,
    BlockReport,
    adjacency_matrix,
    block,
    block_regularity,
    concatenated_ordering,
    excluded_transposition_matrix,
    matrix_to_text,
    verify_permutahedron_blocks,
    verify_recursive_blocks,
)
from .spectra import (
    Spectrum,
    SubsetMatch,
    adjacency_spectrum,
    conjecture_second_largest,
    eig_symmetric,
    eig_tridiagonal,
    lift_vector,
    regularity_matrix,
    regularity_matrix_from_blocks,
    spectrum_subset_check,
    verify_intertwining,
)

__version__ = "0.1.0"
