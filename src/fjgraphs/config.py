"""Size guards and numeric tolerances shared across the package.

The guards are fixed, and each is checked once, where its cost is paid:
GRAPH_CAP when the n! vertex orderings are enumerated, EDGE_CAP before an
edge list or an edge stream is built or a BFS composes at most
2 * n! * degree products (a stream and a BFS go in fixed chunks, so there
it bounds the time, not the memory), MATRIX_CAP before anything allocates
or loops over all n! x n! vertex pairs, and EIGEN_CAP before a regularity
matrix, an adjacency matrix for a spectrum or an eigensolver's float64
copy.  They keep every computation interactive on one machine.  Only the eigensolver order can be set per call (``eigen_cap``,
``fjgraph --eigen-cap``).  The tolerances are fixed too: the package builds
every matrix it solves from integers, so no tolerance is a setting.
"""

GRAPH_CAP = 8       # largest n whose vertex orderings are enumerated (8! = 40320); the uint32 pair bits of the swap bound, C(n,2) of them, need n <= 8 (the uint16 seen sets of the ranks hold n <= 12)
MATRIX_CAP = 7      # largest n for dense n! x n! matrices and all-pairs loops (7! = 5040)
EIGEN_CAP = 720     # largest order of a dense eigensolve or a regularity matrix
EDGE_CAP = 2**24    # most edges, n! * degree / 2, of an edge list, an edge stream or a BFS: admits FJ(7,6) and FJ(8,4), not FJ(8,5)

EIG_TOL = 1e-12     # symmetry tolerance of the eigensolver, relative to the largest entry
MATCH_TOL = 1e-8    # absolute tolerance when matching values across spectra
MERGE_TOL = 1e-7    # computed eigenvalues closer than this collapse into one

PERM_STR_DIGITS = 9  # permutations up to this size serialize as digit strings


class CapExceeded(ValueError):
    """An input is larger than the configured size guard allows."""


class TheoremViolation(RuntimeError):
    """A structural property that must always hold failed its check.

    Raised instead of silently returning a value so that a contradiction
    (a disconnected non-trivial graph, a non-regular block, ...) is never
    swallowed by downstream code.
    """
