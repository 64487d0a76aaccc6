"""Size guards and numeric tolerances shared across the package.

The guards are fixed, and each is checked once, where its cost is paid, by
one function: GRAPH_CAP by ``_check_graph_cap`` when the n! vertex
orderings are enumerated; EDGE_CAP by ``graphs._check_edge_budget``, which
needs the degree, before an edge list or an edge stream is built or a BFS
composes about n! * degree products, at most twice that (a stream and a
BFS go in fixed chunks, so there it bounds the time, not the memory);
MATRIX_CAP by ``_check_matrix_cap`` before anything allocates or loops
over all n! x n! vertex pairs; EIGEN_CAP by ``_check_eigen_order`` before a
regularity matrix, any work on a full spectrum or an eigensolver's float64
copy.  Only that order can be set per call (``eigen_cap``, ``fjgraph
--eigen-cap``), and ``_check_eigen_cap`` refuses a cap below 1.  The
tolerances are fixed too: every matrix the package solves is built from
integers or from the fixed entries of Young's orthogonal form, so no
tolerance is a setting.
"""

from math import factorial

GRAPH_CAP = 8       # largest n whose vertex orderings are enumerated (8! = 40320); the uint32 pair bits of the swap bound, C(n,2) of them, need n <= 8 (the uint16 seen sets of the ranks hold n <= 12)
MATRIX_CAP = 7      # largest n for dense n! x n! matrices and all-pairs loops (7! = 5040)
EIGEN_CAP = 720     # largest order of a full spectrum, a dense eigensolve or a regularity matrix
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


def _check_graph_cap(n: int) -> None:
    # a cost bound: the ranks (uint16 seen sets, float32 rank forms) are exact to n = 10, the export labels one digit to n = 9
    if n > GRAPH_CAP:
        count = factorial(n) if n <= 1000 else "more than 10^2567"  # a longer n! is slow to compute and to print
        raise CapExceeded(f"n={n} exceeds the graph cap {GRAPH_CAP} ({count} permutations)")


def _check_matrix_cap(n: int) -> None:
    if n > MATRIX_CAP:
        raise CapExceeded(f"n={n} exceeds the matrix cap {MATRIX_CAP}")


def _check_eigen_order(order: int, cap: int = EIGEN_CAP) -> None:
    if order > cap:
        raise CapExceeded(f"order {order} exceeds the eigensolver cap {cap}")


def _check_eigen_cap(cap: int) -> None:
    # an eigensolver cap below 1 admits no spectrum at all, so it is refused rather than read as "skip"
    if cap < 1:
        raise ValueError(f"the eigensolver cap must be at least 1, got {cap}")
