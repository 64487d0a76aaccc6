"""
Spectral analysis of the permutahedron family FJ(n, 1).

Under the stacked insertion ordering, the n! x n! adjacency matrix of
FJ(n, 1) splits into (n-1)!-sized blocks that are all regular; recording
each block's regularity gives an n x n symmetric tridiagonal integer matrix
(corners n-2, interior diagonal n-3, ones beside the diagonal).  Expanding a
length-n vector into block indicators commutes with the two matrices --
checked exactly in integers by ``verify_intertwining`` -- so every
eigenvalue of the small matrix is an eigenvalue of the graph.  That turns an
n!-sized eigenproblem into an n-sized one for part of the spectrum,
including the largest eigenvalue n-1 (constant row sums on both sides).

The full spectrum of every FJ(n, k) comes without its n! x n! matrix.
FJ(n, k) is the Cayley graph of S_n on its connection set, so the
adjacency matrix is the right regular representation of the connection sum
X_k, and it splits into the blocks rho_lambda(X_k) of the irreducible
representations, one per partition lambda of n, each repeated f^lambda
times.  ``adjacency_spectrum`` evaluates them in Young's orthogonal form
by the kernel ``graphs._connection_sums``, once per n for every k.

Every eigenvalue comes from LAPACK (``np.linalg.eigvalsh``): of a dense
matrix in ``eig_symmetric``, of each irrep block in ``adjacency_spectrum``.
The tests check the first against a cyclic Jacobi solver of their own and
against the closed forms, and the second against the first on the
adjacency matrix of every FJ(n, k) up to n = 6.  The tolerances are the
fixed constants of ``config``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial, sqrt
from typing import Sequence

import numpy as np

from .config import (
    EIG_TOL,
    EIGEN_CAP,
    MATCH_TOL,
    MERGE_TOL,
    TheoremViolation,
    _check_eigen_order,
    _check_graph_cap,
    _check_matrix_cap,
)
from .blocks import _read_only, _stacked_slot
from .graphs import _check_domain, _connection_sums, _vertex_rows
from .perms import Perm


@dataclass(frozen=True)
class Spectrum:
    """Distinct eigenvalues in descending order, with multiplicities."""

    values: tuple[float, ...]
    multiplicities: tuple[int, ...]

    @property
    def order(self) -> int:
        """Order of the matrix the spectrum came from."""
        return sum(self.multiplicities)

    @classmethod
    def from_eigenvalues(cls, raw) -> "Spectrum":
        """Sort descending and collapse values within ``config.MERGE_TOL``."""
        vals = sorted((float(x) for x in raw), reverse=True)
        out_v: list[float] = []
        out_m: list[int] = []
        for x in vals:
            if out_v and out_v[-1] - x <= MERGE_TOL:
                out_m[-1] += 1
            else:
                out_v.append(x)
                out_m.append(1)
        return cls(tuple(out_v), tuple(out_m))


def _check_block_count(n: int) -> None:
    if n < 2:
        raise ValueError("need n >= 2")


def regularity_matrix(n: int) -> np.ndarray:
    """
    The n x n symmetric tridiagonal matrix of block regularities of
    FJ(n, 1) under the stacked ordering: corners n-2, interior diagonal
    n-3, ones on the sub/super diagonal.  Every row sums to n-1, so n-1 is
    always an eigenvalue (all-ones eigenvector).  n above
    ``config.EIGEN_CAP`` raises CapExceeded.

    >>> regularity_matrix(4).tolist()
    [[2, 1, 0, 0], [1, 1, 1, 0], [0, 1, 1, 1], [0, 0, 1, 2]]
    """
    _check_block_count(n)
    _check_eigen_order(n)
    M = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        M[i, i] = n - 2 if i in (0, n - 1) else n - 3
        if i + 1 < n:
            M[i, i + 1] = M[i + 1, i] = 1
    return M


def regularity_matrix_from_blocks(n: int, ordering: Sequence[Perm] | None = None) -> np.ndarray:
    """
    The same matrix read off empirically: the regularity of every block of
    the adjacency matrix of FJ(n, 1) under the ordering stacked from an
    ordering of the permutations of [n-1] (lexicographic by default).  It
    compares the uint16 row and column sums of all the (n-1)! x (n-1)!
    blocks at once, as the slot of the counts holds them, so a later check
    of the same base ordering reads the same arrays; a block whose every
    count exceeds 1 has no edge, so its sums and its regularity are 0.  A
    block with unequal row or column sums would break the whole
    construction, so the first such block in row-major order raises
    TheoremViolation.
    """
    _check_block_count(n)
    rows, cols = _stacked_slot(n - 1, ordering)[1].sums
    first = rows[..., :1]
    irregular = ~((rows == first).all(axis=2) & (cols == first).all(axis=2))
    if irregular.any():
        i, j = np.argwhere(irregular)[0] + 1
        raise TheoremViolation(f"block ({i},{j}) of the FJ({n},1) decomposition is not regular")
    return rows[..., 0].astype(np.int64)


def eig_symmetric(matrix, cap: int = EIGEN_CAP) -> Spectrum:
    """
    Eigenvalues of a dense symmetric matrix, by LAPACK through
    ``np.linalg.eigvalsh``.

    An entry may differ from its mirror by at most ``config.EIG_TOL`` times
    the largest absolute entry (or 1, if larger); the matrix is then
    symmetrized before the solve.  A complex matrix raises ValueError, an
    order above ``cap`` CapExceeded.  The tests check this route against a
    cyclic Jacobi solver of their own, against the closed forms and against
    the trace and Frobenius-norm identities.

    >>> eig_symmetric([[0, 1], [1, 0]]).values
    (1.0, -1.0)
    """
    A = np.asarray(matrix)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("a square matrix is required")
    if A.dtype.kind == "c":  # the float64 copy would drop the imaginary parts
        raise ValueError(f"a real matrix is required, got {A.dtype}")
    _check_eigen_order(A.shape[0], cap)  # before the float64 copy
    A = A.astype(np.float64)
    if not np.isfinite(A).all():
        raise ValueError("matrix has non-finite entries")
    if float(np.abs(A - A.T).max(initial=0.0)) > EIG_TOL * float(np.abs(A).max(initial=1.0)):
        raise ValueError("matrix is not symmetric")
    return Spectrum.from_eigenvalues(np.linalg.eigvalsh((A + A.T) / 2.0))


def eig_tridiagonal(matrix) -> Spectrum:
    """
    Eigenvalues of a symmetric tridiagonal matrix, such as the regularity
    matrix: ``eig_symmetric``, which checks the shape and the cap, once the
    matrix is checked to be zero beyond the first off-diagonals.

    >>> [round(x, 12) for x in eig_tridiagonal(regularity_matrix(3)).values]
    [2.0, 1.0, -1.0]
    """
    T = np.asarray(matrix)
    if T.ndim == 2 and np.triu(T, 2).any():
        raise ValueError("matrix is not tridiagonal")
    return eig_symmetric(T)


def _partitions(n: int, top: int | None = None):
    # the partitions of n into parts of at most ``top``, in decreasing lexicographic order
    if n == 0:
        yield ()
    for part in range(min(n, top or n), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part, *rest)


def _tableaux(shape: tuple[int, ...]) -> list[tuple[int, ...]]:
    # the standard Young tableaux of ``shape``, each as the row of each entry 1..n in turn: n sits in a corner
    if not any(shape):
        return [()]
    corners = [r for r, length in enumerate(shape) if length and (r + 1 == len(shape) or shape[r + 1] < length)]
    return [word + (r,) for r in corners for word in _tableaux(shape[:r] + (shape[r] - 1,) + shape[r + 1 :])]


@lru_cache(maxsize=None)
def _young_forms(n: int) -> tuple[np.ndarray, ...]:
    """
    Young's orthogonal form of S_n: for each partition lambda of n, in
    decreasing lexicographic order, the read-only (n-1, f, f) float64 array
    of rho_lambda(s_1), ..., rho_lambda(s_{n-1}) on the f standard tableaux
    of shape lambda.  s_i acts as +1 on a tableau where i and i+1 share a
    row, and as -1 where they share a column.  Otherwise, with r the content
    (column minus row) of i+1 minus that of i, its diagonal entry is 1/r and
    its entry to the tableau with i and i+1 swapped is sqrt(1 - 1/r^2); the
    row and column cases are r = 1 and r = -1.
    """
    forms = []
    for shape in _partitions(n):
        words = _tableaux(shape)
        index = {word: t for t, word in enumerate(words)}
        s = np.zeros((n - 1, len(words), len(words)))
        for t, word in enumerate(words):
            content = [word[:e].count(row) - row for e, row in enumerate(word)]
            for i in range(n - 1):
                r = content[i + 1] - content[i]
                s[i, t, t] = 1 / r
                if abs(r) > 1:
                    s[i, t, index[word[:i] + (word[i + 1], word[i]) + word[i + 2 :]]] = sqrt(1 - 1 / r**2)
        forms.append(_read_only(s))
    return tuple(forms)


@lru_cache(maxsize=None)
def _irrep_sums(n: int) -> tuple[np.ndarray, ...]:
    # rho_lambda(X_k) for k = 0..n-1, one read-only (n, f, f) array per partition
    # in the order of ``_young_forms``, from one kernel pass over the forms
    # zero-padded to the largest f: sums and products keep each padded block
    # apart from its form, so the form's block is exact
    forms = _young_forms(n)
    size = max(s.shape[-1] for s in forms)
    padded = np.zeros((n - 1, len(forms), size, size))
    for j, s in enumerate(forms):
        padded[:, j, : s.shape[-1], : s.shape[-1]] = s
    sums = _connection_sums(padded, n)
    return tuple(_read_only(sums[:, j, : s.shape[-1], : s.shape[-1]].copy()) for j, s in enumerate(forms))


def adjacency_spectrum(
    n: int,
    k: int = 1,
    ordering: Sequence[Perm] | None = None,
    eigen_cap: int = EIGEN_CAP,
) -> Spectrum:
    """
    Full spectrum of FJ(n, k), of order n!, without its n! x n! matrix.
    FJ(n, k) is the Cayley graph of S_n on its connection set, so its
    adjacency matrix is the right regular representation of the connection
    sum X_k, and its spectrum is the union over the partitions lambda of n
    of the eigenvalues of rho_lambda(X_k) in Young's orthogonal form, each
    taken f^lambda times.  The blocks rho_lambda(X_k) of every k come from
    one pass of ``graphs._connection_sums`` per n, kept for the process, and
    each is solved by LAPACK ``eigvalsh``.  FJ(n, 0) has no edges, so all
    its n! eigenvalues are 0.  The ordering only permutes the matrix: it is
    validated and not read further.  The refusals come in a fixed order, all
    before any work: n past 1000 by the matrix cap, the order n! above
    ``eigen_cap`` (CapExceeded), the domain of (n, k), n above
    ``config.MATRIX_CAP`` (the reach of the dense matrices, kept) and a bad
    ordering.
    """
    if n > 1000:  # past 1000!, which has 2568 digits, n! is slow to compute and to print: the matrix cap refuses such an n
        _check_matrix_cap(n)
    if n >= 1:
        _check_eigen_order(factorial(n), eigen_cap)
    _check_domain(n, k)
    _check_matrix_cap(n)
    _vertex_rows(n, ordering)
    if k == 0:
        return Spectrum((0.0,), (factorial(n),))
    return Spectrum.from_eigenvalues(np.concatenate([np.repeat(np.linalg.eigvalsh(sums[k]), len(sums[k])) for sums in _irrep_sums(n)]))


def lift_vector(vec, n: int) -> np.ndarray:
    """
    Expand a length-n vector to length n! by giving every one of the
    (n-1)! coordinates of block i the value vec[i]: the linear map that
    sends basis vector i to the indicator of ordering block i.  The dtype
    of the input is preserved, so integer vectors lift exactly.  n below 1
    raises ValueError, n above ``config.GRAPH_CAP`` CapExceeded before
    anything is allocated.

    >>> lift_vector([1, 0, 0], 3).tolist()
    [1, 1, 0, 0, 0, 0]
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    v = np.asarray(vec)
    if v.ndim != 1 or v.shape[0] != n:
        raise ValueError(f"expected a vector of length {n}")
    _check_graph_cap(n)
    return np.repeat(v, factorial(n - 1))


def verify_intertwining(n: int, ordering: Sequence[Perm] | None = None) -> bool:
    """
    Exact integer check that block-indicator lifting commutes with the two
    matrices: A @ lift(e_i) == lift(M @ e_i) for every basis vector e_i,
    where A is the FJ(n, 1) adjacency matrix under the stacked ordering and
    M is the regularity matrix.  Column j of the left side is the row sums
    of A over the columns of block j, so every row sum of every block (i, j),
    as the slot of the counts holds them, must equal M[i, j]: one compare of
    the whole (n, n, (n-1)!) array with M.  A block whose every count
    exceeds 1 has all row sums 0.  No tolerances are involved.  When this
    holds, every eigenpair of M lifts to an eigenpair of A.
    """
    _check_block_count(n)
    rows = _stacked_slot(n - 1, ordering)[1].sums[0]
    return bool((rows == regularity_matrix(n)[..., None]).all())


@dataclass(frozen=True)
class SubsetMatch:
    """Outcome of matching one spectrum inside another."""

    ok: bool
    matching: tuple[int, ...]  # index into the big spectrum per small value
    unmatched: float | None = None  # first small value without a partner


def spectrum_subset_check(small: Spectrum, big: Spectrum) -> SubsetMatch:
    """
    Does every distinct value of ``small`` occur in ``big`` within
    ``config.MATCH_TOL`` (multiplicities ignored)?  Returns the per-value
    matching on success, or the first unmatched value.
    """
    matching: list[int] = []
    for x in small.values:
        hit = None
        for j, y in enumerate(big.values):
            if abs(x - y) <= MATCH_TOL:
                hit = j
                break
        if hit is None:
            return SubsetMatch(False, tuple(matching), float(x))
        matching.append(hit)
    return SubsetMatch(True, tuple(matching), None)


def conjecture_second_largest(n: int, graph_spectrum: Spectrum | None = None) -> bool:
    """
    Evidence check, never asserted as a theorem: is the second-largest
    distinct eigenvalue of FJ(n, 1) among the eigenvalues of the regularity
    matrix, within ``config.MATCH_TOL``?  (The largest always is: both
    equal the degree n-1.)  Passing a precomputed ``graph_spectrum`` skips
    the expensive full eigensolve.
    """
    if graph_spectrum is None:
        graph_spectrum = adjacency_spectrum(n, 1)
    m_spectrum = eig_tridiagonal(regularity_matrix(n))
    if len(graph_spectrum.values) < 2:
        return True
    second = graph_spectrum.values[1]
    return any(abs(second - y) <= MATCH_TOL for y in m_spectrum.values)
