"""
Adjacency matrices under explicit vertex orderings, and their block anatomy.

Starting from an ordering S of the permutations of [n], stacking the n+1
insertion images of S (value n+1 placed at position 1 for all of S, then at
position 2, ..., then at position n+1) yields an ordering of the
permutations of [n+1].  Under that stacked ordering the
(n+1)! x (n+1)! adjacency matrix of FJ(n+1, k) splits into (n+1)^2
submatrices of size n! x n! with rigid contents:

  * blocks farther than k from the diagonal are zero;
  * the two corner diagonal blocks equal the adjacency matrix of FJ(n, k)
    under S;
  * the blocks flanking the diagonal equal the adjacency matrix of
    FJ(n, k-1) under S (the identity matrix when k = 1);
  * for k = 1 each interior diagonal block is the Cayley graph on the base
    vertices generated by all adjacent transpositions except one.

``verify_recursive_blocks`` and ``verify_permutahedron_blocks`` check these
identities bit for bit and report every assertion with 1-based coordinates,
so a discrepancy pinpoints itself.

Every stacked check, here and in ``spectra``, takes its counts from one
function, ``_stacked_slot(n, S)``.  It refuses n+1 above
``config.MATRIX_CAP``, validates S into a uint8 vertex array (once for
every check of the same list of int tuples, through the one-entry memo of
``graphs._vertex_rows``) and looks up one slot, built once per process for
the latest (n, S): the read-only n! x n! prefix-mismatch counts of S (the
corner and flank counts, ``== k`` and ``== k-1``, so the k = 1 flank is
``counts == 0``, the identity) and the read-only counts C of the (n+1)!
stacked rows, held block-major with shape (n+1, n+1, n!, n!) (at most
25.4 MB, at ``config.MATRIX_CAP`` 7):
``C[i-1, j-1]`` is block (i, j), one C-contiguous n! x n! array.  Another
base ordering replaces both.  The block checks read a block through
``_StackedBlocks(n, S, k)``, as ``C[i-1, j-1] == k`` into a buffer of the
reader, one block at a time, so no check holds a second (n+1)!-sized plane;
indexing a block is a numpy view, never a copy, and every reduction over it
runs on contiguous memory.

The slot also holds three read-only arrays over all (n+1)^2 blocks, each
computed from the counts the first time a check asks for it: the minimum of
every block, whether each corner and flank block equals its identity plane
(below), and the uint16 row and column sums of every block under ``== 1``,
0 for a block whose every count exceeds 1, which has no edge.  So the
recursive checks of every k, the permutahedron check, the regularity matrix
and the intertwining check reduce each block of a base at most once between
them, and the last two compare whole arrays.  The arrays hold about 141 KB
at base 6 (the sums; the minima and verdicts are 49 numbers each) and go
with the slot: a slot of another base ordering, or of substituted counts,
starts with none.

The blocks obey an identity on the raw counts.  Put n+1 into base rows u'
and v' at positions i <= j: their stacked count is j-i plus the number of
prefix lengths in [1, i-1] and [j-1, n-1] at which u' and v' mismatch.  So a
corner block of C equals the base counts, a flank block equals the base
counts + 1, and every count of a block with |i-j| >= 2 is at least |i-j|.
The zero, corner and flank checks screen each block against that identity
first (a zero block by ``min > k``, a corner or flank by equality with its
identity plane, the base counts + |i-j|), which settles ``== k`` for the
whole block; only a block that misses the screen is read under ``== k`` and
compared cell by cell, the one route that names a witness.  The interior
blocks of the permutahedron are screened the same way, on every call and
never by a kept verdict: the products of every base vertex with the n-1
adjacent transpositions are ranked in one pass, and an interior block whose
cells at the products of its kept generators are all 1 and whose row sums
in the slot are all n-2 is that Cayley graph.  Only a block that misses
this screen is compared with a matrix rebuilt from its generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import factorial
from typing import Sequence

import numpy as np

from .config import MATRIX_CAP, CapExceeded, _check_matrix_cap
from .graphs import (
    CHUNK_CELLS,
    FlagGraphSpec,
    _check_domain,
    _insertion_images,
    _mismatch_band,
    _prefix_masks,
    _prefix_mismatch_counts,
    _product_ranks,
    _rank_form,
    _row_slices,
    _vertex_rows,
    check_ordering,
)
from .perms import Perm


def concatenated_ordering(ordering: Sequence[Perm]) -> tuple[Perm, ...]:
    """
    Stack the insertion images of an ordering of the permutations of [n]:
    block b of the result (1-based, b = 1..n+1) is the input ordering with
    n+1 inserted at position b, blocks concatenated in order.

    >>> concatenated_ordering(((1,),))
    ((2, 1), (1, 2))
    """
    V = check_ordering(ordering)
    return tuple(map(tuple, (_insertion_images(V, range(1, V.shape[1] + 2)) + 1).tolist()))


def adjacency_matrix(n: int, k: int, ordering: Sequence[Perm] | None = None) -> np.ndarray:
    """
    Dense 0/1 adjacency matrix of FJ(n, k), rows and columns following
    ``ordering`` (lexicographic if None or empty).  Symmetric, zero diagonal,
    uint8 entries; every row sums to degree(n, k).  n above
    ``config.MATRIX_CAP`` raises CapExceeded.
    """
    _check_domain(n, k)
    _check_matrix_cap(n)
    A = _prefix_mismatch_counts(_vertex_rows(n, ordering))
    np.equal(A, k, out=A, casting="unsafe")
    np.fill_diagonal(A, 0)
    return A


def block(A: np.ndarray, i: int, j: int, size: int) -> np.ndarray:
    """
    The (i, j)-th ``size`` x ``size`` submatrix of A, 1-based block indices,
    returned as a view.
    """
    m = A.shape[0]
    if size < 1 or m % size:
        raise ValueError(f"block size {size} is not a positive divisor of the matrix order {m}")
    count = m // size
    if not (1 <= i <= count and 1 <= j <= count):
        raise ValueError(f"block index ({i},{j}) out of range 1..{count}")
    return A[(i - 1) * size : i * size, (j - 1) * size : j * size]


def block_regularity(B: np.ndarray) -> int | None:
    """
    The common row sum of B if all row sums and all column sums agree on a
    single value, else None.  B must be a non-empty 2-D matrix, else
    ValueError.
    """
    M = np.asarray(B)
    if M.ndim != 2 or not M.size:
        raise ValueError(f"need a non-empty 2-D matrix, got shape {M.shape}")
    return _common_sum(M.sum(axis=1, dtype=np.int64), M.sum(axis=0, dtype=np.int64))


def _common_sum(rows: np.ndarray, cols: np.ndarray) -> int | None:
    # the regularity of a matrix from its row and column sums: their one value, else None
    r = rows[0]
    return int(r) if (rows == r).all() and (cols == r).all() else None


def excluded_transposition_matrix(n: int, skip: int, ordering: Sequence[Perm] | None = None) -> np.ndarray:
    """
    Adjacency matrix, with respect to the ordering, of the Cayley graph on
    the permutations of [n] generated by every adjacent-place transposition
    except the one swapping positions (skip, skip+1).  Built directly from
    the generator action, by ranking the products u o t of every vertex u
    with the n-2 kept transpositions t; deliberately independent of any
    larger matrix it may be compared with.  n above ``config.MATRIX_CAP``
    raises CapExceeded before anything is allocated.
    """
    if not 1 <= skip <= n - 1:
        raise ValueError(f"transposition index {skip} out of range 1..{n - 1}")
    _check_matrix_cap(n)
    return _excluded_transpositions(FlagGraphSpec(n, 1, ordering), skip)


def _adjacent_transpositions(n: int) -> np.ndarray:
    # the n-1 adjacent transpositions of [n] as 0-based position rows: row j-1 is t_j, swapping j and j+1
    gens = np.tile(np.arange(n), (n - 1, 1))
    j = np.arange(n - 1)
    gens[j, j], gens[j, j + 1] = j + 1, j
    return gens


@lru_cache(maxsize=None)
def _adjacent_form(n: int) -> np.ndarray:
    # the read-only float32 ``_rank_form`` of the n-1 adjacent transpositions of [n], as ``graphs._connection_form`` holds those of a connection set
    return _read_only(_rank_form(_adjacent_transpositions(n)))


def _excluded_transpositions(spec: FlagGraphSpec, skip: int) -> np.ndarray:
    # the matrix of excluded_transposition_matrix under the already validated ordering of spec
    gens = np.delete(_adjacent_transpositions(spec.n), skip - 1, axis=0)
    rows = np.arange(spec.vertex_count)
    A = np.zeros((len(rows), len(rows)), dtype=np.uint8)
    A[rows[:, None], _product_ranks(spec, rows, _rank_form(gens))] = 1
    return A


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class _Slot:
    """
    The read-only counts of one base ordering of [n], ``base`` and the
    block-major stacked counts ``C``, and three read-only arrays over all
    m^2 blocks (m = n+1), each computed from them the first time a check
    asks for it:

      minima  (m, m) uint8: the least count of each block;
      plane   (m, m) bool: whether each corner and flank block equals its
              identity plane, the base counts + |i-j|; False for every
              other block;
      sums    (2, m, m, n!) uint16: the row sums (``sums[0]``) and the
              column sums (``sums[1]``) of ``C[i-1, j-1] == 1`` for each
              block whose minimum is at most 1, and 0 for the rest.

    At base 6 the sums take 141 KB.  The arrays belong to these counts
    alone: a new slot, of another base ordering or of substituted counts,
    starts with none.
    """

    base: np.ndarray
    C: np.ndarray

    @cached_property
    def minima(self) -> np.ndarray:
        return _read_only(self.C.min(axis=(2, 3)))

    @cached_property
    def plane(self) -> np.ndarray:
        m = len(self.C)
        plane, got = np.zeros((m, m), dtype=bool), np.empty(self.base.shape, dtype=bool)
        identity = self.base, self.base + np.uint8(1)  # of a corner, of a flank
        for i, j in [(0, 0), (m - 1, m - 1), *((i, i + 1) for i in range(m - 1)), *((i + 1, i) for i in range(m - 1))]:
            plane[i, j] = np.equal(self.C[i, j], identity[abs(i - j)], out=got).all()
        return _read_only(plane)

    @cached_property
    def sums(self) -> np.ndarray:
        b = len(self.base)  # sums of at most b = n! <= 720
        sums, got = np.zeros((2, *self.minima.shape, b), dtype=np.uint16), np.empty((b, b), dtype=bool)
        for i, j in np.argwhere(self.minima <= 1):
            np.equal(self.C[i, j], 1, out=got)
            got.sum(axis=1, dtype=np.uint16, out=sums[0, i, j])
            got.sum(axis=0, dtype=np.uint16, out=sums[1, i, j])
        return _read_only(sums)


@lru_cache(maxsize=1)
def _stacked_counts(n: int, base: bytes) -> _Slot:
    # the slot of the read-only prefix-mismatch counts of the base rows packed
    # in ``base`` and of their stacked rows, the latter block-major: C[i-1, j-1]
    # is block (i, j).  One slot, so the process keeps the two arrays of the
    # latest base ordering only, and the arrays derived from its blocks with
    # them: they go when the slot goes.  The stacked rows are counted in
    # full-width bands, whole block rows while they fit in one band, else rows
    # of one block row, each into a scratch buffer and then moved into its
    # blocks: a kernel row spans all (n+1)! columns, where a compare straight
    # into the blocks would pay numpy's per-row cost every n! cells, and small
    # bases make as few calls as the 2-D counts would
    S = np.frombuffer(base, dtype=np.uint8).reshape(-1, n)
    m, b = n + 1, len(S)
    masks, buffer = _prefix_masks(_insertion_images(S, range(1, m + 1))), np.empty(CHUNK_CELLS, dtype=np.uint8)
    C = np.empty((m, m, b, b), dtype=np.uint8)
    for rows in _row_slices(m, m * b * b):  # whole block rows while they fit in one band, else one
        count = rows.stop - rows.start
        for cut in _row_slices(b, count * m * b):  # then all b rows of each, else a band of the one
            band = _mismatch_band(masks, slice(rows.start * b + cut.start, (rows.stop - 1) * b + cut.stop), slice(None), buffer)
            C[rows, :, cut] = band.reshape(count, -1, m, b).swapaxes(1, 2)
    return _Slot(_read_only(_prefix_mismatch_counts(S)), _read_only(C))


def _stacked_slot(n: int, ordering: Sequence[Perm] | None) -> tuple[np.ndarray, _Slot]:
    """
    The base rows S of ``ordering`` (lexicographic if None or empty) and the
    slot of their counts.  n+1 above ``config.MATRIX_CAP`` raises
    CapExceeded first; then S is validated, unless it holds the very rows
    of the int tuples ``_vertex_rows`` last kept, and the stacked rows are
    not, since they are permutations by construction.
    """
    if (m := n + 1) > MATRIX_CAP:  # named by the base n that was asked for, not by n+1 alone
        raise CapExceeded(f"the checks of base {n} read the {m}! x {m}! counts of n = {m}, over the matrix cap {MATRIX_CAP}")
    S = _vertex_rows(n, ordering)
    return S, _stacked_counts(n, S.tobytes())


@dataclass(frozen=True)
class BlockAssertion:
    """One checked identity about one block, with a witness on failure."""

    name: str
    block: tuple[int, int]
    passed: bool
    witness: tuple[int, int] | None = None  # 1-based cell of the first discrepancy
    detail: str = ""

    def to_dict(self) -> dict:
        out = {"name": self.name, "block": list(self.block), "passed": self.passed}
        if self.witness is not None:
            out["witness"] = list(self.witness)
        if self.detail:
            out["detail"] = self.detail
        return out


@dataclass(frozen=True)
class BlockReport:
    """All assertions checked for one (n, k) block decomposition."""

    n: int
    k: int
    assertions: tuple[BlockAssertion, ...] = ()

    @property
    def passed(self) -> bool:
        return all(a.passed for a in self.assertions)

    def failures(self) -> list[BlockAssertion]:
        return [a for a in self.assertions if not a.passed]

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "passed": self.passed,
            "assertions": [a.to_dict() for a in self.assertions],
        }


class _StackedBlocks:
    """
    The n! x n! blocks ``C[i-1, j-1] == k`` of the block-major stacked counts
    C of a base ordering S of the permutations of [n], as ``_stacked_slot``
    gives them: they are the blocks (i, j) of the adjacency matrix of
    FJ(n+1, k) under the stacked ordering, but on the diagonal of the whole
    matrix, where every count is 0.  The reader holds S, the slot of S with
    its base counts ``base`` and C, the block size ``b`` = n! and k.  Each
    block is read into the same bool buffer and compared through a second
    one: a fresh block-sized array per block would have its pages faulted in
    anew.  Both are allocated on first use, so a check that every screen
    passes allocates neither.
    """

    def __init__(self, n: int, ordering: Sequence[Perm] | None, k: int):
        self.S, self.slot = _stacked_slot(n, ordering)
        self.base, self.C = self.slot.base, self.slot.C
        self.k, self.b = k, factorial(n)

    @cached_property
    def _got(self) -> np.ndarray:
        return np.empty((self.b, self.b), dtype=bool)

    @cached_property
    def _diff(self) -> np.ndarray:
        return np.empty((self.b, self.b), dtype=bool)

    def read(self, i: int, j: int) -> np.ndarray:
        """Block (i, j), 1-based, valid until the next read."""
        return np.equal(self.C[i - 1, j - 1], self.k, out=self._got)

    def screen(self, name: str, where: tuple[int, int]) -> BlockAssertion:
        """
        Check block ``where`` against its expected 0/1 plane: all False for
        a block two or more off the diagonal, else its identity plane
        ``== k``, the base counts for a corner block and the base counts +
        1 for a flank.  The block passes at once when its minimum in the
        slot exceeds k, or when the slot's ``plane`` says its counts equal
        the identity plane, which is sufficient; otherwise ``compare`` reads
        it cell by cell, against the plane built only then.  Interior
        diagonal blocks have no identity plane: the permutahedron check
        screens them at the products of their generators.
        """
        i, j = where
        if abs(i - j) > 1:
            if self.slot.minima[i - 1, j - 1] > self.k:
                return BlockAssertion(name, where, True)
            expected = np.broadcast_to(False, (self.b, self.b))  # a read-only view of one cell
        else:
            if self.slot.plane[i - 1, j - 1]:
                return BlockAssertion(name, where, True)
            expected = self.base + np.uint8(abs(i - j)) == self.k
        return self.compare(name, where, expected)

    def compare(self, name: str, where: tuple[int, int], expected: np.ndarray, detail: str = "") -> BlockAssertion:
        got = self.read(*where)
        diff = np.not_equal(got, expected, out=self._diff)
        if not diff.any():
            return BlockAssertion(name, where, True, detail=detail)
        r, c = np.argwhere(diff)[0]
        return BlockAssertion(
            name,
            where,
            False,
            witness=(int(r) + 1, int(c) + 1),
            detail=f"entry ({int(r) + 1},{int(c) + 1}) is {int(got[r, c])}, expected {int(expected[r, c])}",
        )


def verify_recursive_blocks(n: int, k: int, ordering: Sequence[Perm] | None = None) -> BlockReport:
    """
    Decompose the adjacency matrix of FJ(n+1, k) under the stacked ordering
    into (n+1)^2 blocks of size n! and check the three structural identities:

      zero-block    blocks (i, j) with |i-j| > k vanish,
      corner-block  blocks (1, 1) and (n+1, n+1) equal A(FJ(n, k)),
      flank-block   blocks with |i-j| = 1 equal A(FJ(n, k-1)); for k = 1
                    that degenerate comparison matrix is the identity, since
                    a flag agrees in all positions only with itself.

    The base ordering defaults to lexicographic; the report carries every
    assertion with pass/fail and 1-based witness coordinates.
    """
    if k < 1:
        raise ValueError("the block identities concern k >= 1")
    _check_domain(n, k)  # FJ(n, k) of the corner must exist
    stacked = _StackedBlocks(n, ordering, k)  # a corner's identity plane == k is A(FJ(n, k)), a flank's A(FJ(n, k-1))

    checks = []
    for i in range(1, n + 2):
        for j in range(1, n + 2):
            if abs(i - j) > k:
                checks.append(stacked.screen("zero-block", (i, j)))
    for where in ((1, 1), (n + 1, n + 1)):
        checks.append(stacked.screen("corner-block", where))
    for i in range(1, n + 1):
        checks.append(stacked.screen("flank-block", (i, i + 1)))
        checks.append(stacked.screen("flank-block", (i + 1, i)))
    return BlockReport(n=n, k=k, assertions=tuple(checks))


def verify_permutahedron_blocks(n: int, ordering: Sequence[Perm] | None = None) -> BlockReport:
    """
    Decompose the adjacency matrix of FJ(n+1, 1) -- the order-(n+1)
    permutahedron -- under the stacked ordering and check its full anatomy:

      * tri-diagonal: blocks with |i-j| > 1 are zero;
      * identity flanks: blocks with |i-j| = 1 are the identity;
      * corner diagonal blocks equal A(FJ(n, 1)), regularity n-1;
      * interior diagonal block i equals the Cayley graph on the base
        vertices generated by all adjacent transpositions except the
        (i-1, i) swap; its regularity is n-2 (0 when n = 2, where the
        interior generating set is empty).

    The products u o t of every base vertex u with all n-1 adjacent
    transpositions t are ranked once, in one pass.  Interior block i passes
    when each cell (u, rank(u o t)) of a kept t has count 1 and each of its
    row sums in the slot is n-2: the n-2 products of a row are distinct, so
    they are then its only edges, and the block equals the Cayley graph.
    Only a block that misses this screen is rebuilt from its generator
    description and compared bit for bit, which names the first differing
    cell.
    """
    _check_domain(n, 1)  # FJ(n, 1) of the corner must exist
    stacked = _StackedBlocks(n, ordering, 1)
    spec = FlagGraphSpec._of_rows(n, 1, stacked.S)  # the rows the reader validated, for the products and any rebuild
    rows = np.arange(stacked.b)
    cells = rows[:, None] * stacked.b + _product_ranks(spec, rows, _adjacent_form(n))  # flat (u, u o t_j) of a block

    checks = []  # a corner's identity plane == 1 is A(FJ(n, 1)), a flank's the identity
    for i in range(1, n + 2):
        for j in range(1, n + 2):
            if abs(i - j) > 1:
                checks.append(stacked.screen("zero-block", (i, j)))
            elif abs(i - j) == 1:
                checks.append(stacked.screen("identity-flank", (i, j)))
    for i in range(1, n + 2):
        got_reg = _common_sum(*stacked.slot.sums[:, i - 1, i - 1])
        if i in (1, n + 1):
            checks.append(stacked.screen("corner-subgraph", (i, i)))
            expected_reg = n - 1
        else:
            note = "interior generating set is empty for n = 2" if n == 2 else ""
            edges = np.take(stacked.C[i - 1, i - 1], np.delete(cells, i - 2, axis=1))  # the counts of the kept products
            if (edges == 1).all() and (stacked.slot.sums[0, i - 1, i - 1] == n - 2).all():
                checks.append(BlockAssertion("interior-subgraph", (i, i), True, detail=note))
            else:
                checks.append(stacked.compare("interior-subgraph", (i, i), _excluded_transpositions(spec, i - 1), detail=note))
            expected_reg = n - 2
        checks.append(
            BlockAssertion(
                "block-regularity",
                (i, i),
                got_reg == expected_reg,
                detail=f"regularity {got_reg}, expected {expected_reg}",
            )
        )
    return BlockReport(n=n, k=1, assertions=tuple(checks))


def matrix_to_text(A: np.ndarray) -> str:
    """
    Dense 0/1 grid, one line per row, no separators.  An entry other than
    0 or 1, or an input that is not 2-D, raises ValueError.

    >>> matrix_to_text([[0, 1], [1, 0]])
    '01\\n10\\n'
    """
    M = np.asarray(A)
    if M.ndim != 2:
        raise ValueError(f"need a 2-D matrix, got shape {M.shape}")
    if not ((M == 0) | (M == 1)).all():
        raise ValueError("matrix entries must be 0 or 1")
    # one ASCII digit per entry, as _labels builds its vertex names, and a newline after each row
    text = np.full((M.shape[0], M.shape[1] + 1), ord("\n"), dtype=np.uint8)
    text[:, :-1] = M.astype(np.uint8) + np.uint8(ord("0"))
    return text.tobytes().decode("ascii") or "\n"  # no rows: the lone newline of the text form
