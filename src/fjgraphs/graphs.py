"""
Full-Flag Johnson graphs FJ(n, k).

The vertex set is all n! permutations of [n]; vertices u, v are adjacent
exactly when their flags differ in k prefix positions.  Equivalently,
FJ(n, k) is the Cayley graph on the symmetric group whose connection set is
the (n-k)-block diagonal permutations, i.e. direct sums of n-k irreducible
blocks.  The extremes: k = 0 gives a graph with no edges (a flag agrees
everywhere only with itself), and k = 1 gives the permutahedron, whose
connection set is the adjacent transpositions.

A ``FlagGraphSpec`` fixes (n, k) together with an explicit vertex ordering
(lexicographic unless overridden); ranks into that ordering are the vertex
ids used by edge lists, BFS, matrices and exports.  The ordering is held in
one form only, an (n!, n) uint8 array of 0-based rows; tuples and labels
are read from it.  The connection set of each (n, k) is held the same
way, as one cached read-only (degree, n) uint8 array of 0-based rows
filtered from the lexicographic vertex array, with its float32 rank form;
``generators`` and ``neighbors`` are tuple views of those rows.  Specs are
immutable; all queries here are read-only.

Edge lists and BFS run on that array.  The lexicographic rank of a product
u o g is an affine function of the inversion bits of u, one bit per
position pair, so a batch of products is ranked by one float32 matrix
product of the generators' rank forms with the batch's bits, without ever
composing u o g.  The batches are cut into vertex chunks of about
``CHUNK_CELLS`` products, so the peak memory is fixed whatever the
degree.  The edges reach the exports and the verification battery as one
counted stream of those chunks (``_edge_stream``), so nothing but
``build_edges`` ever holds a whole edge list, and the DOT, CSV and JSON
writers turn each chunk into text as it comes.

The reversal w0 halves two of these passes.  Left multiplication
u -> w0 o u is an automorphism of every Cayley graph on S_n, and it
reverses the lexicographic order (rank r -> n! - 1 - r), so
``build_edges`` ranks the products of the first half of the vertices only
and mirrors their backward edges onto the second half; the edge stream
keeps to every vertex in order, which holds no edge aside.  Conjugation
v -> w0 o v o w0 reverses the order of the blocks of a permutation and
keeps each block irreducible, so it preserves every connection set and
fixes the identity; a search from the identity expands one vertex of each
conjugate pair, and so composes about n! * degree products.  That search
checks the invariance on the connection rows themselves
(``_w0_conjugation``), so a connection set patched in that conjugation
does not preserve is searched vertex by vertex.
"""

from __future__ import annotations

import json
import operator
from functools import cached_property, lru_cache
from itertools import chain
from math import factorial
from collections.abc import Sequence

import numpy as np

from .config import EDGE_CAP, CapExceeded, TheoremViolation, _check_graph_cap, _check_matrix_cap
from .perms import (
    Perm,
    is_permutation,
    prefix_mismatch_count,
    rank,
)

CHUNK_CELLS = 1 << 18  # cells computed at once, products u o g or prefix-mismatch counts: bounds the working memory of every chunked pass
CSV_ROWS = 1 << 14  # edges gathered per text piece (one word buffer) in the exports, and per step of EdgeList iteration


def _check_domain(n: int, k: int) -> None:
    # the one check that FJ(n, k) exists, with the message every entry point gives
    if not 0 <= k < n:
        raise ValueError(f"need 0 <= k < n, got n={n}, k={k}")


def check_ordering(ordering: Sequence[Sequence[int]], n: int | None = None) -> np.ndarray:
    """
    Validate, in one vectorized pass, that ``ordering`` lists every
    permutation of [n] (n defaults to its row length) exactly once, and
    return the read-only (n!, n) uint8 array of 0-based rows that
    ``FlagGraphSpec`` holds.  Any other input raises ValueError; n above
    ``config.GRAPH_CAP`` raises CapExceeded before any row is ranked.
    """
    P = np.asarray(ordering)  # rows of several lengths raise ValueError here
    if P.ndim != 2 or P.size == 0 or P.dtype.kind not in "iu":
        raise ValueError("an ordering is a non-empty list of equal-length integer permutations")
    size = P.shape[1] if n is None else n
    _check_graph_cap(size)
    V = (P - 1).astype(np.uint8)  # a foreign value wraps here, and fails the row check below
    rows_ok = V.shape == (factorial(size), size) and (np.sort(P, axis=1) == np.arange(1, size + 1)).all()
    if not rows_ok or np.bincount(_lex_ranks(V.T, size)).max() > 1:  # the ranks tell repeated rows
        raise ValueError(f"ordering does not cover the {factorial(size)} permutations of [{size}] exactly once")
    V.flags.writeable = False
    return V


@lru_cache(maxsize=None)
def _lex_vertices(n: int) -> np.ndarray:
    """
    All permutations of [n], n >= 1, in lexicographic order as a read-only
    (n!, n) uint8 array of 0-based rows, built up from [1]: the rows of [m]
    are, for each first value f in turn, the rows of [m-1] with every value
    >= f moved up by one.  n above ``config.GRAPH_CAP`` raises CapExceeded.
    """
    _check_graph_cap(n)
    V = np.zeros((1, 1), dtype=np.uint8)
    for m in range(2, n + 1):
        first = np.repeat(np.arange(m, dtype=np.uint8), len(V))[:, None]
        rest = np.tile(V, (m, 1))
        V = np.hstack([first, rest + (rest >= first)])
    V.flags.writeable = False
    return V


class _LastOrdering:
    """
    The one-entry memo of ``_vertex_rows``: ``entry`` is None, or the tuple
    (n, rows, V) of the last ordering it kept, its row objects in order and
    the rows V that ``check_ordering`` returned for them, replaced whole by
    each store.  It keeps only a list or tuple that passed and whose rows
    are exact tuples of exact ints: such a row cannot change, so another
    ordering of the very same row objects has the same content.
    """

    entry = None

    def cache_clear(self) -> None:
        self.entry = None


_last_ordering = _LastOrdering()


def _vertex_rows(n: int, ordering: Sequence[Sequence[int]] | None) -> np.ndarray:
    # the vertex array of every function that takes an ordering: None or an
    # empty ordering is lexicographic; a list or tuple of the same row objects
    # as the memo's entry, for the same n, gets the entry's rows; anything
    # else goes through check_ordering, and is kept when it is a list or
    # tuple of exact int tuples, which no caller can mutate
    if ordering is None or not len(ordering):
        return _lex_vertices(n)
    if type(ordering) not in (list, tuple):
        return check_ordering(ordering, n)
    rows, entry = tuple(ordering), _last_ordering.entry
    if entry is not None and entry[0] == n and len(entry[1]) == len(rows) and all(map(operator.is_, rows, entry[1])):
        return entry[2]
    V = check_ordering(rows, n)
    if set(map(type, rows)) == {tuple} and set(map(type, chain.from_iterable(rows))) == {int}:
        _last_ordering.entry = (n, rows, V)
    return V


def _lex_ranks(columns, n: int) -> np.ndarray:
    """
    Lexicographic ranks, as int32, of permutations of [n] given column by
    column: ``columns`` yields uint8 arrays of 0-based values, one per
    position, and only the first n-1 are read.  The Lehmer digit at a
    position is the number of smaller values not seen yet,
    v - np.bitwise_count(seen & (bit(v) - 1)), with ``seen`` the uint16 set
    of values already placed, wide enough for every n <= 12 that the int32
    ranks hold.
    """
    ranks = np.zeros(1, dtype=np.int32)  # broadcasts; also the rank of the one permutation of [1]
    seen = np.uint16(0)
    for i, v in zip(range(n - 1), columns):
        bit = np.uint16(1) << v  # a Python 1 would take v's uint8 and wrap at v = 8
        ranks = ranks + (v - np.bitwise_count(seen & (bit - 1))) * np.int32(factorial(n - 1 - i))
        seen = seen | bit
    return ranks


class FlagGraphSpec:
    """
    Graph parameters plus the vertex ordering used for ranks and matrices.
    A spec stores n, k and one vertex form, ``_vertices``: the read-only
    (n!, n) uint8 array of 0-based rows that ``_vertex_rows`` makes of the
    ordering (lexicographic when it is None or empty, else given as tuples
    or an array), one shared by the lexicographic specs of each n.  The
    tuple ``ordering`` is read from it on first use.  Specs are immutable,
    and equal when n, k and the rows agree.  Ranks into the ordering index
    the edge lists and the uint16 BFS distance arrays.  Products are ranked
    lexicographically and, under any other ordering, mapped to ordering
    positions through one int32 array, built on first use, in vertex chunks
    of about ``CHUNK_CELLS``, so the working memory stays under 64 MB at
    n <= 8.
    """

    def __init__(self, n: int, k: int, ordering: Sequence[Sequence[int]] | None = None):
        _check_domain(n, k)
        self.__dict__.update(n=n, k=k, _vertices=_vertex_rows(n, ordering))

    @classmethod
    def _of_rows(cls, n: int, k: int, V: np.ndarray) -> "FlagGraphSpec":
        # a spec over vertex rows V that _vertex_rows already returned, not validated again
        spec = cls.__new__(cls)
        spec.__dict__.update(n=n, k=k, _vertices=V)
        return spec

    def __setattr__(self, name, value):
        raise AttributeError(f"FlagGraphSpec is immutable; cannot set {name!r}")

    def __eq__(self, other):
        if not isinstance(other, FlagGraphSpec):
            return NotImplemented
        return (self.n, self.k) == (other.n, other.k) and np.array_equal(self._vertices, other._vertices)

    def __hash__(self):
        return hash((self.n, self.k, self._vertices.tobytes()))

    def __repr__(self) -> str:
        return f"FlagGraphSpec(n={self.n}, k={self.k})"

    @cached_property
    def ordering(self) -> tuple[Perm, ...]:
        # the vertices as 1-based tuples, in rank order
        return tuple(map(tuple, (self._vertices + 1).tolist()))

    @property
    def vertex_count(self) -> int:
        return len(self._vertices)

    @property
    def _lexicographic(self) -> bool:
        # the shared lexicographic rows, whose positions are the lexicographic ranks
        return self._vertices is _lex_vertices(self.n)

    @cached_property
    def _positions(self) -> np.ndarray:
        # _positions[lexicographic rank] = rank in this ordering
        positions = np.empty(self.vertex_count, dtype=np.int32)
        positions[_lex_ranks(self._vertices.T, self.n)] = np.arange(self.vertex_count, dtype=np.int32)
        return positions

    def rank(self, p: Sequence[int]) -> int:
        """
        Position of a vertex in the ordering: its lexicographic rank, mapped
        through ``_positions`` only under another ordering, so a
        lexicographic spec never builds that n! array.
        """
        p = self._vertex(p)
        return rank(p) if self._lexicographic else int(self._positions[rank(p)])

    def _vertex(self, p: Sequence[int]) -> Perm:
        # p as a tuple; anything that is not a permutation of [n] raises ValueError
        p = tuple(p)
        if len(p) != self.n or not is_permutation(p):
            raise ValueError(f"{p!r} is not a vertex of FJ({self.n},{self.k})")
        return p


def adjacent(spec: FlagGraphSpec, u: Sequence[int], v: Sequence[int]) -> bool:
    """
    The adjacency predicate: do the flags of u and v differ in exactly k
    prefix positions?  Symmetric.  For k = 0 this is true only for u == v;
    for k = 1 it means u and v differ by one adjacent transposition.  An
    argument that is not a permutation of [n] raises ValueError.
    """
    return prefix_mismatch_count(spec._vertex(u), spec._vertex(v)) == spec.k


def irreducible_patterns(m: int) -> tuple[Perm, ...]:
    """
    All irreducible permutations of [m], in lexicographic order: the tuple
    view of the connection rows of FJ(m, m-1), whose one block is the whole
    permutation.  m above ``config.GRAPH_CAP`` raises CapExceeded.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    return generators(m, m - 1)


@lru_cache(maxsize=None)
def irreducible_count(m: int) -> int:
    """
    Number of irreducible permutations of [m].  Splitting any permutation at
    the end of its first irreducible block gives the recurrence
    m! = sum_{i=1..m} irreducible_count(i) * (m-i)!, solved here directly.

    >>> [irreducible_count(m) for m in range(1, 6)]
    [1, 1, 3, 13, 71]
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    total = factorial(m)
    for i in range(1, m):
        total -= irreducible_count(i) * factorial(m - i)
    return total


@lru_cache(maxsize=None)
def _connection_rows(n: int, k: int) -> np.ndarray:
    """
    The connection set of FJ(n, k) as a read-only (degree, n) uint8 array
    of 0-based rows, in lexicographic order: the rows of
    ``_lex_vertices(n)`` with exactly n-k irreducible blocks.  A block of
    v ends at position i exactly when max(v[0..i]) == i, so one running
    maximum, column by column, counts the blocks of every row at once.
    k = 0 gives the identity alone, although FJ(n, 0) has no edges.
    """
    _check_domain(n, k)
    V = _lex_vertices(n)
    top = np.zeros(len(V), dtype=np.uint8)
    ends = np.ones(len(V), dtype=np.uint8)  # the last position always ends a block
    for i, column in enumerate(np.ascontiguousarray(V[:, :-1].T)):
        np.maximum(top, column, out=top)
        ends += top == i
    rows = np.compress(ends == n - k, V, axis=0)
    rows.flags.writeable = False
    return rows


def _connection_sums(s: np.ndarray, n: int) -> np.ndarray:
    """
    rho(X_k) for k = 0..n-1, as one array indexed by k: X_k is the sum of the
    connection set of FJ(n, k) in the group algebra of S_n, and ``s`` holds
    rho of the adjacent transpositions, s[i] swapping positions i and i+1
    (0-based), as an (n-1, ..., d, d) array; axes between the first and the
    last two are a batch of representations, and the dtype is that of ``s``.
    k = 0 gives rho(identity) = I.  The set is never listed.  With J[a, b]
    the sum of all permutations of the positions a..b and X[a, b] the sum of
    the irreducible ones, the cosets of the permutations that fix b, and the
    end of the first block, give
      J[a, b] = J[a, b-1] (1 + s[b-1] (1 + s[b-2] (... (1 + s[a]) ...))),
      X[a, b] = J[a, b] - sum_{i=a}^{b-1} X[a, i] J[i+1, b],
    and one pass over the block ends, graded by the number of blocks,
    multiplies the X of n-k consecutive blocks.  Only the Coxeter relations
    of the s[i] are used, so any representation evaluates it.
    """
    eye = np.eye(s.shape[-1], dtype=s.dtype)
    J, X = {}, {}
    for a in range(n):
        J[a, a] = coset = eye
        for b in range(a + 1, n):
            coset = eye + s[b - 1] @ coset
            J[a, b] = J[a, b - 1] @ coset
    for a in range(n):
        for b in range(a, n):
            X[a, b] = J[a, b] - sum((X[a, i] @ J[i + 1, b] for i in range(a, b)), np.zeros_like(eye))
    ends = [np.broadcast_to(eye, s.shape[1:])[None]]  # ends[b][B]: the permutations of positions 0..b-1 with B blocks
    for b in range(1, n + 1):
        ends.append(np.zeros((b + 1, *s.shape[1:]), dtype=s.dtype))
        for i in range(b):
            ends[b][1 : i + 2] += ends[i] @ X[i, b - 1]
    return ends[n][:0:-1]  # n blocks first: k = n - blocks


@lru_cache(maxsize=None)
def _conjugate_ranks(n: int) -> np.ndarray:
    """
    The lexicographic rank of w0 o v o w0, with w0 the reversal, for each
    permutation v of [n] at its own rank, as a read-only int32 array: an
    involution that fixes the identity, rank 0.  The conjugate reverses the
    row of v and complements its values, and complementing the values
    reverses the lexicographic order, so its rank is n! - 1 - lexrank(v o w0).
    """
    V = _lex_vertices(n)
    conjugates = (len(V) - 1) - _lex_ranks(V[:, ::-1].T, n)
    conjugates.flags.writeable = False
    return conjugates


@lru_cache(maxsize=None)
def _w0_conjugation(n: int, k: int) -> np.ndarray:
    """
    ``_conjugate_ranks(n)`` when conjugation by w0 maps the connection rows
    of FJ(n, k) onto themselves, else the identity map on the n! ranks;
    cached per (n, k), like the rows it reads.  The conjugation reverses
    the order of the blocks of a row and keeps each one irreducible, so it
    preserves every connection set G(n, k), and with it the distances from
    the identity; the check reads the rows themselves, so a connection set
    patched in over them that the conjugation does not preserve gets the
    identity map.
    """
    conjugates = _conjugate_ranks(n)
    ranks = np.sort(_lex_ranks(_connection_rows(n, k).T, n))
    if np.array_equal(np.sort(conjugates[ranks]), ranks):
        return conjugates
    fixed = np.arange(len(conjugates), dtype=np.int32)
    fixed.flags.writeable = False
    return fixed


@lru_cache(maxsize=None)
def _connection_form(n: int, k: int) -> np.ndarray:
    # the read-only float32 ``_rank_form`` of the connection rows of FJ(n, k)
    form = _rank_form(_connection_rows(n, k))
    form.flags.writeable = False
    return form


def generators(n: int, k: int) -> tuple[Perm, ...]:
    """
    The connection set of FJ(n, k): every permutation of [n] that splits
    into exactly n-k irreducible consecutive blocks, as 1-based tuples.
    This is the tuple view of the cached connection rows, which edge lists
    and searches read directly, so the order is lexicographic.  For n <= 4
    that is also the order by block sizes, then by the irreducible patterns
    filling the blocks (the construction the tests keep as the oracle);
    from FJ(5,3) on the two orders differ.  n above ``config.GRAPH_CAP``
    raises CapExceeded, as every route through the vertex array does.

    The set is closed under inverses, and contains the identity only in the
    degenerate case k = 0, where it is exactly {identity}.
    """
    return tuple(map(tuple, (_connection_rows(n, k) + 1).tolist()))


@lru_cache(maxsize=None)
def degree(n: int, k: int) -> int:
    """
    Common vertex degree of FJ(n, k): the connection-set size, the number of
    permutations of [n] with n-k irreducible blocks.  Splitting off the first
    block gives the count of permutations of [m] with j blocks as
    ways_j(m) = sum_i irreducible_count(i) * ways_{j-1}(m-i), taken here
    block by block from ways_0, which counts the empty permutation alone.
    Only m = j + d with 0 <= d <= k can still reach n with n-k blocks, so
    ``ways[d]`` holds ways_j(j + d).  FJ(n, 0) is represented without
    self-loops, so its degree is 0.

    >>> degree(4, 2)
    7
    >>> degree(5, 1)
    4
    """
    _check_domain(n, k)
    if k == 0:
        return 0
    irreducible = [irreducible_count(i) for i in range(1, k + 2)]  # a block of size i raises d by i-1
    ways = [1] + [0] * k
    for _ in range(n - k):
        ways = [sum(irreducible[e] * ways[d - e] for e in range(d + 1)) for d in range(k + 1)]
    return ways[k]


def neighbors(spec: FlagGraphSpec, u: Sequence[int]) -> list[Perm]:
    """
    All vertices adjacent to u, as right products with the connection set,
    u o g for each row g of ``generators`` in its lexicographic order.
    Distinct generators give distinct products, so the list has exactly
    degree(n, k) entries and no duplicates.  For k = 0 the graph has no
    edges and the list is empty.  A u that is not a permutation of [n]
    raises ValueError, and n above ``config.GRAPH_CAP`` CapExceeded.
    """
    u = spec._vertex(u)
    if spec.k == 0:
        return []
    return list(map(tuple, np.array(u)[_connection_rows(spec.n, spec.k)].tolist()))


def _check_edge_budget(n: int, k: int) -> int:
    # the edge count n! * degree / 2, known before a single product is
    # composed; a BFS composes about twice that many products (at most four
    # times), so this bounds its time too
    edges = factorial(n) * degree(n, k) // 2
    if edges > EDGE_CAP:
        raise CapExceeded(f"FJ({n},{k}) has {edges} edges, over the edge budget {EDGE_CAP}")
    return edges


def _counted(spec: FlagGraphSpec, pairs, expected: int):
    """
    The (a, b) rank-array pairs that ``pairs`` yields, passed on as they
    come, and after the last one the check that they held ``expected``
    edges, n! * degree / 2: any other total contradicts the degree formula
    and raises TheoremViolation.
    """
    total = 0
    for a, b in pairs:
        total += len(a)
        yield a, b
    if total != expected:
        raise TheoremViolation(f"FJ({spec.n},{spec.k}) has {total} edges, not n! * degree / 2 = {expected}")


def _edge_stream(spec: FlagGraphSpec):
    """
    The edges (a, b), a < b, of ``spec``'s graph as pairs of equal-length
    int32 rank arrays, one vertex chunk of ``_edge_chunks`` at a time, in
    sorted order; the one route by which the exports and the battery read
    edges, so none of them holds an edge list.  A graph over the edge
    budget raises CapExceeded here, at the call, before any edge is made
    or anything is written; a total other than n! * degree / 2 raises
    TheoremViolation after the last chunk.
    """
    return _counted(spec, _edge_chunks(spec), _check_edge_budget(spec.n, spec.k))


def _fill_edges(spec: FlagGraphSpec, pairs) -> EdgeList:
    """
    The EdgeList of the (a, b) rank-array pairs that ``pairs`` yields,
    written in order into one (n! * degree / 2, 2) int32 array allocated
    before the first pair, so no part outlives its copy; the pairs are
    counted as ``_edge_stream`` counts them.  Ranks are below n! <= 8!, so
    int32, the dtype of the product ranks, holds every end.
    """
    edges = np.empty((_check_edge_budget(spec.n, spec.k), 2), dtype=np.int32)
    filled = 0
    for a, b in _counted(spec, pairs, len(edges)):
        end = filled + len(a)
        if end <= len(edges):
            edges[filled:end, 0] = a
            edges[filled:end, 1] = b
        filled = end
    return EdgeList(edges)


def _row_slices(count: int, width: int):
    # the one cut of every chunked pass: consecutive slices of range(count), each of at most CHUNK_CELLS cells of width `width` (one row, if wider)
    step = max(1, CHUNK_CELLS // width)
    return (slice(start, min(start + step, count)) for start in range(0, count, step))


def _chunks(rows: np.ndarray, form: np.ndarray):
    # the slices of `rows` whose products with the (degree, C(n,2) + 1) rank form, and whose bits, fit in CHUNK_CELLS
    return (rows[piece] for piece in _row_slices(len(rows), max(form.shape)))


@lru_cache(maxsize=None)
def _position_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    # the C(n,2) position pairs a < b, row-major: (0, 1), (0, 2), ..., (n-2, n-1)
    a, b = np.triu_indices(n, 1)
    a.flags.writeable = b.flags.writeable = False
    return a, b


def _rank_form(gens: np.ndarray) -> np.ndarray:
    """
    The (degree, C(n,2) + 1) float32 rank forms of the generators given as
    0-based position rows of ``gens``.  With w = u o g, so w(i) = u(g_i),
    lexrank(w) = sum over i < j of (n-1-i)! * [u(g_i) > u(g_j)].  A
    position pair (a, b), a < b, of u is met once, at i = min(h_a, h_b)
    with h the inverse of g.  Its inversion bit [u(a) > u(b)] adds (n-1-i)!
    when h_a < h_b, and (n-1-i)! minus that when h_a > h_b.  So the rank of
    u o g is the form's row for g dotted with u's C(n,2) inversion bits and
    a final 1, whose column holds the offsets, and the whole form is read
    off the inverse rows in a few vectorized steps, one column per pair.
    """
    degree, n = gens.shape
    a, b = _position_pairs(n)
    inverse = np.empty_like(gens)  # inverse[r, x]: the position of x in row r
    np.put_along_axis(inverse, gens, np.arange(n, dtype=gens.dtype), axis=1)
    ha, hb = inverse[:, a], inverse[:, b]
    descending = ha > hb
    weight = np.array([factorial(n - 1 - i) for i in range(n)], dtype=np.float32)[np.minimum(ha, hb)]
    form = np.empty((degree, len(a) + 1), dtype=np.float32)
    form[:, :-1] = np.where(descending, -weight, weight)
    form[:, -1] = (weight * descending).sum(axis=1)
    return form


def _product_ranks(spec: FlagGraphSpec, rows: np.ndarray, form: np.ndarray) -> np.ndarray:
    """
    Ranks in ``spec``'s ordering of the products u o g, for the vertices u
    at ranks ``rows`` and the generators g whose ``_rank_form`` rows are
    ``form``: a (len(rows), len(form)) int32 array.  The inversion bits of
    the vertices, one comparison per position pair, and a row of ones make
    a (C(n,2) + 1, len(rows)) float32 matrix, and one matrix product with
    the form gives the lexicographic ranks.  It is exact: every partial sum
    is an integer of magnitude at most 2 * (n! - 1), below 2**24 for every
    n <= 10, so float32 holds it for any summation order or thread count.
    """
    Ut = np.ascontiguousarray(spec._vertices[rows].T)
    a, b = _position_pairs(spec.n)
    bits = np.empty((len(a) + 1, len(rows)), dtype=np.float32)
    np.greater(Ut[a], Ut[b], out=bits[:-1])
    bits[-1] = 1
    ranks = (bits.T @ form.T).astype(np.int32)
    return ranks if spec._lexicographic else spec._positions[ranks]


def _sorted_products(spec: FlagGraphSpec, rows: np.ndarray, form: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """
    The chunk kernel of the edge stream and of ``build_edges``: the ranks
    of the products u o g of the vertices at ranks ``rows``, each row
    sorted, and the mask that splits each row at its own rank, True where
    the product lies after its vertex (b > a).
    """
    b = _product_ranks(spec, rows, form)
    b.sort(axis=1)
    return b, b > rows[:, None]


def _edge_chunks(spec: FlagGraphSpec):
    """
    The edges (a, b) with a < b as pairs of equal-length int32 rank arrays,
    one vertex chunk at a time; concatenated they are sorted by (a, b).
    The chunk's product ranks and mask are dropped before it is yielded,
    so a consumer holds one chunk of edges beside the fixed working set.
    Read through ``_edge_stream``, which counts them.
    """
    if spec.k == 0:
        return
    form = _connection_form(spec.n, spec.k)
    for rows in _chunks(np.arange(spec.vertex_count, dtype=np.int32), form):
        b, forward = _sorted_products(spec, rows, form)
        a, b = np.broadcast_to(rows[:, None], b.shape)[forward], b[forward]
        del forward
        yield a, b


def _mirrored_edges(spec: FlagGraphSpec) -> np.ndarray:
    """
    The (n! * degree / 2, 2) int32 edge array of a lexicographic spec, from
    the products of the first half of the vertices, ranks below n!/2.  Left
    multiplication by the reversal w0 is an automorphism of every Cayley
    graph on S_n, and it maps lexicographic rank r to n! - 1 - r.  So the
    backward edges (b < a) of a chunk of the first half, mirrored to
    (n! - 1 - a, n! - 1 - b) and reversed, are the sorted forward edges of a
    chunk of the second half, and the chunks of the first half mirror those
    of the second in reverse order.  Each chunk writes its forward edges at
    the front of the array and its mirrored ones at the back, and the two
    ends meet where the edges of the first half end, with no edge held
    aside.  A write that would cross the meeting point raises
    TheoremViolation before it is made, and so does a gap left between the
    two ends after the last chunk.
    """
    edges = np.empty((_check_edge_budget(spec.n, spec.k), 2), dtype=np.int32)
    last, front, back = spec.vertex_count - 1, 0, len(edges)
    form = _connection_form(spec.n, spec.k)
    for rows in _chunks(np.arange(spec.vertex_count // 2, dtype=np.int32), form):
        b, split = _sorted_products(spec, rows, form)
        a = np.broadcast_to(rows[:, None], b.shape)
        count = np.count_nonzero(split)
        _check_room(spec, front + count, back, len(edges))
        edges[front : front + count, 0] = a[split]
        edges[front : front + count, 1] = b[split]
        front += count
        np.less(b, rows[:, None], out=split)  # now the backward products, b < a
        count = np.count_nonzero(split)
        _check_room(spec, front, back - count, len(edges))
        back -= count
        np.subtract(last, a[split][::-1], out=edges[back : back + count, 0])
        np.subtract(last, b[split][::-1], out=edges[back : back + count, 1])
        del a, b, split  # before the next chunk is ranked
    if front != back:
        raise TheoremViolation(
            f"FJ({spec.n},{spec.k}) has {len(edges) - (back - front)} edges, not n! * degree / 2 = {len(edges)}"
        )
    return edges


def _check_room(spec: FlagGraphSpec, front: int, back: int, expected: int) -> None:
    # the guard of the two-ended fill: a front end past the back end means more edges than n! * degree / 2
    if front > back:
        raise TheoremViolation(f"FJ({spec.n},{spec.k}) has more than n! * degree / 2 = {expected} edges")


class EdgeList(Sequence):
    """
    An edge list: a sequence of rank pairs (a, b) held as one (E, 2) int32
    array.  It reads like the list of pairs it stands for -- an index gives
    an (a, b) tuple of ints, a slice or ``+`` gives an EdgeList, iteration
    goes ``CSV_ROWS`` pairs at a time, and it equals the list of the same
    pairs -- while ``np.asarray(edges)`` (or ``edges.array``) is the
    array itself, without a copy.  The pairs must form an (E, 2) integer
    array, or be empty, and every end must fit int32, else ValueError.
    """

    __slots__ = ("array",)

    def __init__(self, pairs=()):
        pairs = _integer_pairs(pairs)
        if not np.can_cast(pairs.dtype, np.int32) and len(pairs) and (pairs.min() < -(2**31) or pairs.max() >= 2**31):
            raise ValueError("edge ends must fit int32, -2**31..2**31-1")
        self.array = pairs.astype(np.int32, copy=False)

    def __len__(self) -> int:
        return len(self.array)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return EdgeList(self.array[i])
        a, b = self.array[operator.index(i)].tolist()
        return a, b

    def __iter__(self):
        for start in range(0, len(self.array), CSV_ROWS):
            yield from map(tuple, self.array[start : start + CSV_ROWS].tolist())

    def __add__(self, other):
        return EdgeList(np.concatenate([self.array, EdgeList(other).array]))

    def __eq__(self, other):
        if isinstance(other, EdgeList):
            return np.array_equal(self.array, other.array)
        if isinstance(other, list):
            return len(self) == len(other) and list(self) == other
        return NotImplemented

    def __array__(self, dtype=None, copy=None):
        return np.array(self.array, dtype=dtype, copy=copy)

    def __repr__(self) -> str:
        return f"EdgeList({len(self)} edges)"


def build_edges(spec: FlagGraphSpec) -> EdgeList:
    """
    Edge list of rank pairs (a, b), a < b, sorted.  Runs in
    O(n! * degree * n^2) by ranking the products of the vertices with every
    generator through the generators' rank forms, one float32 matrix
    product per chunk, instead of testing all C(n!, 2) pairs.  Under the
    lexicographic ordering only the first half of the vertices is ranked,
    and the reversal w0 mirrors its backward edges onto the second half
    (``_mirrored_edges``); w0 does not reverse any other ordering, whose
    edges come from every vertex in turn.  The products are ranked in
    vertex chunks of about ``CHUNK_CELLS`` and each chunk's edges are
    written into one preallocated int32 array, so the peak is a fixed
    working set plus 8 bytes per edge.  FJ(n, 0) yields an empty list
    (loops are excluded by convention).  A graph with more than
    ``config.EDGE_CAP`` edges raises CapExceeded before anything is built,
    and an edge count off n! * degree / 2 raises TheoremViolation.  The
    exports and the battery never hold this list: they read the chunks of
    every vertex, in the same order, from ``_edge_stream``, one at a time.
    It stays as the materialised form that the oracles and the tests
    compare.
    """
    if spec.k and spec._lexicographic:
        return EdgeList(_mirrored_edges(spec))
    return _fill_edges(spec, _edge_chunks(spec))


def prefix_mismatch_matrix(ordering: Sequence[Perm]) -> np.ndarray:
    """
    Pairwise prefix-mismatch counts for every pair in the ordering, as an
    N x N uint8 array, for an ordering that ``check_ordering`` accepts;
    n above ``config.MATRIX_CAP`` raises CapExceeded before it is checked.
    Prefix sets are one-byte bitmasks per vertex, compared one row band at
    a time, so the only temporaries are band-sized.
    """
    P = np.asarray(ordering)
    if P.ndim == 2:
        _check_matrix_cap(P.shape[1])
    return _prefix_mismatch_counts(check_ordering(P))


def _prefix_masks(V: np.ndarray) -> np.ndarray:
    # masks[i, r]: the prefix set of length i+1 of row r of the uint8 array V, value v as bit v
    values = np.ascontiguousarray(V[:, : V.shape[1] - 1].T)  # row-major, so every mask row is contiguous
    return np.bitwise_or.accumulate(np.left_shift(1, values, dtype=np.uint8), axis=0)


def _mismatch_band(masks: np.ndarray, rows: slice, cols: slice, buffer: np.ndarray) -> np.ndarray:
    # the one comparison of prefix masks across vertex pairs: the uint8 band, in the front of the caller's
    # contiguous buffer, whose cell (r, c) counts the prefix lengths at which rows[r] and cols[c] differ
    a, b = masks[:, rows], masks[:, cols]
    band = buffer.reshape(-1)[: a.shape[1] * b.shape[1]].reshape(a.shape[1], b.shape[1])
    band[...] = 0
    for x, y in zip(a, b):
        band += (x[:, None] != y).view(np.uint8)
    return band


def _prefix_mismatch_counts(V: np.ndarray) -> np.ndarray:
    # the N x N uint8 counts for the N rows of V (n <= MATRIX_CAP, or its insertion images), a row band at a time
    masks, N = _prefix_masks(V), len(V)
    counts = np.empty((N, N), dtype=np.uint8)
    for rows in _row_slices(N, N):
        _mismatch_band(masks, rows, slice(None), counts[rows])
    return counts


def pairwise_edges(spec: FlagGraphSpec) -> EdgeList:
    """
    Quadratic reference route: the adjacency predicate on every vertex pair,
    from prefix-mismatch counts and no products, cross-checks ``build_edges``
    with the same sorted EdgeList of rank pairs a < b.  The counts fill one
    reused row band at a time from its diagonal on, never the n! x n! matrix,
    and each band's edges go straight into the preallocated edge array.
    """
    _check_matrix_cap(spec.n)
    return _fill_edges(spec, _pairwise_blocks(spec))


def _pairwise_blocks(spec: FlagGraphSpec):
    # the edges (a, b), a < b, of each row band of pairwise_edges, as rank arrays in row-major order
    masks, buffer = _prefix_masks(spec._vertices), np.empty(CHUNK_CELLS, dtype=np.uint8)
    for rows in _row_slices(spec.vertex_count, spec.vertex_count):
        # cell (r, c) of the band, read from its diagonal column on, is the pair (rows.start + r, rows.start + c):
        # keep c > r, clearing the diagonal and below in the square of the first len(hit) columns
        hit = _mismatch_band(masks, rows, slice(rows.start, None), buffer) == spec.k
        hit[:, : len(hit)] = np.triu(hit[:, : len(hit)], 1)
        a, b = hit.nonzero()  # column views of one (edges, 2) index array, shifted in place
        a += rows.start
        b += rows.start
        yield a, b


def _insertion_images(V: np.ndarray, positions) -> np.ndarray:
    # the rows of V, 0-based permutations of [n], with the new largest value
    # inserted at each 1-based position in turn, stacked position by position
    return np.concatenate([np.insert(V, p - 1, V.shape[1], axis=1) for p in positions])


def insertion_embedding_check(n: int, k: int, position: int = 1) -> tuple[bool, tuple[Perm, Perm] | None]:
    """
    Check whether inserting n+1 at ``position`` maps FJ(n, k) isomorphically
    onto an induced subgraph of FJ(n+1, k), i.e. preserves adjacency and
    non-adjacency on every vertex pair.  This holds at the end positions 1
    and n+1; interior positions generally break it, and the witness pair
    shows where: the first failing pair (u, v), u before v, in
    lexicographic order.  Returns (ok, witness_pair).  The check compares
    the prefix-mismatch counts of the permutations and of their insertion
    images one row band at a time, never an n! x n! array, in n!^2 steps, so
    n above ``config.MATRIX_CAP`` raises CapExceeded; k outside 0..n-1 ValueError.
    """
    _check_domain(n, k)
    if not 1 <= position <= n + 1:
        raise ValueError(f"insertion position {position} out of range 1..{n + 1}")
    _check_matrix_cap(n)
    V = _lex_vertices(n)
    masks, images = _prefix_masks(V), _prefix_masks(_insertion_images(V, [position]))
    buffer = np.empty(CHUNK_CELLS, dtype=np.uint8)  # one band of each count matrix in turn
    for rows in _row_slices(len(V), len(V)):
        adjacent = _mismatch_band(masks, rows, slice(None), buffer) == k
        broken = adjacent != (_mismatch_band(images, rows, slice(None), buffer) == k)
        # the full-width bands run in row order, so a band's first broken cell is the first in
        # row-major order, above the diagonal: both count matrices are symmetric, zero on it
        r, c = divmod(int(np.argmax(broken)), len(V))
        if broken[r, c]:
            return False, tuple(map(tuple, (V[[rows.start + r, c]] + 1).tolist()))
    return True, None


def _integer_pairs(pairs) -> np.ndarray:
    # pairs as an (E, 2) array of an integer dtype, an empty input as zero
    # pairs; any other shape, or an end that is no integer, raises ValueError
    P = np.asarray(pairs)
    if not P.size:
        return np.empty((0, 2), dtype=np.int32)
    if P.ndim != 2 or P.shape[1] != 2 or not np.issubdtype(P.dtype, np.integer):
        raise ValueError(f"edges must be an (E, 2) array of integer ranks, got {P.dtype} of shape {P.shape}")
    return P


def _edge_array(edges, bound: int) -> np.ndarray:
    # the rank pairs as an (E, 2) array of the integer dtype they came in,
    # so an EdgeList is not copied; an end outside 0..bound-1 raises ValueError
    pairs = _integer_pairs(edges)
    if len(pairs) and (pairs.min() < 0 or pairs.max() >= bound):
        raise ValueError(f"edge ends must be ranks in 0..{bound - 1}")
    return pairs


def _digits(values: np.ndarray) -> np.ndarray:
    """
    The decimal digits of integers in 0..2**32-1 as ASCII bytes along a new
    last axis, as wide as the largest value, right-aligned and NUL-padded on
    the left.  Each digit plane comes from a floor division of the uint32
    values by a scalar ten, and a plane left of a value's first digit is
    zeroed by comparing the value with that plane's power of ten.
    """
    v = values.astype(np.uint32)
    width = len(str(int(v.max())))
    digits = np.empty((width,) + v.shape, dtype=np.uint8)  # one contiguous plane per digit position
    q, ten = v, np.uint32(10)
    for col in range(width - 1, -1, -1):
        rest = q // ten
        digits[col] = q - rest * ten
        q = rest
    digits += ord("0")
    for col in range(width - 1):
        digits[col] *= v >= np.uint32(10 ** (width - 1 - col))
    return np.moveaxis(digits, 0, -1)


def _table(*parts) -> np.ndarray:
    """
    The word table of text rows: row r joins the parts (literal strings,
    or row r of each (rows, width) uint8 array of NUL-padded ASCII bytes)
    and is NUL-padded to whole uint64 words, so one rank's text is one row.
    """
    rows = next(len(part) for part in parts if not isinstance(part, str))
    parts = [np.frombuffer(part.encode("ascii"), dtype=np.uint8) if isinstance(part, str) else part for part in parts]
    table = np.zeros((rows, -(-sum(part.shape[-1] for part in parts) // 8) * 8), dtype=np.uint8)
    start = 0
    for part in parts:
        table[:, start : start + part.shape[-1]] = part
        start += part.shape[-1]
    return table.view(np.uint64)


def _text(words: np.ndarray) -> str:
    # the ASCII text of a word array without its NUL padding, which no literal, digit or label holds
    return words.tobytes().translate(None, b"\0").decode("ascii")


def _rows(pairs, first: np.ndarray, second: np.ndarray):
    """
    One text piece per ``CSV_ROWS`` edges of the (a, b) rank-array chunks
    that ``pairs`` yields: row a of the word table ``first`` then row b of
    ``second`` per edge, two gathers into one preallocated uint64 buffer
    whose NUL padding one ``bytes.translate`` deletes, with no Python object
    per edge.  The writers fold every literal into ``first``, led by the one
    closing the row before, so ``second``, read at random, is a bare word.
    """
    split = first.shape[1]
    buffer = np.empty((CSV_ROWS, split + second.shape[1]), dtype=np.uint64)
    for a, b in pairs:
        for start in range(0, len(a), CSV_ROWS):
            rows = buffer[: min(CSV_ROWS, len(a) - start)]
            np.take(first, a[start : start + CSV_ROWS], axis=0, out=rows[:, :split])
            np.take(second, b[start : start + CSV_ROWS], axis=0, out=rows[:, split:])
            yield _text(rows)


def _labels(spec: FlagGraphSpec) -> np.ndarray:
    # row r is the ASCII label of rank r: one digit per value, as
    # perm_to_string prints it, since n <= GRAPH_CAP < 10
    return spec._vertices + np.uint8(ord("1"))


def _csv_pieces(pairs, digits: np.ndarray):
    # the CSV writer: a "u,v" header row, then a row "a,b" per edge, each
    # opened by the newline that ends the row before it
    yield "u,v"
    yield from _rows(pairs, _table("\n", digits, ","), _table(digits))
    yield "\n"


def _dot_pieces(spec: FlagGraphSpec, pairs):
    # the DOT writer: the node lines, one label table taken whole, then a line
    # per edge, each opened by the '";' and newline ending the line before
    labels = _labels(spec)
    yield f'graph "FJ({spec.n},{spec.k})" {{\n'
    yield _text(_table('  "', labels, '";\n'))[: -len('";\n')]
    yield from _rows(pairs, _table('";\n  "', labels, '" -- "'), _table(labels))
    yield '";\n}\n'


def _json_pieces(spec: FlagGraphSpec, edge_count: int, pairs):
    """
    The JSON writer, in the layout json.dumps(indent=2) gives the document:
    the head needs only the graph's parameters, its labels (one label
    table taken whole, spliced into the ``json.dumps`` head) and
    ``edge_count``, so it is written before the first edge.  Each [a, b]
    row opens with the "]," that closes the row before it, which the first
    piece drops, and the last row is closed after the last piece.
    """
    doc = {
        "schema_version": 1,
        "n": spec.n,
        "k": spec.k,
        "vertex_count": spec.vertex_count,
        "degree": degree(spec.n, spec.k),
        "vertices": [],
        "edge_count": edge_count,
        "edges": [],
    }
    # the label list, the last label without its comma
    labels = _text(_table('\n    "', _labels(spec), '",'))[:-1]
    head = json.dumps(doc, indent=2).replace('"vertices": []', f'"vertices": [{labels}\n  ]')  # ends with '"edges": []\n}'
    yield head[: -len("]\n}")]
    close = "\n    ],"
    digits = _digits(np.arange(spec.vertex_count))
    rows = _rows(pairs, _table(close + "\n    [\n      ", digits, ",\n      "), _table(digits))
    first = next(rows, None)
    if first is None:
        yield "]\n}\n"
        return
    yield first[len(close) :]
    yield from rows
    yield "\n    ]\n  ]\n}\n"


def _export_pieces(spec: FlagGraphSpec, fmt: str):
    """
    The text of ``fjgraph export`` in ``fmt`` ("csv", "dot" or "json"),
    piece by piece as the edge stream makes it, from word tables built once
    per call, so the peak is the tables, one chunk of edges and one piece
    of text whatever the graph.  A graph over the edge budget raises
    CapExceeded here, before any piece; an edge total off the degree
    formula raises TheoremViolation after the last one.
    """
    pairs = _edge_stream(spec)
    if fmt == "csv":
        return _csv_pieces(pairs, _digits(np.arange(spec.vertex_count)))
    if fmt == "dot":
        return _dot_pieces(spec, pairs)
    return _json_pieces(spec, _check_edge_budget(spec.n, spec.k), pairs)


def edges_to_dot(spec: FlagGraphSpec, edges) -> str:
    """
    Undirected DOT text from rank pairs (an EdgeList, array or sequence),
    by the word-table writer of ``fjgraph export``; node names are one-line
    permutation strings.  An end that is not an integer rank of ``spec``,
    or pairs that do not form an (E, 2) array, raise ValueError.
    """
    edges = _edge_array(edges, spec.vertex_count)
    return "".join(_dot_pieces(spec, [(edges[:, 0], edges[:, 1])]))


def edges_to_csv(edges) -> str:
    """
    CSV rank pairs under a "u,v" header row, from an EdgeList, an (E, 2)
    array or any sequence of pairs.  A negative end, one of 2**32 or more,
    or one that is no integer is not a rank and raises ValueError, as do
    pairs that do not form an (E, 2) array; an empty input is zero edges.
    The ends need not be ranks of one graph, so each piece of ``CSV_ROWS``
    pairs is one word table of its own rows' digits, with no gather.
    """
    edges = _edge_array(edges, 2**32)
    pieces = (_digits(edges[start : start + CSV_ROWS]) for start in range(0, len(edges), CSV_ROWS))
    return "".join(["u,v", *(_text(_table("\n", d[:, 0], ",", d[:, 1])) for d in pieces), "\n"])


def edges_to_json(spec: FlagGraphSpec, edges) -> str:
    """
    JSON document: graph parameters, vertex labels, rank-pair edge array
    (from an EdgeList, array or sequence of pairs), written from word
    tables of the labels and rank digits as ``fjgraph export`` writes it.
    An end that is not an integer rank of ``spec``, or pairs that do not
    form an (E, 2) array, raise ValueError.
    """
    edges = _edge_array(edges, spec.vertex_count)
    return "".join(_json_pieces(spec, len(edges), [(edges[:, 0], edges[:, 1])]))
