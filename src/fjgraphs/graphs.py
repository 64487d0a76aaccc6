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
ids used by edge lists, BFS and matrices.  Specs and generator tuples are
immutable; all queries here are read-only.

Edge lists and BFS run on arrays: the vertices form an (n!, n) uint8 array,
a batch of products u o g is composed by fancy indexing and ranked by a
vectorized Lehmer code, and the batches are cut into vertex chunks of about
``CHUNK_PRODUCTS`` products, so the peak memory is fixed whatever the
degree.
"""

from __future__ import annotations

import itertools
import json
import operator
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import factorial, prod
from collections.abc import Sequence

import numpy as np

from .config import EDGE_CAP, GRAPH_CAP, MATRIX_CAP, CapExceeded
from .perms import (
    Perm,
    check_permutation,
    compose,
    enumerate_permutations,
    is_irreducible,
    is_permutation,
    perm_to_string,
    prefix_mismatch_count,
    rank,
)

CHUNK_PRODUCTS = 1 << 20  # products u o g composed at once: bounds the peak memory of edge lists and BFS
_MISMATCH_BLOCK = 1 << 18  # cells of a prefix-mismatch matrix filled at once
CSV_ROWS = 1 << 16  # edges formatted per string operation in the exports, and per step of EdgeList iteration

# popcount of every byte: for n <= 8 (config.GRAPH_CAP) the set of values
# already seen at a position fits in one byte
_POPCOUNT = np.array([bin(s).count("1") for s in range(256)], dtype=np.uint8)


def check_ordering(ordering: Sequence[Sequence[int]], n: int | None = None) -> tuple[Perm, ...]:
    """Validate that ``ordering`` lists every permutation of [n] exactly once."""
    S = tuple(check_permutation(p) for p in ordering)
    if not S:
        raise ValueError("empty vertex ordering")
    size = len(S[0]) if n is None else n
    if any(len(p) != size for p in S):
        raise ValueError("ordering mixes permutations of different sizes")
    if len(S) != factorial(size) or len(set(S)) != len(S):
        raise ValueError(f"ordering does not cover the {factorial(size)} permutations of [{size}] exactly once")
    return S


@lru_cache(maxsize=None)
def _lex_vertices(n: int) -> np.ndarray:
    # all permutations of [n] in lexicographic order, 0-based values, read-only
    V = np.array(enumerate_permutations(n), dtype=np.uint8) - 1
    V.flags.writeable = False
    return V


def _lex_ranks(columns, n: int) -> np.ndarray:
    """
    Lexicographic ranks, as int32, of permutations of [n] given column by
    column: ``columns`` yields uint8 arrays of 0-based values, one per
    position, and only the first n-1 are read.  The Lehmer digit at a
    position is the number of smaller values not seen yet,
    v - popcount(seen & (bit(v) - 1)), with ``seen`` the byte of values
    already placed.
    """
    ranks = np.zeros(1, dtype=np.int32)  # broadcasts; also the rank of the one permutation of [1]
    seen = np.uint8(0)
    for i, v in zip(range(n - 1), columns):
        bit = 1 << v
        ranks = ranks + (v - _POPCOUNT[seen & (bit - 1)]) * np.int32(factorial(n - 1 - i))
        seen = seen | bit
    return ranks


@dataclass(frozen=True)
class FlagGraphSpec:
    """
    Graph parameters plus the vertex ordering used for ranks and matrices.
    ``ordering`` is a tuple of permutation tuples; ranks into it index the
    edge lists and the uint16 BFS distance arrays.  The array
    routes read the ordering as an (n!, n) uint8 array of 0-based values
    (one read-only array shared by the lexicographic specs of each n), rank
    products lexicographically and map those ranks to ordering positions
    through one int32 array; both are built on first use.  The routes
    compose products in vertex chunks of about ``CHUNK_PRODUCTS``, so their
    working memory stays under 64 MB at n <= 8.
    """

    n: int
    k: int
    ordering: tuple[Perm, ...] = ()
    _custom: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1 or not 0 <= self.k < self.n:
            raise ValueError(f"need 0 <= k < n, got n={self.n}, k={self.k}")
        if self.n > GRAPH_CAP:  # also the limit of the byte-wide sets of _lex_ranks
            raise CapExceeded(f"n={self.n} exceeds the graph cap {GRAPH_CAP} ({factorial(self.n)} permutations)")
        object.__setattr__(self, "_custom", bool(self.ordering))
        if self.ordering:
            object.__setattr__(self, "ordering", check_ordering(self.ordering, self.n))
        else:
            object.__setattr__(self, "ordering", enumerate_permutations(self.n))

    @property
    def vertex_count(self) -> int:
        return len(self.ordering)

    @cached_property
    def _vertices(self) -> np.ndarray:
        # row r is ordering[r] with 0-based values
        if self._custom:
            return np.array(self.ordering, dtype=np.uint8) - 1
        return _lex_vertices(self.n)

    @cached_property
    def _positions(self) -> np.ndarray:
        # _positions[lexicographic rank] = rank in this ordering
        positions = np.empty(self.vertex_count, dtype=np.int32)
        positions[_lex_ranks(self._vertices.T, self.n)] = np.arange(self.vertex_count, dtype=np.int32)
        return positions

    def rank(self, p: Sequence[int]) -> int:
        """Position of a vertex in the ordering."""
        p = tuple(p)
        if len(p) != self.n or not is_permutation(p):
            raise ValueError(f"{p!r} is not a vertex of FJ({self.n},{self.k})")
        return int(self._positions[rank(p)])


def adjacent(spec: FlagGraphSpec, u: Sequence[int], v: Sequence[int]) -> bool:
    """
    The adjacency predicate: do the flags of u and v differ in exactly k
    prefix positions?  Symmetric.  For k = 0 this is true only for u == v;
    for k = 1 it means u and v differ by one adjacent transposition.
    """
    u, v = tuple(u), tuple(v)
    if len(u) != spec.n or len(v) != spec.n:
        raise ValueError(f"vertices must have size {spec.n}")
    return prefix_mismatch_count(u, v) == spec.k


@lru_cache(maxsize=None)
def irreducible_patterns(m: int) -> tuple[Perm, ...]:
    """All irreducible permutations of [m], in lexicographic order."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return tuple(p for p in itertools.permutations(range(1, m + 1)) if is_irreducible(p))


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


def _compositions(total: int, parts: int):
    # Tuples of `parts` positive integers summing to `total`, lex order.
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def generators(n: int, k: int) -> tuple[Perm, ...]:
    """
    The connection set of FJ(n, k): every permutation of [n] that splits
    into exactly n-k irreducible consecutive blocks.  Enumerated by choosing
    the n-k block sizes (a composition of n) and filling each block with an
    irreducible pattern, rather than filtering all of S_n; the brute filter
    is kept in the test suite as the oracle.

    The set is closed under inverses, and contains the identity only in the
    degenerate case k = 0, where it is exactly {identity}.
    """
    if n < 1 or not 0 <= k < n:
        raise ValueError(f"need 0 <= k < n, got n={n}, k={k}")
    gens = []
    for sizes in _compositions(n, n - k):
        for combo in itertools.product(*(irreducible_patterns(m) for m in sizes)):
            g: list[int] = []
            offset = 0
            for pattern in combo:
                g.extend(x + offset for x in pattern)
                offset += len(pattern)
            gens.append(tuple(g))
    return tuple(gens)


def degree(n: int, k: int) -> int:
    """
    Common vertex degree of FJ(n, k): the connection-set size, i.e. the sum
    over compositions (c1, ..., c_{n-k}) of n of the product of irreducible
    counts of the parts.  FJ(n, 0) is represented without self-loops, so its
    degree is 0.

    >>> degree(4, 2)
    7
    >>> degree(5, 1)
    4
    """
    if n < 1 or not 0 <= k < n:
        raise ValueError(f"need 0 <= k < n, got n={n}, k={k}")
    if k == 0:
        return 0
    return sum(prod(irreducible_count(c) for c in sizes) for sizes in _compositions(n, n - k))


def neighbors(spec: FlagGraphSpec, u: Sequence[int]) -> list[Perm]:
    """
    All vertices adjacent to u, as right products with the connection set.
    Distinct generators give distinct products, so the list has exactly
    degree(n, k) entries and no duplicates.  For k = 0 the graph has no
    edges and the list is empty.
    """
    u = tuple(u)
    if len(u) != spec.n:
        raise ValueError(f"vertex must have size {spec.n}")
    if spec.k == 0:
        return []
    return [compose(u, g) for g in generators(spec.n, spec.k)]


def _check_edge_budget(n: int, k: int) -> None:
    # n! * degree / 2 edges, known before a single product is composed; a
    # BFS composes at most four times that many products, so this bounds
    # its time too
    edges = factorial(n) * degree(n, k) // 2
    if edges > EDGE_CAP:
        raise CapExceeded(f"FJ({n},{k}) has {edges} edges, over the edge budget {EDGE_CAP}")


def _chunks(rows: np.ndarray, width: int):
    # consecutive slices of `rows` holding about CHUNK_PRODUCTS products with `width` generators
    step = max(1, CHUNK_PRODUCTS // width)
    return (rows[start : start + step] for start in range(0, len(rows), step))


def _product_ranks(spec: FlagGraphSpec, rows: np.ndarray, gens: np.ndarray) -> np.ndarray:
    """
    Ranks in ``spec``'s ordering of the products u o g, for the vertices u
    at ranks ``rows`` and the generators g given as 0-based position rows of
    ``gens``: a (len(rows), len(gens)) int32 array.  Column j of the
    products is u at positions g_j, one fancy index per position.
    """
    U = spec._vertices[rows]
    return spec._positions[_lex_ranks((U[:, g] for g in gens.T), spec.n)]


def _edge_chunks(spec: FlagGraphSpec):
    """
    The edges (a, b) with a < b as pairs of equal-length int32 rank arrays,
    one vertex chunk at a time; concatenated they are sorted by (a, b).
    The edge budget is checked when iteration starts, before any product.
    """
    _check_edge_budget(spec.n, spec.k)
    if spec.k == 0:
        return
    gens = np.array(generators(spec.n, spec.k), dtype=np.intp) - 1
    for rows in _chunks(np.arange(spec.vertex_count, dtype=np.int32), len(gens)):
        b = _product_ranks(spec, rows, gens)
        b.sort(axis=1)
        keep = b > rows[:, None]
        yield np.broadcast_to(rows[:, None], b.shape)[keep], b[keep]


class EdgeList(Sequence):
    """
    An edge list: a sequence of rank pairs (a, b) held as one (E, 2) int64
    array.  It reads like the list of pairs it stands for -- an index gives
    an (a, b) tuple of ints, a slice or ``+`` gives an EdgeList, iteration
    goes ``CSV_ROWS`` pairs at a time, and it equals the list of the same
    pairs -- while ``np.asarray(edges)`` (or ``edges.array``) is the
    array itself, without a copy.
    """

    __slots__ = ("array",)

    def __init__(self, pairs=()):
        self.array = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)

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
    O(n! * degree * n) by composing every vertex with the connection set
    and ranking the products with a vectorized Lehmer code, instead of
    testing all C(n!, 2) pairs.  The products are composed in vertex chunks
    of about ``CHUNK_PRODUCTS``, so the peak is a fixed working set plus 24
    bytes per edge: the int32 chunks and the int64 array they are joined
    into.  FJ(n, 0) yields an empty list (loops are excluded by
    convention).  A graph with more than ``config.EDGE_CAP`` edges raises
    CapExceeded before anything is built.
    """
    parts = [np.stack(pair, axis=1) for pair in _edge_chunks(spec)]
    return EdgeList(np.concatenate(parts, dtype=np.int64) if parts else ())


def _check_matrix_cap(n: int) -> None:
    if n > MATRIX_CAP:
        raise CapExceeded(f"n={n} exceeds the matrix cap {MATRIX_CAP}")


def prefix_mismatch_matrix(ordering: Sequence[Perm]) -> np.ndarray:
    """
    Pairwise prefix-mismatch counts for every pair in the ordering, as an
    N x N uint8 array.  Prefix sets are encoded as one-byte bitmasks per
    vertex and compared one row block at a time, so the only temporaries
    are block-sized.  Orderings of permutations of [n] with n above
    ``config.MATRIX_CAP`` raise CapExceeded before anything is allocated.
    """
    S = tuple(ordering)
    _check_matrix_cap(len(S[0]))
    return _prefix_mismatch_counts(np.array(S, dtype=np.uint8))


def _prefix_mismatch_counts(P: np.ndarray) -> np.ndarray:
    # the N x N uint8 counts for the N permutations of [n], n <= 8, in the
    # rows of the uint8 array P
    N, n = P.shape
    # masks[i, r]: the prefix set of length i+1 of row r, value v as bit v-1
    values = np.ascontiguousarray(P[:, : n - 1].T)  # row-major, so every mask row is contiguous
    masks = np.bitwise_or.accumulate(np.left_shift(1, values - 1, dtype=np.uint8), axis=0)
    counts = np.zeros((N, N), dtype=np.uint8)
    step = max(1, _MISMATCH_BLOCK // N)
    for start in range(0, N, step):
        block = counts[start : start + step]
        for m in masks:
            block += (m[start : start + step, None] != m).view(np.uint8)
    return counts


def pairwise_edges(spec: FlagGraphSpec) -> EdgeList:
    """
    Quadratic reference route: evaluate the adjacency predicate on every
    vertex pair.  Kept as an independent cross-check for ``build_edges``
    (different algorithm, different data path), and returns the same
    sorted EdgeList of rank pairs a < b.
    """
    counts = prefix_mismatch_matrix(spec.ordering)
    return EdgeList(np.argwhere(np.triu(counts == spec.k, k=1)))


def insertion_embedding_check(n: int, k: int, position: int = 1) -> tuple[bool, tuple[Perm, Perm] | None]:
    """
    Check whether inserting n+1 at ``position`` maps FJ(n, k) isomorphically
    onto an induced subgraph of FJ(n+1, k), i.e. preserves adjacency and
    non-adjacency on every vertex pair.  This holds at the end positions 1
    and n+1; interior positions generally break it, and the witness pair
    shows where: the first failing pair (u, v), u before v, in
    lexicographic order.  Returns (ok, witness_pair).  The check compares
    the prefix-mismatch matrices of the permutations and of their
    insertion images, two n! x n! arrays, so n above ``config.MATRIX_CAP``
    raises CapExceeded.
    """
    if not 1 <= position <= n + 1:
        raise ValueError(f"insertion position {position} out of range 1..{n + 1}")
    _check_matrix_cap(n)
    S = enumerate_permutations(n)
    P = np.array(S, dtype=np.uint8)
    # two n! x n! uint8 planes at once: each count matrix becomes its 0/1
    # adjacency in place, and the second is XORed into the first
    differ = _prefix_mismatch_counts(P)
    np.equal(differ, k, out=differ, casting="unsafe")
    images = _prefix_mismatch_counts(np.insert(P, position - 1, n + 1, axis=1))
    np.equal(images, k, out=images, casting="unsafe")
    differ ^= images
    # both matrices are symmetric with a zero diagonal, so the first
    # differing cell in row-major order lies above the diagonal
    first = int(np.argmax(differ))
    if not differ.flat[first]:
        return True, None
    a, b = divmod(first, len(S))
    return False, (S[a], S[b])


def _format_rows(template: str, edges: np.ndarray, labels: np.ndarray | None = None) -> list[str]:
    """
    ``template`` filled in by every edge (a, b), or by the labels of its
    ends when ``labels`` (an object array of strings) is given, ``CSV_ROWS``
    edges per string operation, so the exports never hold a Python object
    per edge.
    """
    parts = []
    for start in range(0, len(edges), CSV_ROWS):
        chunk = edges[start : start + CSV_ROWS]
        values = chunk if labels is None else labels[chunk]
        parts.append(template * len(chunk) % tuple(values.ravel().tolist()))
    return parts


def edges_to_dot(spec: FlagGraphSpec, edges) -> str:
    """Undirected DOT text from rank pairs (an EdgeList, array or sequence); node names are one-line permutation strings."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    labels = [perm_to_string(p) for p in spec.ordering]
    nodes = "".join(f'  "{label}";\n' for label in labels)
    rows = _format_rows('  "%s" -- "%s";\n', edges, np.array(labels, dtype=object))
    return "".join([f'graph "FJ({spec.n},{spec.k})" {{\n', nodes, *rows, "}\n"])


def edges_to_csv(edges) -> str:
    """
    CSV rank pairs under a "u,v" header row, from an EdgeList, an (E, 2)
    array or any sequence of pairs.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    return "".join(["u,v\n", *_format_rows("%d,%d\n", edges)])


def edges_to_json(spec: FlagGraphSpec, edges) -> str:
    """JSON document: graph parameters, vertex labels, rank-pair edge array (from an EdgeList, array or sequence of pairs)."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    doc = {
        "schema_version": 1,
        "n": spec.n,
        "k": spec.k,
        "vertex_count": spec.vertex_count,
        "degree": degree(spec.n, spec.k),
        "vertices": [perm_to_string(p) for p in spec.ordering],
        "edge_count": len(edges),
        "edges": [],
    }
    head = json.dumps(doc, indent=2)  # ends with '"edges": []\n}'
    if not len(edges):
        return head + "\n"
    # each [a, b] in the layout json.dumps(indent=2) gives a non-empty list; the last drops its comma
    rows = _format_rows("\n    [\n      %d,\n      %d\n    ],", edges)
    rows[-1] = rows[-1][:-1]
    return "".join([head[: -len("]\n}")], *rows, "\n  ]\n}\n"])
