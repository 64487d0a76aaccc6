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
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import factorial, prod
from typing import Sequence

import numpy as np

from .config import EDGE_CAP, MATRIX_CAP, CapExceeded
from .perms import (
    Perm,
    check_permutation,
    compose,
    enumerate_permutations,
    insertion,
    is_irreducible,
    perm_to_string,
    prefix_mismatch_count,
)


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


@dataclass(frozen=True)
class FlagGraphSpec:
    """Graph parameters plus the vertex ordering used for ranks and matrices."""

    n: int
    k: int
    ordering: tuple[Perm, ...] = ()

    def __post_init__(self):
        if self.n < 1 or not 0 <= self.k < self.n:
            raise ValueError(f"need 0 <= k < n, got n={self.n}, k={self.k}")
        if self.ordering:
            object.__setattr__(self, "ordering", check_ordering(self.ordering, self.n))
        else:
            object.__setattr__(self, "ordering", enumerate_permutations(self.n))

    @property
    def vertex_count(self) -> int:
        return len(self.ordering)

    @cached_property
    def _rank_of(self) -> dict[Perm, int]:
        return {p: i for i, p in enumerate(self.ordering)}

    def rank(self, p: Sequence[int]) -> int:
        """Position of a vertex in the ordering."""
        try:
            return self._rank_of[tuple(p)]
        except KeyError:
            raise ValueError(f"{tuple(p)!r} is not a vertex of FJ({self.n},{self.k})") from None


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
    # n! * degree / 2 edges, known before a single tuple is allocated; a BFS
    # composes at most twice that many products, so this bounds it too
    edges = factorial(n) * degree(n, k) // 2
    if edges > EDGE_CAP:
        raise CapExceeded(f"FJ({n},{k}) has {edges} edges, over the edge budget {EDGE_CAP}")


def build_edges(spec: FlagGraphSpec) -> list[tuple[int, int]]:
    """
    Edge list as rank pairs (a, b) with a < b, sorted.  Runs in
    O(n! * degree * n) by composing every vertex with the connection set and
    ranking through a hash table, instead of testing all C(n!, 2) pairs.
    FJ(n, 0) yields an empty list (loops are excluded by convention).  A
    graph with more than ``config.EDGE_CAP`` edges raises CapExceeded
    before anything is built.
    """
    _check_edge_budget(spec.n, spec.k)
    if spec.k == 0:
        return []
    rank_of = spec._rank_of
    gens0 = [tuple(j - 1 for j in g) for g in generators(spec.n, spec.k)]
    edges = []
    for a, u in enumerate(spec.ordering):
        for g in gens0:
            b = rank_of[tuple(u[i] for i in g)]
            if a < b:
                edges.append((a, b))
    edges.sort()
    return edges


def _check_matrix_cap(n: int) -> None:
    if n > MATRIX_CAP:
        raise CapExceeded(f"n={n} exceeds the matrix cap {MATRIX_CAP}")


def prefix_mismatch_matrix(ordering: Sequence[Perm]) -> np.ndarray:
    """
    Pairwise prefix-mismatch counts for every pair in the ordering, as an
    N x N uint8 array.  Prefix sets are encoded as integer bitmasks per
    vertex and compared one prefix length at a time, so memory stays at a
    few N x N byte planes.  Orderings of permutations of [n] with n above
    ``config.MATRIX_CAP`` raise CapExceeded before anything is allocated.
    """
    S = tuple(ordering)
    N = len(S)
    n = len(S[0])
    _check_matrix_cap(n)
    counts = np.zeros((N, N), dtype=np.uint8)
    acc = np.zeros(N, dtype=np.int64)
    P = np.array(S, dtype=np.int64)
    for i in range(n - 1):
        acc = acc | np.left_shift(1, P[:, i])
        counts += acc[:, None] != acc[None, :]
    return counts


def pairwise_edges(spec: FlagGraphSpec) -> list[tuple[int, int]]:
    """
    Quadratic reference route: evaluate the adjacency predicate on every
    vertex pair.  Kept as an independent cross-check for ``build_edges``
    (different algorithm, different data path).
    """
    counts = prefix_mismatch_matrix(spec.ordering)
    hits = np.triu(counts == spec.k, k=1)
    a_idx, b_idx = np.nonzero(hits)
    return list(zip(a_idx.tolist(), b_idx.tolist()))


def insertion_embedding_check(n: int, k: int, position: int = 1) -> tuple[bool, tuple[Perm, Perm] | None]:
    """
    Check whether inserting n+1 at ``position`` maps FJ(n, k) isomorphically
    onto an induced subgraph of FJ(n+1, k), i.e. preserves adjacency and
    non-adjacency on every vertex pair.  This holds at the end positions 1
    and n+1; interior positions generally break it, and the witness pair
    shows where.  Returns (ok, witness_pair).  The pairs number n!^2 / 2,
    so n above ``config.MATRIX_CAP`` raises CapExceeded.
    """
    if not 1 <= position <= n + 1:
        raise ValueError(f"insertion position {position} out of range 1..{n + 1}")
    _check_matrix_cap(n)
    perms = enumerate_permutations(n)
    for a, u in enumerate(perms):
        for v in perms[a + 1 :]:
            small = prefix_mismatch_count(u, v) == k
            big = prefix_mismatch_count(insertion(u, position), insertion(v, position)) == k
            if small != big:
                return False, (u, v)
    return True, None


def edges_to_dot(spec: FlagGraphSpec, edges: Sequence[tuple[int, int]]) -> str:
    """Undirected DOT text; node names are one-line permutation strings."""
    lines = [f'graph "FJ({spec.n},{spec.k})" {{']
    for p in spec.ordering:
        lines.append(f'  "{perm_to_string(p)}";')
    for a, b in edges:
        lines.append(f'  "{perm_to_string(spec.ordering[a])}" -- "{perm_to_string(spec.ordering[b])}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def edges_to_csv(edges: Sequence[tuple[int, int]]) -> str:
    """CSV rank pairs under a "u,v" header row."""
    return "u,v\n" + "".join(f"{a},{b}\n" for a, b in edges)


def edges_to_json(spec: FlagGraphSpec, edges: Sequence[tuple[int, int]]) -> str:
    """JSON document: graph parameters, vertex labels, rank-pair edge array."""
    doc = {
        "schema_version": 1,
        "n": spec.n,
        "k": spec.k,
        "vertex_count": spec.vertex_count,
        "degree": degree(spec.n, spec.k),
        "vertices": [perm_to_string(p) for p in spec.ordering],
        "edge_count": len(edges),
        "edges": [[a, b] for a, b in edges],
    }
    return json.dumps(doc, indent=2) + "\n"

