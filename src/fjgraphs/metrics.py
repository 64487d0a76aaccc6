"""
Breadth-first search metrics on FJ(n, k): single-source distances,
eccentricity, connectivity, diameters, and the adjacent-transposition bound
that every edge must satisfy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb

import numpy as np

from .config import TheoremViolation
from .graphs import (
    FlagGraphSpec,
    _check_edge_budget,
    _chunks,
    _connection_form,
    _lex_ranks,
    _product_ranks,
    build_edges,
    generators,  # not called here; fjbench's tracer wraps it in this namespace
)
from .perms import Perm, identity, kendall_distance

UNREACHED = 0xFFFF  # uint16 sentinel: no path found
_BOTTOM_UP_ALPHA = 2  # a level goes bottom-up when ALPHA * |frontier| > |unreached| (measured)
_NARROW_ALPHA = 1  # the same for connection sets of at most one batch, whose bottom-up levels cannot stop early
_BOTTOM_UP_BATCH = 16  # generators composed per bottom-up pass over the unreached vertices


@dataclass(frozen=True)
class DistanceProfile:
    """Shortest-path lengths from one source, indexed by ordering rank."""

    source: Perm
    distances: np.ndarray  # uint16, UNREACHED where there is no path
    eccentricity: int
    reached: int

    @property
    def connected(self) -> bool:
        return self.reached == len(self.distances)


def bfs(spec: FlagGraphSpec, source) -> DistanceProfile:
    """
    Breadth-first distances from ``source`` to every vertex.  FJ(n, k) is a
    Cayley graph, so left multiplication by s is an automorphism and
    d(s, v) = d(id, s^-1 o v): the distances from any source are those from
    the identity, read at the lexicographic ranks of s^-1 o v.  The search
    from the identity (``_identity_search``) runs once per graph and is kept
    in a one-graph slot, so ``diameter`` and a ``bfs`` of the same graph
    search once; another graph replaces it.  From the identity under the
    lexicographic ordering, which is how ``diameter`` and ``is_connected``
    call it, the slot is copied as it stands, with no relabelling.  Returns
    a DistanceProfile whose ``distances`` is a fresh uint16 array indexed
    by ordering rank, ``UNREACHED`` where no path was found.  A graph over
    the edge budget (``config.EDGE_CAP``) raises CapExceeded before the
    search.
    """
    if spec.k == 0:
        raise ValueError("FJ(n, 0) has no edges; BFS is undefined")
    _check_edge_budget(spec.n, spec.k)
    source = tuple(source)
    spec.rank(source)  # a source that is not a vertex raises ValueError here
    lex, eccentricity, reached = _identity_search(spec.n, spec.k)
    if source == identity(spec.n) and spec._lexicographic:
        distances = lex.copy()  # s^-1 o v = v, at its own lexicographic rank
    else:
        inverse = np.empty(spec.n, dtype=np.uint8)
        inverse[np.array(source) - 1] = np.arange(spec.n, dtype=np.uint8)
        distances = lex[_lex_ranks(inverse[spec._vertices].T, spec.n)]
    return DistanceProfile(source, distances, eccentricity, reached)


@lru_cache(maxsize=1)
def _identity_search(n: int, k: int) -> tuple[np.ndarray, int, int]:
    """
    The read-only uint16 distances of FJ(n, k) from the identity, indexed by
    lexicographic rank, with their eccentricity and reached count.  One
    slot, so at most one n! array (80 KB at n = 8) stays alive, and a
    search of another graph replaces it.

    The search goes level by level, each level in the cheaper of two
    directions (Beamer, Asanovic and Patterson's direction-optimizing BFS):

    * top-down: the frontier is composed with the connection set, and
      every unreached product gets the level.  Expansion stops after the
      first chunk that leaves no vertex without a distance -- which cuts
      the work sharply on dense connection sets whose BFS trees are
      shallow.
    * bottom-up: every unreached vertex v is composed with the connection
      set, 16 generators at a time, and gets the level once some product
      v o g lies in the previous frontier; vertices that found one drop out
      before the next batch.  This is exact because the connection set is
      closed under inverses, so the neighbours of v are the products v o g.

    A level goes bottom-up when 2 * |frontier| > |unreached|, else
    top-down.  A top-down level composes |frontier| * degree products and a
    bottom-up one at most |unreached| * degree < 2 * |frontier| * degree, so
    a whole search composes at most 2 * n! * degree.  A connection set of
    at most 16 generators is one batch: its bottom-up levels compose all
    |unreached| * degree products, so they go bottom-up only when
    |frontier| > |unreached|.  Products are ranked through the cached rank form
    of the connection rows (``graphs._connection_form``, read by
    ``graphs._product_ranks``) in vertex chunks of about
    ``graphs.CHUNK_CELLS``, so the peak memory is fixed whatever the
    degree.
    """
    spec = FlagGraphSpec(n, k)
    form = _connection_form(n, k)

    dist = np.full(spec.vertex_count, UNREACHED, dtype=np.uint16)
    dist[0] = 0  # the identity is lexicographic rank 0
    frontier = np.zeros(1, dtype=np.int32)
    unreached = spec.vertex_count - 1
    alpha = _BOTTOM_UP_ALPHA if len(form) > _BOTTOM_UP_BATCH else _NARROW_ALPHA
    level = 0
    while frontier.size and unreached:
        level += 1
        if alpha * frontier.size > unreached:
            todo = np.flatnonzero(dist == UNREACHED)
            for start in range(0, len(form), _BOTTOM_UP_BATCH):
                batch = form[start : start + _BOTTOM_UP_BATCH]
                for rows in _chunks(todo, batch):
                    hit = (dist[_product_ranks(spec, rows, batch)] == level - 1).any(axis=1)
                    dist[rows[hit]] = level
                todo = todo[dist[todo] == UNREACHED]
                if not todo.size:
                    break
            unreached = todo.size
        else:
            for rows in _chunks(frontier, form):
                b = _product_ranks(spec, rows, form).ravel()
                dist[b[dist[b] == UNREACHED]] = level
                unreached = np.count_nonzero(dist == UNREACHED)
                if not unreached:
                    break
        frontier = np.flatnonzero(dist == level)
    dist.flags.writeable = False
    return dist, int(dist[dist != UNREACHED].max()), spec.vertex_count - unreached


def is_connected(spec: FlagGraphSpec) -> bool:
    """
    Measured connectivity (one BFS), even though every FJ(n, k) with k >= 1
    is connected.  For k = 0 there are no edges, so only the one-vertex
    graph n = 1 counts as connected.
    """
    if spec.k == 0:
        return spec.n == 1
    return bfs(spec, identity(spec.n)).connected


def diameter(spec: FlagGraphSpec) -> int:
    """
    Largest eccentricity, from a single BFS from the identity: a Cayley
    graph looks the same from every vertex, and the tests hold this
    shortcut to a BFS from every source for small n.  A disconnected graph
    here would contradict the connectivity of every non-trivial FJ(n, k),
    so it raises TheoremViolation instead of returning anything.
    """
    if spec.k == 0:
        raise ValueError("FJ(n, 0) has no edges; its diameter is undefined")
    profile = bfs(spec, identity(spec.n))
    if not profile.connected:
        raise TheoremViolation(
            f"FJ({spec.n},{spec.k}) reached only {profile.reached} of {spec.vertex_count} vertices"
        )
    return profile.eccentricity


def diameter_lower_bound(n: int, k: int) -> int:
    """
    ceil(C(n,2) / C(k+1,2)).  Going from the identity to the reversal costs
    C(n,2) adjacent transpositions in total, while crossing one edge accounts
    for at most C(k+1,2) of them; the diameter is an integer, so the ratio
    rounds up.

    >>> diameter_lower_bound(7, 3)
    4
    """
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got n={n}, k={k}")
    return -(-comb(n, 2) // comb(k + 1, 2))


def edge_transposition_bound_check(spec: FlagGraphSpec):
    """
    Every edge (u, v) satisfies kendall_distance(u, v) <= C(k+1, 2).
    Returns (True, None), or (False, (u, v)) with the first offending edge
    of ``build_edges``.

    This is the reference route, one ``kendall_distance`` call per edge, as
    ``pairwise_edges`` is for ``build_edges``: the battery checks the bound
    on arrays (``_swap_witness``) on each chunk of the edge stream it reads
    once per graph, and the tests hold that route to this one.  It stays public
    because it states the bound in the terms of the paper, pair by pair,
    and because the benchmark's tracer counts its calls.
    """
    bound = comb(spec.k + 1, 2)
    for a, b in build_edges(spec):
        u, v = spec.ordering[a], spec.ordering[b]
        if kendall_distance(u, v) > bound:
            return False, (u, v)
    return True, None


def _inversion_bits(spec: FlagGraphSpec) -> np.ndarray:
    """
    One uint32 per vertex of ``spec``, by rank, with a bit per value pair
    (C(8, 2) = 28 bits fit) set when the pair stands inverted in that
    vertex, read from the inverse vertex rows.  The number of adjacent
    transpositions between u and v, the number of value pairs they put in
    opposite orders, is then the bit count of the XOR of their words.
    """
    inverse = np.argsort(spec._vertices, axis=1).T  # inverse[x, r]: position of value x in vertex r
    inverted = np.zeros(spec.vertex_count, dtype=np.uint32)
    for bit, (x, y) in enumerate(combinations(range(spec.n), 2)):
        inverted |= (inverse[x] > inverse[y]).astype(np.uint32) << np.uint32(bit)
    return inverted


def _swap_witness(spec: FlagGraphSpec, inverted: np.ndarray, a: np.ndarray, b: np.ndarray) -> tuple[Perm, Perm] | None:
    """
    ``edge_transposition_bound_check`` on arrays, for the edges (a[i], b[i])
    given as two rank arrays: the first edge whose ends lie more than
    C(k+1, 2) adjacent transpositions apart, as a pair of vertices, or
    None.  Each edge costs one XOR and one ``np.bitwise_count`` of the
    ``_inversion_bits`` of its ends; only the edges and the ordering are
    read, never the connection set.
    """
    bad = np.flatnonzero(np.bitwise_count(inverted[a] ^ inverted[b]) > comb(spec.k + 1, 2))
    if not bad.size:
        return None
    u, v = (spec._vertices[[a[bad[0]], b[bad[0]]]] + 1).tolist()
    return tuple(u), tuple(v)
