"""
Breadth-first search metrics on FJ(n, k): single-source distances,
eccentricity, connectivity, diameters, and the adjacent-transposition bound
that every edge must satisfy.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from .config import TheoremViolation
from .graphs import _POPCOUNT, FlagGraphSpec, _check_edge_budget, _chunks, _product_ranks, build_edges, generators
from .perms import Perm, identity, kendall_distance

UNREACHED = 0xFFFF  # uint16 sentinel: no path found
_BOTTOM_UP_ALPHA = 2  # a level goes bottom-up when ALPHA * |frontier| > |unreached| (measured)
_NARROW_ALPHA = 1  # the same for connection sets of at most one batch, whose bottom-up levels cannot stop early
_BOTTOM_UP_BATCH = 16  # generators composed per bottom-up pass over the unreached vertices
_EDGE_CHUNK = 1 << 18  # edges whose swap bound is checked at once


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
    Breadth-first distances from ``source`` to every vertex, level by
    level, each level in the cheaper of two directions (Beamer, Asanovic
    and Patterson's direction-optimizing BFS):

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
    |frontier| > |unreached|.  Products are composed
    in vertex chunks of about ``graphs.CHUNK_PRODUCTS``, so the peak memory
    is fixed whatever the degree.  Returns a DistanceProfile whose
    ``distances`` is a uint16 array indexed by ordering rank, ``UNREACHED``
    where no path was found.  A graph over the edge budget
    (``config.EDGE_CAP``) raises CapExceeded before the search.
    """
    if spec.k == 0:
        raise ValueError("FJ(n, 0) has no edges; BFS is undefined")
    _check_edge_budget(spec.n, spec.k)
    src = spec.rank(source)
    gens = np.array(generators(spec.n, spec.k), dtype=np.intp) - 1

    dist = np.full(spec.vertex_count, UNREACHED, dtype=np.uint16)
    dist[src] = 0
    frontier = np.array([src], dtype=np.int32)
    unreached = spec.vertex_count - 1
    alpha = _BOTTOM_UP_ALPHA if len(gens) > _BOTTOM_UP_BATCH else _NARROW_ALPHA
    level = 0
    while frontier.size and unreached:
        level += 1
        if alpha * frontier.size > unreached:
            todo = np.flatnonzero(dist == UNREACHED)
            for start in range(0, len(gens), _BOTTOM_UP_BATCH):
                batch = gens[start : start + _BOTTOM_UP_BATCH]
                for rows in _chunks(todo, len(batch)):
                    hit = (dist[_product_ranks(spec, rows, batch)] == level - 1).any(axis=1)
                    dist[rows[hit]] = level
                todo = todo[dist[todo] == UNREACHED]
                if not todo.size:
                    break
            unreached = todo.size
        else:
            for rows in _chunks(frontier, len(gens)):
                b = _product_ranks(spec, rows, gens).ravel()
                dist[b[dist[b] == UNREACHED]] = level
                unreached = np.count_nonzero(dist == UNREACHED)
                if not unreached:
                    break
        frontier = np.flatnonzero(dist == level)
    ecc = int(dist[dist != UNREACHED].max())
    return DistanceProfile(tuple(source), dist, ecc, spec.vertex_count - unreached)


def is_connected(spec: FlagGraphSpec) -> bool:
    """
    Measured connectivity (one BFS), even though every FJ(n, k) with k >= 1
    is connected.  For k = 0 there are no edges, so only the one-vertex
    graph n = 1 counts as connected.
    """
    if spec.k == 0:
        return spec.n == 1
    return bfs(spec, identity(spec.n)).connected


def diameter(spec: FlagGraphSpec, mode: str = "transitive") -> int:
    """
    Largest eccentricity.  Mode "transitive" runs a single BFS from the
    identity, valid because a Cayley graph looks the same from every vertex;
    "exhaustive" runs a BFS from every source (n! searches) and is kept as
    the test oracle of that shortcut for small n.  A disconnected graph
    here would contradict the connectivity of every non-trivial FJ(n, k),
    so it raises TheoremViolation instead of returning anything.
    """
    if spec.k == 0:
        raise ValueError("FJ(n, 0) has no edges; its diameter is undefined")
    if mode not in ("transitive", "exhaustive"):
        raise ValueError(f"unknown mode {mode!r}")
    profile = bfs(spec, identity(spec.n))
    if not profile.connected:
        raise TheoremViolation(
            f"FJ({spec.n},{spec.k}) reached only {profile.reached} of {spec.vertex_count} vertices"
        )
    if mode == "transitive":
        return profile.eccentricity
    best = profile.eccentricity
    for p in spec.ordering:
        prof = bfs(spec, p)
        if not prof.connected:
            raise TheoremViolation(f"FJ({spec.n},{spec.k}) disconnected from source {p}")
        best = max(best, prof.eccentricity)
    return best


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
    on arrays (``_edge_kendall_bound``) over the edge list it builds once
    per graph, and the tests hold that route to this one.  It stays public
    because it states the bound in the terms of the paper, pair by pair,
    and because the benchmark's tracer counts its calls.
    """
    bound = comb(spec.k + 1, 2)
    for a, b in build_edges(spec):
        u, v = spec.ordering[a], spec.ordering[b]
        if kendall_distance(u, v) > bound:
            return False, (u, v)
    return True, None


def _edge_kendall_bound(spec: FlagGraphSpec, edges) -> tuple[bool, tuple[Perm, Perm] | None]:
    """
    ``edge_transposition_bound_check`` on arrays, over a given edge list:
    (True, None), or (False, (u, v)) for the first edge (a, b) of ``edges``
    whose ends lie more than C(k+1, 2) adjacent transpositions apart.  That
    distance is the number of value pairs that u and v put in opposite
    orders, so each vertex gets one bit per value pair, set when the pair
    stands inverted in it (read from the inverse vertex rows), and an edge
    costs one XOR and a popcount; edges go ``_EDGE_CHUNK`` at a time.  Only
    the edge list and the ordering are read, never the connection set.
    """
    bound = comb(spec.k + 1, 2)
    inverse = np.argsort(spec._vertices, axis=1).T  # inverse[x, r]: position of value x in vertex r
    inverted = np.zeros(spec.vertex_count, dtype=np.uint32)  # C(8, 2) = 28 bits fit
    for bit, (x, y) in enumerate(combinations(range(spec.n), 2)):
        inverted |= (inverse[x] > inverse[y]).astype(np.uint32) << np.uint32(bit)
    E = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    for start in range(0, len(E), _EDGE_CHUNK):
        a, b = E[start : start + _EDGE_CHUNK].T
        differ = (inverted[a] ^ inverted[b]).view(np.uint8)
        swaps = _POPCOUNT[differ].reshape(-1, 4).sum(axis=1, dtype=np.uint8)
        bad = np.flatnonzero(swaps > bound)
        if bad.size:
            u, v = E[start + bad[0]].tolist()
            return False, (spec.ordering[u], spec.ordering[v])
    return True, None
