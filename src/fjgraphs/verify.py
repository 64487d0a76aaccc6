"""
The verification battery behind ``fjgraph verify-all``.

``battery(max_n)`` checks every claim the package makes about the graphs
FJ(n, k) with n <= max_n: connectivity, the diameters C(n,2) at k = 1 and 2
at k = n-1, the general diameter lower bound, the per-edge swap bound, the
end-insertion embeddings, the agreement of the two edge routes, adjacency
as reducibility, the block identities of stacked orderings, the regularity
matrix, the lifting identity, spectrum containment, the second-largest
eigenvalue conjecture and the degree identities.  Each checked instance
becomes one entry ``{"name", "params", "passed"[, "detail"]}``, always in
the same order, so the report is deterministic.

Each graph is searched once: a single BFS from the identity gives its
connectivity and, because a Cayley graph looks the same from every vertex,
its diameter.  A disconnected graph fails its connectivity entry and each
of its diameter entries, and the battery goes on.

Each graph's edge list is built once.  Up to ``config.MATRIX_CAP``, one
n! x n! uint8 matrix of prefix-mismatch counts per n, held one at a time,
checks the edge lists of every k by membership, with no second list, and,
for n <= 5, adjacency as reducibility over all vertex pairs at once.  The
regularity and intertwining checks of n run right after the block checks
of base n-1, which read the same stacked counts, and their entries follow
in the fixed order.
"""

from __future__ import annotations

from math import comb, factorial

import numpy as np

from .config import EIGEN_CAP, GRAPH_CAP, MATRIX_CAP, CapExceeded
from .blocks import verify_permutahedron_blocks, verify_recursive_blocks
from .graphs import (
    _MISMATCH_BLOCK,
    FlagGraphSpec,
    _check_edge_budget,
    _connection_rows,
    _lex_vertices,
    _prefix_mismatch_counts,
    build_edges,
    degree,
    insertion_embedding_check,
)
from .metrics import _EDGE_CHUNK, _edge_kendall_bound, bfs, diameter_lower_bound
from .perms import identity
from .spectra import (
    adjacency_spectrum,
    conjecture_second_largest,
    eig_tridiagonal,
    regularity_matrix,
    regularity_matrix_from_blocks,
    spectrum_subset_check,
    verify_intertwining,
)


def _pair_counts(counts: np.ndarray, n: int) -> list[int]:
    # pairs[k] for 1 <= k < n: the pairs a < b with counts[a, b] == k, the edge
    # count of FJ(n, k).  Each row block is read from its diagonal column on,
    # less its cells on or below the diagonal, so nothing is cast or copied
    # beyond one block
    N = len(counts)
    pairs = [0] * n
    step = max(1, _MISMATCH_BLOCK // N)
    for start in range(0, N, step):
        rect = counts[start : start + step, start:]
        below = np.tril(rect[:, : len(rect)])
        for k in range(1, n):
            pairs[k] += np.count_nonzero(rect == k) - np.count_nonzero(below == k)
    return pairs


def _edge_oracle(counts: np.ndarray, k: int, edges, expected: int) -> bool:
    """
    Does ``edges`` equal ``pairwise_edges`` of the lexicographic FJ(n, k),
    read from its prefix-mismatch ``counts`` by membership?  It does exactly
    when every edge (a, b) has a < b < N, the keys a * N + b strictly
    increase along the whole list from 0 on (so a >= 0), every edge has
    counts[a, b] == k, and there are ``expected`` edges, the number of pairs
    a < b with counts == k: then the edges are distinct pairs of that set,
    as many as it holds, in sorted order.  Edges go ``_EDGE_CHUNK`` at a
    time.
    """
    N = len(counts)
    flat = counts.ravel()
    E = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if len(E) != expected:
        return False
    last = -1
    for start in range(0, len(E), _EDGE_CHUNK):
        a, b = E[start : start + _EDGE_CHUNK].T
        keys = a * N + b
        if keys[0] <= last or (np.diff(keys) <= 0).any() or not (a < b).all() or b.max() >= N:
            return False
        if (flat[keys] != k).any():
            return False
        last = keys[-1]
    return True


def _block_counts(V: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """
    The number of irreducible blocks of the relative pattern u^-1 o v for
    every pair of rows u = V[a], v = V[b] of the 0-based vertex array V.
    Entry t of the pattern is the position in u of v's entry t, and its
    prefix of length i covers {0..i-1} exactly when its maximum is i-1.
    """
    inverse = np.argsort(V, axis=1)  # inverse[r, x]: position of value x in row r
    pattern = np.take_along_axis(inverse[a], V[b], axis=1)
    return (np.maximum.accumulate(pattern, axis=1) == np.arange(V.shape[1])).sum(axis=1)


def battery(max_n: int, eigen_cap: int = EIGEN_CAP) -> list[dict]:
    """
    Run every check on the graphs with 2 <= n <= max_n and return the
    entries in a fixed order.  Checks on dense matrices stop at
    ``config.MATRIX_CAP`` and full spectra at order ``eigen_cap``.
    ``max_n`` below 2 raises ValueError; ``max_n`` above
    ``config.GRAPH_CAP``, or an FJ(max_n, max_n-1) over the edge budget,
    raises CapExceeded before any check runs.
    """
    if max_n < 2:
        raise ValueError(f"max_n must be at least 2, got {max_n}")
    if max_n > GRAPH_CAP:
        raise CapExceeded(f"n={max_n} exceeds the graph cap {GRAPH_CAP}")
    _check_edge_budget(max_n, max_n - 1)

    checks: list[dict] = []

    def add(name: str, params: dict, passed: bool, detail: str = "") -> None:
        entry = {"name": name, "params": params, "passed": bool(passed)}
        if detail:
            entry["detail"] = detail
        checks.append(entry)

    graphs = [(n, k) for n in range(2, max_n + 1) for k in range(1, n)]
    profiles = {(n, k): bfs(FlagGraphSpec(n, k), identity(n)) for n, k in graphs}

    def add_diameter(name: str, params: dict, n: int, k: int, passed: bool, detail: str) -> None:
        # the eccentricity of a disconnected graph is no diameter
        profile = profiles[n, k]
        if not profile.connected:
            passed, detail = False, f"disconnected: reached {profile.reached} of {len(profile.distances)}"
        add(name, params, passed, detail)

    # connectivity of every non-trivial graph
    for n, k in graphs:
        add("connectivity", {"n": n, "k": k}, profiles[n, k].connected)

    # diameters: adjacent-swap family and top family, plus the general bound
    for n in range(2, max_n + 1):
        got = profiles[n, 1].eccentricity
        add_diameter("diameter-k1", {"n": n}, n, 1, got == comb(n, 2), f"diameter {got}, expected {comb(n, 2)}")
    for n in range(3, max_n + 1):
        got = profiles[n, n - 1].eccentricity
        add_diameter("diameter-top", {"n": n}, n, n - 1, got == 2, f"diameter {got}, expected 2")
    for n, k in graphs:
        got = profiles[n, k].eccentricity
        bound = diameter_lower_bound(n, k)
        add_diameter("diameter-lower-bound", {"n": n, "k": k}, n, k, bound <= got, f"bound {bound}, diameter {got}")

    # one edge list per graph, held one at a time, for the swap bound of
    # every edge; up to the matrix cap, one prefix-mismatch count matrix per
    # n, also held one at a time, for the edge oracle of every k and, for
    # n <= 5, adjacency as exactly n-k irreducible blocks
    kendall, oracle, reducible, observed = {}, {}, {}, {}
    for n in range(2, max_n + 1):
        dense = n <= MATRIX_CAP
        if dense:
            counts = _prefix_mismatch_counts(_lex_vertices(n))
            expected = _pair_counts(counts, n)
        for k in range(1, n):
            spec = FlagGraphSpec(n, k)
            edges = build_edges(spec)
            kendall[n, k] = _edge_kendall_bound(spec, edges)
            # the identity is rank 0, so its neighbours are the leading edges
            # (0, b) of the sorted list, fewer than n! of them; copied, so no
            # view keeps the list alive once it is dropped
            head = np.array(edges[: spec.vertex_count], dtype=np.int64).reshape(-1, 2)
            observed[n, k] = int(np.searchsorted(head[:, 0], 1))
            if dense:
                oracle[n, k] = _edge_oracle(counts, k, edges, expected[k])
            del edges
        if dense and n <= 5:
            a, b = np.triu_indices(len(counts), 1)
            reducible[n] = np.array_equal(_block_counts(_lex_vertices(n), a, b), n - counts[a, b])
        counts = None  # freed before the next n builds its matrix

    # every edge stays within C(k+1,2) adjacent transpositions
    for n, k in graphs:
        ok, witness = kendall[n, k]
        add("edge-kendall-bound", {"n": n, "k": k}, ok, "" if ok else f"witness {witness}")

    # end insertions embed FJ(n,k) into FJ(n+1,k)
    for n in range(2, max_n):
        for k in range(1, n):
            for position in (1, n + 1):
                ok, witness = insertion_embedding_check(n, k, position)
                add("insertion-embedding", {"n": n, "k": k, "position": position}, ok, "" if ok else f"witness {witness}")

    # generator-product edges match the quadratic pairwise predicate
    for n, k in oracle:
        add("edge-oracle-equivalence", {"n": n, "k": k}, oracle[n, k])

    # adjacency means exactly n-k irreducible windows (independent max-scan)
    for n in reducible:
        add("reducibility-adjacency-equivalence", {"n": n}, reducible[n])

    # block identities of the stacked orderings; the regularity matrix and
    # the lifting identity of n read the stacked counts of base n-1, so they
    # run right after that base's block checks, n = 2 (base 1) first
    quotient = {}
    for n in range(2, min(max_n, MATRIX_CAP) + 1):
        base = n - 1
        if base >= 2:
            for k in range(1, base):
                rep = verify_recursive_blocks(base, k)
                add("block-recursion", {"n": base, "k": k}, rep.passed, "" if rep.passed else str(rep.failures()[0]))
            rep = verify_permutahedron_blocks(base)
            add("permutahedron-blocks", {"n": base}, rep.passed, "" if rep.passed else str(rep.failures()[0]))
        same = (regularity_matrix_from_blocks(n) == regularity_matrix(n)).all()
        quotient[n] = bool(same), verify_intertwining(n)

    # regularity matrix: empirical block route equals the closed form
    for n in quotient:
        add("regularity-matrix", {"n": n}, quotient[n][0])

    # lifting identity and spectrum containment
    for n in quotient:
        add("intertwining", {"n": n}, quotient[n][1])
    for n in range(2, max_n + 1):
        if factorial(n) > eigen_cap:
            break
        m_spec = eig_tridiagonal(regularity_matrix(n))
        full = adjacency_spectrum(n, 1, eigen_cap=eigen_cap)
        match = spectrum_subset_check(m_spec, full)
        add("spectrum-subset", {"n": n}, match.ok, "" if match.ok else f"unmatched {match.unmatched}")
        if n >= 3:
            holds = conjecture_second_largest(n, graph_spectrum=full)
            if n <= 5:
                add("conjecture-second-largest", {"n": n}, holds)
            else:
                add("conjecture-second-largest", {"n": n, "asserted": False}, True, f"evidence only: {holds}")

    # degree identities: formula vs connection set vs the identity's edges
    for n, k in graphs:
        formula = degree(n, k)
        ok = formula == len(_connection_rows(n, k)) == observed[n, k]
        add("degree-identities", {"n": n, "k": k}, ok, f"degree {formula}")
    for n in range(2, min(max_n + 3, 8) + 1):
        add("degree-k1-linear", {"n": n}, degree(n, 1) == n - 1)

    return checks
