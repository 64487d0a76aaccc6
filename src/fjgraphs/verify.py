"""
The verification battery behind ``fjgraph verify-all``.

``battery(max_n)`` checks every claim the package makes about the graphs
FJ(n, k) with n <= max_n: connectivity, the diameters C(n,2) at k = 1 and 2
at k = n-1, the general diameter lower bound, the per-edge swap bound, the
end-insertion embeddings, the agreement of the two edge routes, adjacency
as reducibility, the block identities of stacked orderings, the regularity
matrix, the lifting identity, spectrum containment, the second-largest
eigenvalue conjecture and the degree identities.  Each checked instance
becomes one entry ``{"name", "params", "passed"[, "detail"]}``.

The battery is one pass over n.  Each check appends its entry to its
section of ``SECTIONS`` as it runs, and the report is the sections in that
fixed order, so it is deterministic.  Everything a graph needs lives for
its own iteration only: one BFS from the identity gives its connectivity
and, because a Cayley graph looks the same from every vertex, its diameter;
one pass over its edge stream (``graphs._edge_stream``) serves the swap
bound, the edge oracle and the degree identities, each chunk checked as it
comes, so no edge list is ever held.  A disconnected graph fails its
connectivity entry and each of its diameter entries, and the battery goes
on.

Up to ``config.MATRIX_CAP``, one n! x n! uint8 matrix of prefix-mismatch
counts per n checks the edge streams of every k by membership, with no
second route, and, for n <= 5, adjacency as reducibility over all vertex
pairs at once.  It is freed before the block checks of base n-1 and the
regularity and intertwining checks of n build the stacked counts they
share.
"""

from __future__ import annotations

from math import comb, factorial

import numpy as np

from .config import EIGEN_CAP, MATRIX_CAP, _check_eigen_cap, _check_graph_cap
from .blocks import verify_permutahedron_blocks, verify_recursive_blocks
from .graphs import (
    FlagGraphSpec,
    _check_edge_budget,
    _connection_rows,
    _edge_stream,
    _lex_vertices,
    _prefix_mismatch_counts,
    _row_slices,
    degree,
    insertion_embedding_check,
)
from .metrics import _inversion_bits, _swap_witness, bfs, diameter_lower_bound
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


# the report order: one section per check family, except that the
# permutahedron blocks share the block-recursion section and the
# second-largest evidence the spectrum-subset section, the two families of
# a shared section interleaved by n
SECTIONS = (
    ("connectivity",),
    ("diameter-k1",),
    ("diameter-top",),
    ("diameter-lower-bound",),
    ("edge-kendall-bound",),
    ("insertion-embedding",),
    ("edge-oracle-equivalence",),
    ("reducibility-adjacency-equivalence",),
    ("block-recursion", "permutahedron-blocks"),
    ("regularity-matrix",),
    ("intertwining",),
    ("spectrum-subset", "conjecture-second-largest"),
    ("degree-identities",),
    ("degree-k1-linear",),
)
_SECTION_OF = {name: i for i, names in enumerate(SECTIONS) for name in names}


def _pair_counts(counts: np.ndarray, n: int) -> list[int]:
    # pairs[k] for 1 <= k < n: the pairs a < b with counts[a, b] == k, the edge count of FJ(n, k).  Each row
    # band is read from its diagonal column on, less its cells on or below the diagonal, so nothing is cast
    # or copied beyond one band
    pairs = [0] * n
    for rows in _row_slices(len(counts), len(counts)):
        rect = counts[rows, rows.start :]
        below = np.tril(rect[:, : len(rect)])
        for k in range(1, n):
            pairs[k] += np.count_nonzero(rect == k) - np.count_nonzero(below == k)
    return pairs


def _edge_pass(spec: FlagGraphSpec, counts: np.ndarray | None, expected: int):
    """
    The battery's three edge checks of ``spec``'s lexicographic graph, in
    one pass over its edge stream, each chunk checked as it comes and then
    dropped.  Returns:

    * the first edge over the swap bound, as ``_swap_witness`` gives it, or
      None; the chunks come in sorted order, so it is the first of the list;
    * whether the edges equal ``pairwise_edges``, read from the
      prefix-mismatch ``counts`` by membership (None without counts).  They
      do exactly when every edge (a, b) has a < b < N, the keys a * N + b
      strictly increase along the whole stream from 0 on (so a >= 0; each
      chunk starts above the last key of the one before), every edge has
      counts[a, b] == k, and there are ``expected`` edges, the number of
      pairs a < b with counts == k: then the edges are distinct pairs of
      that set, as many as it holds, in sorted order;
    * the identity's degree: the identity is rank 0, so its neighbours are
      the edges (0, b).
    """
    N, k = spec.vertex_count, spec.k
    flat = None if counts is None else counts.ravel()
    inverted = _inversion_bits(spec)
    witness, last, total, identity_degree = None, -1, 0, 0
    for a, b in _edge_stream(spec):
        if witness is None:
            witness = _swap_witness(spec, inverted, a, b)
        if flat is not None and last is not None and len(a):
            keys = a * N + b  # int32 like the ranks: N^2 <= 5040^2 < 2^31
            ordered = keys[0] > last and (np.diff(keys) > 0).all() and (a < b).all() and b.max() < N
            last = keys[-1] if ordered and (flat[keys] == k).all() else None
        total += len(a)
        identity_degree += int(np.count_nonzero(a == 0))
    member = None if flat is None else last is not None and total == expected
    return witness, member, identity_degree


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
    ``max_n`` below 2 or ``eigen_cap`` below 1 raises ValueError; ``max_n``
    above ``config.GRAPH_CAP``, or an FJ(max_n, max_n-1) over the edge
    budget, raises CapExceeded before any check runs.
    """
    if max_n < 2:
        raise ValueError(f"max_n must be at least 2, got {max_n}")
    _check_graph_cap(max_n)
    _check_edge_budget(max_n, max_n - 1)
    _check_eigen_cap(eigen_cap)

    sections: list[list[dict]] = [[] for _ in SECTIONS]

    def add(name: str, params: dict, passed: bool, detail: str = "") -> None:
        entry = {"name": name, "params": params, "passed": bool(passed)}
        if detail:
            entry["detail"] = detail
        sections[_SECTION_OF[name]].append(entry)

    def add_diameter(profile, name: str, params: dict, passed: bool, detail: str) -> None:
        # the eccentricity of a disconnected graph is no diameter
        if not profile.connected:
            passed, detail = False, f"disconnected: reached {profile.reached} of {len(profile.distances)}"
        add(name, params, passed, detail)

    def add_block_report(name: str, params: dict, rep) -> None:
        add(name, params, rep.passed, "" if rep.passed else str(rep.failures()[0]))

    for n in range(2, max_n + 1):
        dense = n <= MATRIX_CAP
        if dense:
            counts = _prefix_mismatch_counts(_lex_vertices(n))
            expected = _pair_counts(counts, n)
        for k in range(1, n):
            spec = FlagGraphSpec(n, k)
            profile = bfs(spec, identity(n))
            got = profile.eccentricity
            add("connectivity", {"n": n, "k": k}, profile.connected)
            if k == 1:
                add_diameter(profile, "diameter-k1", {"n": n}, got == comb(n, 2), f"diameter {got}, expected {comb(n, 2)}")
            if n >= 3 and k == n - 1:
                add_diameter(profile, "diameter-top", {"n": n}, got == 2, f"diameter {got}, expected 2")
            bound = diameter_lower_bound(n, k)
            add_diameter(profile, "diameter-lower-bound", {"n": n, "k": k}, bound <= got, f"bound {bound}, diameter {got}")

            # every edge stays within C(k+1,2) adjacent transpositions, the
            # generator-product edges match the quadratic pairwise predicate,
            # and the degree formula, the connection set and the identity's
            # edges agree, all from one pass over the edge stream
            witness, member, identity_degree = _edge_pass(spec, counts if dense else None, expected[k] if dense else 0)
            add("edge-kendall-bound", {"n": n, "k": k}, witness is None, "" if witness is None else f"witness {witness}")
            if dense:
                add("edge-oracle-equivalence", {"n": n, "k": k}, member)
            formula = degree(n, k)
            ok = formula == len(_connection_rows(n, k)) == identity_degree
            add("degree-identities", {"n": n, "k": k}, ok, f"degree {formula}")

            # end insertions embed FJ(n,k) into FJ(n+1,k)
            if n < max_n:
                for position in (1, n + 1):
                    ok, witness = insertion_embedding_check(n, k, position)
                    add("insertion-embedding", {"n": n, "k": k, "position": position}, ok, "" if ok else f"witness {witness}")

        # adjacency means exactly n-k irreducible windows (independent max-scan)
        if dense and n <= 5:
            a, b = np.triu_indices(len(counts), 1)
            add("reducibility-adjacency-equivalence", {"n": n}, np.array_equal(_block_counts(_lex_vertices(n), a, b), n - counts[a, b]))
        counts = None  # freed before the stacked checks build their slot

        # the block identities of base n-1, then the regularity matrix and the
        # lifting identity of n, all read the stacked counts of base n-1
        if dense:
            base = n - 1
            if base >= 2:
                for k in range(1, base):
                    add_block_report("block-recursion", {"n": base, "k": k}, verify_recursive_blocks(base, k))
                add_block_report("permutahedron-blocks", {"n": base}, verify_permutahedron_blocks(base))
            add("regularity-matrix", {"n": n}, (regularity_matrix_from_blocks(n) == regularity_matrix(n)).all())
            add("intertwining", {"n": n}, verify_intertwining(n))

        # spectrum containment, and the second-largest eigenvalue evidence
        if factorial(n) <= eigen_cap:
            full = adjacency_spectrum(n, 1, eigen_cap=eigen_cap)
            match = spectrum_subset_check(eig_tridiagonal(regularity_matrix(n)), full)
            add("spectrum-subset", {"n": n}, match.ok, "" if match.ok else f"unmatched {match.unmatched}")
            if n >= 3:
                holds = conjecture_second_largest(n, graph_spectrum=full)
                if n <= 5:
                    add("conjecture-second-largest", {"n": n}, holds)
                else:
                    add("conjecture-second-largest", {"n": n, "asserted": False}, True, f"evidence only: {holds}")

    for n in range(2, min(max_n + 3, 8) + 1):
        add("degree-k1-linear", {"n": n}, degree(n, 1) == n - 1)

    return [entry for section in sections for entry in section]
