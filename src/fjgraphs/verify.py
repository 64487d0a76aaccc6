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
"""

from __future__ import annotations

from math import comb, factorial

from .config import EIG_TOL, EIGEN_CAP, GRAPH_CAP, MATCH_TOL, MATRIX_CAP, CapExceeded
from .blocks import verify_permutahedron_blocks, verify_recursive_blocks
from .graphs import (
    FlagGraphSpec,
    _check_edge_budget,
    build_edges,
    degree,
    generators,
    insertion_embedding_check,
    neighbors,
    pairwise_edges,
)
from .metrics import _edge_kendall_bound, bfs, diameter_lower_bound
from .perms import enumerate_permutations, identity, prefix_mismatch_count, relative_pattern
from .spectra import (
    adjacency_spectrum,
    conjecture_second_largest,
    eig_tridiagonal,
    regularity_matrix,
    regularity_matrix_from_blocks,
    spectrum_subset_check,
    verify_intertwining,
)


def _maxscan_block_count(pattern) -> int:
    # independent reducibility route: prefix covers {1..i} iff its max is i
    count = 0
    high = 0
    for i, x in enumerate(pattern, start=1):
        if x > high:
            high = x
        if high == i:
            count += 1
    return count


def battery(max_n: int, eigen_cap: int = EIGEN_CAP, eig_tol: float = EIG_TOL, match_tol: float = MATCH_TOL) -> list[dict]:
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
    # every edge and, up to the matrix cap, its agreement with the
    # quadratic pairwise predicate
    kendall, oracle = {}, {}
    for n, k in graphs:
        spec = FlagGraphSpec(n, k)
        edges = build_edges(spec)
        kendall[n, k] = _edge_kendall_bound(spec, edges)
        if n <= MATRIX_CAP:
            oracle[n, k] = edges == pairwise_edges(spec)
        del edges

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
    for n in range(2, min(max_n, 5) + 1):
        perms = enumerate_permutations(n)
        ok = True
        for a, u in enumerate(perms):
            for v in perms[a + 1 :]:
                mismatches = prefix_mismatch_count(u, v)
                if _maxscan_block_count(relative_pattern(u, v)) != n - mismatches:
                    ok = False
        add("reducibility-adjacency-equivalence", {"n": n}, ok)

    # block identities of the stacked orderings
    for big in range(3, min(max_n, MATRIX_CAP) + 1):
        n = big - 1
        for k in range(1, n):
            rep = verify_recursive_blocks(n, k)
            add("block-recursion", {"n": n, "k": k}, rep.passed, "" if rep.passed else str(rep.failures()[0]))
        rep = verify_permutahedron_blocks(n)
        add("permutahedron-blocks", {"n": n}, rep.passed, "" if rep.passed else str(rep.failures()[0]))

    # regularity matrix: empirical block route equals the closed form
    for n in range(2, min(max_n, MATRIX_CAP) + 1):
        same = (regularity_matrix_from_blocks(n) == regularity_matrix(n)).all()
        add("regularity-matrix", {"n": n}, bool(same))

    # lifting identity and spectrum containment
    for n in range(2, min(max_n, MATRIX_CAP) + 1):
        add("intertwining", {"n": n}, verify_intertwining(n))
    for n in range(2, max_n + 1):
        if factorial(n) > eigen_cap:
            break
        m_spec = eig_tridiagonal(regularity_matrix(n), tol=eig_tol)
        full = adjacency_spectrum(n, 1, tol=eig_tol, eigen_cap=eigen_cap)
        match = spectrum_subset_check(m_spec, full, tol=match_tol)
        add("spectrum-subset", {"n": n}, match.ok, "" if match.ok else f"unmatched {match.unmatched}")
        if n >= 3:
            holds = conjecture_second_largest(n, tol=match_tol, graph_spectrum=full)
            if n <= 5:
                add("conjecture-second-largest", {"n": n}, holds)
            else:
                add("conjecture-second-largest", {"n": n, "asserted": False}, True, f"evidence only: {holds}")

    # degree identities: formula vs connection set vs observed neighbors
    for n, k in graphs:
        formula = degree(n, k)
        observed = len(set(neighbors(FlagGraphSpec(n, k), identity(n))))
        ok = formula == len(generators(n, k)) == observed
        add("degree-identities", {"n": n, "k": k}, ok, f"degree {formula}")
    for n in range(2, min(max_n + 3, 8) + 1):
        add("degree-k1-linear", {"n": n}, degree(n, 1) == n - 1)

    return checks
