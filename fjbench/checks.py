"""Checks of fjgraphs outputs that never call fjgraphs.

Every check recomputes what it needs from the definitions: prefix sets
compared as Python sets, lexicographic ranks, the irreducible-permutation
counts of OEIS A003319, LAPACK eigenvalues and closed forms.  Each returns a
list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from collections import Counter

import numpy as np

# Irreducible permutations of [m] for m = 1..8 (OEIS A003319).
IRREDUCIBLE = (1, 1, 3, 13, 71, 461, 3447, 29093)
TOL = 1e-9  # eigenvalue agreement; both solvers reach ~1e-12 at the orders used
SAMPLE = 200  # edges or vertices re-tested against the adjacency predicate


def compositions(total: int, parts: int):
    """Ordered tuples of ``parts`` positive integers summing to ``total``."""
    for cuts in itertools.combinations(range(1, total), parts - 1):
        bounds = (0, *cuts, total)
        yield tuple(b - a for a, b in zip(bounds, bounds[1:]))


def degree(n: int, k: int) -> int:
    """Connection-set size of FJ(n, k): permutations made of n-k irreducible blocks."""
    return sum(math.prod(IRREDUCIBLE[c - 1] for c in sizes) for sizes in compositions(n, n - k))


def mismatches(u, v) -> int:
    """Prefix lengths i < n at which the sets {u1..ui} and {v1..vi} differ."""
    return sum(set(u[:i]) != set(v[:i]) for i in range(1, len(u)))


def lex_vertices(n: int) -> list[tuple[int, ...]]:
    return list(itertools.permutations(range(1, n + 1)))


def lex_rank(p) -> int:
    rest = sorted(p)
    r = 0
    for i, x in enumerate(p):
        j = rest.index(x)
        r += j * math.factorial(len(p) - 1 - i)
        rest.pop(j)
    return r


def parse_csv(text: str) -> np.ndarray:
    """Rank pairs from ``fjgraph export --format csv`` as an (E, 2) array."""
    header, _, body = text.partition("\n")
    if header != "u,v":
        raise ValueError(f"unexpected CSV header {header!r}")
    values = body.replace("\n", ",").split(",")[:-1]
    return np.array(values, dtype=np.int64).reshape(-1, 2)


def check_edges(n: int, k: int, edges, sample_seed) -> list[str]:
    """Edge count n!*degree/2, sorted unique pairs a < b, regular, sampled predicate."""
    E = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    N = math.factorial(n)
    deg = degree(n, k)
    if len(E) != N * deg // 2:
        return [f"FJ({n},{k}) has {len(E)} edges, expected {N * deg // 2}"]
    a, b = E[:, 0], E[:, 1]
    if (a < 0).any() or (b >= N).any() or not (a < b).all():
        return [f"FJ({n},{k}) edge outside 0 <= a < b < {N}"]
    problems = []
    if not (np.diff(a * N + b) > 0).all():
        problems.append(f"FJ({n},{k}) edges are not sorted and unique")
    counts = np.bincount(E.ravel(), minlength=N)
    if not (counts == deg).all():
        v = int(np.flatnonzero(counts != deg)[0])
        problems.append(f"FJ({n},{k}) vertex {v} has degree {counts[v]}, expected {deg}")
    V = lex_vertices(n)
    for i in random.Random(sample_seed).sample(range(len(E)), min(SAMPLE, len(E))):
        u, v = V[a[i]], V[b[i]]
        if mismatches(u, v) != k:
            problems.append(f"FJ({n},{k}) edge {u}-{v} differs in {mismatches(u, v)} prefixes")
            break
    return problems


def check_bfs(n: int, k: int, edges, source, distances, eccentricity: int, reached: int) -> list[str]:
    """
    Certify BFS distances against a checked edge list: d(source) = 0,
    |d(u) - d(v)| <= 1 on every edge, and every other vertex has a neighbour
    at d - 1.  Together these force d to be the true distance.
    """
    E = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    d = np.asarray(distances, dtype=np.int64)
    N = math.factorial(n)
    if d.shape != (N,):
        return [f"FJ({n},{k}) distance array has shape {d.shape}, expected ({N},)"]
    src = lex_rank(source)
    problems = []
    if d[src] != 0:
        problems.append(f"FJ({n},{k}) source {tuple(source)} at distance {d[src]}")
    a, b = E[:, 0], E[:, 1]
    if (np.abs(d[a] - d[b]) > 1).any():
        i = int(np.flatnonzero(np.abs(d[a] - d[b]) > 1)[0])
        problems.append(f"FJ({n},{k}) edge ({a[i]},{b[i]}) joins distances {d[a[i]]} and {d[b[i]]}")
    nearest = np.full(N, np.iinfo(np.int64).max)
    np.minimum.at(nearest, a, d[b])
    np.minimum.at(nearest, b, d[a])
    bad = (nearest != d - 1) & (np.arange(N) != src)
    if bad.any():
        v = int(np.flatnonzero(bad)[0])
        problems.append(f"FJ({n},{k}) vertex {v} at distance {d[v]} has no neighbour at {d[v] - 1}")
    if eccentricity != d.max() or reached != N:
        problems.append(f"FJ({n},{k}) eccentricity {eccentricity} / reached {reached} disagree with distances")
    return problems


def check_levels(n: int, k: int, source, distances, eccentricity: int, reached: int, sample_seed) -> list[str]:
    """
    For a top graph FJ(n, n-1) searched without an edge list: exactly
    ``degree`` vertices at distance 1, all the rest at distance 2, and a
    sample of each level tested against the adjacency predicate.
    """
    d = np.asarray(distances, dtype=np.int64)
    N = math.factorial(n)
    deg = degree(n, k)
    src = lex_rank(source)
    if d.shape != (N,) or d[src] != 0:
        return [f"FJ({n},{k}) source is not at distance 0"]
    problems = []
    ones = np.flatnonzero(d == 1)
    twos = np.flatnonzero(d == 2)
    if len(ones) != deg or len(twos) != N - 1 - deg:
        problems.append(f"FJ({n},{k}) levels {len(ones)} at 1 and {len(twos)} at 2, expected {deg} and {N - 1 - deg}")
    V = lex_vertices(n)
    rng = random.Random(sample_seed)
    u = tuple(source)
    for level, members in ((1, ones), (2, twos)):
        for v in rng.sample(list(members), min(SAMPLE, len(members))):
            if (mismatches(u, V[v]) == k) != (level == 1):
                problems.append(f"FJ({n},{k}) vertex {V[v]} at distance {level} from {u} has the wrong adjacency")
                break
    if eccentricity != d.max() or reached != N:
        problems.append(f"FJ({n},{k}) eccentricity {eccentricity} / reached {reached} disagree with distances")
    return problems


def check_eccentricity(n: int, k: int, eccentricities) -> list[str]:
    """The same eccentricity from every source, and the paper's value or bound."""
    found = set(eccentricities)
    if len(found) != 1:
        return [f"FJ({n},{k}) eccentricities differ between sources: {sorted(found)}"]
    ecc = found.pop()
    if k == 1 and ecc != math.comb(n, 2):
        return [f"FJ({n},1) diameter {ecc}, expected {math.comb(n, 2)}"]
    if k == n - 1 and ecc != 2:
        return [f"FJ({n},{k}) diameter {ecc}, expected 2"]
    bound = -(-math.comb(n, 2) // math.comb(k + 1, 2))
    if ecc < bound:
        return [f"FJ({n},{k}) diameter {ecc} below the lower bound {bound}"]
    return []


def adjacency_from_prefix_sets(n: int, k: int) -> np.ndarray:
    """A(FJ(n, k)) in lexicographic order, comparing the flags' prefix sets."""
    V = lex_vertices(n)
    flags = [[frozenset(p[:i]) for i in range(1, n)] for p in V]
    A = np.zeros((len(V), len(V)))
    for a, b in itertools.combinations(range(len(V)), 2):
        if sum(x != y for x, y in zip(flags[a], flags[b])) == k:
            A[a, b] = A[b, a] = 1.0
    return A


def check_spectrum(n: int, k: int, values, multiplicities) -> list[str]:
    """Jacobi spectrum against LAPACK, trace 0, sum of squares N*degree, top = degree."""
    ref = np.linalg.eigvalsh(adjacency_from_prefix_sets(n, k))[::-1]
    got = np.repeat(np.asarray(values, dtype=np.float64), multiplicities)
    N = math.factorial(n)
    deg = degree(n, k)
    if got.shape != ref.shape:
        return [f"FJ({n},{k}) spectrum has {got.size} eigenvalues, expected {N}"]
    problems = []
    if np.abs(got - ref).max() > TOL:
        i = int(np.abs(got - ref).argmax())
        problems.append(f"FJ({n},{k}) eigenvalue {got[i]!r} differs from LAPACK {ref[i]!r}")
    if abs(got.sum()) > TOL * N:
        problems.append(f"FJ({n},{k}) spectrum trace {got.sum()!r}, expected 0")
    if abs((got**2).sum() - N * deg) > TOL * N * deg:
        problems.append(f"FJ({n},{k}) sum of squares {(got**2).sum()!r}, expected {N * deg}")
    if abs(got[0] - deg) > TOL:
        problems.append(f"FJ({n},{k}) largest eigenvalue {got[0]!r}, expected {deg}")
    return problems


def check_subset(small_values, big_values, ok: bool, matching) -> list[str]:
    """A reported containment: ok, one partner per small value, each partner equal to it."""
    if not ok or len(matching) != len(small_values):
        return [f"containment reported ok={ok} with {len(matching)} of {len(small_values)} values matched"]
    for x, j in zip(small_values, matching):
        if abs(x - big_values[j]) > TOL:
            return [f"eigenvalue {x!r} matched to {big_values[j]!r}"]
    return []


def regularity_matrix(n: int) -> np.ndarray:
    """M(n): corners n-2, interior diagonal n-3, ones beside the diagonal."""
    M = np.diag(np.full(n, n - 3)) + np.diag(np.ones(n - 1, dtype=np.int64), 1) + np.diag(np.ones(n - 1, dtype=np.int64), -1)
    M[0, 0] = M[-1, -1] = n - 2
    return M


def check_m_spectrum(n: int, values, multiplicities) -> list[str]:
    """Eigenvalues of M(n) equal {n-3+2cos(pi j/n) : j = 0..n-1}."""
    expected = np.sort([n - 3 + 2 * math.cos(math.pi * j / n) for j in range(n)])[::-1]
    got = np.repeat(np.asarray(values, dtype=np.float64), multiplicities)
    if got.shape != expected.shape or np.abs(got - expected).max() > TOL:
        return [f"M({n}) eigenvalues {got.tolist()} differ from the closed form {expected.tolist()}"]
    return []


def check_regularity_matrix(n: int, M) -> list[str]:
    if not np.array_equal(np.asarray(M), regularity_matrix(n)):
        return [f"regularity matrix of FJ({n},1) read from blocks differs from M({n})"]
    return []


def recursive_block_layout(n: int, k: int) -> Counter:
    """Blocks asserted for FJ(n+1, k): zero beyond k off the diagonal, two corners, the flanks."""
    size = n + 1
    cells = [(i, j) for i in range(1, size + 1) for j in range(1, size + 1) if abs(i - j) > k]
    cells += [(1, 1), (size, size)]
    cells += [(i, i + 1) for i in range(1, size)] + [(i + 1, i) for i in range(1, size)]
    return Counter(cells)


def permutahedron_block_layout(n: int) -> Counter:
    """Blocks asserted for FJ(n+1, 1): every off-diagonal block once, each diagonal block twice."""
    size = n + 1
    cells = [(i, j) for i in range(1, size + 1) for j in range(1, size + 1) if i != j]
    cells += [(i, i) for i in range(1, size + 1)] * 2
    return Counter(cells)


def check_block_report(label: str, assertions, layout: Counter) -> list[str]:
    """``assertions`` holds (block, passed) pairs; all must pass and cover ``layout`` exactly."""
    problems = []
    failed = [blk for blk, ok in assertions if not ok]
    if failed:
        problems.append(f"{label}: assertion failed at block {failed[0]}")
    got = Counter(tuple(blk) for blk, _ in assertions)
    if got != layout:
        problems.append(f"{label}: {sum(got.values())} assertions, layout implies {sum(layout.values())}")
    return problems


def battery_families(max_n: int, eigen_cap: int, matrix_cap: int):
    """(name, params) of every check ``fjgraph verify-all`` promises for these caps."""
    m = min(max_n, matrix_cap)

    def pairs(top):
        return [{"n": n, "k": k} for n in range(2, top + 1) for k in range(1, n)]

    def sizes(lo, hi):
        return [{"n": n} for n in range(lo, hi + 1)]

    spectral = [n for n in range(2, max_n + 1) if math.factorial(n) <= eigen_cap]
    families = {
        "connectivity": pairs(max_n),
        "diameter-k1": sizes(2, max_n),
        "diameter-top": sizes(3, max_n),
        "diameter-lower-bound": pairs(max_n),
        "edge-kendall-bound": pairs(max_n),
        "insertion-embedding": [
            {**p, "position": pos} for p in pairs(max_n - 1) for pos in (1, p["n"] + 1)
        ],
        "edge-oracle-equivalence": pairs(m),
        "reducibility-adjacency-equivalence": sizes(2, min(max_n, 5)),
        "block-recursion": pairs(m - 1),
        "permutahedron-blocks": sizes(2, m - 1),
        "regularity-matrix": sizes(2, m),
        "intertwining": sizes(2, m),
        "spectrum-subset": [{"n": n} for n in spectral],
        "conjecture-second-largest": [
            {"n": n} if n <= 5 else {"n": n, "asserted": False} for n in spectral if n >= 3
        ],
        "degree-identities": pairs(max_n),
        "degree-k1-linear": sizes(2, min(max_n + 3, 8)),
    }
    return [(name, params) for name, plist in families.items() for params in plist]


def check_battery(code: int, text: str, max_n: int, eigen_cap: int, matrix_cap: int) -> list[str]:
    """verify-all exits 0 with passed true, and every promised check is present and passed."""
    problems = [] if code == 0 else [f"verify-all exited {code}"]
    report = json.loads(text)
    checks = report.get("checks", [])
    if report.get("passed") is not True or report.get("failed"):
        problems.append(f"verify-all reports passed={report.get('passed')} with {len(report.get('failed', []))} failures")
    if report.get("check_count") != len(checks):
        problems.append(f"check_count {report.get('check_count')} but {len(checks)} checks listed")
    seen = {(c["name"], json.dumps(c["params"], sort_keys=True)): c["passed"] for c in checks}
    for name, params in battery_families(max_n, eigen_cap, matrix_cap):
        outcome = seen.get((name, json.dumps(params, sort_keys=True)))
        if outcome is None:
            problems.append(f"verify-all is missing {name} {params}")
        elif outcome is not True:
            problems.append(f"verify-all check {name} {params} did not pass")
    return problems
