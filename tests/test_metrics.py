"""BFS distances, connectivity, diameters and the per-edge swap bound."""

from math import comb, factorial

import numpy as np
import pytest

from fjgraphs import (
    UNREACHED,
    CapExceeded,
    FlagGraphSpec,
    TheoremViolation,
    bfs,
    build_edges,
    degree,
    diameter,
    diameter_lower_bound,
    edge_transposition_bound_check,
    identity,
    is_connected,
    kendall_distance,
    reversal,
)


def test_bfs_single_edge():
    spec = FlagGraphSpec(2, 1)
    profile = bfs(spec, (1, 2))
    assert profile.distances.tolist() == [0, 1]
    assert profile.eccentricity == 1
    assert profile.connected


def test_bfs_reversal_is_farthest_in_permutahedron():
    spec = FlagGraphSpec(4, 1)
    profile = bfs(spec, identity(4))
    assert profile.eccentricity == 6
    far = [spec.ordering[i] for i, d in enumerate(profile.distances) if d == 6]
    assert far == [reversal(4)]


def test_bfs_small_dense():
    profile = bfs(FlagGraphSpec(3, 2), identity(3))
    assert profile.eccentricity == 2


def test_bfs_source_distance_and_level_consistency():
    spec = FlagGraphSpec(4, 2)
    profile = bfs(spec, identity(4))
    assert profile.distances[spec.rank(identity(4))] == 0
    for a, b in build_edges(spec):
        assert abs(int(profile.distances[a]) - int(profile.distances[b])) <= 1


def test_bfs_errors():
    with pytest.raises(ValueError):
        bfs(FlagGraphSpec(3, 0), (1, 2, 3))
    with pytest.raises(CapExceeded):
        bfs(FlagGraphSpec(8, 7), identity(8))
    with pytest.raises(ValueError):
        bfs(FlagGraphSpec(3, 1), (1, 2, 4))
    for source in [(1.0, 2.0, 3.0), (1.5, 2, 3), ("1", "2", "3")]:  # no integer entries
        with pytest.raises(ValueError, match="not a vertex of FJ"):
            bfs(FlagGraphSpec(3, 1), source)


def test_identity_to_reversal_distance():
    for n in range(2, 6):
        spec = FlagGraphSpec(n, 1)
        profile = bfs(spec, identity(n))
        assert profile.distances[spec.rank(reversal(n))] == comb(n, 2)


def test_diameter_examples():
    assert diameter(FlagGraphSpec(4, 1)) == 6
    assert diameter(FlagGraphSpec(5, 4)) == 2
    # frozen from an exhaustive all-sources BFS oracle
    assert diameter(FlagGraphSpec(5, 2)) == 4
    assert diameter(FlagGraphSpec(5, 2)) >= diameter_lower_bound(5, 2) == 4


def test_diameter_table_of_fj7_and_fj8():
    # every FJ(7,k) and every FJ(8,k) within the edge budget, beside the lower bound
    assert [diameter(FlagGraphSpec(7, k)) for k in range(1, 7)] == [21, 8, 5, 3, 3, 2]
    assert [diameter(FlagGraphSpec(8, k)) for k in range(1, 5)] == [28, 11, 6, 4]
    assert [diameter_lower_bound(8, k) for k in range(1, 5)] == [28, 10, 5, 3]


def mahonian(n):
    # the coefficients of prod_{i=1..n} (1 - q^i) / (1 - q), each factor 1 + q + ... + q^(i-1)
    counts = np.ones(1, dtype=np.int64)
    for i in range(2, n + 1):
        counts = np.convolve(counts, np.ones(i, dtype=np.int64))
    return counts.tolist()


def level_sizes(n, k):
    # the number of vertices at each distance from the identity
    return np.bincount(bfs(FlagGraphSpec(n, k), identity(n)).distances).tolist()


@pytest.mark.parametrize("n", range(2, 9))
def test_permutahedron_level_sizes_are_mahonian(n):
    # the distance from the identity in FJ(n,1) is the inversion count
    assert mahonian(4) == [1, 3, 5, 6, 5, 3, 1]
    assert level_sizes(n, 1) == mahonian(n)


@pytest.mark.parametrize("n", range(3, 8))
def test_top_graph_level_sizes(n):
    # FJ(n,n-1) has diameter 2, so every vertex off the closed neighbourhood
    # of the identity is at distance 2; FJ(8,7) is over the edge budget
    d = degree(n, n - 1)
    assert level_sizes(n, n - 1) == [1, d, factorial(n) - 1 - d]


def exhaustive_diameter(spec):
    # the oracle of the single-source shortcut: a BFS from every vertex
    best = 0
    for p in spec.ordering:
        profile = bfs(spec, p)
        assert profile.connected
        best = max(best, profile.eccentricity)
    return best


def test_transitive_matches_exhaustive():
    for n in range(2, 6):
        for k in range(1, n):
            spec = FlagGraphSpec(n, k)
            assert diameter(spec) == exhaustive_diameter(spec)


def test_diameter_errors():
    with pytest.raises(ValueError):
        diameter(FlagGraphSpec(3, 0))


def test_is_connected():
    assert is_connected(FlagGraphSpec(5, 3))
    assert is_connected(FlagGraphSpec(2, 1))
    assert not is_connected(FlagGraphSpec(3, 0))
    assert is_connected(FlagGraphSpec(1, 0))


def test_diameter_lower_bound_values():
    for n in range(2, 8):
        assert diameter_lower_bound(n, 1) == comb(n, 2)
    assert diameter_lower_bound(7, 3) == 4
    assert diameter_lower_bound(2, 1) == 1
    with pytest.raises(ValueError):
        diameter_lower_bound(3, 0)
    with pytest.raises(ValueError):
        diameter_lower_bound(3, 3)


def test_edge_bound_k1_is_tight():
    spec = FlagGraphSpec(4, 1)
    ok, witness = edge_transposition_bound_check(spec)
    assert ok and witness is None
    for a, b in build_edges(spec):
        assert kendall_distance(spec.ordering[a], spec.ordering[b]) == 1


def test_edge_bound_general():
    for n, k in ((4, 2), (4, 3), (5, 3)):
        ok, witness = edge_transposition_bound_check(FlagGraphSpec(n, k))
        assert ok and witness is None


def test_unreached_sentinel_is_uint16_max():
    assert UNREACHED == np.iinfo(np.uint16).max
