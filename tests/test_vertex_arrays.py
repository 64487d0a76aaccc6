"""The array vertex layer: vectorized ranks, chunked edge lists and BFS, each against an independent oracle."""

import random
import tracemalloc
from collections import Counter, deque
from math import comb

import numpy as np
import pytest

from fjgraphs import (
    FlagGraphSpec,
    bfs,
    build_edges,
    compose,
    degree,
    edge_transposition_bound_check,
    enumerate_permutations,
    identity,
    kendall_distance,
    pairwise_edges,
    prefix_mismatch_count,
    rank,
    reversal,
)
from fjgraphs import graphs, metrics, perms, verify
from fjgraphs.metrics import UNREACHED


def deque_bfs(spec, source):
    # plain queue BFS over the quadratic pairwise edge route
    adjacency = [[] for _ in range(spec.vertex_count)]
    for a, b in pairwise_edges(spec):
        adjacency[a].append(b)
        adjacency[b].append(a)
    dist = [UNREACHED] * spec.vertex_count
    src = spec.ordering.index(tuple(source))
    dist[src] = 0
    queue = deque([src])
    while queue:
        a = queue.popleft()
        for b in adjacency[a]:
            if dist[b] == UNREACHED:
                dist[b] = dist[a] + 1
                queue.append(b)
    return dist


def generator_bfs(gens, source):
    # plain queue BFS over the right products u o g, for any inverse-closed generator set
    dist = {tuple(source): 0}
    queue = deque([tuple(source)])
    while queue:
        u = queue.popleft()
        for g in gens:
            v = compose(u, g)
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def count_products(monkeypatch):
    # a one-element list that counts the products u o g every later bfs composes
    count = [0]
    real = metrics._product_ranks

    def counting(spec, rows, gens):
        count[0] += len(rows) * len(gens)
        return real(spec, rows, gens)

    monkeypatch.setattr(metrics, "_product_ranks", counting)
    return count


def force_alpha(monkeypatch, alpha):
    # the same switch rule for wide and narrow connection sets: 0 keeps every
    # level top-down, a huge alpha makes every level bottom-up
    monkeypatch.setattr(metrics, "_BOTTOM_UP_ALPHA", alpha)
    monkeypatch.setattr(metrics, "_NARROW_ALPHA", alpha)


def shuffled_spec(n, k, seed):
    order = list(enumerate_permutations(n))
    random.Random(seed).shuffle(order)
    return FlagGraphSpec(n, k, tuple(order))


@pytest.mark.parametrize("n", range(1, 9))
def test_vectorized_rank_matches_lehmer_rank(n):
    perms = list(enumerate_permutations(n))
    random.Random(n).shuffle(perms)
    P = np.array(perms, dtype=np.uint8) - 1
    assert graphs._lex_ranks(P.T, n).tolist() == [rank(p) for p in perms]


def test_lex_vertex_array_is_the_lexicographic_ordering():
    for n in (1, 4, 8):
        V = graphs._lex_vertices(n)
        assert V.dtype == np.uint8 and V.shape == (len(enumerate_permutations(n)), n)
        assert (V + 1).tolist() == [list(p) for p in enumerate_permutations(n)]
        assert not V.flags.writeable


@pytest.mark.parametrize("n", range(2, 8))
def test_bfs_on_permutahedron_is_kendall_distance(n):
    # closed form: the distance in FJ(n,1) is the inversion count of the relative pattern
    spec = FlagGraphSpec(n, 1)
    source = tuple(random.Random(n).sample(range(1, n + 1), n))
    got = bfs(spec, source).distances.tolist()
    assert got == [kendall_distance(source, v) for v in spec.ordering]


@pytest.mark.parametrize("n, k", [(n, k) for n in range(2, 7) for k in range(1, n)])
def test_bfs_matches_deque_bfs_over_pairwise_edges(n, k):
    spec = FlagGraphSpec(n, k)
    source = tuple(random.Random(10 * n + k).sample(range(1, n + 1), n))
    profile = bfs(spec, source)
    expected = deque_bfs(spec, source)
    assert profile.distances.tolist() == expected
    assert profile.eccentricity == max(expected)
    assert profile.reached == spec.vertex_count


@pytest.mark.parametrize("n, k", [(n, k) for n in range(2, 7) for k in range(1, n)])
def test_each_bfs_direction_alone_matches_deque_bfs(n, k, monkeypatch):
    spec = FlagGraphSpec(n, k)
    source = tuple(random.Random(10 * n + k).sample(range(1, n + 1), n))
    expected = deque_bfs(spec, source)
    for alpha in (0, 10**9):
        force_alpha(monkeypatch, alpha)
        assert bfs(spec, source).distances.tolist() == expected


@pytest.mark.parametrize("alpha", [0, 1, 2, 10**9])  # all top-down, the narrow and wide switch rules, all bottom-up
def test_bfs_of_a_disconnected_generator_set(alpha, monkeypatch):
    # the adjacent transpositions of [5] without (2 3): inverse-closed, but
    # they generate only S_2 x S_3, 12 of the 120 permutations
    gens = ((2, 1, 3, 4, 5), (1, 2, 4, 3, 5), (1, 2, 3, 5, 4))
    monkeypatch.setattr(metrics, "generators", lambda n, k: gens)
    force_alpha(monkeypatch, alpha)
    spec = FlagGraphSpec(5, 1)
    source = (3, 1, 5, 2, 4)
    expected = generator_bfs(gens, source)
    profile = bfs(spec, source)
    assert profile.distances.tolist() == [expected.get(p, UNREACHED) for p in spec.ordering]
    assert profile.reached == len(expected) == 12 and not profile.connected
    assert profile.eccentricity == max(expected.values())


@pytest.mark.parametrize("n, k", [(n, k) for n in range(2, 8) for k in range(1, n)] + [(8, 1), (8, 2)])
def test_bfs_composes_at_most_twice_n_factorial_degree_products(n, k, monkeypatch):
    # a top-down level composes |frontier| * degree products, a bottom-up one fewer than twice that
    count = count_products(monkeypatch)
    spec = FlagGraphSpec(n, k)
    bfs(spec, identity(n))
    assert 0 < count[0] <= 2 * spec.vertex_count * degree(n, k)


@pytest.mark.parametrize("k", [4, 6])
def test_bottom_up_levels_cut_the_products_of_dense_searches(k, monkeypatch):
    # top-down alone composes 1,155,618 products for FJ(7,4) and 2,099,223 for FJ(7,6)
    count = count_products(monkeypatch)
    bfs(FlagGraphSpec(7, k), identity(7))
    assert count[0] < 300_000


@pytest.mark.parametrize("n", range(2, 9))
def test_narrow_searches_compose_no_more_products_than_top_down(n, monkeypatch):
    # degree n-1 <= 16 is one bottom-up batch, which cannot stop early
    count = count_products(monkeypatch)
    spec = FlagGraphSpec(n, 1)
    profile = bfs(spec, identity(n))
    switched = count[0]
    count[0] = 0
    force_alpha(monkeypatch, 0)
    assert np.array_equal(bfs(spec, identity(n)).distances, profile.distances)
    assert 0 < switched <= count[0]


@pytest.mark.parametrize("n, k", [(2, 1), (4, 2), (5, 1), (5, 3), (6, 4), (6, 5)])
def test_custom_ordering_relabels_edges_and_distances(n, k):
    lex = FlagGraphSpec(n, k)
    spec = shuffled_spec(n, k, seed=n * k)
    to_lex = np.array([rank(p) for p in spec.ordering])
    relabelled = np.sort(to_lex[np.asarray(build_edges(spec))], axis=1)
    relabelled = relabelled[np.lexsort((relabelled[:, 1], relabelled[:, 0]))]
    assert np.array_equal(relabelled, build_edges(lex))
    assert build_edges(spec) == pairwise_edges(spec)
    source = spec.ordering[3 % spec.vertex_count]
    assert np.array_equal(bfs(spec, source).distances, bfs(lex, source).distances[to_lex])
    assert [spec.rank(p) for p in spec.ordering] == list(range(spec.vertex_count))


def test_edge_lists_are_int64_pair_arrays():
    for spec in (FlagGraphSpec(3, 0), FlagGraphSpec(4, 2)):
        for edges in (build_edges(spec), pairwise_edges(spec)):
            E = np.asarray(edges)
            assert E.dtype == np.int64 and E.shape == (len(edges), 2)
            assert np.shares_memory(E, edges.array) or not len(edges)
    assert len(build_edges(FlagGraphSpec(4, 2))) == 24 * degree(4, 2) // 2


def test_edge_list_reads_as_a_list_of_pairs():
    edges = build_edges(FlagGraphSpec(4, 2))
    pairs = [(a, b) for a, b in np.asarray(edges).tolist()]
    assert list(edges) == pairs and edges == pairs and pairs == edges
    assert edges[5] == pairs[5] and edges[-1] == pairs[-1] and type(edges[5][0]) is int
    assert edges[:17] + edges[18:] == pairs[:17] + pairs[18:]
    assert edges + [(0, 1)] == pairs + [(0, 1)]
    assert edges != pairs[:-1] and edges != pairs[::-1] and edges != [list(p) for p in pairs]
    with pytest.raises(IndexError):
        edges[len(pairs)]


def both_edge_checks(spec):
    # the per-edge reference route and the array route over the same edge list
    return [edge_transposition_bound_check(spec), metrics._edge_kendall_bound(spec, build_edges(spec))]


@pytest.mark.parametrize("n, k", [(n, k) for n in range(2, 7) for k in range(1, n)])
def test_array_edge_check_matches_the_per_edge_route(n, k):
    for spec in (FlagGraphSpec(n, k), shuffled_spec(n, k, seed=100 + 10 * n + k)):
        reference, array = both_edge_checks(spec)
        assert array == reference == (True, None)


@pytest.mark.parametrize("n", range(3, 7))
def test_array_edge_check_finds_the_first_edge_over_a_tighter_bound(n, monkeypatch):
    # the edges of FJ(n,n-1), whose connection set holds the reversal, under the bound of every smaller k
    for dense in (FlagGraphSpec(n, n - 1), shuffled_spec(n, n - 1, seed=n)):
        edges = build_edges(dense)
        monkeypatch.setattr(metrics, "build_edges", lambda spec: edges)
        for k in range(1, n - 1):
            spec = FlagGraphSpec(n, k, dense.ordering)
            reference = edge_transposition_bound_check(spec)
            assert not reference[0]
            assert metrics._edge_kendall_bound(spec, edges) == reference


def test_array_edge_check_passes_every_fj7():
    for k in range(1, 7):
        spec = FlagGraphSpec(7, k)
        assert metrics._edge_kendall_bound(spec, build_edges(spec)) == (True, None)


def test_edge_check_finds_a_generator_outside_the_connection_set(monkeypatch):
    # the reversal of [4] is one irreducible block, so it is no generator of FJ(4,1)
    real = graphs.generators
    monkeypatch.setattr(graphs, "generators", lambda n, k: real(n, k) + (reversal(n),))
    witnesses = []
    for spec in (FlagGraphSpec(4, 1), shuffled_spec(4, 1, seed=7)):
        reference, array = both_edge_checks(spec)
        assert array == reference
        ok, witness = reference
        assert not ok
        u, v = witness
        assert spec.rank(u) < spec.rank(v) and compose(u, reversal(4)) == v
        assert kendall_distance(u, v) > comb(2, 2) and prefix_mismatch_count(u, v) != 1
        witnesses.append(witness)
    assert witnesses[0] == (identity(4), reversal(4))


def test_battery_builds_one_edge_list_per_graph_and_no_kendall_call(monkeypatch):
    built = Counter()
    kendall_calls = [0]
    real_build, real_kendall = graphs.build_edges, perms.kendall_distance

    def counting_build(spec):
        built[spec.n, spec.k] += 1
        return real_build(spec)

    def counting_kendall(u, v):
        kendall_calls[0] += 1
        return real_kendall(u, v)

    for module in (graphs, metrics, verify):
        monkeypatch.setattr(module, "build_edges", counting_build)
    for module in (perms, metrics):
        monkeypatch.setattr(module, "kendall_distance", counting_kendall)
    assert all(entry["passed"] for entry in verify.battery(5))
    assert built == Counter({(n, k): 1 for n in range(2, 6) for k in range(1, n)})
    assert kendall_calls[0] == 0


def traced_peak_mb(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


# Unchunked, the second BFS level of FJ(7,6) composes 3447^2 products at once
# (about 140 MB traced), and iterating the 823,680 edges of FJ(7,4) would
# build all their pairs at once (about 100 MB).
PEAK_MB = 64


def test_bfs_of_fj76_peak_is_bounded():
    assert traced_peak_mb(lambda: bfs(FlagGraphSpec(7, 6), (3, 1, 4, 7, 5, 2, 6))) < PEAK_MB


def test_edge_list_iteration_peak_is_bounded():
    edges = build_edges(FlagGraphSpec(7, 4))
    assert traced_peak_mb(lambda: sum(1 for _ in edges)) < PEAK_MB / 4


def test_insertion_embedding_check_holds_two_planes():
    # two 5040 x 5040 uint8 planes take 48 MB; with a third, a boolean plane beside them, the peak is 73 MB
    assert traced_peak_mb(lambda: graphs.insertion_embedding_check(7, 3, 4)) < 56
