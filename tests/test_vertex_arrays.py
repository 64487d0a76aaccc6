"""The array vertex layer: vectorized ranks, chunked edge lists and BFS, each against an independent oracle."""

import inspect
import json
import random
import tracemalloc
from collections import Counter, deque
from math import comb

import numpy as np
import pytest

from fjgraphs import (
    EdgeList,
    FlagGraphSpec,
    bfs,
    build_edges,
    compose,
    degree,
    diameter,
    edge_transposition_bound_check,
    edges_to_csv,
    edges_to_dot,
    edges_to_json,
    enumerate_permutations,
    excluded_transposition_matrix,
    identity,
    kendall_distance,
    pairwise_edges,
    prefix_mismatch_count,
    rank,
    relative_pattern,
    reversal,
)
from fjgraphs import blocks, graphs, metrics, perms, verify
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


def search_every_call(monkeypatch):
    # bypass the one-graph slot, so every later bfs runs its own search under the patches in force
    monkeypatch.setattr(metrics, "_identity_search", inspect.unwrap(metrics._identity_search))


def count_products(monkeypatch):
    # a one-element list that counts the products u o g every later bfs ranks, each bfs searching anew
    count = [0]
    real = metrics._product_ranks

    def counting(spec, rows, form):
        count[0] += len(rows) * len(form)
        return real(spec, rows, form)

    monkeypatch.setattr(metrics, "_product_ranks", counting)
    search_every_call(monkeypatch)
    return count


def force_alpha(monkeypatch, alpha):
    # the same switch rule for wide and narrow connection sets: 0 keeps every
    # level top-down, a huge alpha makes every level bottom-up; the next bfs searches anew under it
    monkeypatch.setattr(metrics, "_BOTTOM_UP_ALPHA", alpha)
    monkeypatch.setattr(metrics, "_NARROW_ALPHA", alpha)
    search_every_call(monkeypatch)


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
    for n in range(1, 9):
        V = graphs._lex_vertices(n)
        assert V.dtype == np.uint8 and V.shape == (len(enumerate_permutations(n)), n)
        assert (V + 1).tolist() == [list(p) for p in enumerate_permutations(n)]
        assert not V.flags.writeable


def test_lexicographic_specs_build_no_tuple_ordering(monkeypatch):
    # the vertex array is the one form that specs, edges, BFS and the exports read
    def refuse(*args):
        raise AssertionError("a tuple ordering was built")

    monkeypatch.setattr(perms, "enumerate_permutations", refuse)
    monkeypatch.setattr(FlagGraphSpec, "ordering", property(refuse))
    assert not hasattr(graphs, "enumerate_permutations")
    graphs._lex_vertices.cache_clear()
    for k, diam in ((1, 28), (2, 11)):
        spec = FlagGraphSpec(8, k)
        edges = build_edges(spec)
        assert len(edges) == 40320 * degree(8, k) // 2
        assert bfs(spec, reversal(8)).reached == 40320
        assert diameter(spec) == diam
        assert edges_to_csv(edges).count("\n") == len(edges) + 1
        assert json.loads(edges_to_json(spec, edges))["vertices"][-1] == "87654321"
        assert edges_to_dot(spec, edges).count(" -- ") == len(edges)


def test_first_lexicographic_spec_holds_its_array_only():
    # the 40,320 x 8 uint8 rows take 0.31 MiB; the tuple ordering of S_8 took 4.6 MiB
    graphs._lex_vertices.cache_clear()
    perms.enumerate_permutations.cache_clear()
    tracemalloc.start()
    try:
        spec = FlagGraphSpec(8, 1)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert spec.vertex_count == 40320 and held < 1 << 20, held


@pytest.mark.parametrize("n", [1, 3, 4])
def test_every_form_of_an_ordering_gives_one_spec(n):
    lex = enumerate_permutations(n)
    forms = [None, (), [], lex, list(lex), np.array(lex), np.array(lex, dtype=np.uint8)]
    specs = [FlagGraphSpec(n, 0)] + [FlagGraphSpec(n, 0, form) for form in forms]
    specs.append(FlagGraphSpec(n, 0, ordering=np.array(lex)))
    for spec in specs:
        assert spec == specs[0] and hash(spec) == hash(specs[0]) and spec.ordering == lex
    assert len(set(specs)) == 1
    reordered = FlagGraphSpec(n, 0, lex[::-1])
    assert reordered.ordering == lex[::-1] and (reordered == specs[0]) == (n == 1)
    assert FlagGraphSpec(n, 0) != FlagGraphSpec(n + 1, 0) and FlagGraphSpec(4, 1) != FlagGraphSpec(4, 2)
    with pytest.raises(AttributeError):
        specs[0].k = 1


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
    # searches read the rank form that graphs._connection_form builds from these
    # rows: the autouse fixture has emptied its cache
    monkeypatch.setattr(graphs, "_connection_rows", lambda n, k: np.array(gens, dtype=np.uint8) - 1)
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
    # top-down alone composes 631,110 products for FJ(7,4) and 1,837,251 for FJ(7,6)
    count = count_products(monkeypatch)
    bfs(FlagGraphSpec(7, k), identity(7))
    assert count[0] < 300_000


@pytest.mark.parametrize("n, k, bound", [(8, 2, 40320 * 33 // 2 + 1), (7, 6, 80_000)])
def test_the_orbit_search_expands_one_vertex_of_each_conjugate_pair(n, k, bound, monkeypatch):
    # FJ(8,2) composed 962,636 products and FJ(7,6) 148,087 when the search expanded every vertex
    count = count_products(monkeypatch)
    assert bfs(FlagGraphSpec(n, k), identity(n)).connected
    assert 0 < count[0] < bound


@pytest.mark.parametrize("alpha", [0, 1, 2, 10**9])  # all top-down, the narrow and wide switch rules, all bottom-up
def test_bfs_of_a_connection_set_that_w0_conjugation_moves(alpha, monkeypatch):
    # the adjacent transpositions (1 2), (2 3), (3 4) of [5] and (1 5): inverse-closed and
    # connected, but conjugation by w0 maps (1 2) to (4 5), which is not among them
    gens = ((2, 1, 3, 4, 5), (1, 3, 2, 4, 5), (1, 2, 4, 3, 5), (5, 2, 3, 4, 1))
    monkeypatch.setattr(graphs, "_connection_rows", lambda n, k: np.array(gens, dtype=np.uint8) - 1)
    assert np.array_equal(graphs._w0_conjugation(5, 1), np.arange(120))
    force_alpha(monkeypatch, alpha)
    spec = FlagGraphSpec(5, 1)
    for source in (identity(5), (3, 1, 5, 2, 4)):
        expected = generator_bfs(gens, source)
        profile = bfs(spec, source)
        assert len(expected) == 120 and profile.connected
        assert profile.distances.tolist() == [expected[p] for p in spec.ordering]
        assert profile.eccentricity == max(expected.values())


@pytest.mark.parametrize("n", range(1, 7))
def test_conjugate_ranks_are_the_w0_conjugation(n):
    w0 = reversal(n)
    conjugates = graphs._conjugate_ranks(n)
    assert conjugates.dtype == np.int32 and not conjugates.flags.writeable
    assert conjugates.tolist() == [rank(compose(w0, compose(v, w0))) for v in enumerate_permutations(n)]
    assert np.array_equal(conjugates[conjugates], np.arange(len(conjugates)))
    for k in range(1, n):
        assert graphs._w0_conjugation(n, k) is conjugates


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


def test_numpy_ordering_matches_its_tuple_form():
    order = list(enumerate_permutations(4))
    random.Random(4).shuffle(order)
    for k in (1, 2, 3):
        as_tuples = FlagGraphSpec(4, k, tuple(order))
        for array in (np.array(order), np.array(order, dtype=np.uint8)):
            spec = FlagGraphSpec(4, k, array)
            assert spec == as_tuples and spec.ordering == tuple(order)
            assert np.array_equal(spec._vertices, as_tuples._vertices)
            assert [spec.rank(p) for p in order] == list(range(24))
            assert build_edges(spec) == build_edges(as_tuples) == pairwise_edges(spec)
    assert FlagGraphSpec(3, 1, np.array(enumerate_permutations(3))) == FlagGraphSpec(3, 1)
    for skip in (1, 2, 3):
        assert np.array_equal(
            excluded_transposition_matrix(4, skip, np.array(order)), excluded_transposition_matrix(4, skip, order)
        )


def test_edge_lists_are_int32_pair_arrays():
    for spec in (FlagGraphSpec(3, 0), FlagGraphSpec(4, 2)):
        for edges in (build_edges(spec), pairwise_edges(spec)):
            E = np.asarray(edges)
            assert E.dtype == np.int32 and E.shape == (len(edges), 2)
            assert np.shares_memory(E, edges.array) or not len(edges)
            for derived in (edges[1:], edges + [(0, 1)], EdgeList(E.tolist()), EdgeList(E.astype(np.int64))):
                assert derived.array.dtype == np.int32
    assert len(build_edges(FlagGraphSpec(4, 2))) == 24 * degree(4, 2) // 2


def test_edge_list_refuses_ends_that_int32_cannot_hold():
    # the list of Python ints, ``+`` and a wide array are all checked before the cast, which would wrap
    edges = build_edges(FlagGraphSpec(4, 2))
    for end in (2**31, 2**32, -(2**31) - 1):
        for make in (lambda: EdgeList([(0, end)]), lambda: edges + [(0, end)]):
            with pytest.raises(ValueError, match="int32"):
                make()
    with pytest.raises(ValueError, match="int32"):
        EdgeList(np.array([[0, 2**63]], dtype=np.uint64))
    limits = [(0, 2**31 - 1), (-(2**31), 0)]
    assert EdgeList(limits) == limits and (edges + limits)[-2:] == limits


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


def array_edge_check(spec, edges):
    # the battery's swap check over a whole edge list at once, in the
    # (ok, witness) form of edge_transposition_bound_check
    E = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    witness = metrics._swap_witness(spec, metrics._inversion_bits(spec), E[:, 0], E[:, 1])
    return witness is None, witness


def both_edge_checks(spec):
    # the per-edge reference route and the array route over the same edge list
    return [edge_transposition_bound_check(spec), array_edge_check(spec, build_edges(spec))]


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
            assert array_edge_check(spec, edges) == reference


def test_array_edge_check_passes_every_fj7():
    # chunk by chunk over the edge stream, as the battery reads it
    for k in range(1, 7):
        spec = FlagGraphSpec(7, k)
        inverted = metrics._inversion_bits(spec)
        assert all(metrics._swap_witness(spec, inverted, a, b) is None for a, b in graphs._edge_stream(spec))


def test_edge_check_finds_a_generator_outside_the_connection_set(monkeypatch):
    # the reversal of [4] is one irreducible block, so it is no generator of FJ(4,1);
    # an involution, it adds one neighbour per vertex, which the edge count must agree with
    real, real_degree = graphs._connection_rows, graphs.degree
    monkeypatch.setattr(graphs, "_connection_rows", lambda n, k: np.vstack([real(n, k), np.arange(n, dtype=np.uint8)[::-1]]))
    monkeypatch.setattr(graphs, "degree", lambda n, k: real_degree(n, k) + 1)
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
    # one edge stream per graph, read once, and no edge list held
    streams, built, matrices, calls = Counter(), Counter(), Counter(), Counter()
    real_stream, real_build, real_counts = graphs._edge_stream, graphs.build_edges, verify._prefix_mismatch_counts

    def counting_stream(spec):
        streams[spec.n, spec.k] += 1
        return real_stream(spec)

    def counting_build(spec):
        built[spec.n, spec.k] += 1
        return real_build(spec)

    def counting_matrix(V):
        matrices[V.shape[1]] += 1
        return real_counts(V)

    def count_calls(module, name):
        real = getattr(module, name)

        def counting(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, counting)

    monkeypatch.setattr(verify, "_edge_stream", counting_stream)
    for module in (graphs, metrics):
        monkeypatch.setattr(module, "build_edges", counting_build)
    monkeypatch.setattr(verify, "_prefix_mismatch_counts", counting_matrix)
    for module in (perms, metrics):
        count_calls(module, "kendall_distance")
    for module in (perms, graphs):
        count_calls(module, "prefix_mismatch_count")
    count_calls(perms, "relative_pattern")
    count_calls(perms, "enumerate_permutations")
    count_calls(graphs, "pairwise_edges")
    routes = ("kendall_distance", "prefix_mismatch_count", "relative_pattern", "enumerate_permutations", "pairwise_edges", "build_edges")
    assert not any(hasattr(verify, name) for name in routes)
    assert all(entry["passed"] for entry in verify.battery(6, eigen_cap=120))
    assert streams == Counter({(n, k): 1 for n in range(2, 7) for k in range(1, n)})
    assert built == Counter()
    assert matrices == Counter({n: 1 for n in range(2, 7)})
    assert calls == Counter()
    # one slot of base and stacked counts per base ordering, bases 1..5
    assert blocks._stacked_counts.cache_info().misses == 5


def maxscan_block_count(pattern) -> int:
    # reference reducibility route: a prefix of the pattern covers {1..i} iff its max is i
    count = 0
    high = 0
    for i, x in enumerate(pattern, start=1):
        if x > high:
            high = x
        if high == i:
            count += 1
    return count


@pytest.mark.parametrize("n", range(2, 7))
def test_array_block_counts_match_the_per_pair_route(n):
    V = graphs._lex_vertices(n)
    a, b = np.triu_indices(len(V), 1)
    if n == 6:  # 258,840 pairs: a seeded sample of them
        pick = np.random.default_rng(6).choice(len(a), 3000, replace=False)
        a, b = a[pick], b[pick]
    lex = enumerate_permutations(n)
    pairs = [(lex[i], lex[j]) for i, j in zip(a.tolist(), b.tolist())]
    reference = [maxscan_block_count(relative_pattern(u, v)) for u, v in pairs]
    assert verify._block_counts(V, a, b).tolist() == reference
    assert reference == [n - prefix_mismatch_count(u, v) for u, v in pairs]


def non_edge_gap(E, n, k):
    # an index i and a pair a < b, not an edge of the lexicographic FJ(n, k),
    # whose key a * N + b lies strictly between those of edges i and i + 1
    V = graphs._lex_vertices(n)
    keys = (E[:, 0] * len(V) + E[:, 1]).tolist()
    for i in range(len(E) - 1):
        for key in range(keys[i] + 1, keys[i + 1]):
            a, b = divmod(key, len(V))
            if a < b and prefix_mismatch_count(tuple(V[a] + 1), tuple(V[b] + 1)) != k:
                return i, (a, b)
    raise AssertionError("no non-edge fits between two edges")


def corrupt(fault, E, n, k):
    # each fault breaks one condition of the membership oracle: the length
    # (dropped), the strict order (duplicated, swapped), a < b (reversed) or
    # the count (other-count, extra)
    E = E.copy()
    if fault == "dropped":
        return np.delete(E, 17, axis=0)
    if fault == "duplicated":
        E[18] = E[17]
    elif fault == "swapped":
        E[[17, 18]] = E[[18, 17]]
    elif fault == "reversed":  # the last edge, so its key still goes up
        E[-1] = E[-1, ::-1]
    else:
        i, pair = non_edge_gap(E, n, k)
        if fault == "extra":
            return np.insert(E, i + 1, pair, axis=0)
        E[i + 1] = pair
    return E


@pytest.mark.parametrize("fault", ["dropped", "duplicated", "swapped", "reversed", "other-count", "extra"])
def test_edge_oracle_fails_on_each_corrupted_edge_list(fault, monkeypatch):
    real = graphs._edge_stream

    def corrupted(spec):
        chunks = list(real(spec))  # read to its end, so its own count check passes
        if (spec.n, spec.k) != (4, 2):
            return chunks
        (a, b), = chunks  # FJ(4,2) is one chunk
        E = corrupt(fault, np.column_stack([a, b]), spec.n, spec.k).astype(np.int32)
        return [(E[:, 0], E[:, 1])]

    monkeypatch.setattr(verify, "_edge_stream", corrupted)
    failed = [c["params"] for c in verify.battery(4) if c["name"] == "edge-oracle-equivalence" and not c["passed"]]
    assert failed == [{"n": 4, "k": 2}]


def test_edge_oracle_carries_the_last_key_across_chunks(monkeypatch):
    # 10 vertices per chunk, so FJ(4,2) streams in three sorted chunks; in
    # reverse order each chunk still holds sorted edges of the graph, and
    # only the key carried from one chunk to the next tells.  The same budget
    # cuts the 24-wide count bands of n = 4 into bands of 2 rows, which fit
    monkeypatch.setattr(graphs, "CHUNK_CELLS", 70)
    real = graphs._edge_stream
    assert len(list(real(FlagGraphSpec(4, 2)))) == 3
    assert all(entry["passed"] for entry in verify.battery(4))

    def reversed_chunks(spec):
        chunks = list(real(spec))
        return chunks[::-1] if (spec.n, spec.k) == (4, 2) else chunks

    monkeypatch.setattr(verify, "_edge_stream", reversed_chunks)
    failed = [(c["name"], c["params"]) for c in verify.battery(4) if not c["passed"]]
    assert failed == [("edge-oracle-equivalence", {"n": 4, "k": 2})]


def test_battery_names_the_first_edge_over_the_swap_bound(monkeypatch):
    # two foreign edges of FJ(4,1) in chunks of their own, after the real ones:
    # 1234 -- 4321 (6 swaps) comes first in the stream, so it is the witness
    real = graphs._edge_stream

    def foreign(spec):
        chunks = list(real(spec))
        if (spec.n, spec.k) == (4, 1):
            chunks += [(np.array([0], dtype=np.int32), np.array([23], dtype=np.int32))]
            chunks += [(np.array([1], dtype=np.int32), np.array([22], dtype=np.int32))]
        return chunks

    monkeypatch.setattr(verify, "_edge_stream", foreign)
    failed = [c for c in verify.battery(4) if c["name"] == "edge-kendall-bound" and not c["passed"]]
    assert failed == [
        {"name": "edge-kendall-bound", "params": {"n": 4, "k": 1}, "passed": False, "detail": "witness ((1, 2, 3, 4), (4, 3, 2, 1))"}
    ]


def test_a_flipped_count_cell_fails_the_edge_oracle_and_reducibility(monkeypatch):
    real = verify._prefix_mismatch_counts

    def flipped(V):
        counts = real(V)
        if V.shape[1] == 4:
            assert counts[0, 1] == 1  # 1234 and 1243: an FJ(4,1) edge
            counts[0, 1] = 2
        return counts

    monkeypatch.setattr(verify, "_prefix_mismatch_counts", flipped)
    failed = [(c["name"], c["params"]) for c in verify.battery(4) if not c["passed"]]
    assert failed == [
        ("edge-oracle-equivalence", {"n": 4, "k": 1}),
        ("edge-oracle-equivalence", {"n": 4, "k": 2}),
        ("reducibility-adjacency-equivalence", {"n": 4}),
    ]


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


def test_insertion_embedding_check_holds_no_plane():
    # one 5040 x 5040 uint8 plane alone is 24.2 MiB; the check compares a band of at most
    # 2**18 cells of each count matrix at a time, about 1.3 MiB traced whether it passes
    # (every band read) or stops at a witness
    for case in ((7, 3, 1), (7, 3, 4)):
        assert traced_peak_mb(lambda: graphs.insertion_embedding_check(*case)) < 8, case
