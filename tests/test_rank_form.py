"""Product ranks as one float32 matrix product, and BFS from any source as a relabelled identity search."""

import random
from math import factorial
from types import SimpleNamespace

import numpy as np
import pytest

from fjgraphs import FlagGraphSpec, bfs, build_edges, compose, diameter, generators, identity, rank, reversal
from fjgraphs import graphs, metrics
from fjgraphs.cli import main
from fjgraphs.metrics import UNREACHED

from test_vertex_arrays import generator_bfs

SAMPLED_ROWS = 1000  # vertices checked per graph from n = 7 on; every vertex below


def lehmer_product_ranks(spec, rows, gens):
    # the products composed by fancy indexing, ranked by the vectorized Lehmer code
    U = spec._vertices[rows]
    return spec._positions[graphs._lex_ranks((U[:, g] for g in gens.T), spec.n)]


def shuffled_rows_spec(n, k, seed):
    # a spec under a seeded shuffle of the lexicographic rows, given as a 1-based array
    order = np.random.default_rng(seed).permutation(factorial(n))
    return FlagGraphSpec(n, k, graphs._lex_vertices(n)[order] + 1)


def random_rows(n, count, seed):
    # seeded random permutations of [n] as 0-based uint8 rows, the identity and the reversal first
    rng = np.random.default_rng(seed)
    rows = [np.arange(n), np.arange(n)[::-1]] + [rng.permutation(n) for _ in range(count - 2)]
    return np.array(rows, dtype=np.uint8)


@pytest.mark.parametrize(
    "n, k", [(n, k) for n in range(2, 8) for k in range(n)] + [(8, k) for k in range(1, 5)]
)
@pytest.mark.parametrize("ordered", ["lexicographic", "shuffled"])
def test_rank_form_matches_the_lehmer_ranks_of_composed_products(n, k, ordered):
    spec = FlagGraphSpec(n, k) if ordered == "lexicographic" else shuffled_rows_spec(n, k, seed=10 * n + k)
    gens = np.array(generators(n, k), dtype=np.intp) - 1
    rows = np.arange(spec.vertex_count, dtype=np.int32)
    if n >= 7:
        rows = np.sort(np.random.default_rng(n * k).choice(rows, SAMPLED_ROWS, replace=False))
    form = graphs._rank_form(gens)
    assert form.dtype == np.float32 and form.shape == (len(gens), n * (n - 1) // 2 + 1)
    for chunk in graphs._chunks(rows, form):
        got = graphs._product_ranks(spec, chunk, form)
        assert got.dtype == np.int32 and got.shape == (len(chunk), len(gens))
        assert np.array_equal(got, lehmer_product_ranks(spec, chunk, gens))


@pytest.mark.parametrize("n", [9, 10])
def test_rank_form_is_exact_past_the_graph_cap(n):
    # at n = 10 the sums reach 2 * (10! - 1), still below 2**24; the spec stands in
    # for one over all n! rows, holding only the sampled ones
    gens = random_rows(n, 24, seed=n)
    U = random_rows(n, 300, seed=100 + n)
    spec = SimpleNamespace(n=n, _vertices=U, _lexicographic=True)
    got = graphs._product_ranks(spec, np.arange(len(U)), graphs._rank_form(gens.astype(np.intp)))
    expected = [[rank(compose(u, g)) for g in (gens + 1).tolist()] for u in (U + 1).tolist()]
    assert got.tolist() == expected


@pytest.mark.parametrize("n", [9, 10])
def test_vertex_ranks_are_exact_past_the_graph_cap(n):
    # a uint8 bit 1 << v wraps at v = 8, which at n = 10 gave value 9 the mask of value 8
    U = random_rows(n, 5000, seed=n)
    assert graphs._lex_ranks(U.T, n).tolist() == [rank(u) for u in (U + 1).tolist()]
    assert graphs._lex_ranks(U.T, n)[1] == factorial(n) - 1  # the reversal


def test_chunks_bound_both_the_product_and_the_bit_blocks():
    for n, k in [(8, 1), (8, 2), (7, 6)]:
        form = graphs._rank_form(np.array(generators(n, k), dtype=np.intp) - 1)
        chunks = list(graphs._chunks(np.arange(factorial(n)), form))
        assert sum(map(len, chunks)) == factorial(n)
        assert max(len(c) for c in chunks) * max(form.shape) <= graphs.CHUNK_CELLS


@pytest.mark.parametrize("n, k", [(3, 1), (4, 2), (5, 1), (5, 3), (6, 2), (6, 5)])
@pytest.mark.parametrize("ordered", ["lexicographic", "shuffled"])
def test_bfs_from_any_source_matches_a_queue_search(n, k, ordered):
    spec = FlagGraphSpec(n, k) if ordered == "lexicographic" else shuffled_rows_spec(n, k, seed=n + k)
    gens = generators(n, k)
    sources = [identity(n)] + [tuple(random.Random(100 * n + 10 * k + i).sample(range(1, n + 1), n)) for i in range(3)]
    expected = {source: generator_bfs(gens, source) for source in sources}
    for _ in range(2):  # the first source of each pass meets a cold slot, the later ones a warm one
        metrics._identity_search.cache_clear()
        for source in sources:
            profile = bfs(spec, source)
            assert profile.distances.tolist() == [expected[source][p] for p in spec.ordering]
            assert profile.source == source and profile.reached == spec.vertex_count
            assert profile.eccentricity == max(expected[source].values())
        assert metrics._identity_search.cache_info().misses == 1
        sources.reverse()


def test_a_graph_is_searched_once_while_it_holds_the_slot(monkeypatch):
    # each search reads the connection set's rank form once, from its cache
    searches = [0]
    real = metrics._connection_form

    def counting(n, k):
        searches[0] += 1
        return real(n, k)

    monkeypatch.setattr(metrics, "_connection_form", counting)
    spec = FlagGraphSpec(8, 2)
    assert diameter(spec) == 11
    for source in (identity(8), reversal(8), (3, 1, 4, 8, 5, 2, 6, 7)):
        assert bfs(spec, source).eccentricity == 11
    assert searches[0] == 1
    # one search per switch between two graphs
    other = FlagGraphSpec(6, 5)
    for spec_now in (other, spec, other, other, spec):
        bfs(spec_now, reversal(spec_now.n))
    assert searches[0] == 1 + 4


def assert_each_connection_set_built_once(graph_count):
    for cache in (graphs._connection_rows, graphs._connection_form):
        info = cache.cache_info()
        assert info.misses == info.currsize == graph_count


def test_the_battery_builds_each_connection_set_once(capsys):
    assert main(["verify-all", "--max-n", "6"]) == 0  # every check passed
    capsys.readouterr()
    assert_each_connection_set_built_once(sum(range(1, 6)))  # FJ(n, 1..n-1) for n = 2..6


def test_dense_graphs_build_each_connection_set_once():
    dense = [(6, 5), (7, 4), (7, 6)]
    for n, k in dense:
        spec = FlagGraphSpec(n, k)
        assert len(build_edges(spec)) == spec.vertex_count * len(generators(n, k)) // 2
        assert diameter(spec) == bfs(spec, reversal(n)).eccentricity
    assert_each_connection_set_built_once(len(dense))
    assert not graphs._connection_form(7, 6).flags.writeable


def test_the_slot_is_read_only_and_results_are_fresh():
    spec = FlagGraphSpec(6, 2)
    source = (2, 6, 1, 5, 3, 4)
    first = bfs(spec, source)
    kept = first.distances.copy()
    lex = metrics._identity_search(6, 2)[0]
    assert not lex.flags.writeable
    with pytest.raises(ValueError):
        lex[0] = 1
    assert first.distances.flags.writeable and not np.shares_memory(first.distances, lex)
    first.distances[:] = UNREACHED
    assert np.array_equal(bfs(spec, source).distances, kept)
    from_identity = bfs(spec, identity(6))  # the slot copied, not relabelled
    assert from_identity.distances.flags.writeable and not np.shares_memory(from_identity.distances, lex)
    assert np.array_equal(from_identity.distances, lex)
