"""FJ(n, k) construction: adjacency, generators, degrees, edges, exports."""

import itertools
import json
import numbers
import random
import time
import tracemalloc
from functools import lru_cache
from math import factorial, prod

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fjgraphs import (
    CapExceeded,
    EdgeList,
    FlagGraphSpec,
    TheoremViolation,
    adjacent,
    bfs,
    block_boundaries,
    build_edges,
    check_ordering,
    compose,
    degree,
    diameter,
    edges_to_csv,
    edges_to_dot,
    edges_to_json,
    enumerate_permutations,
    generators,
    identity,
    insertion,
    insertion_embedding_check,
    irreducible_count,
    irreducible_patterns,
    is_irreducible,
    neighbors,
    pairwise_edges,
    perm_to_string,
    prefix_mismatch_count,
    prefix_mismatch_matrix,
)
from fjgraphs import blocks, graphs, spectra, verify
from fjgraphs.config import GRAPH_CAP
from fjgraphs.graphs import _check_edge_budget


def gens_by_filter(n, k):
    # oracle: filter all of S_n by block count relative to the identity
    ident = identity(n)
    return {p for p in enumerate_permutations(n) if len(block_boundaries(ident, p)) == n - k}


@lru_cache(maxsize=None)
def irreducible_by_filter(m):
    # oracle: the irreducible permutations of [m], filtered from all of them in lexicographic order
    return tuple(p for p in itertools.permutations(range(1, m + 1)) if is_irreducible(p))


def compositions(total, parts):
    # tuples of `parts` positive integers summing to `total`, in lexicographic order
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def gens_by_composition(n, k):
    # oracle: choose the n-k block sizes (a composition of n) and fill each
    # block with an irreducible pattern shifted past the blocks before it,
    # without filtering S_n
    gens = []
    for sizes in compositions(n, n - k):
        for combo in itertools.product(*(irreducible_by_filter(m) for m in sizes)):
            g, offset = [], 0
            for pattern in combo:
                g.extend(x + offset for x in pattern)
                offset += len(pattern)
            gens.append(tuple(g))
    return gens


# ---------------------------------------------------------------- spec type

def test_spec_validation():
    spec = FlagGraphSpec(4, 2)
    assert spec.vertex_count == 24
    assert spec.ordering[0] == identity(4)
    with pytest.raises(ValueError):
        FlagGraphSpec(3, 3)
    with pytest.raises(ValueError):
        FlagGraphSpec(0, 0)
    with pytest.raises(ValueError):
        FlagGraphSpec(3, -1)


def test_custom_ordering_respects_graph_cap():
    # the cap is checked before the ordering is read, so the n = 9 list
    # of one permutation is rejected for its size, not as incomplete
    with pytest.raises(CapExceeded, match="graph cap"):
        FlagGraphSpec(9, 1, ordering=[tuple(range(1, 10))])


def test_spec_rank_and_custom_ordering():
    spec = FlagGraphSpec(3, 1)
    for i, p in enumerate(spec.ordering):
        assert spec.rank(p) == i
    with pytest.raises(ValueError):
        spec.rank((1, 2, 4))
    reordered = tuple(reversed(enumerate_permutations(3)))
    spec2 = FlagGraphSpec(3, 1, reordered)
    assert spec2.ordering[0] == (3, 2, 1)
    with pytest.raises(ValueError):
        FlagGraphSpec(3, 1, reordered[:-1])


def test_lexicographic_rank_builds_no_positions():
    # a lexicographic spec ranks a vertex by its Lehmer code alone, so the
    # n! positions array is never built, not even when bfs checks its source
    spec = FlagGraphSpec(8, 1)
    assert diameter(spec) == 28
    bfs(spec, (8, 7, 6, 5, 4, 3, 2, 1))
    assert spec.rank((1, 2, 3, 4, 5, 6, 8, 7)) == 1
    assert "_positions" not in spec.__dict__
    small = FlagGraphSpec(4, 2)
    assert [small.rank(p) for p in small.ordering] == list(range(24))
    for vertex in [(1, 2, 3), (1, 2, 3, 3), (0, 1, 2, 3), (1, 2, 3, 5)]:
        with pytest.raises(ValueError, match="not a vertex"):
            small.rank(vertex)
    assert "_positions" not in small.__dict__
    shuffled = list(enumerate_permutations(4))
    random.Random(4).shuffle(shuffled)
    custom = FlagGraphSpec(4, 2, shuffled)
    assert [custom.rank(p) for p in shuffled] == list(range(24))


def ordering_oracle(ordering, n=None):
    # tuple-level reference for check_ordering: the permutation tuples it
    # accepts, or the exception type it raises
    rows = [tuple(p) for p in ordering]
    if not rows or not rows[0] or len({len(p) for p in rows}) > 1:
        return ValueError
    if not all(isinstance(x, numbers.Integral) and not isinstance(x, bool) for p in rows for x in p):
        return ValueError
    size = len(rows[0]) if n is None else n
    if size > GRAPH_CAP:
        return CapExceeded
    if len(rows[0]) != size or len(rows) != factorial(size) or len(set(rows)) != len(rows):
        return ValueError
    if any(sorted(p) != list(range(1, size + 1)) for p in rows):
        return ValueError
    return tuple(rows)


@st.composite
def mangled_orderings(draw):
    # a shuffled ordering of S_n, n <= 4, with up to three rows dropped,
    # duplicated, given a foreign value or resized; as lists or an array,
    # checked for its own size, another size or none
    n = draw(st.integers(1, 4))
    rows = [list(p) for p in draw(st.permutations(enumerate_permutations(n)))]
    for _ in range(draw(st.integers(0, 3))):
        if not rows:
            break
        i, j = (draw(st.integers(0, len(rows) - 1)) for _ in range(2))
        change = draw(st.sampled_from(["drop", "duplicate", "append", "value", "longer", "shorter"]))
        if change == "drop":
            del rows[i]
        elif change == "duplicate":
            rows[i] = list(rows[j])
        elif change == "append":
            rows.append(list(rows[j]))
        elif change == "value" and rows[i]:  # 257 wraps to 1 in a byte
            rows[i][draw(st.integers(0, len(rows[i]) - 1))] = draw(st.sampled_from([0, -1, 1, n, n + 1, 257]))
        elif change == "longer":
            rows[i] = rows[i] + [n + 1]
        elif change == "shorter":
            rows[i] = rows[i][:-1]
    ordering = [tuple(p) for p in rows]
    if draw(st.booleans()) and rows and len({len(p) for p in rows}) == 1:
        ordering = np.array(rows)
    return ordering, draw(st.sampled_from([None, n, n + 1]))


@settings(deadline=None, max_examples=300)
@given(mangled_orderings())
@example(((), None))
@example(([()], None))
@example((((1, 2), (1, 2)), None))
@example((((1, 2), (2, 1), (1, 2, 3)), None))
@example(([tuple(range(1, 10))], None))
@example(([tuple(range(1, 10))], 9))
@example((enumerate_permutations(3), 9))
@example(([(1.0, 2.0), (2.0, 1.0)], None))
@example(([(True,)], None))
def test_check_ordering_rejects(case):
    ordering, n = case
    expected = ordering_oracle(ordering, n)
    if isinstance(expected, type):
        with pytest.raises(expected) as raised:
            check_ordering(ordering, n)
        assert (raised.type is CapExceeded) == (expected is CapExceeded)
    else:
        V = check_ordering(ordering, n)
        assert V.dtype == np.uint8 and not V.flags.writeable
        assert tuple(map(tuple, (V + 1).tolist())) == expected


def _refusal(n, ordering):
    with pytest.raises(ValueError) as raised:
        FlagGraphSpec(n, 1, ordering)
    return str(raised.value)


def test_a_kept_ordering_is_validated_again_once_it_changes(validations):
    # a list of int tuples is validated once while it holds the same row
    # objects; a row swapped or overwritten in place, or the same rows as new
    # tuples, is validated again, and a refused ordering is refused again
    S = list(enumerate_permutations(4))
    random.Random(31).shuffle(S)
    spec = FlagGraphSpec(4, 1, S)
    assert FlagGraphSpec(4, 2, tuple(S))._vertices is spec._vertices
    assert len(validations) == 1
    S[3], S[5] = S[5], S[3]
    assert FlagGraphSpec(4, 1, S).ordering == tuple(S) != spec.ordering
    assert len(validations) == 2
    assert FlagGraphSpec(4, 1, [tuple(list(p)) for p in S]).ordering == tuple(S)
    assert len(validations) == 3
    S[3] = S[5]
    message = _refusal(4, S)
    assert "exactly once" in message and _refusal(4, S) == message
    assert len(validations) == 5


_ROW_FORMS = {
    "np.int64 entries": lambda S: [tuple(map(np.int64, p)) for p in S],
    "0-d array entries": lambda S: [tuple(np.array(x) for x in p) for p in S],
    "tuple subclass rows": lambda S: [type("Row", (tuple,), {})(p) for p in S],
    "list rows": lambda S: [list(p) for p in S],
    "an ndarray": lambda S: np.array(S),
}


@pytest.mark.parametrize("form", _ROW_FORMS, ids=list(_ROW_FORMS))
def test_an_ordering_of_other_rows_is_validated_on_every_call(validations, form):
    S = list(enumerate_permutations(3))
    random.Random(32).shuffle(S)
    ordering = _ROW_FORMS[form](S)
    for count in (1, 2):
        assert FlagGraphSpec(3, 1, ordering).ordering == tuple(S)
        assert len(validations) == count


@pytest.mark.parametrize("form", ["0-d array entries", "list rows", "an ndarray"])
def test_a_row_mutated_in_place_is_refused_on_the_next_call(form):
    S = list(enumerate_permutations(3))
    ordering = _ROW_FORMS[form](S)
    FlagGraphSpec(3, 1, ordering)
    if form == "0-d array entries":
        ordering[0][0][...] = 2
    else:
        ordering[0][0] = 2
    assert "exactly once" in _refusal(3, ordering)


# ---------------------------------------------------------------- adjacency

def test_adjacent_worked_examples():
    assert adjacent(FlagGraphSpec(5, 2), (1, 2, 3, 4, 5), (2, 1, 3, 5, 4))
    assert not adjacent(FlagGraphSpec(5, 2), (1, 2, 3, 4, 5), (3, 2, 4, 1, 5))
    assert adjacent(FlagGraphSpec(5, 3), (1, 2, 3, 4, 5), (3, 2, 4, 1, 5))
    assert adjacent(FlagGraphSpec(7, 4), (1, 2, 3, 4, 5, 6, 7), (2, 3, 1, 4, 6, 7, 5))


def test_adjacent_symmetric_and_degenerate():
    spec0 = FlagGraphSpec(3, 0)
    spec1 = FlagGraphSpec(3, 1)
    for u in enumerate_permutations(3):
        for v in enumerate_permutations(3):
            assert adjacent(spec1, u, v) == adjacent(spec1, v, u)
            assert adjacent(spec0, u, v) == (u == v)
    with pytest.raises(ValueError):
        adjacent(spec1, (1, 2), (2, 1))


NON_INTEGER_VERTICES = [(1.0, 2.0, 3.0), (1.5, 2, 3), ("1", "2", "3")]


@pytest.mark.parametrize("bad", [(1, 1, 1), (0, 1, 2), (1, 2, 4), (1, 2), (1, 2, 3, 4), *NON_INTEGER_VERTICES])
def test_adjacent_rejects_a_non_vertex(bad):
    spec = FlagGraphSpec(3, 1)
    for u, v in ((bad, (1, 2, 3)), ((1, 2, 3), bad)):
        with pytest.raises(ValueError, match="not a vertex of FJ"):
            adjacent(spec, u, v)


def test_k1_adjacency_is_one_adjacent_swap():
    spec = FlagGraphSpec(4, 1)
    for u in enumerate_permutations(4):
        for v in enumerate_permutations(4):
            swaps = sum(1 for i in range(3) if (*u[:i], u[i + 1], u[i], *u[i + 2 :]) == v)
            assert adjacent(spec, u, v) == (swaps == 1)


# ---------------------------------------------------------------- generators

def test_generators_examples():
    assert generators(3, 0) == ((1, 2, 3),)
    assert set(generators(3, 1)) == {(2, 1, 3), (1, 3, 2)}
    assert len(generators(4, 2)) == 7


def test_generators_match_brute_filter():
    for n in range(2, 7):
        for k in range(n):
            assert set(generators(n, k)) == gens_by_filter(n, k)


def test_generators_block_count_and_inverse_closure():
    # inverse closure is what lets a bottom-up BFS level find a vertex's parent among its own products
    from fjgraphs import inverse

    for n in range(2, 9):
        for k in range(1, n):
            gens = set(generators(n, k))
            assert identity(n) not in gens
            for g in gens:
                assert len(block_boundaries(identity(n), g)) == n - k
                assert inverse(g) in gens


@pytest.mark.parametrize("n", range(1, GRAPH_CAP + 1))
def test_connection_rows_match_the_composition_oracle(n):
    for k in range(n):
        rows = graphs._connection_rows(n, k)
        expected = gens_by_composition(n, k)
        assert rows.dtype == np.uint8 and rows.shape == (len(expected), n)
        assert not rows.flags.writeable
        listed = (rows + 1).tolist()
        assert set(map(tuple, listed)) == set(expected)
        assert all(a < b for a, b in zip(listed, listed[1:]))  # strictly lexicographic
        assert len(rows) == (degree(n, k) if k else 1)
        assert generators(n, k) == tuple(map(tuple, listed))
    assert generators(n, 0) == (identity(n),)  # k = 0 is the identity alone


def test_connection_views_respect_the_graph_cap():
    for view in (lambda: generators(GRAPH_CAP + 1, 1), lambda: irreducible_patterns(GRAPH_CAP + 1)):
        with pytest.raises(CapExceeded, match="graph cap"):
            view()
    with pytest.raises(ValueError):
        generators(3, 3)


def test_generators_are_neighbors_of_identity():
    spec = FlagGraphSpec(5, 2)
    for g in generators(5, 2):
        assert adjacent(spec, identity(5), g)


# ---------------------------------------------------------------- counting

def test_irreducible_patterns_and_count():
    for m in range(1, 8):
        patterns = irreducible_patterns(m)
        assert patterns == irreducible_by_filter(m)
        assert all(is_irreducible(p) for p in patterns)
        assert len(patterns) == irreducible_count(m)
    assert [irreducible_count(m) for m in (1, 3, 4)] == [1, 3, 13]


def test_irreducible_count_recurrence():
    for m in range(1, 9):
        total = sum(irreducible_count(i) * factorial(m - i) for i in range(1, m + 1))
        assert total == factorial(m)


def test_degree_examples_and_identities():
    assert degree(5, 1) == 4
    assert degree(3, 2) == 3
    assert degree(4, 2) == 7
    assert degree(4, 0) == 0
    for n in range(2, 7):
        for k in range(1, n):
            assert degree(n, k) == len(generators(n, k))
    with pytest.raises(ValueError):
        degree(3, 3)


@pytest.mark.parametrize("n", range(2, 13))
def test_degree_matches_the_composition_sum(n):
    # oracle: over the compositions of n into n-k block sizes, the product of
    # the irreducible counts of the parts
    for k in range(1, n):
        expected = sum(prod(irreducible_count(c) for c in sizes) for sizes in compositions(n, n - k))
        assert degree(n, k) == expected


def test_degrees_of_every_k_count_every_other_permutation():
    # each permutation but the identity has between 1 and n-1 blocks, so it is
    # a generator of exactly one FJ(n, k), k >= 1
    for n in range(2, 41):
        assert sum(degree(n, k) for k in range(1, n)) == factorial(n) - 1


# ---------------------------------------------------------------- neighbors

def test_neighbors_examples():
    assert set(neighbors(FlagGraphSpec(3, 1), (1, 2, 3))) == {(2, 1, 3), (1, 3, 2)}
    assert neighbors(FlagGraphSpec(2, 1), (1, 2)) == [(2, 1)]
    nbrs = neighbors(FlagGraphSpec(4, 2), identity(4))
    assert len(nbrs) == 7 and len(set(nbrs)) == 7
    assert neighbors(FlagGraphSpec(3, 0), (1, 2, 3)) == []


@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("bad", [(1, 1, 1), (0, 1, 2), (1, 2, 4), (1, 2), (1, 2, 3, 4), *NON_INTEGER_VERTICES])
def test_neighbors_reject_a_non_vertex(bad, k):
    with pytest.raises(ValueError, match="not a vertex of FJ"):
        neighbors(FlagGraphSpec(3, k), bad)


def test_neighbors_all_adjacent_no_duplicates():
    for n, k in ((4, 1), (4, 3), (5, 2)):
        spec = FlagGraphSpec(n, k)
        for u in (identity(n), enumerate_permutations(n)[5]):
            nbrs = neighbors(spec, u)
            assert len(nbrs) == degree(n, k) == len(set(nbrs))
            assert all(adjacent(spec, u, v) for v in nbrs)
            assert u not in nbrs


# ---------------------------------------------------------------- edges

def test_build_edges_counts():
    assert build_edges(FlagGraphSpec(2, 1)) == [(0, 1)]
    assert len(build_edges(FlagGraphSpec(3, 1))) == 6
    assert len(build_edges(FlagGraphSpec(4, 2))) == 84
    assert build_edges(FlagGraphSpec(3, 0)) == []
    for n in range(2, 6):
        for k in range(1, n):
            assert len(build_edges(FlagGraphSpec(n, k))) == factorial(n) * degree(n, k) // 2


def test_build_edges_sorted_and_in_range():
    edges = build_edges(FlagGraphSpec(4, 2))
    assert edges == sorted(edges)
    assert all(0 <= a < b < 24 for a, b in edges)


def test_build_edges_cap():
    # FJ(9,1) fits the edge budget; enumerating its vertices does not
    with pytest.raises(CapExceeded, match="graph cap"):
        build_edges(FlagGraphSpec(9, 1))
    with pytest.raises(CapExceeded, match="matrix cap"):
        pairwise_edges(FlagGraphSpec(8, 1))
    with pytest.raises(CapExceeded, match="matrix cap"):
        prefix_mismatch_matrix(enumerate_permutations(8))


def test_prefix_mismatch_matrix_validates_its_ordering():
    S = enumerate_permutations(3)
    for bad in ([(1, 2, 3), (1, 2, 3)], S[:-1], S[:-1] + S[:1], S[:-1] + ((1, 2, 4),), (), (1, 2, 3)):
        with pytest.raises(ValueError):
            prefix_mismatch_matrix(bad)
    assert prefix_mismatch_matrix(S[::-1]).tolist() == prefix_mismatch_matrix(S)[::-1, ::-1].tolist()


def test_build_edges_edge_budget():
    # FJ(7,6) and FJ(8,4) fit in EDGE_CAP; FJ(8,5) and denser do not
    _check_edge_budget(7, 6)
    _check_edge_budget(8, 4)
    for k in (5, 6, 7):
        with pytest.raises(CapExceeded, match="edge budget"):
            _check_edge_budget(8, k)
    spec = FlagGraphSpec(8, 7)  # 586,514,880 edges
    started = time.perf_counter()
    with pytest.raises(CapExceeded, match="edge budget"):
        build_edges(spec)
    assert time.perf_counter() - started < 1.0


def test_pairwise_oracle_agreement_small():
    for n in range(2, 5):
        for k in range(1, n):
            spec = FlagGraphSpec(n, k)
            assert build_edges(spec) == pairwise_edges(spec)
    # at the matrix cap every row block but the last is full, under a shuffled ordering
    shuffled = list(enumerate_permutations(7))
    random.Random(7).shuffle(shuffled)
    for k in range(1, 7):
        spec = FlagGraphSpec(7, k, shuffled)
        assert build_edges(spec) == pairwise_edges(spec)


def test_pairwise_edges_never_holds_the_full_count_matrix():
    # the 5040 x 5040 counts alone are 24 MiB; FJ(7,1) has 15,120 edges
    spec = FlagGraphSpec(7, 1)
    tracemalloc.start()
    try:
        edges = pairwise_edges(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(edges) == 15120
    assert peak < 2 << 20, peak


@pytest.mark.parametrize("route, working_mib", [(build_edges, 8), (pairwise_edges, 2)])
def test_edge_routes_fill_one_array(route, working_mib):
    # FJ(7,4): 824,040 edges, 6.3 MiB as int32 pairs (12.6 MiB as int64,
    # which the absolute bound refuses).  Measured beside the result: 4.0 MiB
    # of products (build_edges), 1.0 MiB of row blocks (pairwise_edges).
    spec = FlagGraphSpec(7, 4)
    tracemalloc.start()
    try:
        edges = route(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(edges) == 824040
    assert peak < edges.array.nbytes + (working_mib << 20), peak
    assert peak < 824040 * 2 * 4 + (working_mib << 20), peak


def read_stream(spec):
    # the edge stream that the exports and the battery read, to its end
    return [len(a) for a, b in graphs._edge_stream(spec)]


@pytest.mark.parametrize("route", [build_edges, pairwise_edges, read_stream])
@pytest.mark.parametrize("off", [-1, 1])
def test_edge_count_off_the_degree_formula_raises(route, off, monkeypatch):
    # a list longer or shorter than n! * degree / 2 is never returned, and a
    # stream of another length raises after its last chunk
    real = graphs.degree
    monkeypatch.setattr(graphs, "degree", lambda n, k: real(n, k) + off)
    with pytest.raises(TheoremViolation, match="edges"):
        route(FlagGraphSpec(4, 2))


def test_two_ended_fill_raises_before_its_ends_cross(monkeypatch):
    # one vertex per chunk: FJ(4,2) has 84 edges, 42 from each half of the
    # vertices; a degree of 2 admits 24, which the front and back writes
    # pass long before the 12 chunks of the first half are ranked
    real, chunks = graphs._sorted_products, []

    def counting(spec, rows, form):
        chunks.append(len(rows))
        return real(spec, rows, form)

    monkeypatch.setattr(graphs, "CHUNK_CELLS", 1)
    monkeypatch.setattr(graphs, "_sorted_products", counting)
    monkeypatch.setattr(graphs, "degree", lambda n, k: 2)
    with pytest.raises(TheoremViolation, match="more than n! \\* degree / 2 = 24 edges"):
        build_edges(FlagGraphSpec(4, 2))
    assert chunks and set(chunks) == {1} and len(chunks) < 12


@pytest.mark.parametrize("n, k", [(n, k) for n in range(1, 8) for k in range(n)] + [(8, 1), (8, 2), (8, 3)])
def test_mirrored_edges_equal_the_edge_stream_chunk_by_chunk(n, k):
    # build_edges ranks half of the vertices and mirrors the rest; the stream ranks every vertex in order
    spec = FlagGraphSpec(n, k)
    edges = np.asarray(build_edges(spec))
    filled = 0
    for a, b in graphs._edge_stream(spec):
        assert np.array_equal(edges[filled : filled + len(a), 0], a)
        assert np.array_equal(edges[filled : filled + len(a), 1], b)
        filled += len(a)
    assert filled == len(edges) == factorial(n) * degree(n, k) // 2


@pytest.mark.parametrize("n", range(1, 7))
def test_mirrored_edges_equal_the_pairwise_route(n):
    for k in range(n):
        spec = FlagGraphSpec(n, k)
        assert build_edges(spec) == pairwise_edges(spec)


def test_regularity_observed():
    # every vertex of the Cayley graph has the same degree
    spec = FlagGraphSpec(4, 2)
    edges = build_edges(spec)
    counts = [0] * spec.vertex_count
    for a, b in edges:
        counts[a] += 1
        counts[b] += 1
    assert set(counts) == {degree(4, 2)}


# ---------------------------------------------------------------- embedding

def insertion_embedding_oracle(n, k, position):
    # every vertex pair in lexicographic order, one predicate per graph
    perms = enumerate_permutations(n)
    for a, u in enumerate(perms):
        for v in perms[a + 1 :]:
            small = prefix_mismatch_count(u, v) == k
            big = prefix_mismatch_count(insertion(u, position), insertion(v, position)) == k
            if small != big:
                return False, (u, v)
    return True, None


def test_insertion_embedding_matches_pair_loop_oracle():
    cases = [(n, k, position) for n in range(1, 5) for k in range(n) for position in range(1, n + 2)]
    cases += [(5, k, position) for k in range(5) for position in (1, 3, 6)]
    for case in cases:
        assert insertion_embedding_check(*case) == insertion_embedding_oracle(*case), case


def test_insertion_embedding_at_the_matrix_cap():
    # the insertion images are permutations of [8]; only n is capped
    assert insertion_embedding_check(7, 6, 8) == (True, None)
    assert insertion_embedding_check(7, 1, 2) == (False, ((1, 2, 3, 4, 5, 6, 7), (2, 1, 3, 4, 5, 6, 7)))


@pytest.mark.parametrize("k", [-1, 4, 7])
def test_insertion_embedding_rejects_a_k_outside_0_to_n_minus_1(k):
    with pytest.raises(ValueError, match="0 <= k < n"):
        insertion_embedding_check(4, k)


@pytest.mark.parametrize(
    "entry, args, message",
    [
        (FlagGraphSpec, (3, 3), "need 0 <= k < n, got n=3, k=3"),
        (graphs._connection_rows, (3, -1), "need 0 <= k < n, got n=3, k=-1"),
        (degree, (0, 0), "need 0 <= k < n, got n=0, k=0"),
        (insertion_embedding_check, (4, 7), "need 0 <= k < n, got n=4, k=7"),
        (blocks.adjacency_matrix, (2, 2), "need 0 <= k < n, got n=2, k=2"),
        (blocks.verify_recursive_blocks, (3, 3), "need 0 <= k < n, got n=3, k=3"),
        (blocks.verify_permutahedron_blocks, (1,), "need 0 <= k < n, got n=1, k=1"),
    ],
)
def test_every_entry_point_gives_one_domain_message(entry, args, message):
    with pytest.raises(ValueError) as raised:
        entry(*args)
    assert str(raised.value) == message


_GRAPH_CAP_9 = "n=9 exceeds the graph cap 8 (362880 permutations)"
_MATRIX_CAP_8 = "n=8 exceeds the matrix cap 7"


@pytest.mark.parametrize(
    "entry, args, message",
    [
        (FlagGraphSpec, (9, 1), _GRAPH_CAP_9),
        (enumerate_permutations, (9,), _GRAPH_CAP_9),
        (check_ordering, ([list(range(1, 10))],), _GRAPH_CAP_9),
        (spectra.lift_vector, ([0] * 9, 9), _GRAPH_CAP_9),
        (verify.battery, (9,), _GRAPH_CAP_9),
        # n! is not spelled out past 1000!, which already has 2568 digits
        (verify.battery, (10**7,), "n=10000000 exceeds the graph cap 8 (more than 10^2567 permutations)"),
        (blocks.adjacency_matrix, (8, 1), _MATRIX_CAP_8),
        (blocks.excluded_transposition_matrix, (8, 1), _MATRIX_CAP_8),
        (lambda: pairwise_edges(FlagGraphSpec(8, 1)), (), _MATRIX_CAP_8),
        (prefix_mismatch_matrix, ([list(range(1, 9))],), _MATRIX_CAP_8),
        (insertion_embedding_check, (8, 1), _MATRIX_CAP_8),
        (spectra.regularity_matrix, (721,), "order 721 exceeds the eigensolver cap 720"),
        (spectra.eig_symmetric, (np.eye(5), 4), "order 5 exceeds the eigensolver cap 4"),
        (spectra.adjacency_spectrum, (6, 1, None, 100), "order 720 exceeds the eigensolver cap 100"),
        pytest.param(
            spectra.adjacency_spectrum, (1000, 1), f"order {factorial(1000)} exceeds the eigensolver cap 720", id="adjacency_spectrum-1000"
        ),
        # past 1000!, n! is never computed (10**6! alone takes seconds, and cannot be printed): the matrix cap refuses
        (spectra.adjacency_spectrum, (2000, 1), "n=2000 exceeds the matrix cap 7"),
        (spectra.adjacency_spectrum, (10**6, 1), "n=1000000 exceeds the matrix cap 7"),
        (spectra.conjecture_second_largest, (2000,), "n=2000 exceeds the matrix cap 7"),
    ],
)
def test_every_entry_point_gives_one_cap_message(entry, args, message):
    with pytest.raises(CapExceeded) as raised:
        entry(*args)
    assert str(raised.value) == message


def test_end_insertion_embeds():
    for n in (3, 4):
        for k in range(1, n):
            for position in (1, n + 1):
                ok, witness = insertion_embedding_check(n, k, position)
                assert ok and witness is None


def test_interior_insertion_fails_with_witness():
    ok, witness = insertion_embedding_check(3, 1, 2)
    assert not ok and witness == ((1, 2, 3), (2, 1, 3))
    with pytest.raises(ValueError):
        insertion_embedding_check(3, 1, 5)
    with pytest.raises(CapExceeded, match="matrix cap"):
        insertion_embedding_check(8, 1)


# ---------------------------------------------------------------- exports

def dot_oracle(spec, edges):
    # one line per node and per edge, joined
    labels = [perm_to_string(p) for p in spec.ordering]
    lines = [f'graph "FJ({spec.n},{spec.k})" {{']
    lines += [f'  "{label}";' for label in labels]
    lines += [f'  "{labels[a]}" -- "{labels[b]}";' for a, b in edges]
    lines.append("}")
    return "\n".join(lines) + "\n"


def json_oracle(spec, edges):
    doc = {
        "schema_version": 1,
        "n": spec.n,
        "k": spec.k,
        "vertex_count": spec.vertex_count,
        "degree": degree(spec.n, spec.k),
        "vertices": [perm_to_string(p) for p in spec.ordering],
        "edge_count": len(edges),
        "edges": [list(e) for e in edges],
    }
    return json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("n", range(1, 6))
def test_exports_match_per_edge_oracles(n, monkeypatch):
    # 7 rows per chunk: the graphs take none, one, a partial or many chunks
    monkeypatch.setattr("fjgraphs.graphs.CSV_ROWS", 7)
    for k in range(n):
        spec = FlagGraphSpec(n, k)
        edges = build_edges(spec)
        pairs = list(edges)
        assert edges_to_dot(spec, edges) == dot_oracle(spec, pairs)
        assert edges_to_json(spec, edges) == json_oracle(spec, pairs)
        assert edges_to_csv(edges) == "u,v\n" + "".join(f"{a},{b}\n" for a, b in pairs)


@pytest.mark.parametrize("fmt", ["csv", "json", "dot"])
def test_streamed_exports_equal_the_string_exports(fmt, monkeypatch):
    # every FJ(n,k) with n <= 5; 7 rows per piece, so the graphs take none,
    # one, a partial or many pieces, and the JSON holds back its last row
    monkeypatch.setattr("fjgraphs.graphs.CSV_ROWS", 7)
    public = {
        "csv": lambda spec, edges: edges_to_csv(edges),
        "json": edges_to_json,
        "dot": edges_to_dot,
    }[fmt]
    for n in range(1, 6):
        for k in range(n):
            spec = FlagGraphSpec(n, k)
            assert "".join(graphs._export_pieces(spec, fmt)) == public(spec, build_edges(spec))


def assert_streamed_export_holds_no_edge_list(fmt, public):
    # FJ(7,4): 824,040 edges, whose int32 list alone is 6.3 MiB; the stream
    # holds one chunk of edges, the word tables and one piece of text at a
    # time, 4.4 to 5.5 MiB here
    spec = FlagGraphSpec(7, 4)
    tracemalloc.start()
    try:
        size = sum(map(len, graphs._export_pieces(spec, fmt)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert size == len(public(spec, build_edges(spec)))
    assert peak < 824040 * 2 * 4, (fmt, peak)


def test_streamed_csv_export_holds_no_edge_list():
    assert_streamed_export_holds_no_edge_list("csv", lambda spec, edges: edges_to_csv(edges))


@pytest.mark.parametrize("fmt", ["json", "dot"])
def test_streamed_json_and_dot_exports_hold_no_edge_list(fmt):
    # the JSON and DOT rows span more words than CSV's, under the same bound
    assert_streamed_export_holds_no_edge_list(fmt, {"json": edges_to_json, "dot": edges_to_dot}[fmt])


def test_text_exports_hold_no_object_per_edge():
    spec = FlagGraphSpec(6, 5)
    edges = build_edges(spec)
    for export in (edges_to_json, edges_to_dot, lambda spec, edges: edges_to_csv(edges)):
        tracemalloc.start()
        try:
            text = export(spec, edges)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * len(text), (export.__name__, peak, len(text))


def test_number_exports_at_the_digit_boundaries(monkeypatch):
    # 3 rows per chunk: the first chunk is 1 digit wide, the others 2 to 10;
    # JSON ends are ranks, so there the widths stop at the 5 digits of 40319,
    # the last rank of FJ(8,k)
    monkeypatch.setattr("fjgraphs.graphs.CSV_ROWS", 3)
    values = [0, 9, 10, 99, 100, 9999, 10000, 40319, 2**32 - 1]
    pairs = [(0, 9), (9, 0), (1, 2)] + [(a, b) for a in values for b in values]
    ranks = [(a, b) for a, b in pairs if max(a, b) <= 40319]
    spec = FlagGraphSpec(8, 1)
    for edges in (pairs, np.array(pairs, dtype=np.uint32)):
        assert edges_to_csv(edges) == "u,v\n" + "".join(f"{a},{b}\n" for a, b in pairs)
    for edges in (ranks, np.array(ranks, dtype=np.uint32)):
        assert edges_to_json(spec, edges) == json_oracle(spec, ranks)


@pytest.mark.parametrize("end", [-1, 2**32, 2**64, 0.5, 1.7, "3"])
def test_exports_refuse_an_end_that_is_no_rank(end):
    spec = FlagGraphSpec(3, 1)
    for export in (edges_to_csv, lambda edges: edges_to_json(spec, edges), lambda edges: edges_to_dot(spec, edges)):
        for edges in ([(0, 1), (2, end)], [(end, end)]):
            with pytest.raises(ValueError, match="ranks"):
                export(edges)
        for edges in ([[0], [1]], [(0, 1, 2)], [0, 1], np.array([[0.0, 1.0]])):  # not (E, 2), or not integer
            with pytest.raises(ValueError, match="ranks"):
                export(edges)
        assert export([]) == export(np.empty((0, 2), dtype=np.int64))
    for export in (edges_to_json, edges_to_dot):
        with pytest.raises(ValueError, match="ranks"):
            export(spec, [(0, spec.vertex_count)])
    assert edges_to_csv([]) == "u,v\n"


@pytest.mark.parametrize("pairs", [[(0.5, 1.7)], [("3", "4")], [[0], [1]], [(0, 1, 2)], [(True, False)], [(0, 2**64)]])
def test_edge_lists_refuse_pairs_that_are_not_integer_pairs(pairs):
    with pytest.raises(ValueError, match="ranks"):
        EdgeList(pairs)
    assert EdgeList([]) == EdgeList() == [] and EdgeList().array.shape == (0, 2)


def test_dot_export():
    spec = FlagGraphSpec(2, 1)
    text = edges_to_dot(spec, build_edges(spec))
    assert text.startswith('graph "FJ(2,1)"')
    assert '"12" -- "21";' in text
    assert text.count("--") == 1


def test_csv_export():
    spec = FlagGraphSpec(3, 2)
    text = edges_to_csv(build_edges(spec))
    lines = text.strip().split("\n")
    assert lines[0] == "u,v"
    assert len(lines) == 1 + 9


def test_json_export():
    spec = FlagGraphSpec(3, 2)
    doc = json.loads(edges_to_json(spec, build_edges(spec)))
    assert doc["schema_version"] == 1
    assert doc["n"] == 3 and doc["k"] == 2
    assert doc["vertex_count"] == 6 and doc["edge_count"] == 9
    assert doc["degree"] == 3
    assert doc["vertices"][0] == "123"
    assert all(len(e) == 2 for e in doc["edges"])


def test_exports_take_any_sequence_of_pairs():
    spec = FlagGraphSpec(3, 2)
    edges = build_edges(spec)
    pairs = list(edges)
    assert edges_to_csv(pairs) == edges_to_csv(edges)
    assert edges_to_dot(spec, pairs) == edges_to_dot(spec, edges)
    assert edges_to_json(spec, pairs) == edges_to_json(spec, edges)
    assert edges_to_csv([]) == "u,v\n"
