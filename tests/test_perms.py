"""Permutation arithmetic: examples pinned against independent oracles."""

import random
from collections import deque
from math import comb, factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fjgraphs import (
    CapExceeded,
    block_boundaries,
    check_permutation,
    compose,
    disorder,
    enumerate_permutations,
    identity,
    insertion,
    inverse,
    is_irreducible,
    is_permutation,
    kendall_distance,
    parse_permutation,
    perm_to_string,
    prefix_mismatch_count,
    prefix_set,
    rank,
    relative_pattern,
    reversal,
    unrank,
)


# ---------------------------------------------------------------- oracles

def mismatch_by_sets(u, v):
    # direct set comparison, independent of the bitmask implementation
    return sum(1 for i in range(1, len(u) + 1) if set(u[:i]) != set(v[:i]))


def adjacent_swaps(p):
    for i in range(len(p) - 1):
        q = list(p)
        q[i], q[i + 1] = q[i + 1], q[i]
        yield tuple(q)


def kendall_by_bfs(u, v):
    # breadth-first search over single adjacent-swap moves
    if u == v:
        return 0
    seen = {u}
    queue = deque([(u, 0)])
    while queue:
        p, d = queue.popleft()
        for q in adjacent_swaps(p):
            if q == v:
                return d + 1
            if q not in seen:
                seen.add(q)
                queue.append((q, d + 1))
    raise AssertionError("unreachable: adjacent swaps generate the whole group")


def irreducible_by_sets(p):
    return all(set(p[:i]) != set(range(1, i + 1)) for i in range(1, len(p)))


# ---------------------------------------------------------------- basics

def test_is_permutation():
    assert is_permutation((1,))
    assert is_permutation((2, 1, 3))
    assert not is_permutation((1, 1, 2))
    assert not is_permutation((0, 1))
    assert not is_permutation(())
    assert is_permutation((np.int64(2), np.uint8(1)))  # numpy integers are integers
    for bad in [(1.0, 2.0), (1.5, 2), ("1", "2"), (None,)]:
        assert not is_permutation(bad)


def test_check_permutation_rejects():
    with pytest.raises(ValueError):
        check_permutation((1, 2, 2))
    assert check_permutation([2, 1]) == (2, 1)


def test_identity_reversal_inverse():
    assert identity(5) == (1, 2, 3, 4, 5)
    assert reversal(5) == (5, 4, 3, 2, 1)
    for p in enumerate_permutations(4):
        assert compose(p, inverse(p)) == identity(4)


# ---------------------------------------------------------------- prefixes

def test_prefix_set_examples():
    assert prefix_set((3, 1, 2, 4), 2) == frozenset({3, 1})
    assert prefix_set((2, 1, 3, 5, 4), 4) == frozenset({2, 1, 3, 5})
    assert prefix_set((4, 2, 1, 3), 0) == frozenset()
    assert len(prefix_set((3, 1, 2, 4), 3)) == 3


def test_prefix_set_out_of_range():
    with pytest.raises(ValueError):
        prefix_set((1, 2, 3), 4)
    with pytest.raises(ValueError):
        prefix_set((1, 2, 3), -1)


def test_prefix_mismatch_worked_examples():
    assert prefix_mismatch_count((1, 2, 3, 4, 5), (2, 1, 3, 5, 4)) == 2
    assert prefix_mismatch_count((1, 2, 3, 4, 5), (3, 2, 4, 1, 5)) == 3
    assert prefix_mismatch_count((3, 1, 4, 2), (3, 1, 4, 2)) == 0


def test_prefix_mismatch_matches_set_oracle_exhaustive():
    for n in (2, 3, 4):
        for u in enumerate_permutations(n):
            for v in enumerate_permutations(n):
                assert prefix_mismatch_count(u, v) == mismatch_by_sets(u, v)


def test_prefix_mismatch_matches_set_oracle_random():
    rng = random.Random(7)
    for n in (6, 8, 10):
        perms = [tuple(rng.sample(range(1, n + 1), n)) for _ in range(40)]
        for u, v in zip(perms, reversed(perms)):
            assert prefix_mismatch_count(u, v) == mismatch_by_sets(u, v)


def test_prefix_mismatch_size_mismatch():
    with pytest.raises(ValueError):
        prefix_mismatch_count((1, 2), (1, 2, 3))


def test_prefix_mismatch_bounds_and_zero_iff_equal():
    n = 4
    for u in enumerate_permutations(n):
        for v in enumerate_permutations(n):
            m = prefix_mismatch_count(u, v)
            assert 0 <= m <= n - 1
            assert (m == 0) == (u == v)


def test_prefix_difference_rule():
    # equal prefixes at x and y force equal value sets on the window between
    n = 4
    for u in enumerate_permutations(n):
        for v in enumerate_permutations(n):
            for x in range(n):
                for y in range(x + 1, n + 1):
                    if prefix_set(u, x) == prefix_set(v, x) and prefix_set(u, y) == prefix_set(v, y):
                        assert set(u[x:y]) == set(v[x:y])


# ---------------------------------------------------------------- disorder

def test_disorder_examples():
    assert disorder(identity(6)) == 0
    assert disorder(reversal(6)) == comb(6, 2)
    assert disorder((2, 1, 3)) == 1


def test_disorder_matches_bfs_oracle():
    # the inversion count is the number of adjacent swaps from the identity
    for n in (2, 3, 4, 5):
        for p in enumerate_permutations(n):
            assert disorder(p) == kendall_by_bfs(identity(n), p)


def test_adjacent_swap_changes_disorder_by_one():
    for n in (2, 3, 4, 5):
        for p in enumerate_permutations(n):
            d = disorder(p)
            for q in adjacent_swaps(p):
                assert abs(disorder(q) - d) == 1


# ---------------------------------------------------------------- kendall

def test_kendall_examples():
    assert kendall_distance((1, 2, 3), (1, 3, 2)) == 1
    for n in (2, 3, 4, 5):
        assert kendall_distance(identity(n), reversal(n)) == comb(n, 2)
    # frozen from the BFS oracle below
    assert kendall_distance((2, 1, 3), (3, 1, 2)) == 3


def test_kendall_matches_bfs_oracle():
    for n in (2, 3, 4):
        for u in enumerate_permutations(n):
            for v in enumerate_permutations(n):
                assert kendall_distance(u, v) == kendall_by_bfs(u, v)


def test_kendall_symmetric_and_zero_iff_equal():
    for u in enumerate_permutations(4):
        for v in enumerate_permutations(4):
            assert kendall_distance(u, v) == kendall_distance(v, u)
            assert (kendall_distance(u, v) == 0) == (u == v)


def test_relative_pattern():
    assert relative_pattern((2, 1, 3), (3, 1, 2)) == (3, 2, 1)
    for p in enumerate_permutations(4):
        assert relative_pattern(p, p) == identity(4)
        assert relative_pattern(identity(4), p) == p


# ---------------------------------------------------------------- insertion

def test_insertion_examples():
    assert insertion((1, 2, 3), 1) == (4, 1, 2, 3)
    assert insertion((1, 2, 3), 4) == (1, 2, 3, 4)
    assert insertion((3, 1, 2), 2) == (3, 4, 1, 2)


def test_insertion_roundtrip_and_errors():
    for p in enumerate_permutations(4):
        for i in range(1, 6):
            q = insertion(p, i)
            assert len(q) == 5 and q[i - 1] == 5
            assert tuple(x for x in q if x != 5) == p
    with pytest.raises(ValueError):
        insertion((1, 2, 3), 0)
    with pytest.raises(ValueError):
        insertion((1, 2, 3), 5)


def test_end_insertions_preserve_mismatch_counts():
    for n in (3, 4):
        for u in enumerate_permutations(n):
            for v in enumerate_permutations(n):
                m = prefix_mismatch_count(u, v)
                assert prefix_mismatch_count(insertion(u, 1), insertion(v, 1)) == m
                assert prefix_mismatch_count(insertion(u, n + 1), insertion(v, n + 1)) == m


# ---------------------------------------------------------------- irreducibility

def test_is_irreducible_examples():
    assert is_irreducible((3, 1, 2))
    assert not is_irreducible((2, 1, 3))
    assert is_irreducible((1,))
    assert not is_irreducible(identity(4))


def test_is_irreducible_matches_set_oracle():
    for n in range(1, 7):
        for p in enumerate_permutations(n):
            assert is_irreducible(p) == irreducible_by_sets(p)


def test_is_irreducible_inverse_symmetry():
    for n in range(1, 7):
        for p in enumerate_permutations(n):
            assert is_irreducible(p) == is_irreducible(inverse(p))


# ---------------------------------------------------------------- blocks

def test_block_boundaries_examples():
    assert block_boundaries((1, 2, 3, 4, 5, 6, 7), (2, 3, 1, 4, 6, 7, 5)) == (3, 4, 7)
    assert block_boundaries(identity(5), identity(5)) == (1, 2, 3, 4, 5)
    assert block_boundaries((1, 2, 3, 4), (4, 3, 2, 1)) == (4,)
    with pytest.raises(ValueError):
        block_boundaries((1, 2), (1, 2, 3))


def test_block_boundaries_count_and_window_irreducibility():
    for n in (2, 3, 4, 5):
        for u in enumerate_permutations(n):
            for v in enumerate_permutations(n):
                bounds = block_boundaries(u, v)
                assert bounds[-1] == n
                assert len(bounds) == n - prefix_mismatch_count(u, v)
                prev = 0
                for b in bounds:
                    window = relative_pattern(u[prev:b], v[prev:b])
                    assert is_irreducible(window)
                    prev = b


# ---------------------------------------------------------------- compose

def test_compose_examples():
    assert compose((2, 3, 1), (1, 2, 3)) == (2, 3, 1)
    assert compose((1, 2, 3), (2, 1, 3)) == (2, 1, 3)
    assert compose((3, 1, 2), (2, 1, 3)) == (1, 3, 2)
    with pytest.raises(ValueError):
        compose((1, 2), (1, 2, 3))


def test_compose_associative():
    rng = random.Random(11)
    perms = enumerate_permutations(5)
    for _ in range(60):
        a, b, c = (rng.choice(perms) for _ in range(3))
        assert compose(compose(a, b), c) == compose(a, compose(b, c))


def test_mismatch_of_right_product_depends_only_on_generator():
    n = 4
    for g in enumerate_permutations(n):
        baseline = prefix_mismatch_count(identity(n), g)
        for u in enumerate_permutations(n):
            assert prefix_mismatch_count(u, compose(u, g)) == baseline


# ---------------------------------------------------------------- ordering

def test_enumerate_permutations():
    assert enumerate_permutations(3) == (
        (1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1),
    )
    assert enumerate_permutations(1) == ((1,),)
    S4 = enumerate_permutations(4)
    assert len(S4) == 24
    assert S4[0] == identity(4) and S4[-1] == reversal(4)
    assert all(S4[i] < S4[i + 1] for i in range(23))


def test_enumerate_cap():
    with pytest.raises(CapExceeded):
        enumerate_permutations(9)
    with pytest.raises(ValueError):
        enumerate_permutations(0)


def test_rank_unrank():
    for n in (1, 2, 3, 4, 5):
        for i, p in enumerate(enumerate_permutations(n)):
            assert rank(p) == i
            assert unrank(n, i) == p
    with pytest.raises(ValueError):
        unrank(3, 6)


# ---------------------------------------------------------------- strings

def test_serialization_roundtrip():
    assert perm_to_string((2, 3, 1, 4)) == "2314"
    assert parse_permutation("2314") == (2, 3, 1, 4)
    assert parse_permutation("2,3,1,4") == (2, 3, 1, 4)
    long = tuple(range(10, 0, -1))
    assert perm_to_string(long) == "10,9,8,7,6,5,4,3,2,1"
    assert parse_permutation(perm_to_string(long)) == long


def test_parse_rejects_garbage():
    for bad in ("", "12x", "1,2,2", "132x", "0,1"):
        with pytest.raises(ValueError):
            parse_permutation(bad)


# ---------------------------------------------------------------- properties

def perms_of(n):
    return st.permutations(range(1, n + 1)).map(tuple)


def same_size(count, max_n):
    # `count` permutations of one random size 1..max_n
    return st.integers(1, max_n).flatmap(lambda n: st.tuples(*(perms_of(n) for _ in range(count))))


@settings(deadline=None)
@given(st.integers(1, 10).flatmap(perms_of))
def test_property_rank_unrank_roundtrip(p):
    r = rank(p)
    assert 0 <= r < factorial(len(p))
    assert unrank(len(p), r) == p


@settings(deadline=None)
@given(st.integers(1, 10).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, factorial(n) - 1))))
def test_property_unrank_rank_roundtrip(n_r):
    n, r = n_r
    assert rank(unrank(n, r)) == r


@settings(deadline=None)
@given(same_size(3, 10))
def test_property_compose_associative(abc):
    a, b, c = abc
    assert compose(compose(a, b), c) == compose(a, compose(b, c))


@settings(deadline=None)
@given(same_size(2, 6))
def test_property_kendall_matches_bfs_oracle(uv):
    u, v = uv
    assert kendall_distance(u, v) == kendall_by_bfs(u, v)


@settings(deadline=None)
@given(same_size(2, 10))
def test_property_block_boundaries_match_irreducibility(uv):
    u, v = uv
    bounds = block_boundaries(u, v)
    assert bounds[-1] == len(u)
    # one block exactly when the whole relative pattern is irreducible
    assert (len(bounds) == 1) == is_irreducible(relative_pattern(u, v))
    prev = 0
    for b in bounds:
        assert is_irreducible(relative_pattern(u[prev:b], v[prev:b]))
        prev = b
