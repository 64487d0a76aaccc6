"""
Permutations in one-line notation and the prefix-set calculus behind
Full-Flag Johnson graphs.

A permutation of [n] = {1, ..., n} is a tuple ``(u1, ..., un)`` listing the
values in position order (one-line notation; values and positions are both
1-indexed).  Every such tuple encodes a full flag of nested subsets of [n]:
the i-th member of the flag is the prefix set {u1, ..., ui}.  Flags are never
stored as lists of sets; ``prefix_set`` produces any member on demand.

All functions here are pure and operate on immutable tuples, so they are safe
to call concurrently without restriction.
"""

from __future__ import annotations

import itertools
import operator
from functools import lru_cache
from math import factorial
from typing import Sequence

from .config import PERM_STR_DIGITS, _check_graph_cap

Perm = tuple[int, ...]


def is_permutation(seq: Sequence[int]) -> bool:
    """
    True iff ``seq`` contains each of 1..len(seq) exactly once.  An entry
    that is no integer (``operator.index`` rejects it) makes it False;
    numpy integers count as integers.

    >>> [is_permutation(s) for s in [(1,), (2, 1, 3), (1, 1, 2), (0, 1), (), (1.0, 2.0)]]
    [True, True, False, False, False, False]
    """
    n = len(seq)
    if n == 0:
        return False
    mask = 0
    for x in seq:
        try:
            x = operator.index(x)
        except TypeError:
            return False
        if not 1 <= x <= n:
            return False
        mask |= 1 << x
    return mask == (1 << (n + 1)) - 2


def check_permutation(seq: Sequence[int]) -> Perm:
    """Return ``seq`` as a tuple, raising ValueError if it is not a permutation."""
    p = tuple(seq)
    if not is_permutation(p):
        raise ValueError(f"not a permutation of 1..{len(p)}: {p!r}")
    return p


def identity(n: int) -> Perm:
    """
    >>> identity(4)
    (1, 2, 3, 4)
    """
    return tuple(range(1, n + 1))


def reversal(n: int) -> Perm:
    """
    >>> reversal(4)
    (4, 3, 2, 1)
    """
    return tuple(range(n, 0, -1))


def inverse(u: Perm) -> Perm:
    """
    The inverse permutation: position of each value.

    >>> inverse((3, 1, 2))
    (2, 3, 1)
    """
    inv = [0] * len(u)
    for pos, val in enumerate(u, start=1):
        inv[val - 1] = pos
    return tuple(inv)


def prefix_set(u: Perm, i: int) -> frozenset[int]:
    """
    The i-th flag member {u1, ..., ui}; i = 0 gives the empty set.

    >>> sorted(prefix_set((3, 1, 2, 4), 2))
    [1, 3]
    >>> prefix_set((3, 1, 2, 4), 0)
    frozenset()
    """
    if not 0 <= i <= len(u):
        raise ValueError(f"prefix index {i} out of range 0..{len(u)}")
    return frozenset(u[:i])


def prefix_mismatch_count(u: Perm, v: Perm) -> int:
    """
    Number of indices i in [n] with {u1..ui} != {v1..vi}.

    Position n never disagrees, so the count is at most n-1, and it is 0
    exactly when u == v.  Prefix sets are tracked as integer bitmasks, one
    bit per value, so a full comparison costs O(n).

    >>> prefix_mismatch_count((1, 2, 3, 4, 5), (2, 1, 3, 5, 4))
    2
    >>> prefix_mismatch_count((1, 2, 3, 4, 5), (3, 2, 4, 1, 5))
    3
    """
    if len(u) != len(v):
        raise ValueError(f"size mismatch: {len(u)} vs {len(v)}")
    mu = mv = 0
    count = 0
    for a, b in zip(u, v):
        mu |= 1 << a
        mv |= 1 << b
        if mu != mv:
            count += 1
    return count


def disorder(u: Perm) -> int:
    """
    Inversion count: pairs i < j with u_i > u_j.  Ranges from 0 (identity)
    to C(n, 2) (reversal), and a single swap of adjacent positions always
    changes it by exactly 1.  Counted pair by pair: for the n <= 8 of the
    graphs this quadratic count beats an O(n log n) merge count, whose
    recursion costs more than the comparisons it saves.

    >>> disorder((2, 1, 3))
    1
    >>> disorder((4, 3, 2, 1))
    6
    """
    return sum(a > b for i, a in enumerate(u) for b in u[i + 1 :])


def relative_pattern(u: Sequence[int], v: Sequence[int]) -> Perm:
    """
    v rewritten through u: entry t is the position of v_t inside u, so the
    result is a permutation of [len(u)].  For permutations of [n] this is
    u^-1 composed with v; it also applies to windows sharing any set of
    distinct values.  The result is the identity iff u == v.

    >>> relative_pattern((2, 1, 3), (3, 1, 2))
    (3, 2, 1)
    >>> relative_pattern((7, 4, 9), (9, 7, 4))
    (3, 1, 2)
    """
    if len(u) != len(v):
        raise ValueError(f"size mismatch: {len(u)} vs {len(v)}")
    pos = {val: idx for idx, val in enumerate(u, start=1)}
    try:
        return tuple(pos[x] for x in v)
    except KeyError:
        raise ValueError("sequences do not contain the same values") from None


def kendall_distance(u: Perm, v: Perm) -> int:
    """
    Minimum number of adjacent transpositions turning u into v (Kendall tau
    distance).  Computed as the inversion count of the relative pattern,
    not by search; a BFS over single-swap moves is kept in the test suite
    as the independent oracle.

    >>> kendall_distance((1, 2, 3), (1, 3, 2))
    1
    >>> kendall_distance((1, 2, 3, 4), (4, 3, 2, 1))
    6
    """
    return disorder(relative_pattern(u, v))


def insertion(u: Perm, i: int) -> Perm:
    """
    Insert the new largest value n+1 at position i (1-based), mapping a
    permutation of [n] to one of [n+1].  Deleting that value recovers u.

    >>> insertion((1, 2, 3), 1)
    (4, 1, 2, 3)
    >>> insertion((3, 1, 2), 2)
    (3, 4, 1, 2)
    >>> insertion((1, 2, 3), 4)
    (1, 2, 3, 4)
    """
    n = len(u)
    if not 1 <= i <= n + 1:
        raise ValueError(f"insertion position {i} out of range 1..{n + 1}")
    return u[: i - 1] + (n + 1,) + u[i - 1 :]


def is_irreducible(p: Perm) -> bool:
    """
    True iff no proper prefix of p is a rearrangement of {1, ..., i};
    equivalently, the permutation matrix of p admits no split into diagonal
    blocks.  Tested via the running maximum: the prefix p1..pi covers
    {1..i} exactly when max(p1..pi) == i.

    >>> is_irreducible((3, 1, 2))
    True
    >>> is_irreducible((2, 1, 3))
    False
    >>> is_irreducible((1,))
    True
    """
    m = 0
    for i, x in enumerate(p[:-1], start=1):
        if x > m:
            m = x
        if m == i:
            return False
    return True


def block_boundaries(u: Perm, v: Perm) -> tuple[int, ...]:
    """
    Ascending indices i with equal prefix sets {u1..ui} == {v1..vi}; the
    last entry is always n.  Consecutive boundaries delimit windows of u
    and v that are irreducible rearrangements of each other, so the length
    of the result is the number of blocks in the coarsest such decomposition.

    >>> block_boundaries((1, 2, 3, 4, 5, 6, 7), (2, 3, 1, 4, 6, 7, 5))
    (3, 4, 7)
    >>> block_boundaries((1, 2, 3, 4), (4, 3, 2, 1))
    (4,)
    """
    if len(u) != len(v):
        raise ValueError(f"size mismatch: {len(u)} vs {len(v)}")
    mu = mv = 0
    out = []
    for i, (a, b) in enumerate(zip(u, v), start=1):
        mu |= 1 << a
        mv |= 1 << b
        if mu == mv:
            out.append(i)
    return tuple(out)


def compose(u: Perm, g: Perm) -> Perm:
    """
    Right action of g on u: position j of the result holds u at position
    g_j.  Because g acts on positions, the prefix mismatches between u and
    compose(u, g) depend only on g, never on u -- this is what makes the
    graphs below Cayley graphs.

    >>> compose((3, 1, 2), (2, 1, 3))
    (1, 3, 2)
    >>> compose((2, 3, 1), (1, 2, 3))
    (2, 3, 1)
    """
    if len(u) != len(g):
        raise ValueError(f"size mismatch: {len(u)} vs {len(g)}")
    return tuple(u[j - 1] for j in g)


@lru_cache(maxsize=None)
def enumerate_permutations(n: int) -> tuple[Perm, ...]:
    """
    All n! permutations of [n] in lexicographic order: the identity first,
    the reversal last.  Materializes the full list, so n above
    ``config.GRAPH_CAP`` raises CapExceeded.  The tuple is built once per n
    and shared by every caller; it is immutable.

    >>> enumerate_permutations(3)
    ((1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1))
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_graph_cap(n)
    return tuple(itertools.permutations(range(1, n + 1)))


def rank(p: Perm) -> int:
    """
    Lexicographic rank of p among all permutations of its length, via the
    Lehmer code: at position i, count later entries smaller than p_i and
    weight by (n-1-i)!.

    >>> [rank(p) for p in enumerate_permutations(3)]
    [0, 1, 2, 3, 4, 5]
    """
    n = len(p)
    r = 0
    for i in range(n):
        smaller = sum(1 for j in range(i + 1, n) if p[j] < p[i])
        r += smaller * factorial(n - 1 - i)
    return r


def unrank(n: int, r: int) -> Perm:
    """
    Inverse of ``rank``: the permutation of [n] at lexicographic position r.

    >>> unrank(4, 23)
    (4, 3, 2, 1)
    """
    if not 0 <= r < factorial(n):
        raise ValueError(f"rank {r} out of range for n={n}")
    remaining = list(range(1, n + 1))
    out = []
    for i in range(n, 0, -1):
        idx, r = divmod(r, factorial(i - 1))
        out.append(remaining.pop(idx))
    return tuple(out)


def perm_to_string(p: Perm) -> str:
    """
    Serialize: a comma-free digit string up to length 9 ("2314"),
    comma-separated values beyond ("10,2,1,...").

    >>> perm_to_string((2, 3, 1, 4))
    '2314'
    """
    if len(p) <= PERM_STR_DIGITS:
        return "".join(str(x) for x in p)
    return ",".join(str(x) for x in p)


def parse_permutation(s: str) -> Perm:
    """
    Parse either serialized form back to a validated tuple.

    >>> parse_permutation("2314")
    (2, 3, 1, 4)
    >>> parse_permutation("2,3,1,4")
    (2, 3, 1, 4)
    """
    text = s.strip()
    if not text:
        raise ValueError("empty permutation string")
    try:
        if "," in text:
            values = [int(tok) for tok in text.split(",")]
        else:
            values = [int(ch) for ch in text]
    except ValueError:
        raise ValueError(f"cannot parse permutation from {s!r}") from None
    return check_permutation(values)
