"""The connection-sum kernel and the full spectra it gives.

``graphs._connection_sums`` evaluates the sum of the connection set of every
FJ(n, k) in any representation of S_n from the matrices of the adjacent
transpositions alone.  In the trivial and the sign representation it must
give the counts and the sign sums over the connection rows; in Young's
orthogonal form (``spectra._young_forms``) its blocks give
``adjacency_spectrum``, which the dense route, ``eig_symmetric`` of
``adjacency_matrix``, checks for every FJ(n, k) up to n = 6.
"""

import random
from math import comb, factorial

import numpy as np
import pytest

from fjgraphs import CapExceeded, adjacency_matrix, adjacency_spectrum, blocks, degree, eig_symmetric, enumerate_permutations, graphs, spectra
from fjgraphs.graphs import _connection_rows, _connection_sums


def signs(rows):
    # the sign of each 0-based row, (-1) to its number of inversions
    a, b = np.triu_indices(rows.shape[1], 1)
    return 1 - 2 * ((rows[:, a] > rows[:, b]).sum(axis=1) % 2)


@pytest.mark.parametrize("n", range(2, 8))
def test_young_forms_satisfy_the_coxeter_relations(n):
    forms = spectra._young_forms(n)
    assert len(forms) == len(list(spectra._partitions(n)))
    assert sum(s.shape[-1] ** 2 for s in forms) == factorial(n)  # the sum of (f^lambda)^2
    assert (forms[0] == 1).all() and (forms[-1] == -1).all()  # (n) is the trivial representation, (1^n) the sign
    for s in forms:
        eye = np.eye(s.shape[-1])
        for i in range(n - 1):
            assert np.array_equal(s[i], s[i].T)
            assert np.allclose(s[i] @ s[i], eye, atol=1e-12)
            if i + 1 < n - 1:
                assert np.allclose(np.linalg.matrix_power(s[i] @ s[i + 1], 3), eye, atol=1e-12)
            for j in range(i + 2, n - 1):
                assert np.allclose(s[i] @ s[j], s[j] @ s[i], atol=1e-12)


@pytest.mark.parametrize("n", range(1, 8))
def test_the_kernel_counts_and_signs_the_connection_rows(n):
    trivial = _connection_sums(np.ones((n - 1, 1, 1), dtype=np.int64), n)
    sign = _connection_sums(-np.ones((n - 1, 1, 1), dtype=np.int64), n)
    assert trivial.dtype == sign.dtype == np.int64 and trivial.shape == (n, 1, 1)
    for k in range(n):
        rows = _connection_rows(n, k)
        assert trivial[k, 0, 0] == len(rows) == (degree(n, k) if k else 1)  # k = 0 sums the identity alone
        assert sign[k, 0, 0] == signs(rows).sum() == (-1) ** k * comb(n - 1, k)


def shuffled(n, seed):
    rows = list(enumerate_permutations(n))
    random.Random(seed).shuffle(rows)
    return rows


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("ordered", ["lexicographic", "shuffled"])
def test_irrep_spectra_match_the_dense_route(n, ordered):
    ordering = None if ordered == "lexicographic" else shuffled(n, n)
    for k in range(n):
        got = adjacency_spectrum(n, k, ordering)
        want = eig_symmetric(adjacency_matrix(n, k, ordering))
        assert got.order == factorial(n)
        assert got.multiplicities == want.multiplicities
        assert np.abs(np.subtract(got.values, want.values)).max() < 1e-9


def test_four_spectra_of_one_n_run_the_kernel_once(monkeypatch):
    calls, real = [], spectra._connection_sums
    monkeypatch.setattr(spectra, "_connection_sums", lambda *args: calls.append(args[1]) or real(*args))
    for k in range(1, 5):
        adjacency_spectrum(5, k, shuffled(5, k))
    assert calls == [5]
    assert spectra._irrep_sums.cache_info().misses == 1


def test_a_bad_ordering_is_refused_at_every_k():
    bad = [(1, 2, 3)] * 6
    for k in range(3):
        with pytest.raises(ValueError, match=r"^ordering does not cover the 6 permutations of \[3\] exactly once$"):
            adjacency_spectrum(3, k, bad)


@pytest.mark.parametrize(
    "args, error, message",
    [
        ((8, 1, None, 10**6), CapExceeded, "n=8 exceeds the matrix cap 7"),
        ((8, 1, [(1,)], 10**6), CapExceeded, "n=8 exceeds the matrix cap 7"),
        ((8, 8, None, 10**6), ValueError, "need 0 <= k < n, got n=8, k=8"),  # the domain before the matrix cap
        ((7, 9, None, 720), CapExceeded, "order 5040 exceeds the eigensolver cap 720"),
        ((3, 5, [(1, 1, 1)] * 6, 720), ValueError, "need 0 <= k < n, got n=3, k=5"),
        ((1, 0, None, 0), CapExceeded, "order 1 exceeds the eigensolver cap 0"),
    ],
    ids=["matrix-cap", "matrix-cap-before-ordering", "domain", "eigen-cap", "domain-before-ordering", "eigen-cap-at-n-1"],
)
def test_refusals_keep_their_order_and_come_before_any_work(monkeypatch, args, error, message):
    def no_work(*args):
        raise AssertionError("an adjacency matrix or a connection sum was built before a refusal")

    monkeypatch.setattr(blocks, "adjacency_matrix", no_work)
    monkeypatch.setattr(spectra, "_connection_sums", no_work)
    with pytest.raises(error) as raised:
        adjacency_spectrum(*args)
    assert str(raised.value) == message


def test_edgeless_spectra_need_no_kernel(monkeypatch):
    monkeypatch.setattr(spectra, "_connection_sums", None)
    for n in range(1, 7):
        assert adjacency_spectrum(n, 0) == spectra.Spectrum((0.0,), (factorial(n),))
    assert not graphs._connection_rows.cache_info().currsize  # nor the connection set
