import time

import pytest

import fjgraphs as fj
from fjgraphs import blocks
from fjgraphs.graphs import _connection_form, _connection_rows, _w0_conjugation
from fjgraphs.metrics import _identity_search

_COLD = (_identity_search, _connection_rows, _connection_form, _w0_conjugation)


@pytest.fixture(autouse=True)
def cold_search_slot():
    """Empty the one-graph BFS slot and the connection-set caches around every test.

    A search or rank form made under one test's patches (a changed
    connection set or product ranking) can then never answer a ``bfs`` or
    an edge list of another test, and each test can count the cache misses
    it causes.
    """
    for cache in _COLD:
        cache.cache_clear()
    yield
    for cache in _COLD:
        cache.cache_clear()


@pytest.fixture(scope="session")
def fj61_spectrum_timed():
    """Full FJ(6,1) spectrum (720x720 dense eigensolve) plus its wall time.

    Shared across the tests that need the n = 6 spectrum, so the solve runs
    once per session.
    """
    A = fj.adjacency_matrix(6, 1)
    started = time.perf_counter()
    spectrum = fj.eig_symmetric(A)
    return spectrum, time.perf_counter() - started


@pytest.fixture
def flip_stacked_counts(monkeypatch):
    """Inject one fault into the stacked counts that every stacked block check reads.

    ``flip(k, *cells)`` patches the cached count builder itself: for each
    real slot it returns one faulted slot, of the base counts and a
    writable copy of the stacked counts in which ``== k`` reads the other
    way at each cell, with fresh, empty facts.  So neither the counts nor
    the facts of a real slot warmed by an earlier call can bypass the
    fault, and the checks after the flip share the facts of the faulted
    slot as they would share those of a real one.  A cell (R, c) is 0-based
    in the whole (n+1)! x (n+1)! matrix; the block-major slot holds it at
    ``[R // b, c // b, R % b, c % b]``, b = n!.
    """

    def flip(k, *cells):
        real, faulted = blocks._stacked_counts, {}

        def flipped(*args):
            if args not in faulted:
                slot = real(*args)
                C, b = slot.C.copy(), slot.C.shape[2]
                for R, c in cells:
                    cell = R // b, c // b, R % b, c % b
                    C[cell] = k + 1 if C[cell] == k else k
                faulted[args] = blocks._Slot(slot.base, C)
            return faulted[args]

        monkeypatch.setattr(blocks, "_stacked_counts", flipped)

    return flip
