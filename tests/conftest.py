import time

import pytest

import fjgraphs as fj
from fjgraphs import blocks, graphs, spectra
from fjgraphs.graphs import _connection_form, _connection_rows, _last_ordering
from fjgraphs.metrics import _identity_search, _orbit_maps, _search_maps

_COLD = (
    _identity_search,
    _orbit_maps,
    _search_maps,
    _connection_rows,
    _connection_form,
    graphs._degrees,
    blocks._adjacent_form,
    blocks._stacked_counts,
    _last_ordering,
    spectra._irrep_sums,
)


@pytest.fixture(autouse=True)
def cold_search_slot():
    """Empty the one-graph BFS slot and its orbit maps, the connection-set caches and degrees, the stacked-count slot, the ordering memo and the irrep sums around every test.

    A search, orbit map or rank form made under one test's patches (a
    changed connection set or product ranking) can then never answer a
    ``bfs`` or an edge list of another test, no test reads the counts or the arrays
    of a slot that another test built, no spectrum or degree reads connection
    sums that another test computed, and each test can count the cache misses
    it causes.  ``enumerate_permutations`` is cached, so two tests
    that shuffle it with the same seed hold the same row objects, and the
    memo must not let the second skip a validation that the first made.
    """
    for cache in _COLD:
        cache.cache_clear()
    yield
    for cache in _COLD:
        cache.cache_clear()


@pytest.fixture
def validations(monkeypatch):
    """The arguments of every ``graphs.check_ordering`` call, as the list the test reads."""
    real, calls = graphs.check_ordering, []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(graphs, "check_ordering", counted)
    return calls


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
    way at each cell, a new slot whose minima, planes and sums are not yet
    computed.  So neither the counts nor the arrays of a real slot warmed
    by an earlier call can bypass the fault, and the checks after the flip
    share the arrays of the faulted slot as they would share those of a
    real one.  A cell (R, c) is 0-based in the whole (n+1)! x (n+1)!
    matrix; the block-major slot holds it at ``[R // b, c // b, R % b,
    c % b]``, b = n!.
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
