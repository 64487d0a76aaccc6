import time

import pytest

import fjgraphs as fj


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
