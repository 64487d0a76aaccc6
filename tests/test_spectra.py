"""Regularity matrices, the eigensolvers, lifting and containment.

The dense eigensolver (LAPACK, reached through ``eig_symmetric`` and, for
tridiagonal matrices, ``eig_tridiagonal``) is checked against the cyclic
Jacobi oracle in ``jacobi_oracle`` and against the closed forms, and so are
the full spectra of ``adjacency_spectrum``, which solves the blocks of
Young's orthogonal form (``test_irreps`` holds them to the dense route).
"""

import json
import math
import tracemalloc

import numpy as np
import pytest
from jacobi_oracle import jacobi_eigenvalues

import fjgraphs.blocks as blocks_module
import fjgraphs.spectra as spectra_module
from fjgraphs import (
    CapExceeded,
    Spectrum,
    TheoremViolation,
    adjacency_matrix,
    adjacency_spectrum,
    concatenated_ordering,
    conjecture_second_largest,
    eig_symmetric,
    eig_tridiagonal,
    enumerate_permutations,
    lift_vector,
    regularity_matrix,
    regularity_matrix_from_blocks,
    spectrum_subset_check,
    verify_intertwining,
)
from fjgraphs.cli import main


def spread(values, multiplicities):
    out = []
    for v, m in zip(values, multiplicities):
        out.extend([v] * m)
    return np.array(sorted(out))


# ---------------------------------------------------------------- Spectrum

def test_spectrum_merging():
    s = Spectrum.from_eigenvalues([1.0, 0.5, 1.0 + 5e-8])  # within MERGE_TOL = 1e-7
    assert s.values == (1.0 + 5e-8, 0.5)
    assert s.multiplicities == (2, 1)
    assert s.order == 3


def test_spectrum_descending():
    s = Spectrum.from_eigenvalues([-1.0, 3.0, 0.0])
    assert s.values == (3.0, 0.0, -1.0)


# ---------------------------------------------------------------- M matrix

def test_regularity_matrix_closed_forms():
    assert regularity_matrix(4).tolist() == [[2, 1, 0, 0], [1, 1, 1, 0], [0, 1, 1, 1], [0, 0, 1, 2]]
    assert regularity_matrix(2).tolist() == [[0, 1], [1, 0]]
    M5 = regularity_matrix(5)
    assert M5[0, 0] == M5[4, 4] == 3
    assert M5[1, 1] == M5[2, 2] == M5[3, 3] == 2
    assert M5[0, 1] == M5[3, 4] == 1
    with pytest.raises(ValueError):
        regularity_matrix(1)


def test_regularity_matrix_constant_row_sums():
    for n in range(2, 10):
        M = regularity_matrix(n)
        assert set(M.sum(axis=1).tolist()) == {n - 1}


def test_regularity_matrix_from_blocks_matches():
    for n in range(2, 6):
        assert (regularity_matrix_from_blocks(n) == regularity_matrix(n)).all()


# ---------------------------------------------------------------- dense eig

def test_eig_symmetric_trivial_cases():
    s = eig_symmetric(np.eye(3))
    assert s.values == (1.0,) and s.multiplicities == (3,)
    s = eig_symmetric([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(s.values, [1.0, -1.0])


def test_eig_symmetric_rejects():
    with pytest.raises(ValueError):
        eig_symmetric([[0.0, 1.0], [0.5, 0.0]])
    with pytest.raises(ValueError):
        eig_symmetric(np.zeros((2, 3)))
    with pytest.raises(CapExceeded):
        eig_symmetric(np.eye(5), cap=4)
    # its float64 copy would drop the imaginary parts: this Hermitian matrix has
    # eigenvalues -1 and 1, and read as real it is the zero matrix
    with pytest.raises(ValueError, match="a real matrix is required, got complex128"):
        eig_symmetric([[0, 1j], [-1j, 0]])


def test_eig_symmetric_of_the_empty_matrix():
    assert eig_symmetric(np.zeros((0, 0), dtype=np.int64)) == Spectrum((), ())
    assert eig_symmetric(np.zeros((0, 0)), cap=1).order == 0


@pytest.mark.parametrize("entry", [regularity_matrix, regularity_matrix_from_blocks, verify_intertwining])
@pytest.mark.parametrize("n", [-1, 0, 1])
def test_regularity_routes_refuse_fewer_than_two_blocks_alike(entry, n):
    with pytest.raises(ValueError) as raised:
        entry(n)
    assert str(raised.value) == "need n >= 2"


@pytest.mark.parametrize("solve, most", [(eig_symmetric, 1 << 20), (eig_tridiagonal, 10 << 20)])
def test_eigensolvers_check_the_cap_before_the_float64_copy(solve, most):
    # a read-only zero-stride view: a float64 copy of it would take 32 MB;
    # the band check of eig_tridiagonal takes two 4 MB planes, its mask and its copy
    wide = np.broadcast_to(np.uint8(0), (2000, 2000))
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded, match="eigensolver cap 720"):
            solve(wide)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < most


def test_spectra_over_the_eigen_cap_build_no_matrix(monkeypatch):
    def no_work(*args):
        raise AssertionError("an adjacency matrix or a connection sum was built before the eigensolver cap")

    monkeypatch.setattr(blocks_module, "adjacency_matrix", no_work)
    monkeypatch.setattr(spectra_module, "_connection_sums", no_work)
    with pytest.raises(CapExceeded, match="order 5040 exceeds the eigensolver cap 720"):
        adjacency_spectrum(7, 1)
    with pytest.raises(CapExceeded, match="order 120 exceeds the eigensolver cap 100"):
        adjacency_spectrum(5, 2, eigen_cap=100)
    with pytest.raises(CapExceeded, match="eigensolver cap"):
        conjecture_second_largest(7)


def test_eig_symmetric_rejects_non_finite_entries():
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="non-finite"):
            eig_symmetric([[0.0, bad], [bad, 0.0]])


def test_eig_symmetric_against_jacobi_random():
    rng = np.random.default_rng(42)
    for order in (5, 17, 40):
        B = rng.normal(size=(order, order))
        A = (B + B.T) / 2
        s = eig_symmetric(A)
        mine = spread(s.values, s.multiplicities)
        ref = jacobi_eigenvalues(A)
        assert mine.shape == ref.shape
        assert np.abs(mine - ref).max() < 1e-9


def test_adjacency_spectra_of_fj5k_against_jacobi():
    for k in range(1, 5):
        s = adjacency_spectrum(5, k)
        mine = spread(s.values, s.multiplicities)
        ref = jacobi_eigenvalues(adjacency_matrix(5, k))
        assert mine.shape == ref.shape == (120,)
        assert np.abs(mine - ref).max() < 1e-9


def test_eig_symmetric_trace_and_frobenius_identities():
    A = adjacency_matrix(4, 2).astype(float)
    s = eig_symmetric(A)
    eigs = spread(s.values, s.multiplicities)
    assert abs(eigs.sum() - np.trace(A)) < 1e-9
    assert abs((eigs**2).sum() - (A * A).sum()) < 1e-8


def test_hexagon_spectrum():
    s = adjacency_spectrum(3, 1)
    assert np.allclose(s.values, [2.0, 1.0, -1.0, -2.0], atol=1e-10)
    assert s.multiplicities == (1, 2, 2, 1)


def test_fj41_spectrum_closed_forms():
    s = adjacency_spectrum(4, 1)
    r2, r3 = math.sqrt(2.0), math.sqrt(3.0)
    expected = [3.0, 1 + r2, r3, 1.0, r2 - 1, 1 - r2, -1.0, -r3, -1 - r2, -3.0]
    assert len(s.values) == 10
    assert np.abs(np.array(s.values) - np.array(expected)).max() <= 1e-8


# ---------------------------------------------------------------- tridiagonal

def test_eig_tridiagonal_closed_forms():
    s = eig_tridiagonal(regularity_matrix(4))
    expected = [3.0, 1.0 + math.sqrt(2.0), 1.0, 1.0 - math.sqrt(2.0)]
    assert np.abs(np.array(s.values) - np.array(expected)).max() < 1e-10
    s2 = eig_tridiagonal(regularity_matrix(2))
    assert np.allclose(s2.values, [1.0, -1.0], atol=1e-10)
    s5 = eig_tridiagonal(regularity_matrix(5))
    assert len(s5.values) == 5
    assert abs(s5.values[0] - 4.0) < 1e-10


def test_eig_tridiagonal_agrees_with_jacobi_and_lapack():
    # eig_tridiagonal is the LAPACK route; the Jacobi oracle is independent of it
    for n in range(2, 13):
        M = regularity_matrix(n)
        s = eig_tridiagonal(M)
        ref = jacobi_eigenvalues(M)
        assert np.abs(spread(s.values, s.multiplicities) - ref).max() < 1e-9


def test_eig_tridiagonal_random():
    rng = np.random.default_rng(3)
    for n in (2, 6, 12):
        d = rng.normal(size=n)
        e = rng.normal(size=n - 1)
        T = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        s = eig_tridiagonal(T)
        mine = spread(s.values, s.multiplicities)
        ref = jacobi_eigenvalues(T)
        assert np.abs(mine - ref).max() < 1e-9


def m_closed_form(n):
    # spec(M(n)) = {n - 3 + 2 cos(pi j / n) : j = 0..n-1}, descending
    return sorted((n - 3 + 2 * math.cos(math.pi * j / n) for j in range(n)), reverse=True)


def test_m_spectrum_closed_form(capsys):
    for n in range(2, 61):
        s = eig_tridiagonal(regularity_matrix(n))
        assert s.multiplicities == (1,) * n
        assert np.abs(np.array(s.values) - m_closed_form(n)).max() < 1e-13
    # the report rounds each value to 12 decimals: the last digit must be the closed form's
    for n in range(2, 13):
        assert main(["spectrum", "--n", str(n)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["m_eigenvalues"] == [float(f"{x:.12f}") for x in m_closed_form(n)]


def test_eig_tridiagonal_rejects_off_band():
    T = np.eye(4)
    T[0, 3] = T[3, 0] = 1.0
    with pytest.raises(ValueError):
        eig_tridiagonal(T)


# ---------------------------------------------------------------- lifting

def test_lift_vector_examples():
    assert lift_vector([1, 0, 0], 3).tolist() == [1, 1, 0, 0, 0, 0]
    assert not lift_vector([0, 0, 0], 3).any()
    lifted = lift_vector([0, 1, 0, 0], 4)
    assert lifted.tolist() == [0] * 6 + [1] * 6 + [0] * 12
    with pytest.raises(ValueError):
        lift_vector([1, 0], 3)
    with pytest.raises(ValueError, match="n >= 1"):
        lift_vector([], 0)


def test_lift_vector_refuses_n_over_the_graph_cap():
    # 9! = 362,880 values here, and 12! float64 values (3.8 GB) at n = 12
    with pytest.raises(CapExceeded, match="graph cap"):
        lift_vector([0] * 9, 9)


def test_lift_vector_linear():
    rng = np.random.default_rng(5)
    a, b = rng.normal(size=4), rng.normal(size=4)
    assert np.allclose(lift_vector(2.0 * a + b, 4), 2.0 * lift_vector(a, 4) + lift_vector(b, 4))


def test_intertwining_small():
    for n in (2, 3, 4, 5):
        assert verify_intertwining(n)


def test_intertwining_fails_on_one_flipped_entry(flip_stacked_counts):
    # a check that always passes would survive every positive test above
    flip_stacked_counts(1, (0, 1))
    for n in (3, 4, 5):
        assert verify_intertwining(n) is False


def test_partial_block_indicator_fails_intertwining():
    # Filling only the first n-1 coordinates of each block (instead of the
    # whole (n-1)!-sized block) breaks the commuting identity once
    # (n-1)! > n-1, i.e. for n >= 4.  Kept as a documented negative test.
    n = 4
    S = concatenated_ordering(enumerate_permutations(n - 1))
    A = adjacency_matrix(n, 1, S).astype(np.int64)
    M = regularity_matrix(n)
    block_size = math.factorial(n - 1)

    def narrow_lift(vec):
        out = np.zeros(math.factorial(n), dtype=np.int64)
        for i, value in enumerate(vec):
            out[i * block_size : i * block_size + (n - 1)] = value
        return out

    mismatches = 0
    for i in range(n):
        e = np.zeros(n, dtype=np.int64)
        e[i] = 1
        if not np.array_equal(A @ narrow_lift(e), narrow_lift(M @ e)):
            mismatches += 1
    assert mismatches > 0


# ---------------------------------------------------------------- containment

def test_subset_check_positive():
    small = eig_tridiagonal(regularity_matrix(4))
    big = adjacency_spectrum(4, 1)
    result = spectrum_subset_check(small, big)
    assert result.ok and result.unmatched is None
    assert len(result.matching) == 4
    for i, j in enumerate(result.matching):
        assert abs(small.values[i] - big.values[j]) <= 1e-8


def test_subset_check_edge_cases():
    empty = Spectrum((), ())
    big = Spectrum((3.0, 1.0), (1, 1))
    assert spectrum_subset_check(empty, big).ok
    result = spectrum_subset_check(Spectrum((2.5,), (1,)), big)
    assert not result.ok
    assert result.unmatched == 2.5


def test_conjecture_small():
    assert conjecture_second_largest(3)
    assert conjecture_second_largest(4)


def test_second_largest_closed_form(fj61_spectrum_timed):
    # the spectral gap of the adjacent-transposition Cayley graph is
    # 2 - 2 cos(pi / n), so lambda_2(FJ(n,1)) = n - 3 + 2 cos(pi / n)
    for n in range(3, 7):
        s = fj61_spectrum_timed[0] if n == 6 else adjacency_spectrum(n, 1)
        assert abs(s.values[1] - (n - 3 + 2 * math.cos(math.pi / n))) < 1e-9


def test_fj61_spectrum_identities(fj61_spectrum_timed):
    s, elapsed = fj61_spectrum_timed
    assert elapsed < 600.0
    eigs = spread(s.values, s.multiplicities)
    assert s.order == 720
    assert abs(eigs.sum()) < 1e-8  # trace of A: no loops
    assert abs((eigs**2).sum() - 720 * 5) < 1e-7  # trace of A^2: twice the edge count
    assert abs(s.values[0] - 5.0) < 1e-9 and s.multiplicities[0] == 1
    for j in range(6):
        value = 3 + 2 * math.cos(math.pi * j / 6)
        assert min(abs(value - v) for v in s.values) < 1e-9


def test_spectrum_invariant_under_reordering():
    lex = adjacency_spectrum(4, 1)
    stacked = adjacency_spectrum(4, 1, concatenated_ordering(enumerate_permutations(3)))
    assert len(lex.values) == len(stacked.values)
    assert np.abs(np.array(lex.values) - np.array(stacked.values)).max() < 1e-8
    assert lex.multiplicities == stacked.multiplicities


def test_regularity_matrix_from_blocks_is_ordering_independent():
    # the block identities hold for every base ordering, not just the
    # lexicographic one, so a scrambled base ordering changes nothing
    perms = list(enumerate_permutations(3))
    scrambled = tuple([perms[1], perms[0]] + list(reversed(perms[2:])))
    assert (regularity_matrix_from_blocks(4, ordering=scrambled) == regularity_matrix(4)).all()


def test_regularity_matrix_from_blocks_reports_nonregular_loudly(flip_stacked_counts):
    # the raise path is unreachable through real inputs (the identities hold
    # for every stacked ordering), so force it to confirm the wiring: one
    # identity-flank edge of block (2,3) of FJ(4,1) removed, and its mirror in
    # block (3,2), leaves both irregular, and the first in row-major order is named
    b = 6
    flip_stacked_counts(1, (b, 2 * b), (2 * b, b))
    with pytest.raises(TheoremViolation, match=r"block \(2,3\) of the FJ\(4,1\)"):
        regularity_matrix_from_blocks(4)


@pytest.mark.parametrize("intertwining_first", [True, False])
def test_equal_row_sums_with_unequal_column_sums_are_not_regular(flip_stacked_counts, intertwining_first):
    # the edge 4123 -- 4132 of corner block (1,1) of FJ(4,1) moved to 4123 --
    # 4231 keeps every row sum of the block, so the intertwining, which reads
    # row sums alone, still holds; two column sums change, so the block is
    # not regular, whichever of the two checks reads the block first
    flip_stacked_counts(1, (0, 1), (0, 3))
    for _ in range(2):
        if intertwining_first:
            assert verify_intertwining(4) is True
        with pytest.raises(TheoremViolation, match=r"block \(1,1\) of the FJ\(4,1\)"):
            regularity_matrix_from_blocks(4)
        intertwining_first = True


def test_a_lone_edge_far_off_the_diagonal_is_found(flip_stacked_counts):
    # a block two off the diagonal is skipped only while every count in it
    # exceeds 1, so one count lowered to 1 in block (1,3) of FJ(4,1) is read
    b = 6
    flip_stacked_counts(1, (0, 2 * b))
    with pytest.raises(TheoremViolation, match=r"block \(1,3\) of the FJ\(4,1\)"):
        regularity_matrix_from_blocks(4)
    assert verify_intertwining(4) is False
