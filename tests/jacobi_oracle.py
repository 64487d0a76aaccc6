"""Cyclic Jacobi eigenvalue solver, kept as an independent test oracle.

Pure Python over numpy rows and columns, so it shares no code with the
LAPACK route of ``fjgraphs.spectra``.  Quadratic work per
sweep makes it practical only for small orders (a few hundred at most);
the tests use it at orders up to 120.
"""

import math

import numpy as np


def jacobi_eigenvalues(matrix, tol: float = 1e-12) -> np.ndarray:
    """
    Eigenvalues of a symmetric matrix in ascending order.

    Sweeps rotate away each off-diagonal element in turn until the
    off-diagonal Frobenius norm falls below ``tol``.  Small elements are
    zeroed outright once they can no longer affect the diagonal at working
    precision.
    """
    A = np.array(matrix, dtype=np.float64)
    assert A.ndim == 2 and A.shape[0] == A.shape[1]
    assert np.array_equal(A, A.T)
    m = A.shape[0]
    for sweep in range(100):
        # Frobenius norm of the off-diagonal part, summed directly: the
        # trace-based shortcut cancels catastrophically near convergence
        off = float(np.linalg.norm(A - np.diag(np.diag(A))))
        if off <= tol:
            break
        thresh = 0.2 * off / (m * m) if sweep < 3 else 0.0
        for p in range(m - 1):
            for q in range(p + 1, m):
                apq = float(A[p, q])
                if apq == 0.0:
                    continue
                g = 100.0 * abs(apq)
                app = float(A[p, p])
                aqq = float(A[q, q])
                if sweep > 3 and abs(app) + g == abs(app) and abs(aqq) + g == abs(aqq):
                    A[p, q] = A[q, p] = 0.0
                    continue
                if abs(apq) <= thresh:
                    continue
                h = aqq - app
                if abs(h) + g == abs(h):
                    t = apq / h
                else:
                    theta = 0.5 * h / apq
                    t = 1.0 / (abs(theta) + math.sqrt(1.0 + theta * theta))
                    if theta < 0.0:
                        t = -t
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                rp = A[p, :].copy()
                rq = A[q, :].copy()
                A[p, :] = c * rp - s * rq
                A[q, :] = s * rp + c * rq
                cp = A[:, p].copy()
                cq = A[:, q].copy()
                A[:, p] = c * cp - s * cq
                A[:, q] = s * cp + c * cq
                A[p, q] = A[q, p] = 0.0
    else:
        raise ArithmeticError("Jacobi iteration did not converge in 100 sweeps")
    return np.sort(np.diag(A))
