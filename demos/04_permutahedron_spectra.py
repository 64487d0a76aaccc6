"""
Permutahedron spectra through the regularity matrix
===================================================

Recording the regularity of every block of A(FJ(n,1)) under the stacked
ordering gives a small tridiagonal matrix M whose whole spectrum embeds in
the graph spectrum: block-indicator lifting commutes with the two matrices.
So part of an n!-sized eigenproblem collapses to an n-sized one.
"""

import fjgraphs as fj

for n in (3, 4, 5):
    closed = fj.regularity_matrix(n)
    empirical = fj.regularity_matrix_from_blocks(n)
    print(f"M({n}) =", closed.tolist(), "| empirical route agrees:", bool((closed == empirical).all()))
print()

# One eigensolver, LAPACK (eigvalsh), for the small M and the big A alike.
m_spec = fj.eig_tridiagonal(fj.regularity_matrix(4))
a_spec = fj.adjacency_spectrum(4, 1)
print("spec(M(4))      =", [round(v, 9) for v in m_spec.values])
print("spec(FJ(4,1))   =", [round(v, 9) for v in a_spec.values])
match = fj.spectrum_subset_check(m_spec, a_spec)
print("containment ok:", match.ok, "| matching into the big spectrum:", match.matching)
print()

# The mechanism, checked exactly in integers:
print("lift of e_2 for n = 3:", fj.lift_vector([0, 1, 0], 3).tolist())
for n in (2, 3, 4, 5):
    print(f"A lift(e_i) == lift(M e_i) for n={n}:", fj.verify_intertwining(n))
print()

# The largest eigenvalue of both sides is the degree n-1; conjecturally the
# second-largest graph eigenvalue also always comes from M.
for n in (3, 4, 5):
    full = fj.adjacency_spectrum(n, 1)
    print(
        f"n={n}: largest {full.values[0]:.6f}, second {full.values[1]:.6f},",
        "second in spec(M):", fj.conjecture_second_largest(n, graph_spectrum=full),
    )
