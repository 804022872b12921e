"""Constructing the optimal witness, in closed form and by SVD.

The witness W = I + sum A_ij Q_i (x) Q_j stays nonnegative on every product
state as long as the coefficient matrix A has singular values at most one.
The best such A for a target mixture is the negated polar sign factor of the
correlation matrix; for odd mixtures the same optimum has a closed form in
the eight signed weight combinations b_1..b_8.
"""

import numpy as np

from doew import (MixtureWeights, b_coefficients, build_mixture,
                  coefficient_table, correlation_matrix, detect, kkt_witness,
                  phi_state, separability_floor_check)

np.set_printoptions(precision=3, suppress=True, linewidth=140)

weights = MixtureWeights.odd({1: 0.4, 3: 0.2, 5: 0.2, 7: 0.2})
rho = build_mixture(weights)

print("Correlation matrix of the mixture (nonzero blocks only):")
rt = correlation_matrix(rho)
print(f"  nonzero entries: {int((np.abs(rt) > 1e-12).sum())} of 256")
print(f"  trace norm (sum of singular values): {np.linalg.svd(rt, compute_uv=False).sum():.6f}")

coeffs, w = kkt_witness(rho)
print(f"\nSVD construction: min Tr(W rho) = 1 - trace norm = {coeffs.min_value:+.6f}")
print(f"  largest singular value of A: "
      f"{np.linalg.svd(coeffs.A, compute_uv=False).max():.12f}")

print("\nClosed-form coefficient table from b_1..b_8:")
print(f"  b = {np.round(b_coefficients(weights), 4)}")
table = coefficient_table(weights)
print(f"  table vs SVD coefficients, max difference: "
      f"{np.max(np.abs(table - coeffs.A)):.2e}")
print(f"  diagonal of A: {np.diag(table)}")

v1 = phi_state(1)
reference = np.eye(16) - 4 * np.outer(v1, v1.conj())
print(f"\nFor this mixture the witness collapses to I - 4 |phi_1><phi_1|: "
      f"max entry gap {np.max(np.abs(w - reference)):.2e}")

print("\nSeparable-state floor (sampled over Haar-random product states):")
floor = separability_floor_check(coeffs.A, samples=50_000, seed=11)
plain = separability_floor_check(coeffs.A, samples=50_000, seed=11,
                                 optimize_partner=False)
print(f"  adversarial partner: {floor:+.2e}   plain pairs: {plain:+.2e}")
print("  (the witness touches the separable set, so the optimized floor is ~0)")

print("\nDetection values:")
print(f"  on the generating mixture:   {detect(w, rho):+.4f}")
print(f"  on the maximally mixed state: {detect(w, np.eye(16) / 16):+.4f}")
product = np.zeros(16)
product[0] = 1.0
print(f"  on the product ket |p1+, p1+>: "
      f"{detect(w, np.outer(product, product)):+.4f}  (hyperplane contact)")
