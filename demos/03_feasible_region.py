"""The feasible region of odd mixtures and the edge of PPT states.

Positivity of partial transposes carves linear constraints out of the weight
simplex: four pairwise equalities from the momentum-label transpose, and the
bounds q_i <= 1/4 from the particle transpose.  The boundary state that
saturates a bound sits exactly on the edge of the PPT set.
"""

import numpy as np

from doew import (MixtureWeights, build_mixture, closed_form_momentum_pt,
                  detect, edge_state, edge_weights, effective_boost_mixture,
                  feasible_region_check, phi_state, ppt_spectrum)

np.set_printoptions(precision=4, suppress=True)


def describe(weights, label):
    rho = build_mixture(weights)
    report = feasible_region_check(weights)
    print(f"{label}:")
    print(f"  equality residuals: "
          f"{[round(r, 6) for _, r in report.equalities]}")
    print(f"  worst 1/4 margin: {min(m for _, m in report.inequalities):+.4f}")
    print(f"  constraints satisfied: {report.is_ppt}")
    print(f"  min particle-PT eigenvalue: {ppt_spectrum(rho).min():+.6f}")


describe(MixtureWeights.odd({i: 1 / 8 for i in range(1, 17, 2)}), "uniform odd mixture")
describe(MixtureWeights.odd({1: 1.0}), "pure phi_1")
describe(edge_weights(), "edge configuration (q1 = q7 = 1/4)")

print("\nThe closed-form momentum-label transpose spectrum matches the")
print("numerical eigensolve entry for entry, at rest and under the filter:")
w = MixtureWeights.odd({1: 0.3, 7: 0.2, 3: 0.15, 5: 0.15, 9: 0.1, 13: 0.1})
for t1, t2 in ((0.0, 0.0), (0.8, 1.9)):
    rho = effective_boost_mixture(build_mixture(w), t1, t2)
    numeric = ppt_spectrum(rho, dims=(2, 8))
    closed = closed_form_momentum_pt(w, t1, t2)
    print(f"  angles ({t1}, {t2}): max gap {np.max(np.abs(numeric - closed)):.2e}, "
          f"min eigenvalue {numeric.min():+.5f}")

print("\nThe edge state touches the reference witness hyperplane:")
v = phi_state(1)
w_ref = np.eye(16) - 4 * np.outer(v, v.conj())
print(f"  Tr(W rho_edge) = {detect(w_ref, edge_state()):+.2e}")
print(f"  min PT eigenvalue of the edge state: "
      f"{ppt_spectrum(edge_state()).min():+.2e}")

print("\nSweeping q1 = q7 along the feasible family, the witness value 1 - 4 q1")
print("crosses zero exactly where the PPT bound saturates:")
for q1 in (0.15, 0.20, 0.25, 0.30):
    rest = (1 - 2 * q1) / 6
    mapping = {1: q1, 7: q1}
    mapping.update({i: rest for i in (3, 5, 9, 11, 13, 15)})
    rho = build_mixture(MixtureWeights.odd(mapping))
    print(f"  q1 = {q1:.2f}: Tr(W rho) = {detect(w_ref, rho):+.4f}, "
          f"min PT eig = {ppt_spectrum(rho).min():+.5f}")
