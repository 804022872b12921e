"""Wigner rotations: closed-form half angles checked against composed spinor boosts.

A boost seen from a moving observer rotates each massive particle's spin by a
momentum-dependent angle.  The closed-form half-angle expressions are compared
here against the independent oracle that multiplies the two boosts as 2x2
SL(2,C) matrices and reads the Wigner rotation W = L^-1(Lambda p) Lambda L(p)
directly off the product.
"""

import numpy as np

from doew import (boost_pure, entropy_pure, phi_state,
                  single_particle_boost_unitary, wigner_half_angle,
                  wigner_matrix, wigner_rotation_oracle)

ez = np.array([0.0, 0.0, 1.0])
ey = np.array([0.0, 1.0, 0.0])

print("Boost along z, particle moving along y (orthogonal case):")
print(f"{'alpha':>6} {'delta':>6} {'cos(O/2)':>10} {'Omega':>8} {'oracle gap':>11}")
for alpha in (0.5, 1.0, 2.0, 3.0):
    for delta in (1.0, 2.5):
        c, v = wigner_half_angle(alpha, ez, delta, ey)
        oc, ov = wigner_rotation_oracle(alpha, ez, delta, ey)
        omega = 2 * np.arctan2(np.linalg.norm(v), c)
        gap = max(abs(c - oc), np.max(np.abs(v - ov)))
        print(f"{alpha:6.2f} {delta:6.2f} {c:10.6f} {omega:8.4f} {gap:11.2e}")

print("\nCollinear boost and momentum produce no rotation at all:")
c, v = wigner_half_angle(2.0, ez, 2.0, ez)
print(f"  cos(Omega/2) = {c}, axis part = {v}")

print("\nThe 2x2 rotation matrix is special-unitary:")
rot = wigner_matrix(*wigner_half_angle(1.0, ez, 2.0, ey))
print(f"  Omega = {rot.omega:.4f} about axis {np.round(rot.axis, 6)}")
print(f"  D D^dag deviation from I: "
      f"{np.max(np.abs(rot.matrix @ rot.matrix.conj().T - np.eye(2))):.2e}")
print(f"  det D = {np.linalg.det(rot.matrix):.6f}")

print("\nA boost acts on a two-particle state as a local unitary, one 2x2")
print("block per momentum sector, so entanglement entropy cannot change:")
d1 = wigner_matrix(*wigner_half_angle(1.5, ez, 2.0, ey))
d2 = wigner_matrix(*wigner_half_angle(1.5, ez, 2.0, -ey))
u = single_particle_boost_unitary(d1, d2)
for i in (1, 2):
    before = entropy_pure(phi_state(i)).entropy_bits
    after = entropy_pure(boost_pure(phi_state(i), u, u)).entropy_bits
    print(f"  phi_{i}: entropy {before:.6f} -> {after:.6f} bits")
