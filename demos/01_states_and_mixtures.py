"""Build the two-particle state family and inspect its structure.

Each particle carries one of two momentum values and a spin-1/2, so a pair
lives in a 16-dimensional space.  Sixteen orthonormal entangled states are
built from one-particle Bell vectors; their convex combinations with odd or
even index form the two mixture families everything else in the package
works with.
"""

import numpy as np

from doew import MixtureWeights, build_mixture, one_particle_bell, phi_state

np.set_printoptions(precision=4, suppress=True, linewidth=120)

print("One-particle Bell vectors (single-particle basis p1+, p1-, p2+, p2-):")
for i in range(1, 5):
    print(f"  psi_{i} = {np.real(one_particle_bell(i))}")

print("\nThe Bell-type state phi_1 at theta = pi/4 has amplitude 1/2 on the")
print("four equal-momentum, equal-spin kets:")
v = phi_state(1)
for k in np.nonzero(np.abs(v) > 1e-12)[0]:
    # ket k = 4a + b; single-particle index a carries momentum label 1 + a // 2
    ma, mb = 1 + k // 8, 1 + k % 4 // 2
    print(f"  ket {k:2d}  (momenta p{ma}, p{mb})  amplitude {v[k].real:+.3f}")

print("\nGram matrix of all sixteen states (should be the identity):")
family = [phi_state(i, theta=0.61) for i in range(1, 17)]
gram = np.array([[abs(np.vdot(a, b)) for b in family] for a in family])
print(f"  max off-diagonal overlap at theta=0.61: {np.max(gram - np.eye(16)):.2e}")

print("\nMomentum structure at the Bell-type angle: odd-index states only use")
print("kets where both particles share a momentum, even-index states always")
print("mix momenta:")
for i in (1, 2, 9, 10):
    v = phi_state(i)
    support = np.nonzero(np.abs(v) > 1e-12)[0]
    kinds = {"same" if k // 8 == k % 4 // 2 else "cross" for k in support}
    print(f"  phi_{i:<2d} support: {sorted(support)}  -> {sorted(kinds)}")

print("\nA mixture of odd states: rho = 0.4 phi_1 + 0.2 (phi_3 + phi_5 + phi_7)")
weights = MixtureWeights.odd({1: 0.4, 3: 0.2, 5: 0.2, 7: 0.2})
rho = build_mixture(weights)
print(f"  trace {np.trace(rho).real:.6f}, eigenvalues "
      f"{np.round(np.sort(np.linalg.eigvalsh(rho))[-4:], 4)}")
print("  each weight is recovered as the overlap <phi_i| rho |phi_i>:")
for i in (1, 3, 5, 7):
    vi = phi_state(i)
    print(f"    q_{i} = {np.vdot(vi, rho @ vi).real:.4f}")
