"""Direct per-matrix constructions that the batched library code is checked against.

Each is the straightforward form of a fixed linear map: the Bell recipe
evaluated state by state, einsum contractions with the operator basis, and
the filter as a Kronecker product of the single-particle attenuation.  The
Wigner rotation is also composed from 4x4 Lorentz matrices, a second oracle
beside the library's 2x2 spinor one, and its 2x2 matrix is summed over the
Pauli matrices.
"""

import numpy as np

from doew import (edge_weights, hs_distance, kkt_witness, operator_basis,
                  ppt_spectrum, random_product_states, two_particle_bell)
from doew.relativity import LORENTZ_TOL
from doew.states import _PHI_RECIPE
from doew.witness import _expectations, _partner_matrices

BELL_ANGLE = np.pi / 4


def phi_state_recipe(i: int, theta: float) -> np.ndarray:
    kind, pair_c, pair_s, sign = _PHI_RECIPE[i]
    return (np.cos(theta) * two_particle_bell(kind, pair_c)
            + sign * np.sin(theta) * two_particle_bell(kind, pair_s))


def mixture_recipe(weights, theta: float = BELL_ANGLE) -> np.ndarray:
    rho = np.zeros((16, 16), dtype=complex)
    for i in range(1, 17):
        qi = weights.weight(i)
        if qi:
            v = phi_state_recipe(i, theta)
            rho += qi * np.outer(v, v.conj())
    return rho


def correlation_matrix_einsum(rho: np.ndarray) -> np.ndarray:
    q = operator_basis()
    rt = np.einsum("pqrs,irp,jsq->ij", np.asarray(rho).reshape(4, 4, 4, 4), q, q)
    return rt.real


def witness_operator_einsum(A: np.ndarray) -> np.ndarray:
    q = operator_basis()
    return np.eye(16) + np.einsum("ij,iab,jcd->acbd", A, q, q).reshape(16, 16)


def separability_floor_einsum(A: np.ndarray, samples: int, seed: int,
                              optimize_partner: bool) -> float:
    """``separability_floor_check`` as einsum contractions with the basis."""
    q = operator_basis()
    a, b = random_product_states(samples, seed)
    pa = np.einsum("qij,nj,ni->nq", q, a, a.conj(), optimize=True).real
    if optimize_partner:
        m = np.einsum("nq,qij->nij", pa @ A, q, optimize=True)
        return float(1.0 + np.linalg.eigvalsh(m)[:, 0].min())
    pb = np.einsum("qij,nj,ni->nq", q, b, b.conj(), optimize=True).real
    return float(1.0 + np.einsum("nq,qr,nr->n", pa, A, pb, optimize=True).min())


def separability_floor_two_party(A: np.ndarray, samples: int, seed: int) -> float:
    """The optimized-partner floor of ``separability_floor_check``, evaluated on
    the first party of a full two-party ``random_product_states`` draw."""
    a, _ = random_product_states(samples, seed)
    v = _expectations(a) @ A
    return float(1.0 + np.linalg.eigvalsh(_partner_matrices(v))[:, 0].min())


def filter_kron(theta1: float, theta2: float) -> np.ndarray:
    c1, c2 = np.cos(theta1 / 2), np.cos(theta2 / 2)
    k = np.diag([c1, c1, c2, c2]).astype(complex)
    return np.kron(k, k)


def effective_boost_mixture_kron(rho: np.ndarray, theta1: float,
                                 theta2: float) -> np.ndarray:
    kk = filter_kron(theta1, theta2)
    out = kk @ rho @ kk.conj().T
    return out / np.trace(out).real


EDGE_STATE = mixture_recipe(edge_weights())


def sweep_point(weights, theta1: float, theta2: float) -> dict:
    """Numeric sweep columns of one grid point, composed point by point."""
    boosted = effective_boost_mixture_kron(mixture_recipe(weights), theta1, theta2)
    return {
        "witness_value_numeric": kkt_witness(boosted)[0].min_value,
        "min_ppt_eig": float(ppt_spectrum(boosted)[0]),
        "hs_measure": float(hs_distance(EDGE_STATE, boosted)),
    }


def pure_boost(e0: float, p: np.ndarray) -> np.ndarray:
    """The 4x4 pure boost taking the unit-mass rest vector (1, 0, 0, 0) to (e0, p)."""
    L = np.empty((4, 4))
    L[0, 0] = e0
    L[0, 1:] = L[1:, 0] = p
    L[1:, 1:] = np.eye(3) + np.outer(p, p) / (1.0 + e0)
    return L


def standard_boost_to(p4: np.ndarray) -> np.ndarray:
    """Pure boost taking the unit-mass rest vector to the on-shell four-vector p4."""
    p4 = np.asarray(p4, dtype=float)
    e0, p = p4[0], p4[1:]
    if not abs(e0 ** 2 - p @ p - 1.0) <= LORENTZ_TOL:
        raise ValueError("expected an on-shell unit-mass four-vector")
    return pure_boost(e0, p)


def lorentz_wigner_oracle(alpha: float, e_hat: np.ndarray,
                          delta: float, p_hat: np.ndarray) -> tuple[float, np.ndarray]:
    """(cos(Omega/2), sin(Omega/2) n_hat) of W = L^{-1}(Lambda p) Lambda L(p), composed
    from 4x4 Lorentz matrices and read off W's rotation block as a quaternion.

    Its on-shell check and the product cancel terms of size e^{2(alpha + delta)},
    so it holds 1e-9 only up to alpha + delta of about 8.
    """
    lam = pure_boost(np.cosh(alpha), np.sinh(alpha) * np.asarray(e_hat))
    lp = pure_boost(np.cosh(delta), np.sinh(delta) * np.asarray(p_hat))
    q4 = lam @ lp @ np.array([1.0, 0.0, 0.0, 0.0])
    W = np.linalg.inv(standard_boost_to(q4)) @ lam @ lp
    assert np.allclose(W[:, 0], [1.0, 0.0, 0.0, 0.0], atol=LORENTZ_TOL)
    R = W[1:, 1:]
    w = 0.5 * np.sqrt(max(0.0, 1.0 + np.trace(R)))
    assert w > 1e-8, "half turn: the axis cannot be read off R"
    # D = w I + i sigma.v corresponds to v = -(the quaternion vector part of R)
    v = np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]]) / (4 * w)
    return float(w), -v


PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex)


def pauli_sum_matrix(cos_half: float, sin_axis: np.ndarray) -> np.ndarray:
    """D = cos(Omega/2) I + i sum_k sin_axis_k sigma_k, one Pauli matrix at a time."""
    d = cos_half * np.eye(2, dtype=complex)
    for k in range(3):
        d += 1j * sin_axis[k] * PAULI[k]
    return d
