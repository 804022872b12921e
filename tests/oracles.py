"""Direct per-matrix constructions that the batched library code is checked against.

Each is the straightforward form of a fixed linear map: the Bell recipe
evaluated state by state, einsum contractions with the operator basis, and
the filter as a Kronecker product of the single-particle attenuation.
"""

import numpy as np

from doew import (edge_weights, hs_distance, kkt_witness, operator_basis,
                  ppt_spectrum, two_particle_bell)
from doew.states import _PHI_RECIPE

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


def filter_kron(theta1: float, theta2: float) -> np.ndarray:
    c1, c2 = np.cos(theta1 / 2), np.cos(theta2 / 2)
    k = np.diag([c1, c1, c2, c2]).astype(complex)
    return np.kron(k, k)


def effective_boost_mixture_kron(rho: np.ndarray, theta1: float,
                                 theta2: float) -> np.ndarray:
    kk = filter_kron(theta1, theta2)
    out = kk @ rho @ kk.conj().T
    return out / np.trace(out).real


EDGE_STATE = mixture_recipe(edge_weights(1))


def sweep_point(weights, theta1: float, theta2: float) -> dict:
    """Numeric sweep columns of one grid point, composed point by point."""
    boosted = effective_boost_mixture_kron(mixture_recipe(weights), theta1, theta2)
    return {
        "witness_value_numeric": kkt_witness(boosted)[0].min_value,
        "min_ppt_eig": float(ppt_spectrum(boosted, "A")[0]),
        "hs_measure": float(hs_distance(EDGE_STATE, boosted)),
    }
