"""Entanglement quantifiers: entropies, Hilbert-Schmidt measures, closed forms.

The angle arguments (theta1, theta2) throughout are the two effective Wigner
rotation angles of the momentum-sector filter in ``relativity``; all closed
forms below describe that filtered family and are validated against
brute-force oracles in the test suite.  Logarithms are base 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import hs_norm, require_hermitian
from .relativity import sector_weights
from .states import MixtureWeights
from .witness import b_coefficients

NORM_TOL = 1e-10

# reduced-state eigenvalues below this are treated as exact zeros (0 log 0 = 0)
EIGENVALUE_FLOOR = 1e-14


def kappa(theta1: float, theta2: float) -> float:
    """Angle factor cos^2(t1/2) cos^2(t2/2) / (cos^4(t1/2) + cos^4(t2/2)).

    Equals 1/2 exactly when theta1 == theta2 and decreases strictly as the
    angles separate.
    """
    k1, k2, s = sector_weights(theta1, theta2)
    return k1 ** 2 * k2 ** 2 / s


def reduced_eigenvalue_pair(theta1: float, theta2: float) -> tuple[float, float]:
    """Distinct reduced-state eigenvalues (each doubly degenerate) of a filtered
    odd-family pure state; they sum to 1/2."""
    k1, k2, s = sector_weights(theta1, theta2)
    return k1 ** 4 / (2 * s), k2 ** 4 / (2 * s)


@dataclass(frozen=True)
class EntropyReport:
    """Reduced-state spectrum (ascending) and the entanglement entropy in bits."""

    eigenvalues: np.ndarray
    entropy_bits: float


def _entropy_bits(eigenvalues: np.ndarray) -> float:
    ev = np.asarray(eigenvalues, dtype=float)
    ev = ev[ev > EIGENVALUE_FLOOR]
    return float(-(ev * np.log2(ev)).sum())


def entropy_pure(state: np.ndarray, tol: float = NORM_TOL) -> EntropyReport:
    """Entanglement entropy of a 16-component pure state.

    Both single-particle reductions are computed (via the coefficient matrix
    N and N N^dag / N^dag N) and must agree within tolerance.
    """
    state = np.asarray(state, dtype=complex)
    if state.shape != (16,):
        raise ValueError("state must have 16 components")
    norm = np.linalg.norm(state)
    if abs(norm - 1.0) > tol:
        raise ValueError(f"state is not normalized (norm {norm!r})")
    n = state.reshape(4, 4)
    ev_a = np.linalg.eigvalsh(n @ n.conj().T)
    ev_b = np.linalg.eigvalsh(n.conj().T @ n)
    e_a, e_b = _entropy_bits(ev_a), _entropy_bits(ev_b)
    if abs(e_a - e_b) > tol:
        raise ValueError(f"reductions disagree: {e_a} vs {e_b}")
    return EntropyReport(eigenvalues=ev_a, entropy_bits=e_a)


def entropy_formula(theta1: float, theta2: float) -> float:
    """Closed-form entanglement entropy (bits) of a filtered odd-family pure state.

    Constant at 2 bits along theta1 == theta2; strictly below 2 otherwise.
    """
    l1, l2 = reduced_eigenvalue_pair(theta1, theta2)
    return _entropy_bits(np.array([l1, l1, l2, l2]))


def hs_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Hilbert-Schmidt distance ||a - b||, broadcast over stacks of matrices."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape[-2:] != b.shape[-2:]:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return hs_norm(a - b)


def doew_from_edge(rho_ent: np.ndarray, rho_edge: np.ndarray) -> tuple[np.ndarray, float]:
    """Minimal-distance witness direction from a PPT-edge state.

    Returns (W, measure) with

        W = (rho_edge - rho_ent - <rho_edge, rho_edge - rho_ent> I) / ||rho_edge - rho_ent||

    The measure -Tr(rho_ent W) equals the Hilbert-Schmidt distance between
    the two states, and Tr(rho_edge W) = 0: the witness hyperplane touches
    the edge state.
    """
    rho_ent = require_hermitian(rho_ent)
    rho_edge = require_hermitian(rho_edge)
    diff = rho_edge - rho_ent
    norm = hs_norm(diff)
    if norm < 1e-12:
        raise ValueError("edge and entangled states coincide")
    overlap = float(np.einsum("ij,ji->", rho_edge, diff).real)
    w = (diff - overlap * np.eye(rho_edge.shape[0])) / norm
    measure = -float(np.einsum("ij,ji->", rho_ent, w).real)
    return w, measure


def relativistic_witness_value(weights: MixtureWeights, theta1: float = 0.0,
                               theta2: float = 0.0) -> float:
    """Closed-form optimal witness value 1 - Tr sqrt(rho_tilde^t rho_tilde)
    of a filtered odd mixture.

    The angle-independent part collects |b1 - b2|, |b3 +/- b4|; the
    angle-dependent part scales |b5 +/- b6| and |b7 +/- b8| by kappa.
    Negative values certify entanglement.
    """
    b1, b2, b3, b4, b5, b6, b7, b8 = b_coefficients(weights)
    k = kappa(theta1, theta2)
    return (0.5 * (1.0 - abs(b1 - b2) - abs(b3 - b4) - abs(b3 + b4))
            - (abs(b5 - b6) + abs(b5 + b6) + abs(b7 - b8) + abs(b7 + b8)) * k)


@dataclass(frozen=True)
class ConcurrenceReport:
    """Generalized concurrence data of a filtered maximally entangled state."""

    chi: float
    d: float
    lambda1: float
    lambda2: float


def generalized_concurrence(theta1: float, theta2: float) -> ConcurrenceReport:
    """Generalized concurrence d = 4 sqrt(l1 l2) and chi = 1 + 8 sqrt(l1 l2).

    l1 and l2 are the distinct reduced eigenvalues (l1 + l2 = 1/2), recovered
    from d as l = (1 +/- sqrt(1 - d^2)) / 4.  For the filtered first family
    state, chi equals -Tr(W rho) for the optimal rest-frame witness.
    """
    l1, l2 = reduced_eigenvalue_pair(theta1, theta2)
    root = float(np.sqrt(l1 * l2))
    return ConcurrenceReport(chi=1.0 + 8.0 * root, d=4.0 * root,
                             lambda1=l1, lambda2=l2)
