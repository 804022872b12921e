"""Wigner rotations of massive spin-1/2 states and boost actions on two-particle states.

Closed-form half-angle kinematics come with an independent 4x4 Lorentz-matrix
oracle (``wigner_rotation_oracle``) that composes the actual boosts and reads
the rotation back out, so the formulas are never trusted on their own.

Two boost actions are exposed:

* ``boost_pure`` / ``boost_mixture``: the exact local-unitary action.  After
  re-identifying the boosted momentum labels with the original ones, a boost
  is a block-diagonal 4x4 unitary per particle (one 2x2 Wigner rotation per
  momentum sector).  Local unitaries preserve reduced spectra, global spectra
  and entanglement entropy.

* ``effective_boost_pure`` / ``effective_boost_mixture``: the non-unitary
  momentum-sector attenuation behind all closed-form angle dependence in
  ``measures`` and ``ppt``.  Each single-particle momentum sector p_i is
  weighted by cos(theta_i / 2) and the result renormalized.  This filtered
  family is what the angle-parameterized witness values, reduced spectra and
  partial-transpose spectra of the closed forms describe; equal angles give
  back the input exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import dagger

UNIT_VECTOR_TOL = 1e-12
HALF_ANGLE_NORM_TOL = 1e-10

# both momentum sectors annihilated (angles within ~1e-8 of pi) is a domain error
SECTOR_WEIGHT_FLOOR = 1e-30

_SIGMA = np.array([
    [[0, 1], [1, 0]],
    [[0, -1j], [1j, 0]],
    [[1, 0], [0, -1]],
], dtype=complex)


def _check_unit(v: np.ndarray, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"{name} must be a 3-vector")
    if abs(np.linalg.norm(v) - 1.0) > UNIT_VECTOR_TOL:
        raise ValueError(f"{name} must be a unit vector")
    return v


def wigner_half_angle(alpha: float, e_hat: np.ndarray,
                      delta: float, p_hat: np.ndarray) -> tuple[float, np.ndarray]:
    """cos(Omega/2) and sin(Omega/2) * n_hat for a boost acting on a moving particle.

    alpha is the boost rapidity along unit vector e_hat; delta is the particle
    rapidity (cosh delta = E/m) along unit vector p_hat.  The rotation axis is
    along e_hat x p_hat.  The two outputs satisfy cos^2 + |sin*n|^2 = 1.

    A vanishing boost, a particle at rest, or collinear directions give the
    identity rotation exactly.
    """
    if alpha < 0 or delta < 0:
        raise ValueError("rapidities must be nonnegative")
    e_hat = _check_unit(e_hat, "e_hat")
    p_hat = _check_unit(p_hat, "p_hat")
    cross = np.cross(e_hat, p_hat)
    if alpha == 0.0 or delta == 0.0 or np.linalg.norm(cross) < 1e-15:
        return 1.0, np.zeros(3)
    c = float(e_hat @ p_hat)
    den = np.sqrt(0.5 + 0.5 * np.cosh(alpha) * np.cosh(delta)
                  + 0.5 * np.sinh(alpha) * np.sinh(delta) * c)
    cos_half = (np.cosh(alpha / 2) * np.cosh(delta / 2)
                + np.sinh(alpha / 2) * np.sinh(delta / 2) * c) / den
    sin_axis = np.sinh(alpha / 2) * np.sinh(delta / 2) * cross / den
    return float(cos_half), sin_axis


@dataclass(frozen=True)
class WignerRotation:
    """Spin-1/2 rotation D = cos(Omega/2) I + i sin(Omega/2) sigma.n_hat."""

    omega: float
    axis: np.ndarray
    matrix: np.ndarray


def wigner_matrix(cos_half: float, sin_axis: np.ndarray,
                  tol: float = HALF_ANGLE_NORM_TOL) -> WignerRotation:
    """Assemble the 2x2 special-unitary rotation from half-angle data.

    sin_axis is sin(Omega/2) times the unit rotation axis; together with
    cos_half it must satisfy the normalization cos^2 + |sin_axis|^2 = 1.
    """
    sin_axis = np.asarray(sin_axis, dtype=float)
    norm2 = cos_half ** 2 + float(sin_axis @ sin_axis)
    if abs(norm2 - 1.0) > tol:
        raise ValueError(f"half-angle normalization violated ({norm2!r})")
    d = cos_half * np.eye(2, dtype=complex)
    for k in range(3):
        d += 1j * sin_axis[k] * _SIGMA[k]
    s = np.linalg.norm(sin_axis)
    if s < 1e-15:
        # identity (or 2 pi, if cos_half = -1) rotation: axis is arbitrary
        omega, axis = (0.0 if cos_half > 0 else 2.0 * np.pi), np.array([0.0, 0.0, 1.0])
    else:
        omega, axis = 2.0 * np.arctan2(s, cos_half), sin_axis / s
    return WignerRotation(omega=float(omega), axis=axis, matrix=d)


def boost_matrix(rapidity: float, direction: np.ndarray) -> np.ndarray:
    """Active 4x4 pure boost: maps (m, 0) to m (cosh r, sinh r * direction)."""
    e = _check_unit(direction, "direction")
    L = np.eye(4)
    ch, sh = np.cosh(rapidity), np.sinh(rapidity)
    L[0, 0] = ch
    L[0, 1:] = sh * e
    L[1:, 0] = sh * e
    L[1:, 1:] = np.eye(3) + (ch - 1.0) * np.outer(e, e)
    return L


def standard_boost_to(p4: np.ndarray) -> np.ndarray:
    """Pure boost taking the unit-mass rest vector (1,0,0,0) to p4.

    Built algebraically from the four-vector, avoiding an arccosh round trip.
    """
    p4 = np.asarray(p4, dtype=float)
    e0, p = p4[0], p4[1:]
    if abs(e0 ** 2 - p @ p - 1.0) > 1e-9:
        raise ValueError("expected an on-shell unit-mass four-vector")
    L = np.eye(4)
    L[0, 0] = e0
    L[0, 1:] = p
    L[1:, 0] = p
    L[1:, 1:] = np.eye(3) + np.outer(p, p) / (1.0 + e0)
    return L


def wigner_rotation_oracle(alpha: float, e_hat: np.ndarray,
                           delta: float, p_hat: np.ndarray) -> tuple[float, np.ndarray]:
    """Read (cos(Omega/2), sin(Omega/2)*n_hat) off the composed 4x4 Lorentz matrices.

    Forms W = L^{-1}(Lambda p) Lambda L(p), checks it is a spatial rotation,
    and converts its 3x3 block to half-angle data.  Independent of the closed
    form in ``wigner_half_angle``.
    """
    Lam = boost_matrix(alpha, e_hat)
    Lp = boost_matrix(delta, p_hat)
    q4 = Lam @ Lp @ np.array([1.0, 0.0, 0.0, 0.0])
    W = np.linalg.inv(standard_boost_to(q4)) @ Lam @ Lp
    if not np.allclose(W @ np.array([1.0, 0, 0, 0]), [1.0, 0, 0, 0], atol=1e-9):
        raise ValueError("composition did not land in the little group")
    R = W[1:, 1:]
    w = 0.5 * np.sqrt(max(0.0, 1.0 + np.trace(R)))
    if w < 1e-8:
        raise ValueError("half-turn rotation: axis extraction is degenerate")
    # quaternion vector part of R; the spin-1/2 convention used throughout is
    # D = w I + i sigma.v, which corresponds to v = -(quaternion vector part)
    v = np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]]) / (4 * w)
    return float(w), -v


def single_particle_boost_unitary(d1: WignerRotation | np.ndarray,
                                  d2: WignerRotation | np.ndarray) -> np.ndarray:
    """Block-diagonal 4x4 unitary acting as d1 on the p1 sector and d2 on p2.

    Boosted momentum labels are re-identified with the original ones, which is
    what makes the boost a fixed 4x4 matrix on the momentum (x) spin space.
    """
    u = np.zeros((4, 4), dtype=complex)
    for block, d in ((slice(0, 2), d1), (slice(2, 4), d2)):
        m = d.matrix if isinstance(d, WignerRotation) else np.asarray(d, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError("each rotation must be a 2x2 matrix")
        u[block, block] = m
    return u


def boost_pure(state: np.ndarray, u_a: np.ndarray, u_b: np.ndarray) -> np.ndarray:
    """Apply the local unitary u_a (x) u_b to a 16-component pure state and renormalize."""
    state = np.asarray(state, dtype=complex)
    if state.shape != (16,):
        raise ValueError("state must have 16 components")
    out = np.kron(np.asarray(u_a), np.asarray(u_b)) @ state
    return out / np.linalg.norm(out)


def boost_mixture(rho: np.ndarray, u_a: np.ndarray, u_b: np.ndarray) -> np.ndarray:
    """Conjugate a 16x16 density matrix by the local unitary u_a (x) u_b."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (16, 16):
        raise ValueError("density matrix must be 16x16")
    u = np.kron(np.asarray(u_a), np.asarray(u_b))
    return u @ rho @ dagger(u)


def sector_weights(theta1, theta2) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Half-angle cosines k_i = cos(theta_i / 2) weighting momentum sector p_i,
    and S = k1^4 + k2^4, elementwise over arrays of angles; every closed form
    of the filtered family depends on the angles only through these."""
    k1, k2 = np.cos(theta1 / 2), np.cos(theta2 / 2)
    s = k1 ** 4 + k2 ** 4
    if (s < SECTOR_WEIGHT_FLOOR).any():
        raise ValueError("both sector weights vanish (theta1 = theta2 = pi)")
    return k1, k2, s


def _filter_diagonal(theta1, theta2) -> np.ndarray:
    # diagonal of kron(K, K) for K = diag(k1, k1, k2, k2), shape (..., 16)
    k1, k2 = np.broadcast_arrays(*sector_weights(theta1, theta2)[:2])
    k = np.stack([k1, k1, k2, k2], axis=-1)
    return (k[..., :, None] * k[..., None, :]).reshape(k.shape[:-1] + (16,))


def effective_boost_pure(state: np.ndarray, theta1: float, theta2: float) -> np.ndarray:
    """Momentum-sector filtered pure state, renormalized.

    theta1 and theta2 play the role of the two effective Wigner rotation
    angles; theta1 == theta2 returns the input state unchanged.
    """
    state = np.asarray(state, dtype=complex)
    if state.shape != (16,):
        raise ValueError("state must have 16 components")
    out = _filter_diagonal(theta1, theta2) * state
    norm = np.linalg.norm(out)
    if norm ** 2 < SECTOR_WEIGHT_FLOOR:
        raise ValueError("filtered state vanishes for these angles")
    return out / norm


def effective_boost_mixture(rho: np.ndarray, theta1, theta2) -> np.ndarray:
    """Momentum-sector filtered density matrix, renormalized to unit trace.

    rho may be a stack (..., 16, 16) and the angles arrays broadcasting
    against its leading axes; the filter scales entry (a, b) by d_a d_b.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (16, 16):
        raise ValueError("density matrix must be 16x16")
    d = _filter_diagonal(theta1, theta2)
    out = rho * (d[..., :, None] * d[..., None, :])
    tr = np.trace(out, axis1=-2, axis2=-1).real
    if np.any(tr < SECTOR_WEIGHT_FLOOR):
        raise ValueError("filtered mixture vanishes for these angles")
    return out / tr[..., None, None]


def effective_angles(alpha: float, e_hat: np.ndarray,
                     delta1: float, p1_hat: np.ndarray,
                     delta2: float, p2_hat: np.ndarray) -> tuple[float, float]:
    """Wigner rotation angles (Omega_1, Omega_2) of the two momentum values.

    Kinematic driver for the closed-form (theta1, theta2) parameterizations:
    compute each sector's rotation angle under the common observer boost.
    """
    angles = []
    for delta, p_hat in ((delta1, p1_hat), (delta2, p2_hat)):
        cos_half, sin_axis = wigner_half_angle(alpha, e_hat, delta, p_hat)
        angles.append(2.0 * np.arctan2(np.linalg.norm(sin_axis), cos_half))
    return float(angles[0]), float(angles[1])
