"""Wigner rotations of massive spin-1/2 states and boost actions on two-particle states.

The closed-form half angles (``wigner_half_angle``) are checked against an
independent oracle (``wigner_rotation_oracle``) that composes the boosts as 2x2
SL(2,C) spinor matrices and reads the rotation back out.

A boost acts in one of two ways.  ``boost_pure`` / ``boost_mixture`` apply the
exact local unitary: with the boosted momentum labels re-identified with the
original ones, one 2x2 Wigner rotation per momentum sector, which preserves
every spectrum and the entanglement entropy.  ``effective_boost_pure`` /
``effective_boost_mixture`` apply the non-unitary momentum-sector filter that
all closed forms in ``measures`` and ``ppt`` describe: sector p_i is weighted by
cos(theta_i / 2) and the result renormalized; equal angles return the input.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .linalg import dagger

UNIT_VECTOR_TOL = 1e-12
HALF_ANGLE_NORM_TOL = 1e-10

# a rotation axis (e x p, or sin(Omega/2) n) shorter than this: the identity
AXIS_TOL = 1e-15
# the spinor oracle's unitarity check and its bound on its own rounding error
LORENTZ_TOL = 1e-9

# both momentum sectors annihilated (angles within ~1e-8 of pi) is a domain error
SECTOR_WEIGHT_FLOOR = 1e-30


def _check_unit(v: np.ndarray, name: str) -> tuple[float, float, float]:
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"{name} must be a 3-vector")
    x, y, z = v.tolist()
    if not abs(math.sqrt(x * x + y * y + z * z) - 1.0) <= UNIT_VECTOR_TOL:   # NaN refuses too
        raise ValueError(f"{name} must be a unit vector")
    return x, y, z


def _half_angle_terms(alpha, e_hat: np.ndarray, delta: float, p_hat: np.ndarray):
    # bounded at any rapidity, alpha a scalar or an array: cos(Omega/2) = x / r and
    # sin(Omega/2) n_hat = t (e x p) / r, where t = tanh(alpha/2) tanh(delta/2),
    # x = 1 + t e.p and r = sqrt(x^2 + t^2 |e x p|^2); also returns |e x p|.  Floats for a
    # scalar alpha (numpy's per-call cost dominates), np.tanh for both (so their bits agree)
    array = isinstance(alpha, np.ndarray)
    if not ((np.all(alpha >= 0) if array else alpha >= 0) and delta >= 0):
        raise ValueError("rapidities must be nonnegative")
    (e1, e2, e3), (p1, p2, p3) = _check_unit(e_hat, "e_hat"), _check_unit(p_hat, "p_hat")
    cross = (e2 * p3 - e3 * p2, e3 * p1 - e1 * p3, e1 * p2 - e2 * p1)
    cross2 = cross[0] * cross[0] + cross[1] * cross[1] + cross[2] * cross[2]
    t = np.tanh(alpha / 2) * np.tanh(delta / 2)
    t, sqrt = (t, np.sqrt) if array else (float(t), math.sqrt)
    x = 1.0 + t * (e1 * p1 + e2 * p2 + e3 * p3)
    return cross, math.sqrt(cross2), t, x, sqrt(x * x + t * t * cross2)


def wigner_half_angle(alpha: float, e_hat: np.ndarray,
                      delta: float, p_hat: np.ndarray) -> tuple[float, np.ndarray]:
    """cos(Omega/2) and sin(Omega/2) * n_hat for a boost acting on a moving particle.

    alpha is the boost rapidity along unit vector e_hat; delta is the particle
    rapidity (cosh delta = E/m) along unit vector p_hat.  The rotation axis is
    along e_hat x p_hat.  The two outputs satisfy cos^2 + |sin*n|^2 = 1.  A
    vanishing boost, a particle at rest, or collinear directions give the
    identity rotation exactly.
    """
    cross, c, t, x, r = _half_angle_terms(alpha, e_hat, delta, p_hat)
    if alpha == 0.0 or delta == 0.0 or c < AXIS_TOL:
        return 1.0, np.zeros(3)
    return float(x / r), np.array([t * v / r for v in cross])


class WignerRotation(NamedTuple):
    """Spin-1/2 rotation D = cos(Omega/2) I + i sin(Omega/2) sigma.n_hat."""

    omega: float
    axis: np.ndarray
    matrix: np.ndarray


def wigner_matrix(cos_half: float, sin_axis: np.ndarray) -> WignerRotation:
    """Assemble the 2x2 special-unitary rotation from half-angle data.

    sin_axis is sin(Omega/2) times the unit rotation axis; together with
    cos_half it must satisfy the normalization cos^2 + |sin_axis|^2 = 1.
    """
    v1, v2, v3 = np.asarray(sin_axis, dtype=float).tolist()
    s2 = v1 * v1 + v2 * v2 + v3 * v3
    norm2 = cos_half ** 2 + s2
    if not abs(norm2 - 1.0) <= HALF_ANGLE_NORM_TOL:   # NaN refuses too
        raise ValueError(f"half-angle normalization violated ({norm2!r})")
    # entries summed as cos_half I + i sum_k s_k sigma_k, keeping the signs of zeros
    c, o = cos_half * (1 + 0j), cos_half * 0j
    i1, i2, i3 = 1j * v1, 1j * v2, 1j * v3
    d = np.array([[c + i3, o + i1 + i2 * -1j], [o + i1 + i2 * 1j, c - i3]])
    s = math.sqrt(s2)
    if s < AXIS_TOL:
        # identity (or 2 pi, if cos_half = -1) rotation: axis is arbitrary
        omega, axis = (0.0 if cos_half > 0 else 2.0 * math.pi), np.array([0.0, 0.0, 1.0])
    else:
        omega, axis = 2.0 * math.atan2(s, cos_half), np.array([v1 / s, v2 / s, v3 / s])
    return WignerRotation(omega=omega, axis=axis, matrix=d)


def _pauli_product(x, y):
    # (a + sigma.u)(b + sigma.v) = a b + u.v + sigma.(a v + b u + i u x v), u and v 3-sequences
    (a, (u1, u2, u3)), (b, (v1, v2, v3)) = x, y
    return (a * b + u1 * v1 + u2 * v2 + u3 * v3,
            (a * v1 + b * u1 + 1j * (u2 * v3 - u3 * v2),
             a * v2 + b * u2 + 1j * (u3 * v1 - u1 * v3),
             a * v3 + b * u3 + 1j * (u1 * v2 - u2 * v1)))


def _pauli_dagger(a, u):
    return a.conjugate(), (u[0].conjugate(), u[1].conjugate(), u[2].conjugate())


def wigner_rotation_oracle(alpha: float, e_hat: np.ndarray,
                           delta: float, p_hat: np.ndarray) -> tuple[float, np.ndarray]:
    """Read (cos(Omega/2), sin(Omega/2)*n_hat) off the composed SL(2,C) boosts.

    M = B(alpha, e) B(delta, p) for B(r, n) = cosh(r/2) I + sinh(r/2) sigma.n.  With
    P = M M^dag, L = (P + I) / sqrt(tr P + 2) is the pure boost to the final momentum,
    and W = L^-1 M = (tr L I - L) M = w I + i sigma.v.  Independent of the closed
    form in ``wigner_half_angle``.  The products cancel terms of size
    cosh((alpha + delta)/2) sqrt(tr P + 2): the rapidities are out of range unless
    eight rounding units of that size, and W's deviation from unitarity, are
    within LORENTZ_TOL.
    """
    (e1, e2, e3), (p1, p2, p3) = _check_unit(e_hat, "e_hat"), _check_unit(p_hat, "p_hat")
    try:
        ca, sa = math.cosh(alpha / 2), math.sinh(alpha / 2)
        cd, sd = math.cosh(delta / 2), math.sinh(delta / 2)
    except OverflowError as exc:
        raise ValueError(f"rapidities out of range ({exc})") from exc
    m = _pauli_product((ca, (sa * e1, sa * e2, sa * e3)), (cd, (sd * p1, sd * p2, sd * p3)))
    p0, pv = _pauli_product(m, _pauli_dagger(*m))
    s = math.sqrt(2.0 * p0.real + 2.0)
    w = _pauli_product(((p0.real + 1.0) / s, [-x.real / s for x in pv]), m)
    g0, (g1, g2, g3) = _pauli_product(w, _pauli_dagger(*w))
    bound = 8 * math.ulp(1.0) * (ca * cd + abs(sa * sd)) * s
    unitarity = max(abs(g0 - 1 + g3), abs(g0 - 1 - g3), abs(g1 - 1j * g2), abs(g1 + 1j * g2))
    if not (bound <= LORENTZ_TOL and unitarity <= LORENTZ_TOL):   # NaN refuses too
        raise ValueError(f"spinor composition out of range at these rapidities (rounding "
                         f"bound {bound:.1e}, unitarity deviation {unitarity:.1e})")
    return w[0].real, np.array([x.imag for x in w[1]])


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
    """Momentum-sector filtered density matrix (real for a real rho), unit trace.

    rho may be a stack (..., 16, 16) and the angles arrays broadcasting
    against its leading axes; the filter scales entry (a, b) by d_a d_b.
    """
    rho = np.asarray(rho)
    if rho.shape[-2:] != (16, 16):
        raise ValueError("density matrix must be 16x16")
    d = _filter_diagonal(theta1, theta2)
    out = rho * (d[..., :, None] * d[..., None, :])
    tr = np.trace(out, axis1=-2, axis2=-1).real
    if np.any(tr < SECTOR_WEIGHT_FLOOR):
        raise ValueError("filtered mixture vanishes for these angles")
    return out / tr[..., None, None]


def effective_angles(alpha, e_hat: np.ndarray, delta1: float, p1_hat: np.ndarray,
                     delta2: float, p2_hat: np.ndarray):
    """Wigner rotation angles (Omega_1, Omega_2) of the two momentum values under
    the common observer boost, the kinematic driver of the closed-form (theta1,
    theta2) parameterizations; arrays of alpha's shape for an array alpha."""
    alpha = np.asarray(alpha, dtype=float)
    angles = []
    for delta, p_hat in ((delta1, p1_hat), (delta2, p2_hat)):
        cross, c, t, x, r = _half_angle_terms(alpha, e_hat, delta, p_hat)
        # collinear directions give the identity, also where x and r both vanish
        omega = (2.0 * np.arctan2(t * c / r, x / r) if c >= AXIS_TOL
                 else np.zeros(alpha.shape))
        angles.append(float(omega) if omega.ndim == 0 else omega)
    return tuple(angles)
