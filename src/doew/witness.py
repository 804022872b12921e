"""Decomposable optimal entanglement witnesses from the correlation matrix.

A witness is expanded over the sixteen-element Hermitian operator basis as

    W = I_4 (x) I_4 + sum_ij A_ij Q_i (x) Q_j.

Expectations of such a W over product states stay above 1 - sigma_max(A), so
any coefficient matrix with singular values at most one is a valid witness
candidate.  For a target density matrix the optimal coefficients minimize
Tr(W rho) subject to that constraint; the minimizer is the negated polar sign
factor of the correlation matrix rho_tilde, giving the detection value

    min Tr(W rho) = 1 - Tr sqrt(rho_tilde^t rho_tilde).

``kkt_witness`` implements that construction numerically via the SVD;
``coefficient_table`` evaluates the same optimum in closed form for
odd-parity mixtures and raises ``TieError`` where the closed-form signs are
genuinely undefined.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import HERMITIAN_TOL, basis_spectrum, pair_rotation
from .states import MixtureWeights

RANK_TOL = 1e-10
TIE_TOL = 1e-12
FLOOR_CERT_TOL = 1e-12
_FLOOR_FIRST = 1024   # partner matrices solved whole to seed the floor
_FLOOR_CHUNK = 8192


class TieError(ValueError):
    """A sign in the closed-form coefficient table is undefined (tied weights)."""


def operator_basis() -> np.ndarray:
    """The sixteen Hermitian 4x4 basis matrices, shape (16, 4, 4).

    Six symmetric off-diagonal (E_ij + E_ji)/sqrt(2), six antisymmetric
    i (E_ji - E_ij)/sqrt(2), and the four diagonal units E_ii, in that order.
    The set is orthonormal under the Hilbert-Schmidt inner product.
    """
    def unit(i, j):
        m = np.zeros((4, 4), dtype=complex)
        m[i - 1, j - 1] = 1.0
        return m

    r2 = np.sqrt(2.0)
    sym_pairs = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
    anti_pairs = ((2, 1), (4, 1), (4, 2), (3, 1), (3, 2), (4, 3))
    basis = [(unit(i, j) + unit(j, i)) / r2 for i, j in sym_pairs]
    basis += [1j * (unit(i, j) - unit(j, i)) / r2 for i, j in anti_pairs]
    basis += [unit(k, k) for k in (1, 2, 3, 4)]
    return np.stack(basis)


# row i is Q_i flattened, so each basis change is a single 16x16 product
_QF = operator_basis().reshape(16, 16)
# QF = diag(d) P with P real, as each Q_i is real or imaginary (d_i = 1 or i)
_QF_REAL = _QF.real + _QF.imag
_QF_PHASE = np.where(_QF.imag.any(axis=1), 1j, 1.0)
_DD = np.outer(_QF_PHASE, _QF_PHASE)   # d d^t: entrywise 1, i or -1
# rows 2k, 2k + 1 of _QFT_RI are Re, -Im of QF^t[k]: X seen as floats times it is Re(X QF^t)
_QFT_RI = np.stack([_QF.T.real, -_QF.T.imag], axis=1).reshape(32, 16)
# a filtered odd mixture's rho_tilde is diagonal on coefficient_table's pairs
_RT_BASIS = pair_rotation(((12, 13), (14, 15), (1, 4), (8, 9), (2, 3), (7, 10)))


def _realign(m: np.ndarray, axes: tuple[int, int, int, int]) -> np.ndarray:
    # permute the four 4-dimensional indices of each 16x16 matrix of a stack
    m4 = m.reshape(m.shape[:-2] + (4, 4, 4, 4))
    return np.moveaxis(m4, [a - 4 for a in axes], range(-4, 0)).reshape(m.shape)


def correlation_matrix(rho: np.ndarray) -> np.ndarray:
    """Real 16x16 matrix of expectations Tr(rho Q_i (x) Q_j), per matrix of a
    stack of shape (..., 16, 16).

    Tr(rho Q_i (x) Q_j) = sum rho[(p,q),(r,s)] Q_i[r,p] Q_j[s,q]: with rho realigned into
    X[(r,p),(s,q)], QF X QF^t = d d^t * S with S = P X P^t, real products for a real rho.
    """
    rho = np.asarray(rho)
    if rho.shape[-2:] != (16, 16):
        raise ValueError("expected a 16x16 operator")
    s = _QF_REAL @ _realign(rho, (2, 0, 3, 1)) @ _QF_REAL.T
    rt, im = s * _DD.real, s * _DD.imag   # Re and Im of d d^t * S for a real S
    if np.iscomplexobj(s):
        rt, im = rt.real - im.imag, rt.imag + im.real   # from the parts of a complex S
    residue = float(np.max(np.abs(im)))
    if residue > HERMITIAN_TOL:
        raise ValueError(f"imaginary residue {residue:.3e} signals a non-Hermitian input")
    return rt


@dataclass(frozen=True)
class WitnessCoefficients:
    """Optimal coefficient matrix with its guaranteed detection value.

    A has singular values equal to one on the range of the correlation matrix
    and zero on its kernel; min_value = 1 - Tr sqrt(rho_tilde^t rho_tilde) is
    the guaranteed minimum of Tr(W rho) for the generating state.
    """

    A: np.ndarray
    min_value: float


def witness_operator(A: np.ndarray) -> np.ndarray:
    """Assemble W = I + sum_ij A_ij Q_i (x) Q_j as a dense 16x16 matrix, per
    coefficient matrix of a stack; the inverse realignment of
    ``correlation_matrix``, so Tr(W rho) = 1 + <A, rho_tilde>."""
    A = np.asarray(A, dtype=float)
    if A.shape[-2:] != (16, 16):
        raise ValueError("coefficient matrix must be 16x16")
    return np.eye(16, dtype=complex) + _realign(_QF.T @ A @ _QF, (0, 2, 1, 3))


def kkt_witness(rho: np.ndarray) -> tuple[WitnessCoefficients, np.ndarray]:
    """Optimal witness for a given density matrix, via the correlation-matrix SVD.

    The coefficient matrix is -U V^t over the singular directions above
    RANK_TOL (the polar sign factor of rho_tilde) and zero on the kernel;
    kernel directions contribute nothing to Tr(W rho) and leaving them at
    zero keeps sigma_max(A) <= 1.  A correlation matrix that vanishes
    entirely yields the non-detecting W = I with min_value 1.
    """
    rt = correlation_matrix(rho)
    u, sv, vt = np.linalg.svd(rt)
    keep = sv > RANK_TOL
    A = -(u[:, keep] @ vt[keep, :]) if keep.any() else np.zeros((16, 16))
    return WitnessCoefficients(A=A, min_value=1.0 - float(sv.sum())), witness_operator(A)


def witness_min_value(rho: np.ndarray) -> np.ndarray:
    """min Tr(W rho) = 1 - Tr sqrt(rho_tilde^t rho_tilde) of the optimal witness, per matrix
    of a stack: ``kkt_witness``'s min_value, as 1 - sum |diag(V^t rho_tilde V)| where 16 times
    the off-diagonal's norm certifies it (Weyl, per singular value), else by a dense SVD."""
    return 1.0 - np.abs(basis_spectrum(lambda m: np.linalg.svd(m, compute_uv=False),
                                       correlation_matrix(rho), _RT_BASIS, 16.0)).sum(axis=-1)


_B_SIGNS = np.array([[1, 1, 1, 1, 0, 0, 0, 0], [0, 0, 0, 0, 1, 1, 1, 1],
                     [1, -1, -1, 1, 0, 0, 0, 0], [0, 0, 0, 0, 1, -1, 1, -1],
                     [1, -1, 1, -1, 0, 0, 0, 0], [0, 0, 0, 0, 1, -1, -1, 1],
                     [1, 1, -1, -1, 0, 0, 0, 0], [0, 0, 0, 0, 1, 1, -1, -1]], dtype=float)


def b_coefficients(weights: MixtureWeights) -> np.ndarray:
    """The eight signed weight combinations b_k = sum_j _B_SIGNS[k-1, j] q_(2j+1)
    entering the closed forms, one (8,) vector per weight vector of a stack."""
    if weights.parity != "odd":
        raise ValueError("b coefficients are defined for odd-parity weights")
    # summed in index order, q1 first: a matmul may reorder, and so round, the sums
    return sum(weights.q[..., 2 * k, None] * _B_SIGNS[:, k] for k in range(8))


def _pair_signs(b_sum: float, b_diff: float, group: str) -> tuple[float, float]:
    """Signs of a coupled 2x2 block's two eigenvalues, with tie detection.

    A block [[x, y], [y, x]] has eigenvalues proportional to b_sum and b_diff.
    If exactly one of them vanishes the optimal coefficients are no longer
    integer-valued and the closed-form table does not apply.
    """
    sum_zero, diff_zero = abs(b_sum) <= TIE_TOL, abs(b_diff) <= TIE_TOL
    if sum_zero and diff_zero:
        return 0.0, 0.0
    if sum_zero or diff_zero:
        raise TieError(f"tied coefficients in group {group}: "
                       f"sum={b_sum!r}, diff={b_diff!r}")
    return float(np.sign(b_sum)), float(np.sign(b_diff))


def coefficient_table(weights: MixtureWeights) -> np.ndarray:
    """Closed-form optimal coefficient matrix for a rest-frame odd mixture.

    Agrees with ``kkt_witness`` on the range of the correlation matrix (the
    filtered-mixture angles rescale blocks by positive factors, so the same
    table is optimal at any angles).  Raises ``TieError`` when a required
    sign is undefined; the SVD path remains the authoritative constructor
    there.
    """
    b1, b2, b3, b4, b5, b6, b7, b8 = b_coefficients(weights)
    A = np.zeros((16, 16))

    # decoupled single entries: symmetric and antisymmetric (1,2), (3,4)
    if abs(b3 + b4) > TIE_TOL:
        A[0, 0] = A[5, 5] = -np.sign(b3 + b4)     # Q1, Q6
    if abs(b3 - b4) > TIE_TOL:
        A[6, 6] = A[11, 11] = np.sign(b3 - b4)    # Q7, Q12

    # coupled 2x2 blocks (i, j, sign), checked for ties in this order:
    # b1/b2 couples the diagonal units (Q13,Q14) and (Q15,Q16); b5/b6 the
    # symmetric (1,3)/(2,4) pair (Q2,Q5) and its antisymmetric mirror (Q10,Q9);
    # b7/b8 the symmetric (1,4)/(2,3) pair (Q3,Q4) and its mirror (Q8,Q11)
    for b_sum, b_diff, group, blocks in (
            (b1 + b2, b1 - b2, "b1/b2", ((12, 13, -1.0), (14, 15, -1.0))),
            (b5 + b6, b5 - b6, "b5/b6", ((1, 4, -1.0), (9, 8, +1.0))),
            (b7 + b8, b7 - b8, "b7/b8", ((2, 3, -1.0), (7, 10, +1.0)))):
        sp, sm = _pair_signs(b_sum, b_diff, group)
        for i, j, sign in blocks:
            A[i, i] = A[j, j] = sign * (sp + sm) / 2
            A[i, j] = A[j, i] = sign * (sp - sm) / 2
    return A


def detect(W: np.ndarray, rho: np.ndarray) -> float:
    """Tr(W rho); negative values certify entanglement of rho."""
    W, rho = np.asarray(W), np.asarray(rho)
    if W.shape != rho.shape:
        raise ValueError(f"dimension mismatch: {W.shape} vs {rho.shape}")
    return float(np.einsum("ij,ji->", W, rho).real)


def _haar_states(rng: np.random.Generator, samples: int) -> np.ndarray:
    z = rng.normal(size=(samples, 4)) + 1j * rng.normal(size=(samples, 4))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def random_product_states(samples: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Haar-random pure single-particle state pairs, shapes (samples, 4) each."""
    rng = np.random.default_rng(seed)
    return _haar_states(rng, samples), _haar_states(rng, samples)


def _expectations(states: np.ndarray) -> np.ndarray:
    """<s|Q_q|s> for each row s of an (n, 4) stack: flattened s* s^t times QF^t."""
    return (states.conj()[:, :, None] * states[:, None, :]).reshape(-1, 16).view(float) @ _QFT_RI


def _partner_matrices(v: np.ndarray) -> np.ndarray:
    """sum_q v_q Q_q for each row of a real (n, 16) stack, shape (n, 4, 4)."""
    return (v @ _QF.view(float)).view(complex).reshape(-1, 4, 4)


def _above(m: np.ndarray, x: float) -> np.ndarray:
    """Where m - x I has four positive unpivoted LDL^H pivots, per matrix of m."""
    with np.errstate(all="ignore"):
        a = {(i, j): m[:, i, j] - x * (i == j) for i in range(4) for j in range(i, 4)}
        for k in range(3):
            for i in range(k + 1, 4):
                l = a[k, i].conj() / a[k, k].real
                for j in range(i, 4):
                    a[i, j] -= l * a[k, j]
    return np.logical_and.reduce([a[k, k].real > 0 for k in range(4)])


def separability_floor_check(A: np.ndarray, samples: int = 100_000, seed: int = 0,
                             optimize_partner: bool = True) -> float:
    """Worst sampled value of Tr(W rho_s) over pure product states.

    With ``optimize_partner`` the second party is chosen adversarially for
    each Haar-sampled first party of ``random_product_states`` (an exact
    eigenvalue minimization; the second party is not drawn), which reaches the
    true contact point of a tight witness; plain pair sampling leaves a gap of
    order samples**(-1/3).  The first-step guarantee predicts 1 - sigma_max(A).

    Past the first _FLOOR_FIRST = 1024 partner matrices, which are solved whole,
    ``eigvalsh`` skips each M, chunk by chunk, with positive LDL^H pivots of
    M - (best + margin) I, margin = FLOOR_CERT_TOL (1 + |best| + max|v|); as that
    dwarfs both rounding errors, the floor is bitwise a whole-stack ``eigvalsh``'s.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    A = np.asarray(A, dtype=float)
    rng = np.random.default_rng(seed)
    v = _expectations(_haar_states(rng, samples)) @ A
    if optimize_partner:
        # the partner sees sum_q v_q Q_q; its best state gives the lowest eigenvalue
        m = _partner_matrices(v)
        best = np.linalg.eigvalsh(m[:_FLOOR_FIRST])[:, 0].min()
        scale = 1.0 + max(v.max(), -v.min())
        for lo in range(_FLOOR_FIRST, len(m), _FLOOR_CHUNK):
            chunk = m[lo:lo + _FLOOR_CHUNK]
            unsure = ~_above(chunk, best + FLOOR_CERT_TOL * (scale + abs(best)))
            flat = 2 * unsure.sum() > len(chunk)   # then solve the rest whole
            best = np.linalg.eigvalsh(m[lo:] if flat else chunk[unsure])[:, 0].min(initial=best)
            if flat:
                break
        return float(1.0 + best)
    return float(1.0 + (v * _expectations(_haar_states(rng, samples))).sum(axis=1).min())
