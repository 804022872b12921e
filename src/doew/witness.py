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

from .states import MixtureWeights

RANK_TOL = 1e-10
IMAG_RESIDUE_TOL = 1e-10
TIE_TOL = 1e-12


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


_BASIS = operator_basis()
# row i is Q_i flattened, so each basis change is a single 16x16 product
_QF = _BASIS.reshape(16, 16)


def _realign(m: np.ndarray, axes: tuple[int, int, int, int]) -> np.ndarray:
    # permute the four 4-dimensional indices of each 16x16 matrix of a stack
    m4 = m.reshape(m.shape[:-2] + (4, 4, 4, 4))
    return np.moveaxis(m4, [a - 4 for a in axes], range(-4, 0)).reshape(m.shape)


def correlation_matrix(rho: np.ndarray) -> np.ndarray:
    """Real 16x16 matrix of expectations Tr(rho Q_i (x) Q_j), per matrix of a
    stack of shape (..., 16, 16).

    Tr(rho Q_i (x) Q_j) = sum rho[(p,q),(r,s)] Q_i[r,p] Q_j[s,q], so realigning
    rho into X[(r,p),(s,q)] makes it the matrix product QF X QF^t.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (16, 16):
        raise ValueError("expected a 16x16 operator")
    rt = _QF @ _realign(rho, (2, 0, 3, 1)) @ _QF.T
    residue = float(np.max(np.abs(rt.imag)))
    if residue > IMAG_RESIDUE_TOL:
        raise ValueError(f"imaginary residue {residue:.3e} signals a non-Hermitian input")
    return rt.real


@dataclass(frozen=True)
class WitnessCoefficients:
    """Optimal coefficient matrix with its Lagrange data.

    A has singular values equal to one on the range of the correlation matrix
    and zero on its kernel; min_value = 1 - Tr sqrt(rho_tilde^t rho_tilde) is
    the guaranteed minimum of Tr(W rho) for the generating state.
    """

    A: np.ndarray
    lagrange_Z: np.ndarray
    min_value: float


def witness_operator(A: np.ndarray) -> np.ndarray:
    """Assemble W = I + sum_ij A_ij Q_i (x) Q_j as a dense 16x16 matrix, per
    coefficient matrix of a stack; the inverse realignment of
    ``correlation_matrix``, so Tr(W rho) = 1 + <A, rho_tilde>."""
    A = np.asarray(A, dtype=float)
    if A.shape[-2:] != (16, 16):
        raise ValueError("coefficient matrix must be 16x16")
    return np.eye(16, dtype=complex) + _realign(_QF.T @ A @ _QF, (0, 2, 1, 3))


def kkt_witness(rho: np.ndarray,
                rank_tol: float = RANK_TOL) -> tuple[WitnessCoefficients, np.ndarray]:
    """Optimal witness for a given density matrix, via the correlation-matrix SVD.

    The coefficient matrix is -U V^t over the singular directions above
    rank_tol (the polar sign factor of rho_tilde) and zero on the kernel;
    kernel directions contribute nothing to Tr(W rho) and leaving them at
    zero keeps sigma_max(A) <= 1.  A correlation matrix that vanishes
    entirely yields the non-detecting W = I with min_value 1.
    """
    rt = correlation_matrix(rho)
    u, sv, vt = np.linalg.svd(rt)
    keep = sv > rank_tol
    A = -(u[:, keep] @ vt[keep, :]) if keep.any() else np.zeros((16, 16))
    z = 0.5 * (vt.T * sv) @ vt
    min_value = 1.0 - float(sv.sum())
    coeffs = WitnessCoefficients(A=A, lagrange_Z=z, min_value=min_value)
    return coeffs, witness_operator(A)


def witness_min_value(rho: np.ndarray) -> np.ndarray:
    """min Tr(W rho) = 1 - Tr sqrt(rho_tilde^t rho_tilde) of the optimal witness,
    per matrix of a stack; ``kkt_witness``'s min_value without building W."""
    return 1.0 - np.linalg.svd(correlation_matrix(rho), compute_uv=False).sum(axis=-1)


def b_coefficients(weights: MixtureWeights) -> np.ndarray:
    """The eight signed weight combinations entering the closed forms.

    b1, b3, b5, b7 combine (q1, q3, q5, q7) with sign patterns
    (+ + + +), (+ - - +), (+ - + -), (+ + - -); b2, b4, b6, b8 combine
    (q9, q11, q13, q15) with (+ + + +), (+ - + -), (+ - - +), (+ + - -).
    """
    if weights.parity != "odd":
        raise ValueError("b coefficients are defined for odd-parity weights")
    q = weights.weight
    q1, q3, q5, q7 = q(1), q(3), q(5), q(7)
    q9, q11, q13, q15 = q(9), q(11), q(13), q(15)
    return np.array([
        q1 + q3 + q5 + q7,
        q9 + q11 + q13 + q15,
        q1 - q3 - q5 + q7,
        q9 - q11 + q13 - q15,
        q1 - q3 + q5 - q7,
        q9 - q11 - q13 + q15,
        q1 + q3 - q5 - q7,
        q9 + q11 - q13 - q15,
    ])


def _pair_signs(b_sum: float, b_diff: float, group: str,
                tol: float) -> tuple[float, float]:
    """Signs of a coupled 2x2 block's two eigenvalues, with tie detection.

    A block [[x, y], [y, x]] has eigenvalues proportional to b_sum and b_diff.
    If exactly one of them vanishes the optimal coefficients are no longer
    integer-valued and the closed-form table does not apply.
    """
    sum_zero, diff_zero = abs(b_sum) <= tol, abs(b_diff) <= tol
    if sum_zero and diff_zero:
        return 0.0, 0.0
    if sum_zero or diff_zero:
        raise TieError(f"tied coefficients in group {group}: "
                       f"sum={b_sum!r}, diff={b_diff!r}")
    return float(np.sign(b_sum)), float(np.sign(b_diff))


def coefficient_table(weights: MixtureWeights, tol: float = TIE_TOL) -> np.ndarray:
    """Closed-form optimal coefficient matrix for a rest-frame odd mixture.

    Agrees with ``kkt_witness`` on the range of the correlation matrix (the
    filtered-mixture angles rescale blocks by positive factors, so the same
    table is optimal at any angles).  Raises ``TieError`` when a required
    sign is undefined; the SVD path remains the authoritative constructor
    there.
    """
    b1, b2, b3, b4, b5, b6, b7, b8 = b_coefficients(weights)
    A = np.zeros((16, 16))

    # diagonal-unit block: pairs (Q13,Q14) and (Q15,Q16) couple through b1, b2
    sp, sm = _pair_signs(b1 + b2, b1 - b2, "b1/b2", tol)
    for i, j in ((12, 13), (14, 15)):
        A[i, i] = A[j, j] = -(sp + sm) / 2
        A[i, j] = A[j, i] = -(sp - sm) / 2

    # decoupled single entries: symmetric and antisymmetric (1,2), (3,4)
    if abs(b3 + b4) > tol:
        A[0, 0] = A[5, 5] = -np.sign(b3 + b4)     # Q1, Q6
    if abs(b3 - b4) > tol:
        A[6, 6] = A[11, 11] = np.sign(b3 - b4)    # Q7, Q12

    # coupled pairs: symmetric (1,3)/(2,4) and the mirroring antisymmetric pair
    sp, sm = _pair_signs(b5 + b6, b5 - b6, "b5/b6", tol)
    for i, j, sign in ((1, 4, -1.0), (9, 8, +1.0)):   # (Q2,Q5) and (Q10,Q9)
        A[i, i] = A[j, j] = sign * (sp + sm) / 2
        A[i, j] = A[j, i] = sign * (sp - sm) / 2

    # coupled pairs: symmetric (1,4)/(2,3) and the mirroring antisymmetric pair
    sp, sm = _pair_signs(b7 + b8, b7 - b8, "b7/b8", tol)
    for i, j, sign in ((2, 3, -1.0), (7, 10, +1.0)):  # (Q3,Q4) and (Q8,Q11)
        A[i, i] = A[j, j] = sign * (sp + sm) / 2
        A[i, j] = A[j, i] = sign * (sp - sm) / 2
    return A


def detect(W: np.ndarray, rho: np.ndarray) -> float:
    """Tr(W rho); negative values certify entanglement of rho."""
    W = np.asarray(W)
    rho = np.asarray(rho)
    if W.shape != rho.shape:
        raise ValueError(f"dimension mismatch: {W.shape} vs {rho.shape}")
    return float(np.einsum("ij,ji->", W, rho).real)


def random_product_states(samples: int, seed: int, dim: int = 4) -> tuple[np.ndarray, np.ndarray]:
    """Haar-random pure state pairs, shapes (samples, dim) each."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(2):
        z = rng.normal(size=(samples, dim)) + 1j * rng.normal(size=(samples, dim))
        out.append(z / np.linalg.norm(z, axis=1, keepdims=True))
    return out[0], out[1]


def separability_floor_check(A: np.ndarray, samples: int = 100_000, seed: int = 0,
                             optimize_partner: bool = True) -> float:
    """Worst sampled value of Tr(W rho_s) over pure product states.

    With ``optimize_partner`` the second party is chosen adversarially for
    each Haar-sampled first-party state (an exact eigenvalue minimization),
    which reaches the true contact point of a tight witness; plain pair
    sampling leaves a gap of order samples**(-1/3).  The first-step guarantee
    predicts a floor of at least 1 - sigma_max(A).
    """
    A = np.asarray(A, dtype=float)
    a, b = random_product_states(samples, seed)
    pa = np.einsum("qij,nj,ni->nq", _BASIS, a, a.conj(), optimize=True).real
    if optimize_partner:
        v = pa @ A
        m = np.einsum("nq,qij->nij", v, _BASIS, optimize=True)
        worst = float(1.0 + np.linalg.eigvalsh(m)[:, 0].min())
    else:
        pb = np.einsum("qij,nj,ni->nq", _BASIS, b, b.conj(), optimize=True).real
        worst = float(1.0 + np.einsum("nq,qr,nr->n", pa, A, pb, optimize=True).min())
    return worst
