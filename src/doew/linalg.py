"""Dense complex linear-algebra kernel for small bipartite operators.

Pure functions over numpy arrays.  These routines double as the brute-force
oracles that every closed-form result elsewhere in the package is checked
against, so they stay deliberately simple: eigendecompositions and SVDs on
dense matrices of dimension at most 16.
"""

from __future__ import annotations

import numpy as np

# Hermiticity is enforced at operation boundaries within this tolerance.
HERMITIAN_TOL = 1e-12

# psd_sqrt clamps eigenvalues in (-PSD_CLAMP, PSD_CLAMP) to zero; an
# eigenvalue below -NEGATIVE_EIG_TOL means the input is genuinely not PSD.
PSD_CLAMP = 1e-10
NEGATIVE_EIG_TOL = 1e-8


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose (of each matrix in a stack)."""
    return np.swapaxes(np.asarray(m), -1, -2).conj()


def hermitian_deviation(m: np.ndarray) -> float:
    """Largest entrywise deviation of m (or of a stack) from its conjugate transpose."""
    m = np.asarray(m)
    return float(np.max(np.abs(m - dagger(m)))) if m.size else 0.0


def require_hermitian(m: np.ndarray, tol: float = HERMITIAN_TOL) -> np.ndarray:
    """m as a complex array, checked Hermitian matrix by matrix."""
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    dev = hermitian_deviation(m)
    if dev > tol:
        raise ValueError(f"matrix is not Hermitian (deviation {dev:.3e} > {tol:.0e})")
    return m


def allclose_matrix(a: np.ndarray, b: np.ndarray, tol: float = 1e-10) -> bool:
    """Entrywise comparison with an explicit absolute tolerance."""
    return bool(np.allclose(np.asarray(a), np.asarray(b), rtol=0.0, atol=tol))


def tensor_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product; (a (x) b)(c (x) d) = ac (x) bd."""
    return np.kron(np.asarray(a), np.asarray(b))


def _split(rho: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    da, db = dims
    rho = np.asarray(rho)
    if rho.shape[-2:] != (da * db, da * db):
        raise ValueError(f"operator shape {rho.shape} does not match dims {dims}")
    return rho.reshape(rho.shape[:-2] + (da, db, da, db))


def partial_transpose(rho: np.ndarray, dims: tuple[int, int] = (4, 4),
                      party: str = "A") -> np.ndarray:
    """Partial transpose over one party of a bipartite operator, or of each
    operator in a stack of shape (..., da*db, da*db).

    Involutive, trace-preserving, and Hermiticity-preserving.
    """
    r4 = _split(rho, dims)
    if party == "A":
        out = np.swapaxes(r4, -4, -2)
    elif party == "B":
        out = np.swapaxes(r4, -3, -1)
    else:
        raise ValueError("party must be 'A' or 'B'")
    return out.reshape(np.shape(rho))


def partial_trace(rho: np.ndarray, dims: tuple[int, int] = (4, 4),
                  party: str = "B") -> np.ndarray:
    """Trace out the named party; the result lives on the surviving party."""
    r4 = _split(rho, dims)
    if party == "B":
        return np.einsum("ikjk->ij", r4)
    if party == "A":
        return np.einsum("kikj->ij", r4)
    raise ValueError("party must be 'A' or 'B'")


def hermitian_eigensystem(op: np.ndarray,
                          tol: float = HERMITIAN_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvector columns.

    Degenerate subspaces carry no ordering guarantee; compare spectra as
    sorted multisets.
    """
    op = require_hermitian(op, tol)
    return np.linalg.eigh(op)


def psd_sqrt(op: np.ndarray) -> np.ndarray:
    """Positive-semidefinite square root of a PSD Hermitian matrix.

    Eigenvalues slightly below zero (down to -NEGATIVE_EIG_TOL) are treated
    as rounding noise and clamped; anything lower raises.
    """
    vals, vecs = hermitian_eigensystem(op)
    if vals.min(initial=0.0) < -NEGATIVE_EIG_TOL:
        raise ValueError(f"matrix is not PSD (min eigenvalue {vals.min():.3e})")
    vals = np.where(vals < PSD_CLAMP, 0.0, vals)
    root = (vecs * np.sqrt(vals)) @ dagger(vecs)
    return 0.5 * (root + dagger(root))


def hs_norm(m: np.ndarray) -> float:
    """Hilbert-Schmidt (Frobenius) norm sqrt(Tr(m^dag m)), per matrix of a stack."""
    return np.linalg.norm(np.asarray(m), axis=(-2, -1))


def trace_norm_sym(m: np.ndarray) -> float:
    """Sum of singular values of a real or complex square matrix."""
    return float(np.linalg.svd(np.asarray(m), compute_uv=False).sum())
