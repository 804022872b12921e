"""Linear-algebra kernel for small bipartite operators, real or complex.

Pure functions over numpy arrays that keep a real operator real: reshapes, transposes,
sums, and spectra of matrices of dimension at most 16, read off the diagonal in a constant
basis where a Weyl bound certifies that, else from LAPACK.  The partial transpose and trace
double as the brute-force oracles that closed forms elsewhere are checked against.
"""

from __future__ import annotations

import numpy as np

# Hermiticity is enforced at operation boundaries within this tolerance.
HERMITIAN_TOL = 1e-12
SPECTRUM_CERT_TOL = 1e-13   # a rotated diagonal stands for a spectrum within this Weyl bound


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose (of each matrix in a stack)."""
    return np.swapaxes(np.asarray(m), -1, -2).conj()


def require_hermitian(m: np.ndarray) -> np.ndarray:
    """m as an array, real or complex as given, checked Hermitian matrix by matrix."""
    m = np.asarray(m)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    dev = float(np.max(np.abs(m - dagger(m)))) if m.size else 0.0
    if dev > HERMITIAN_TOL:
        raise ValueError(f"matrix is not Hermitian (deviation {dev:.3e} > {HERMITIAN_TOL:.0e})")
    return m


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
    axes = {"A": (-4, -2), "B": (-3, -1)}.get(party)
    if axes is None:
        raise ValueError("party must be 'A' or 'B'")
    return np.swapaxes(r4, *axes).reshape(np.shape(rho))


def partial_trace(rho: np.ndarray, dims: tuple[int, int] = (4, 4),
                  party: str = "B") -> np.ndarray:
    """Trace out the named party; the result lives on the surviving party."""
    r4 = _split(rho, dims)
    subscripts = {"B": "ikjk->ij", "A": "kikj->ij"}.get(party)
    if subscripts is None:
        raise ValueError("party must be 'A' or 'B'")
    return np.einsum(subscripts, r4)


def pair_rotation(pairs) -> np.ndarray:
    """Orthogonal 16x16 matrix: columns (e_i +/- e_j)/sqrt(2) on each pair (i, j), else e_k."""
    (i, j), basis = np.array(pairs).T, np.eye(16)
    basis[[i, i, j, j], [i, j, i, j]] = np.sqrt(0.5) * np.array([[1.0], [1.0], [1.0], [-1.0]])
    return basis


def basis_spectrum(spectrum, m: np.ndarray, basis: np.ndarray, weyl: float = 1.0) -> np.ndarray:
    """diag(basis^t m basis) per matrix of a real (..., 16, 16) stack m when weyl times each
    off-diagonal's Frobenius norm, a Weyl bound on the caller's error, is at most
    SPECTRUM_CERT_TOL (a NaN never is); for complex m or any larger bound, spectrum(m), whole."""
    if not np.iscomplexobj(m):
        off = (basis.T @ m @ basis).reshape(m.shape[:-2] + (256,))
        diag = off[..., ::17].copy()
        off[..., ::17] = 0.0
        if np.all(weyl * np.sqrt(np.einsum("...k,...k->...", off, off)) <= SPECTRUM_CERT_TOL):
            return diag
    return spectrum(m)
