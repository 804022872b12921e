"""Linear-algebra kernel for small bipartite operators, real or complex.

Pure functions over numpy arrays that keep a real operator real.  These
routines double as the brute-force oracles that every closed-form result
elsewhere in the package is checked against, so they stay deliberately simple:
reshapes, transposes, sums and spectra of matrices of dimension at most 16.
"""

from __future__ import annotations

import numpy as np

# Hermiticity is enforced at operation boundaries within this tolerance.
HERMITIAN_TOL = 1e-12


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


def block_spectrum(spectrum, m: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """spectrum (along the last axis) of the blocks m[..., b, b], rows b of the (k, s) partition
    blocks, one contiguous (..., k, s, s) stack, if m is exactly 0 off them; else spectrum(m)."""
    parts = np.ascontiguousarray(m[..., blocks[:, :, None], blocks[:, None, :]])
    if np.count_nonzero(parts) < np.count_nonzero(m):
        return spectrum(m)
    return spectrum(parts).reshape(m.shape[:-1])
