import numpy as np
from numpy.testing import assert_allclose

from conftest import random_density, random_hermitian
from doew import (build_mixture, correlation_matrix, hs_distance, partial_trace,
                  partial_transpose, phi_state, MixtureWeights)


def unit_matrix(i, j, dim=2):
    m = np.zeros((dim, dim), dtype=complex)
    m[i, j] = 1.0
    return m


def test_partial_transpose_involution_and_trace(rng):
    for _ in range(20):
        m = random_hermitian(rng, 16)
        for party in ("A", "B"):
            pt = partial_transpose(m, (4, 4), party)
            assert_allclose(partial_transpose(pt, (4, 4), party), m, atol=1e-14)
            assert abs(np.trace(pt) - np.trace(m)) < 1e-12
            assert np.max(np.abs(pt - pt.conj().T)) < 1e-12


def test_partial_transpose_product_state(rng):
    ra, rb = random_density(rng, 4), random_density(rng, 4)
    got = partial_transpose(np.kron(ra, rb), (4, 4), "A")
    assert_allclose(got, np.kron(ra.T, rb), atol=1e-14)


def test_partial_transpose_phi1_negative_eigenvalue():
    v = phi_state(1)
    rho = np.outer(v, v.conj())
    spectrum = np.linalg.eigvalsh(partial_transpose(rho))
    assert abs(spectrum.min() + 0.25) < 1e-12


def test_partial_trace_product_recovery(rng):
    for _ in range(100):
        ra, rb = random_density(rng, 4), random_density(rng, 4)
        rho = np.kron(ra, rb)
        assert_allclose(partial_trace(rho, (4, 4), "B"), ra, atol=1e-12)
        assert_allclose(partial_trace(rho, (4, 4), "A"), rb, atol=1e-12)


def test_partial_trace_preserves_trace(rng):
    rho = random_density(rng, 16)
    for party in ("A", "B"):
        assert abs(np.trace(partial_trace(rho, (4, 4), party)) - 1.0) < 1e-12


def test_partial_trace_phi1_maximally_mixed():
    v = phi_state(1)
    red = partial_trace(np.outer(v, v.conj()), (4, 4), "B")
    assert_allclose(red, np.eye(4) / 4, atol=1e-14)


def test_hs_norm():
    # the Hilbert-Schmidt norm of m is its distance to the zero matrix
    assert abs(hs_distance(np.eye(4), 0 * np.eye(4)) - 2.0) < 1e-14
    assert hs_distance(np.zeros((3, 3)), np.zeros((3, 3))) == 0.0
    assert abs(hs_distance(unit_matrix(0, 1), 0 * unit_matrix(0, 1)) - 1.0) < 1e-14


def test_trace_norm_equals_sqrt_trace(rng):
    for _ in range(100):
        m = rng.normal(size=(6, 6))
        sqrt_trace = np.sqrt(np.linalg.eigvalsh(m.T @ m).clip(0)).sum()
        assert abs(np.linalg.svd(m, compute_uv=False).sum() - sqrt_trace) < 1e-9


def test_trace_norm_of_pure_state_correlation():
    rho = build_mixture(MixtureWeights.odd({1: 1.0}))
    # 1 - Tr sqrt equals the optimal witness value -3 for this state
    sv = np.linalg.svd(correlation_matrix(rho), compute_uv=False)
    assert abs(sv.sum() - 4.0) < 1e-10
