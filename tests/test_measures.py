import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import random_hermitian, random_odd_weights
from doew import (MixtureWeights, build_mixture, detect, doew_from_edge,
                  edge_state, effective_boost_mixture, effective_boost_pure,
                  entropy_formula, entropy_pure, generalized_concurrence,
                  hs_distance, kappa, kkt_witness, phi_state,
                  reduced_eigenvalue_pair, relativistic_witness_value)


def phi1_projector():
    v = phi_state(1)
    return np.outer(v, v.conj())


def tr1_witness():
    return np.eye(16) - 4 * phi1_projector()


def test_kappa_diagonal_and_monotone():
    for theta in (0.0, 0.9, 2.2, 3.0):
        assert abs(kappa(theta, theta) - 0.5) < 1e-14
    values = [kappa(0.0, t2) for t2 in np.linspace(0.0, 3.0, 12)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_kappa_domain_error():
    with pytest.raises(ValueError):
        kappa(np.pi, np.pi)


def test_reduced_pair_sums_to_half(rng):
    for _ in range(20):
        t1, t2 = rng.uniform(0.0, 3.1, 2)
        l1, l2 = reduced_eigenvalue_pair(t1, t2)
        assert abs(l1 + l2 - 0.5) < 1e-14


def test_entropy_product_state():
    v = np.zeros(16, dtype=complex)
    v[0] = 1.0
    report = entropy_pure(v)
    assert abs(report.entropy_bits) < 1e-14


def test_entropy_phi1_is_two_bits():
    report = entropy_pure(phi_state(1))
    assert abs(report.entropy_bits - 2.0) < 1e-10
    assert_allclose(report.eigenvalues, np.full(4, 0.25), atol=1e-12)


def test_entropy_requires_normalization():
    with pytest.raises(ValueError):
        entropy_pure(np.ones(16))


def test_entropy_formula_reference_points():
    assert abs(entropy_formula(0.0, 0.0) - 2.0) < 1e-14
    for theta in np.linspace(0.0, 3.0, 7):
        assert abs(entropy_formula(theta, theta) - 2.0) < 1e-12
    assert entropy_formula(0.0, 2.0) < 2.0


def test_entropy_formula_matches_filtered_state(rng):
    # closed form against the eigensolve of the filtered state, odd family
    for i in (1, 7, 9, 15):
        for _ in range(5):
            t1, t2 = rng.uniform(0.0, 2.9, 2)
            state = effective_boost_pure(phi_state(i), t1, t2)
            assert abs(entropy_pure(state).entropy_bits
                       - entropy_formula(t1, t2)) < 1e-10


def test_entropy_formula_domain_error():
    with pytest.raises(ValueError):
        entropy_formula(np.pi, np.pi)


def test_hs_distance_axioms(rng):
    a = random_hermitian(rng, 8)
    assert hs_distance(a, a) == 0.0
    for _ in range(100):
        x, y, z = (random_hermitian(rng, 6) for _ in range(3))
        assert hs_distance(x, z) <= hs_distance(x, y) + hs_distance(y, z) + 1e-12
        assert abs(hs_distance(x, y) - hs_distance(y, x)) < 1e-12


def test_hs_distance_reference_value():
    d = hs_distance(np.eye(16) / 16, phi1_projector())
    assert abs(d - np.sqrt(15 / 16)) < 1e-12


def test_hs_distance_dimension_mismatch():
    with pytest.raises(ValueError):
        hs_distance(np.eye(4), np.eye(16))


def test_doew_from_edge_reference_chain():
    rho_ent = phi1_projector()
    rho_edge = edge_state()
    w, measure = doew_from_edge(rho_ent, rho_edge)
    # measure equals the Hilbert-Schmidt distance, here sqrt(2/3) exactly
    assert abs(measure - hs_distance(rho_edge, rho_ent)) < 1e-10
    assert abs(measure - np.sqrt(2.0 / 3.0)) < 1e-12
    assert detect(w, rho_ent) < 0
    assert abs(detect(w, rho_edge)) < 1e-10
    # detection sign agrees with the reference witness
    assert detect(tr1_witness(), rho_ent) < 0


def test_doew_from_edge_perturbation(rng):
    rho_edge = edge_state()
    for _ in range(100):
        pert = random_hermitian(rng, 16)
        pert -= np.trace(pert) / 16 * np.eye(16)
        rho_ent = rho_edge + 1e-3 * pert
        w, measure = doew_from_edge(rho_ent, rho_edge)
        assert abs(measure - 1e-3 * np.linalg.norm(pert)) < 1e-10
        assert abs(measure - hs_distance(rho_edge, rho_ent)) < 1e-10


def test_doew_from_edge_coincident():
    rho = edge_state()
    with pytest.raises(ValueError):
        doew_from_edge(rho, rho)


def test_witness_value_pure_phi1():
    w = MixtureWeights.odd({1: 1.0})
    assert abs(relativistic_witness_value(w, 0.0, 0.0) + 3.0) < 1e-14


def test_witness_value_uniform_boundary(rng):
    w = MixtureWeights.odd({i: 1 / 8 for i in range(1, 17, 2)})
    value = relativistic_witness_value(w)
    assert value >= 0.0
    assert abs(value - kkt_witness(build_mixture(w))[0].min_value) < 1e-10


def test_witness_value_monotone_in_theta2():
    w = MixtureWeights.odd({1: 0.5, 3: 0.2, 9: 0.2, 11: 0.1})
    values = [relativistic_witness_value(w, 0.0, t2)
              for t2 in np.linspace(0.0, 3.0, 15)]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_witness_value_never_below_rest_frame(rng):
    # the angle factor peaks at 1/2 on the diagonal, so filtering can only
    # raise the optimal witness value above its rest-frame floor
    grid = np.linspace(0.0, 3.0, 10)
    for _ in range(5):
        while True:
            w = random_odd_weights(rng)
            if w.weight(1) > w.weight(7):
                break
        rest = relativistic_witness_value(w, 0.0, 0.0)
        for t1 in grid:
            for t2 in grid:
                assert relativistic_witness_value(w, t1, t2) >= rest - 1e-12


def test_witness_value_matches_kkt(rng):
    for _ in range(10):
        w = random_odd_weights(rng)
        t1, t2 = rng.uniform(0.0, 2.8, 2)
        rho = effective_boost_mixture(build_mixture(w), t1, t2)
        assert abs(relativistic_witness_value(w, t1, t2)
                   - kkt_witness(rho)[0].min_value) < 1e-9


def test_concurrence_rest_frame():
    report = generalized_concurrence(0.0, 0.0)
    assert abs(report.chi - 3.0) < 1e-14
    assert abs(report.d - 1.0) < 1e-14
    assert abs(report.lambda1 - 0.25) < 1e-14
    assert abs(report.lambda2 - 0.25) < 1e-14
    assert abs(detect(tr1_witness(), phi1_projector()) + report.chi) < 1e-12


def test_concurrence_one_sided_limit():
    report = generalized_concurrence(0.0, np.pi - 1e-4)
    assert report.lambda2 < 1e-8
    assert report.d < 1e-4
    assert abs(report.chi - 1.0) < 1e-4
    state = effective_boost_pure(phi_state(1), 0.0, np.pi - 1e-4)
    rho = np.outer(state, state.conj())
    assert abs(detect(tr1_witness(), rho) + 1.0) < 1e-4


def test_concurrence_matches_witness_on_filtered_phi1(rng):
    for _ in range(15):
        t1, t2 = rng.uniform(0.0, 2.9, 2)
        state = effective_boost_pure(phi_state(1), t1, t2)
        rho = np.outer(state, state.conj())
        report = generalized_concurrence(t1, t2)
        assert abs(-detect(tr1_witness(), rho) - report.chi) < 1e-10


def test_concurrence_inversion_identity(rng):
    for _ in range(20):
        t1, t2 = rng.uniform(0.0, 3.0, 2)
        r = generalized_concurrence(t1, t2)
        hi = 0.5 * (0.5 + 0.5 * np.sqrt(max(0.0, 1 - r.d ** 2)))
        lo = 0.5 * (0.5 - 0.5 * np.sqrt(max(0.0, 1 - r.d ** 2)))
        assert abs(max(r.lambda1, r.lambda2) - hi) < 1e-12
        assert abs(min(r.lambda1, r.lambda2) - lo) < 1e-12
        assert abs(r.lambda1 + r.lambda2 - 0.5) < 1e-14
        assert abs(r.chi - (1 + 2 * r.d)) < 1e-12
