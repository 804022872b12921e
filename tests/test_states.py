import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import random_odd_weights
from doew import (MixtureWeights, build_mixture, one_particle_bell, phi_state,
                  ppt_spectrum, two_particle_bell, two_particle_momenta)

SQ2 = 1 / np.sqrt(2)


def test_one_particle_bell_vectors():
    assert_allclose(one_particle_bell(1), [SQ2, 0, 0, SQ2], atol=1e-15)
    assert_allclose(one_particle_bell(4), [0, -SQ2, SQ2, 0], atol=1e-15)


def test_one_particle_bell_orthonormal():
    vs = [one_particle_bell(i) for i in range(1, 5)]
    gram = np.array([[np.vdot(a, b) for b in vs] for a in vs])
    assert_allclose(gram, np.eye(4), atol=1e-15)


def test_one_particle_bell_range():
    with pytest.raises(ValueError):
        one_particle_bell(5)


def test_psi_plus_12_support():
    v = two_particle_bell("psi+", (1, 2))
    expected = np.zeros(16)
    expected[0] = expected[15] = SQ2
    assert_allclose(v, expected, atol=1e-15)


def test_phi_minus_antisymmetric_under_swap():
    v = two_particle_bell("phi-", (1, 2)).reshape(4, 4)
    assert_allclose(v, -v.T, atol=1e-15)


def test_bell_family_orthonormal():
    family = [two_particle_bell("psi+", (1, 2)), two_particle_bell("psi-", (1, 2)),
              two_particle_bell("psi+", (3, 4)), two_particle_bell("psi-", (3, 4))]
    for pair in ((1, 2), (3, 4), (1, 3), (2, 4), (1, 4), (2, 3)):
        family += [two_particle_bell("phi+", pair), two_particle_bell("phi-", pair)]
    gram = np.array([[np.vdot(a, b) for b in family] for a in family])
    assert_allclose(gram, np.eye(16), atol=1e-14)


def test_invalid_pair_and_kind():
    with pytest.raises(ValueError):
        two_particle_bell("psi+", (2, 1))
    with pytest.raises(ValueError):
        two_particle_bell("chi+", (1, 2))


def test_phi1_bell_angle_amplitudes():
    v = phi_state(1, np.pi / 4)
    expected = np.zeros(16)
    expected[[0, 5, 10, 15]] = 0.5
    assert_allclose(v, expected, atol=1e-15)


def test_phi_gram_identity(rng):
    for theta in [0.3, *rng.uniform(-np.pi, np.pi, 20)]:
        vs = [phi_state(i, theta) for i in range(1, 17)]
        gram = np.array([[np.vdot(a, b) for b in vs] for a in vs])
        assert np.max(np.abs(gram - np.eye(16))) < 1e-12


def test_phi3_collapses_at_zero_angle():
    assert_allclose(phi_state(3, 0.0), two_particle_bell("psi+", (3, 4)), atol=1e-15)


def test_phi_index_range():
    with pytest.raises(ValueError):
        phi_state(0)
    with pytest.raises(ValueError):
        phi_state(17)


def test_type_classification_at_bell_angle():
    # odd states live on equal-momentum kets, even states use cross-momentum kets
    for i in range(1, 17):
        v = phi_state(i, np.pi / 4)
        support = np.nonzero(np.abs(v) > 1e-12)[0]
        same = [k for k in support
                if two_particle_momenta(k)[0] == two_particle_momenta(k)[1]]
        if i % 2 == 1:
            assert len(same) == len(support), f"state {i} leaks across momenta"
        else:
            assert len(same) < len(support), f"state {i} has no cross-momentum ket"


def test_weights_validation():
    with pytest.raises(ValueError):
        MixtureWeights(np.full(16, 1 / 15.0))
    with pytest.raises(ValueError):
        MixtureWeights.from_mapping({1: 1.5, 3: -0.5}, parity="odd")
    with pytest.raises(ValueError):
        MixtureWeights.from_mapping({2: 1.0}, parity="odd")
    with pytest.raises(ValueError):
        MixtureWeights.from_mapping({1: 1.0}, parity="bogus")
    with pytest.raises(ValueError):
        MixtureWeights.from_mapping({0: 1.0})
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            MixtureWeights.from_mapping({1: bad, 3: 1.0})
    w = MixtureWeights.from_mapping({1: 0.5 + 4e-13, 3: 0.5}, parity="odd")
    assert abs(w.q.sum() - 1.0) < 1e-15  # renormalized exactly


def test_build_mixture_pure_limit():
    v = phi_state(1)
    rho = build_mixture(MixtureWeights.odd({1: 1.0}))
    assert_allclose(rho, np.outer(v, v.conj()), atol=1e-14)


def test_build_mixture_uniform_odd_spectrum():
    rho = build_mixture(MixtureWeights.odd({i: 1 / 8 for i in range(1, 17, 2)}))
    spectrum = np.sort(np.linalg.eigvalsh(rho))
    assert_allclose(spectrum, [0.0] * 8 + [1 / 8] * 8, atol=1e-13)


def test_build_mixture_recovers_weights(rng):
    w = random_odd_weights(rng)
    rho = build_mixture(w)
    assert abs(np.trace(rho).real - 1.0) < 1e-12
    assert np.linalg.eigvalsh(rho).min() > -1e-12
    for i in range(1, 17):
        v = phi_state(i)
        assert abs(np.vdot(v, rho @ v).real - w.weight(i)) < 1e-12


def test_edge_configuration_is_ppt():
    mapping = {1: 0.25, 7: 0.25}
    mapping.update({i: 1 / 12 for i in (3, 5, 9, 11, 13, 15)})
    rho = build_mixture(MixtureWeights.odd(mapping))
    assert ppt_spectrum(rho, "A").min() > -1e-10
    assert ppt_spectrum(rho, "B").min() > -1e-10
