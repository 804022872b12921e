import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import random_odd_weights, random_state, random_su2
from doew import (MixtureWeights, boost_mixture, boost_pure, build_mixture,
                  detect, effective_angles, effective_boost_mixture,
                  effective_boost_pure, entropy_pure, phi_state,
                  single_particle_boost_unitary, wigner_half_angle,
                  wigner_matrix, wigner_rotation_oracle)
from oracles import lorentz_wigner_oracle, pauli_sum_matrix, standard_boost_to

EZ = np.array([0.0, 0.0, 1.0])
EY = np.array([0.0, 1.0, 0.0])


def tr1_witness():
    v = phi_state(1)
    return np.eye(16) - 4 * np.outer(v, v.conj())


def test_half_angle_normalization_grid():
    for alpha in np.linspace(0.0, 3.0, 7):
        for delta in np.linspace(0.0, 3.0, 7):
            for chi in np.linspace(0.0, np.pi, 9):
                p_hat = np.array([0.0, np.sin(chi), np.cos(chi)])
                c, v = wigner_half_angle(alpha, EZ, delta, p_hat)
                assert abs(c ** 2 + v @ v - 1.0) < 1e-12


def assert_half_angle_types(c, v):
    # a float and a float64 (3,) array: numpy scalars would slow every later scalar step
    assert type(c) is float and v.dtype == np.float64 and v.shape == (3,)


def test_half_angle_identity_cases():
    # alpha = 0, collinear (parallel and antiparallel) and delta = 0
    for alpha, delta, p_hat in ((0.0, 2.0, EY), (1.3, 2.0, EZ), (1.3, 2.0, -EZ), (1.3, 0.0, EY)):
        c, v = wigner_half_angle(alpha, EZ, delta, p_hat)
        assert c == 1.0 and not v.any()
        assert_half_angle_types(c, v)


def test_half_angle_orthogonal_value():
    # alpha = delta = 1 with orthogonal boost and momentum
    c, v = wigner_half_angle(1.0, EZ, 1.0, EY)
    assert_half_angle_types(c, v)
    assert type(wigner_matrix(c, v).omega) is float
    expected = np.cosh(0.5) ** 2 / np.sqrt(0.5 + 0.5 * np.cosh(1.0) ** 2)
    assert abs(c - expected) < 1e-14
    oc, _ = wigner_rotation_oracle(1.0, EZ, 1.0, EY)
    assert abs(c - oc) < 1e-12


def test_half_angle_input_validation():
    with pytest.raises(ValueError):
        wigner_half_angle(-0.1, EZ, 1.0, EY)
    with pytest.raises(ValueError):
        wigner_half_angle(0.1, np.array([0.0, 0.0, 2.0]), 1.0, EY)


KINEMATIC_CALLS = {
    "wigner_half_angle": lambda e, p: wigner_half_angle(1.0, e, 2.0, p),
    "wigner_rotation_oracle": lambda e, p: wigner_rotation_oracle(1.0, e, 2.0, p),
    "effective_angles": lambda e, p: effective_angles(1.0, e, 2.0, p, 2.0, EY),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("direction", ["e_hat", "p_hat"])
@pytest.mark.parametrize("call", KINEMATIC_CALLS)
def test_non_finite_directions_are_refused(call, direction, bad):
    # a NaN fails every comparison, so a norm check written with > would let it through
    vec = np.array([bad, 0.0, 1.0])
    e, p = (vec, EY) if direction == "e_hat" else (EZ, vec)
    with pytest.raises(ValueError, match=f"{direction} must be a unit vector"):
        KINEMATIC_CALLS[call](e, p)


def test_half_angle_matches_lorentz_oracle(rng):
    for _ in range(100):
        alpha, delta = rng.uniform(0.05, 3.0, 2)
        e = rng.normal(size=3)
        e /= np.linalg.norm(e)
        p = rng.normal(size=3)
        p /= np.linalg.norm(p)
        c, v = wigner_half_angle(alpha, e, delta, p)
        oc, ov = wigner_rotation_oracle(alpha, e, delta, p)
        assert abs(c - oc) < 1e-9
        assert np.max(np.abs(v - ov)) < 1e-9


@pytest.mark.parametrize("alpha", [50.0, 1e6, 1e300])
def test_half_angle_bounded_at_huge_rapidity(alpha):
    p_hat = np.array([0.0, np.sin(2.0), np.cos(2.0)])
    c, v = wigner_half_angle(alpha, EZ, 2.0, p_hat)
    assert np.isfinite(c) and np.isfinite(v).all()
    assert abs(c ** 2 + v @ v - 1.0) < 1e-12
    # tanh(alpha / 2) has saturated to 1: the rotation no longer changes
    c2, v2 = wigner_half_angle(2 * alpha, EZ, 2.0, p_hat)
    assert c2 == c and np.array_equal(v2, v)


@pytest.mark.parametrize("alpha, delta", [(400.0, 2.0), (700.0, 2.0), (800.0, 2.0),
                                          (1e300, 2.0), (1.0, 800.0)])
def test_oracle_rejects_overflowing_rapidities(alpha, delta):
    with pytest.raises(ValueError, match="out of range"):
        wigner_rotation_oracle(alpha, EZ, delta, EY)


def test_spinor_oracle_matches_lorentz_oracle(rng):
    # the 4x4 composition loses 1e-9 to cancellation beyond alpha + delta of about 8
    for _ in range(200):
        total = rng.uniform(0.0, 6.0)
        alpha = rng.uniform(0.0, total)
        e, p = (v / np.linalg.norm(v) for v in rng.normal(size=(2, 3)))
        c, v = lorentz_wigner_oracle(alpha, e, total - alpha, p)
        oc, ov = wigner_rotation_oracle(alpha, e, total - alpha, p)
        assert abs(c - oc) <= 1e-12 and np.max(np.abs(v - ov)) <= 1e-12


def test_standard_boost_rejects_nan():
    with pytest.raises(ValueError, match="on-shell"):
        standard_boost_to(np.array([np.nan, 0.0, 0.0, 0.0]))


def test_wigner_matrix_identity_and_half_turn():
    rot = wigner_matrix(1.0, np.zeros(3))
    assert_allclose(rot.matrix, np.eye(2), atol=1e-15)
    assert rot.omega == 0.0 and type(rot.omega) is float
    rot = wigner_matrix(0.0, np.array([1.0, 0.0, 0.0]))
    assert_allclose(rot.matrix, 1j * np.array([[0, 1], [1, 0]]), atol=1e-15)
    assert abs(rot.omega - np.pi) < 1e-15 and type(rot.omega) is float


@pytest.mark.parametrize("field", ["omega", "axis", "matrix"])
def test_wigner_rotation_fields_cannot_be_assigned(field):
    rot = wigner_matrix(0.6, np.array([0.0, 0.0, 0.8]))
    with pytest.raises(AttributeError):
        setattr(rot, field, None)


def test_wigner_matrix_unitary_det_one(rng):
    for _ in range(20):
        omega = rng.uniform(0, np.pi)
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        rot = wigner_matrix(np.cos(omega / 2), np.sin(omega / 2) * axis)
        d = rot.matrix
        assert np.max(np.abs(d @ d.conj().T - np.eye(2))) < 1e-12
        assert abs(np.linalg.det(d) - 1.0) < 1e-12
        # fields reproduce the matrix
        rebuilt = wigner_matrix(np.cos(rot.omega / 2),
                                np.sin(rot.omega / 2) * rot.axis)
        assert np.max(np.abs(rebuilt.matrix - d)) < 1e-12


def test_wigner_matrix_is_the_pauli_sum_bit_for_bit(rng):
    # boost prints d_matrix, signed zeros included; half angles have cos > 0
    cases = [(0.6, np.array([0.0, -0.0, -0.8])), (0.0, np.array([-0.0, 1.0, 0.0]))]
    for k in range(600):
        e, p = (v / np.linalg.norm(v) for v in rng.normal(size=(2, 3)))
        e, p = [(e, p), (e, e), (e, -e), (EZ, np.array([0.0, -0.6, 0.8])),
                (EZ, np.array([0.0, 0.6, -0.8])), (EY, EZ)][k % 6]
        alpha, delta = rng.uniform(0, 12, 2) * (k % 7 != 0)
        cases.append(wigner_half_angle(alpha, e, delta, p))
    for c, s in cases:
        assert wigner_matrix(c, s).matrix.tobytes() == pauli_sum_matrix(c, s).tobytes()


def test_wigner_matrix_rejects_bad_normalization():
    with pytest.raises(ValueError):
        wigner_matrix(1.0, np.array([0.5, 0.0, 0.0]))


@pytest.mark.parametrize("cos_half, sin_axis", [
    (np.nan, [0.0, 0.0, 0.0]), (1.0, [np.nan, 0.0, 0.0]), (0.0, [0.0, np.nan, 1.0]),
    (np.inf, [0.0, 0.0, 0.0]), (0.0, [0.0, 0.0, -np.inf])])
def test_wigner_matrix_refuses_non_finite_half_angles(cos_half, sin_axis):
    with pytest.raises(ValueError, match="normalization"):
        wigner_matrix(cos_half, np.array(sin_axis))


def test_boost_unitary_blocks(rng):
    u = single_particle_boost_unitary(np.eye(2), np.eye(2))
    assert_allclose(u, np.eye(4), atol=1e-15)
    isx = 1j * np.array([[0, 1], [1, 0]])
    u = single_particle_boost_unitary(np.eye(2), isx)
    assert_allclose(u @ np.eye(4)[2], 1j * np.eye(4)[3], atol=1e-15)
    assert_allclose(u @ np.eye(4)[0], np.eye(4)[0], atol=1e-15)
    for _ in range(10):
        u = single_particle_boost_unitary(random_su2(rng), random_su2(rng))
        assert np.max(np.abs(u @ u.conj().T - np.eye(4))) < 1e-12


def test_boost_pure_basics(rng):
    v = random_state(rng, 16)
    assert_allclose(boost_pure(v, np.eye(4), np.eye(4)), v, atol=1e-15)
    ua = single_particle_boost_unitary(random_su2(rng), random_su2(rng))
    ub = single_particle_boost_unitary(random_su2(rng), random_su2(rng))
    out = boost_pure(v, ua, ub)
    assert abs(np.linalg.norm(out) - 1.0) < 1e-12


def test_boost_preserves_entropy(rng):
    # entanglement entropy is invariant under any local unitary pair
    for _ in range(100):
        v = random_state(rng, 16)
        ua = single_particle_boost_unitary(random_su2(rng), random_su2(rng))
        ub = single_particle_boost_unitary(random_su2(rng), random_su2(rng))
        before = entropy_pure(v).entropy_bits
        after = entropy_pure(boost_pure(v, ua, ub)).entropy_bits
        assert abs(before - after) < 1e-10


def test_boost_preserves_phi2_entropy(rng):
    # the cross-momentum state phi_2 keeps 2 bits under any sector rotations
    d1, d2 = random_su2(rng), random_su2(rng)
    u = single_particle_boost_unitary(d1, d2)
    boosted = boost_pure(phi_state(2), u, u)
    assert abs(entropy_pure(boosted).entropy_bits - 2.0) < 1e-10


def test_boost_mixture_preserves_spectrum(rng):
    w = random_odd_weights(rng)
    rho = build_mixture(w)
    ua = single_particle_boost_unitary(random_su2(rng), random_su2(rng))
    ub = single_particle_boost_unitary(random_su2(rng), random_su2(rng))
    out = boost_mixture(rho, ua, ub)
    assert_allclose(boost_mixture(rho, np.eye(4), np.eye(4)), rho, atol=1e-15)
    assert abs(np.trace(out).real - 1.0) < 1e-12
    assert np.max(np.abs(out - out.conj().T)) < 1e-12
    assert np.linalg.eigvalsh(out).min() > -1e-10
    assert np.max(np.abs(np.linalg.eigvalsh(out) - np.linalg.eigvalsh(rho))) < 1e-10


def test_effective_boost_equal_angles_is_identity(rng):
    w = random_odd_weights(rng)
    rho = build_mixture(w)
    for theta in (0.0, 0.7, 2.4):
        assert_allclose(effective_boost_mixture(rho, theta, theta), rho, atol=1e-12)
    v = phi_state(9)
    out = effective_boost_pure(v, 1.1, 1.1)
    assert np.max(np.abs(out - v)) < 1e-12


def test_effective_boost_detect_increases():
    # distinct sector angles make the witness value strictly less negative
    rho = build_mixture(MixtureWeights.odd({1: 1.0}))
    w = tr1_witness()
    rest = detect(w, rho)
    assert abs(rest + 3.0) < 1e-12
    for t1, t2 in ((0.0, 1.0), (0.5, 2.0), (1.4, 0.2)):
        boosted = detect(w, effective_boost_mixture(rho, t1, t2))
        assert boosted > rest + 1e-6
    # equal rotation angles reproduce the rest-frame value exactly
    assert abs(detect(w, effective_boost_mixture(rho, 1.2, 1.2)) - rest) < 1e-12


def test_even_mixture_invariant_under_effective_boost(rng):
    q = rng.dirichlet(np.ones(8))
    w = MixtureWeights.from_mapping({2 * k + 2: q[k] for k in range(8)},
                                    parity="even")
    rho = build_mixture(w)
    assert_allclose(effective_boost_mixture(rho, 0.9, 2.2), rho, atol=1e-12)


def test_effective_boost_domain_error():
    rho = build_mixture(MixtureWeights.odd({1: 1.0}))
    with pytest.raises(ValueError):
        effective_boost_mixture(rho, np.pi, np.pi)


def test_effective_angles_parallel_particle():
    omega1, omega2 = effective_angles(1.5, EZ, 2.0, EZ, 2.0, EY)
    assert omega1 == 0.0
    assert omega2 > 0.1
