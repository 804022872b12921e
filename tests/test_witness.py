import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import random_odd_weights, random_state
from oracles import separability_floor_einsum, separability_floor_two_party
from doew import (MixtureWeights, TieError, b_coefficients, build_mixture,
                  coefficient_table, correlation_matrix, detect, edge_state,
                  effective_boost_mixture, kappa, kkt_witness, operator_basis,
                  partial_transpose, phi_state, random_product_states,
                  separability_floor_check, witness_operator)
from doew.witness import _FLOOR_FIRST, _QF, _partner_matrices

SQ2 = 1 / np.sqrt(2)


def unit4(i, j):
    m = np.zeros((4, 4), dtype=complex)
    m[i - 1, j - 1] = 1.0
    return m


def phi1_projector():
    v = phi_state(1)
    return np.outer(v, v.conj())


def tr1_witness():
    return np.eye(16) - 4 * phi1_projector()


def acceptance_mixture():
    return MixtureWeights.odd({1: 0.4, 3: 0.2, 5: 0.2, 7: 0.2})


# ----------------------------------------------------------------- basis

def test_basis_entries():
    q = operator_basis()
    assert_allclose(q[0], (unit4(1, 2) + unit4(2, 1)) * SQ2, atol=1e-15)
    assert_allclose(q[6], 1j * (unit4(2, 1) - unit4(1, 2)) * SQ2, atol=1e-15)
    assert_allclose(np.sort(np.linalg.eigvalsh(q[6])), [-SQ2, 0, 0, SQ2],
                    atol=1e-14)
    assert_allclose(q[12], unit4(1, 1), atol=1e-15)


def test_basis_orthonormal_and_hermitian():
    q = operator_basis()
    for a in q:
        assert np.max(np.abs(a - a.conj().T)) < 1e-15
    for a in q[:12]:
        assert abs(np.trace(a)) < 1e-15
    gram = np.einsum("aij,bji->ab", q.conj().transpose(0, 2, 1), q).real
    assert_allclose(gram, np.eye(16), atol=1e-14)


# ---------------------------------------------------------- correlation

def test_correlation_maximally_mixed():
    rt = correlation_matrix(np.eye(16) / 16)
    expected = np.zeros((16, 16))
    expected[12:, 12:] = 1 / 16
    assert_allclose(rt, expected, atol=1e-14)


def test_correlation_pure_phi1_trace_norm():
    sv = np.linalg.svd(correlation_matrix(phi1_projector()), compute_uv=False)
    assert abs(sv.sum() - 4.0) < 1e-10


def test_correlation_product_state_rank_one(rng):
    a, b = random_state(rng, 4), random_state(rng, 4)
    rho = np.kron(np.outer(a, a.conj()), np.outer(b, b.conj()))
    rt = correlation_matrix(rho)
    q = operator_basis()
    pa = np.einsum("qij,j,i->q", q, a, a.conj()).real
    pb = np.einsum("qij,j,i->q", q, b, b.conj()).real
    assert_allclose(rt, np.outer(pa, pb), atol=1e-12)
    assert np.linalg.matrix_rank(rt, tol=1e-10) == 1


def test_correlation_rejects_non_hermitian():
    m = np.zeros((16, 16), dtype=complex)
    m[0, 1] = 1.0
    with pytest.raises(ValueError):
        correlation_matrix(m)


# ------------------------------------------------------------------ kkt

def test_kkt_reproduces_reference_witness():
    coeffs, w = kkt_witness(build_mixture(acceptance_mixture()))
    assert np.max(np.abs(w - tr1_witness())) < 1e-10
    assert abs(coeffs.min_value + 0.6) < 1e-10


def test_kkt_pure_phi1():
    coeffs, w = kkt_witness(phi1_projector())
    assert abs(coeffs.min_value + 3.0) < 1e-10
    assert np.max(np.abs(w - tr1_witness())) < 1e-10


def test_kkt_maximally_mixed_not_detected():
    coeffs, _ = kkt_witness(np.eye(16) / 16)
    assert coeffs.min_value >= 0.0
    assert abs(coeffs.min_value - 0.75) < 1e-12


def test_kkt_zero_correlation_reports_non_detecting():
    coeffs, w = kkt_witness(np.zeros((16, 16)))
    assert coeffs.min_value == 1.0
    assert_allclose(w, np.eye(16), atol=1e-15)


def test_kkt_min_value_equals_detection(rng):
    for _ in range(10):
        w = random_odd_weights(rng)
        rho = build_mixture(w)
        coeffs, wop = kkt_witness(rho)
        assert abs(detect(wop, rho) - coeffs.min_value) < 1e-10


def test_kkt_coefficients_are_polar_signs(rng):
    w = random_odd_weights(rng)
    coeffs, _ = kkt_witness(build_mixture(w))
    sv = np.linalg.svd(coeffs.A, compute_uv=False)
    assert sv.max() <= 1.0 + 1e-10
    # A^t A is the identity on the range of rho_tilde
    rt = correlation_matrix(build_mixture(w))
    assert np.max(np.abs(coeffs.A.T @ coeffs.A @ rt.T - rt.T)) < 1e-9
    assert abs(coeffs.min_value - (1.0 - np.linalg.svd(rt, compute_uv=False).sum())) < 1e-10


def test_kkt_min_value_monotone_toward_mixed(rng):
    for _ in range(5):
        rho = build_mixture(random_odd_weights(rng))
        values = []
        for alpha in np.linspace(0.0, 1.0, 11):
            mixed = alpha * rho + (1 - alpha) * np.eye(16) / 16
            values.append(kkt_witness(mixed)[0].min_value)
        diffs = np.diff(values)
        assert np.all(diffs <= 1e-10)  # nonincreasing toward the pure mixture


# ----------------------------------------------------------- closed form

def test_b_coefficients_values():
    b = b_coefficients(acceptance_mixture())
    assert_allclose(b, [1.0, 0.0, 0.2, 0.0, 0.2, 0.0, 0.2, 0.0], atol=1e-15)


def test_coefficient_table_dominant_case():
    # all-positive case: -1 on symmetric and diagonal entries, +1 on the
    # antisymmetric partners, zeros elsewhere
    table = coefficient_table(acceptance_mixture())
    expected = np.diag([-1.0] * 6 + [1.0] * 6 + [-1.0] * 4)
    assert_allclose(table, expected, atol=1e-15)
    coeffs, _ = kkt_witness(build_mixture(acceptance_mixture()))
    assert np.max(np.abs(table - coeffs.A)) < 1e-10


def test_coefficient_table_flipped_case():
    # b1 < b2 flips the diagonal-unit block onto its off-diagonal entries
    w = MixtureWeights.odd({9: 0.4, 13: 0.4, 11: 0.1, 15: 0.1})
    table = coefficient_table(w)
    assert table[12, 12] == 0.0
    assert table[12, 13] == -1.0
    assert table[13, 12] == -1.0


def test_coefficient_table_matches_kkt(rng):
    count = 0
    while count < 50:
        w = random_odd_weights(rng)
        b = b_coefficients(w)
        gaps = [b[0] + b[1], b[0] - b[1], b[2] + b[3], b[2] - b[3],
                b[4] + b[5], b[4] - b[5], b[6] + b[7], b[6] - b[7]]
        if min(abs(g) for g in gaps) < 1e-3:
            continue
        count += 1
        coeffs, _ = kkt_witness(build_mixture(w))
        assert np.max(np.abs(coefficient_table(w) - coeffs.A)) < 1e-9


def test_coefficient_table_tie_error():
    # b1 == b2 with a nonzero block has no integer-valued optimum
    w = MixtureWeights.odd({1: 0.3, 3: 0.2, 9: 0.3, 11: 0.2})
    with pytest.raises(TieError):
        coefficient_table(w)


def test_coefficient_table_zero_group_is_kernel():
    # b5 = b6 = 0 zeroes that group instead of raising
    w = MixtureWeights.odd({9: 0.4, 13: 0.4, 11: 0.1, 15: 0.1})
    table = coefficient_table(w)
    assert table[1, 1] == 0.0 and table[1, 4] == 0.0


def test_coefficient_table_requires_odd():
    with pytest.raises(ValueError):
        coefficient_table(MixtureWeights.from_mapping({2: 1.0}, "even"))


# ---------------------------------------------------------------- detect

def test_detect_reference_values():
    w = tr1_witness()
    rho = build_mixture(MixtureWeights.odd({1: 0.35, 7: 0.25, 3: 0.2, 5: 0.2}))
    assert abs(detect(w, rho) - (1 - 4 * 0.35)) < 1e-12
    product = np.zeros(16)
    product[0] = 1.0  # |p1,+> (x) |p1,+>
    assert abs(detect(w, np.outer(product, product))) < 1e-14


def test_detect_closed_form_on_filtered_mixture(rng):
    w = tr1_witness()
    for _ in range(10):
        weights = random_odd_weights(rng)
        t1, t2 = rng.uniform(0.0, 2.9, 2)
        rho = effective_boost_mixture(build_mixture(weights), t1, t2)
        q1, q7 = weights.weight(1), weights.weight(7)
        expected = 1 - 2 * q1 - 2 * q7 + 4 * (q7 - q1) * kappa(t1, t2)
        assert abs(detect(w, rho) - expected) < 1e-12


def test_detect_linear(rng):
    w = tr1_witness()
    r1 = build_mixture(random_odd_weights(rng))
    r2 = build_mixture(random_odd_weights(rng))
    for alpha in (0.0, 0.3, 0.8, 1.0):
        lhs = detect(w, alpha * r1 + (1 - alpha) * r2)
        rhs = alpha * detect(w, r1) + (1 - alpha) * detect(w, r2)
        assert abs(lhs - rhs) < 1e-12


def test_detect_dimension_mismatch():
    with pytest.raises(ValueError):
        detect(np.eye(4), np.eye(16))


# ----------------------------------------------------------------- floor

def test_floor_zero_coefficients():
    assert abs(separability_floor_check(np.zeros((16, 16)), 2000, 1) - 1.0) < 1e-12


def test_floor_reference_witness():
    a_tr1 = kkt_witness(phi1_projector())[0].A
    floor = separability_floor_check(a_tr1, 20000, 7)
    assert floor > -1e-10
    assert abs(floor) < 1e-6   # contact with the separable set
    plain = separability_floor_check(a_tr1, 20000, 7, optimize_partner=False)
    assert plain > -1e-10


def test_floor_negative_identity():
    # W = I - SWAP: nonnegative on products, zero on equal pure pairs
    floor = separability_floor_check(-np.eye(16), 5000, 3)
    assert floor > -1e-10
    assert abs(floor) < 1e-6


def test_floor_detects_overscaled_coefficients():
    a2 = 2.0 * kkt_witness(phi1_projector())[0].A
    assert separability_floor_check(a2, 5000, 5) < -0.5


def test_floor_reproducible():
    a_tr1 = kkt_witness(phi1_projector())[0].A
    one = separability_floor_check(a_tr1, 3000, 11)
    two = separability_floor_check(a_tr1, 3000, 11)
    assert one == two


def floor_witnesses(seed):
    """Three coefficient matrices: the acceptance witness, a random odd-mixture
    witness and a random orthogonal matrix (every singular value one)."""
    rng = np.random.default_rng(seed)
    orthogonal, _ = np.linalg.qr(rng.normal(size=(16, 16)))
    return (kkt_witness(build_mixture(acceptance_mixture()))[0].A,
            kkt_witness(build_mixture(random_odd_weights(rng)))[0].A,
            -orthogonal)


@pytest.mark.parametrize("optimize_partner", [True, False])
@pytest.mark.parametrize("seed", [0, 11])
def test_floor_matches_einsum_oracle(optimize_partner, seed):
    for A in floor_witnesses(seed):
        got = separability_floor_check(A, samples=3000, seed=seed,
                                       optimize_partner=optimize_partner)
        want = separability_floor_einsum(A, 3000, seed, optimize_partner)
        assert abs(got - want) <= 1e-15


@pytest.mark.parametrize("seed", [0, 11])
def test_optimized_floor_matches_two_party_draw(seed):
    # the optimized-partner path draws only the first party, from the same
    # stream, so its floor is bitwise that of the full two-party draw
    for A in floor_witnesses(seed):
        assert separability_floor_check(A, samples=3000, seed=seed) \
            == separability_floor_two_party(A, 3000, seed)


@pytest.mark.parametrize("samples", [0, -3])
def test_floor_refuses_fewer_than_one_sample(samples):
    with pytest.raises(ValueError, match="samples"):
        separability_floor_check(np.eye(16), samples, 1)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_floor_of_a_non_finite_witness_is_a_linalg_error(value):
    with np.errstate(invalid="ignore"), pytest.raises(np.linalg.LinAlgError):
        separability_floor_check(np.full((16, 16), value), 20_000, 1)


def test_partner_matrices_are_the_complex_product_with_the_basis(rng):
    for scale in (1e-3, 1.0, 1e3):
        v = scale * rng.normal(size=(500, 16))
        want = (v @ _QF).reshape(-1, 4, 4)
        assert np.max(np.abs(_partner_matrices(v) - want)) <= 1e-15 * scale


def test_floor_check_solves_few_partner_matrices(monkeypatch):
    # the skip certificate leaves eigvalsh little beyond the first chunk for a
    # witness with isolated contact points; a flat witness, whose every first
    # party has a partner at the minimum, solves each matrix once
    sent, eigvalsh = [], np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: sent.append(len(m)) or eigvalsh(m))
    rho = build_mixture(random_odd_weights(np.random.default_rng(2)))
    A = kkt_witness(effective_boost_mixture(rho, 0.4, 1.1))[0].A
    assert separability_floor_check(A, 100_000, 1) > 1e-8
    assert sum(sent) <= 2 * _FLOOR_FIRST
    sent.clear()
    assert abs(separability_floor_check(-np.eye(16), 100_000, 1)) < 1e-12
    assert sum(sent) <= 100_000


def test_random_product_states_shapes():
    a, b = random_product_states(5, 0)
    assert a.shape == b.shape == (5, 4)
    assert_allclose(np.linalg.norm(a, axis=1), np.ones(5), atol=1e-12)


# -------------------------------------------------- witness structure

def test_witness_operator_identity_for_zero():
    assert_allclose(witness_operator(np.zeros((16, 16))), np.eye(16), atol=1e-15)


def test_reference_witness_is_decomposable():
    # W = Q1^{T_A} with Q1 PSD (and P = 0)
    w = tr1_witness()
    q1 = partial_transpose(w, (4, 4), "A")
    assert np.linalg.eigvalsh(q1).min() > -1e-10
    assert_allclose(partial_transpose(q1, (4, 4), "A"), w, atol=1e-12)


def test_reference_witness_touches_edge():
    assert abs(detect(tr1_witness(), edge_state())) < 1e-12


def test_witness_has_negative_eigenvalue_when_detecting(rng):
    coeffs, w = kkt_witness(build_mixture(MixtureWeights.odd({1: 1.0})))
    assert coeffs.min_value < 0
    assert np.linalg.eigvalsh(w).min() < -1e-10
