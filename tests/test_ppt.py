import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import random_feasible_weights, random_odd_weights
from doew import (MixtureWeights, build_mixture, closed_form_momentum_pt,
                  detect, edge_state, edge_weights, effective_boost_mixture,
                  feasible_region_check, partial_transpose, phi_state, ppt_spectrum)
from doew.cli import fr_companion_weights
from doew.ppt import feasible_family


def test_maximally_mixed_spectrum():
    spectrum = ppt_spectrum(np.eye(16) / 16)
    assert_allclose(spectrum, np.full(16, 1 / 16), atol=1e-14)


def test_a_party_argument_is_refused():
    # dims is keyword-only: "B" is not read as a split
    with pytest.raises(TypeError):
        ppt_spectrum(np.eye(16) / 16, "B")


@pytest.mark.parametrize("dim, dims", [(9, (3, 3)), (4, (2, 2))], ids=["9x9", "4x4"])
def test_an_operator_other_than_16x16_is_refused(dim, dims):
    # the bit-parity blocks index 16 rows; a smaller operator must not reach them
    with pytest.raises(ValueError, match="16x16"):
        ppt_spectrum(np.eye(dim) / dim, dims=dims)


def test_pure_phi1_min_eigenvalue():
    rho = build_mixture(MixtureWeights.odd({1: 1.0}))
    for spectrum in (ppt_spectrum(rho), np.linalg.eigvalsh(partial_transpose(rho, (4, 4), "B"))):
        assert abs(spectrum.min() + 0.25) < 1e-12


def test_closed_form_matches_momentum_label_spectrum(rng):
    for _ in range(10):
        w = random_odd_weights(rng)
        t1, t2 = rng.uniform(0.0, 2.8, 2)
        rho = effective_boost_mixture(build_mixture(w), t1, t2)
        numeric = ppt_spectrum(rho, dims=(2, 8))
        closed = closed_form_momentum_pt(w, t1, t2)
        assert np.max(np.abs(numeric - closed)) < 1e-10


def test_closed_form_on_a_16_row_stack():
    # one spectrum per weight vector, not per row of the stacked array
    stack = feasible_family(np.linspace(0.0, 0.5, 16))
    t1, t2 = np.linspace(0.0, 2.5, 16), np.linspace(2.8, 0.1, 16)
    closed = closed_form_momentum_pt(stack, t1, t2)
    assert closed.shape == (16, 16)
    numeric = ppt_spectrum(effective_boost_mixture(build_mixture(stack), t1, t2), dims=(2, 8))
    assert np.max(np.abs(numeric - closed)) < 1e-10
    for n, row in enumerate(stack.q):
        single = closed_form_momentum_pt(MixtureWeights(row, "odd"), t1[n], t2[n])
        assert np.max(np.abs(closed[n] - single)) <= 1e-15
    assert np.array_equal(closed_form_momentum_pt(stack, 0.3, 0.4)[5],
                          closed_form_momentum_pt(MixtureWeights(stack.q[5], "odd"), 0.3, 0.4))


def test_closed_form_difference_pair(rng):
    # the +/-(q1 - q7) pair scales with cos^2(t1/2) cos^2(t2/2)
    w = MixtureWeights.odd({1: 0.6, 7: 0.1, 3: 0.15, 5: 0.15})
    t1, t2 = 0.8, 1.9
    c1, c2 = np.cos(t1 / 2) ** 2, np.cos(t2 / 2) ** 2
    expected = (w.weight(1) - w.weight(7)) * c1 * c2 / (c1 ** 2 + c2 ** 2)
    spectrum = ppt_spectrum(effective_boost_mixture(build_mixture(w), t1, t2), dims=(2, 8))
    assert abs(spectrum.min() + expected) < 1e-12


def test_closed_form_requires_odd_parity():
    with pytest.raises(ValueError):
        closed_form_momentum_pt(MixtureWeights.from_mapping({2: 1.0}, "even"))


def test_feasible_region_edge_configuration():
    report = feasible_region_check(edge_weights())
    assert report.is_ppt
    assert all(abs(r) < 1e-12 for _, r in report.equalities)
    assert all(m >= -1e-12 for _, m in report.inequalities)
    # q1 = 1/4 saturates its bound
    margins = dict(report.inequalities)
    assert abs(margins["q1<=1/4"]) < 1e-12


def test_feasible_region_rejects_pure_state():
    report = feasible_region_check(MixtureWeights.odd({1: 1.0}))
    assert not report.is_ppt
    residuals = dict(report.equalities)
    assert abs(residuals["q1=q7"] - 1.0) < 1e-12
    margins = dict(report.inequalities)
    assert margins["q1<=1/4"] < -0.5


def test_feasible_region_uniform_odd():
    w = MixtureWeights.odd({i: 1 / 8 for i in range(1, 17, 2)})
    assert feasible_region_check(w).is_ppt
    assert ppt_spectrum(build_mixture(w)).min() > -1e-10


def test_feasible_region_requires_odd_parity():
    with pytest.raises(ValueError):
        feasible_region_check(MixtureWeights.from_mapping({2: 1.0}, "even"))


def test_constrained_weights_are_ppt(rng):
    for _ in range(50):
        w = random_feasible_weights(rng)
        rho = build_mixture(w)
        assert feasible_region_check(w).is_ppt
        assert ppt_spectrum(rho).min() > -1e-10
        assert np.linalg.eigvalsh(partial_transpose(rho, (4, 4), "B")).min() > -1e-10


def test_sign_pattern_boost_independent(rng):
    # whether the partial transpose has negatives is stable across sector angles
    for make in (random_feasible_weights, random_odd_weights):
        for _ in range(10):
            w = make(rng)
            rho = build_mixture(w)
            rest_negative = bool(ppt_spectrum(rho).min() < -1e-10)
            for t1, t2 in ((0.4, 1.1), (2.0, 0.3), (1.5, 2.5)):
                boosted = effective_boost_mixture(rho, t1, t2)
                negative = bool(ppt_spectrum(boosted).min() < -1e-10)
                assert negative == rest_negative


def test_edge_state_contacts_witness():
    v = phi_state(1)
    w_tr1 = np.eye(16) - 4 * np.outer(v, v.conj())
    assert abs(detect(w_tr1, edge_state())) < 1e-12


def test_edge_state_pt_touches_zero():
    spectrum = ppt_spectrum(edge_state())
    assert spectrum.min() > -1e-10
    assert spectrum.min() < 1e-10


def test_feasible_family_is_feasible_up_to_the_edge():
    q = np.linspace(0.0, 0.5, 21)
    stack = feasible_family(q)
    for value, row in zip(q, stack.q):
        single = feasible_family(value)
        assert np.array_equal(single.q, row)
        assert single.weight(1) == single.weight(7) == value
        assert feasible_region_check(single).is_ppt == (value <= 0.25)
    # the edge is the family at 1/4, bit for bit (0.5 / 6 == 1 / 12)
    assert np.array_equal(edge_weights().q, feasible_family(0.25).q)
    assert np.array_equal(edge_weights().q, fr_companion_weights(0.25).q)
