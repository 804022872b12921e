"""The batched evaluation core against its per-matrix oracles.

The family table, the realigned correlation matrix and witness operator, the
elementwise filter and the stacked spectra must reproduce the direct
constructions in ``oracles``; the block-wise ``doew sweep`` must reproduce a
point-by-point composition of ``kkt_witness``, ``ppt_spectrum`` and
``hs_distance``, including across block edges.
"""

import csv

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import random_density, random_hermitian, random_odd_weights
from doew import (MixtureWeights, build_mixture, correlation_matrix, detect,
                  effective_angles, effective_boost_mixture,
                  effective_boost_pure, entropy_formula, kkt_witness,
                  family_matrix, mixtures, phi_state, ppt_spectrum,
                  relativistic_witness_value, sector_weights, witness_min_value,
                  witness_operator)
from doew.cli import CSV_COLUMNS, SWEEP_BLOCK, fr_companion_weights, main
from doew.linalg import require_hermitian
from oracles import (correlation_matrix_einsum, effective_boost_mixture_kron,
                     filter_kron, mixture_recipe, phi_state_recipe, sweep_point,
                     witness_operator_einsum)

FAMILY_ANGLES = (0.0, np.pi / 4, 1.0, np.pi / 2)
#: filter angles on both sides of pi, where cos(theta / 2) changes sign
FILTER_ANGLES = ((0.3, 2.9), (1.2, 1.2), (3.14, 0.0), (4.0, 0.5), (-1.0, 5.5))


def random_weight_stack(rng, n):
    return np.stack([rng.dirichlet(np.ones(16)) for _ in range(n)])


# ------------------------------------------------------------ family table

@pytest.mark.parametrize("theta", FAMILY_ANGLES)
def test_family_table_matches_bell_recipe(theta):
    u = family_matrix(theta)
    for i in range(1, 17):
        expected = phi_state_recipe(i, theta)
        assert_allclose(u[:, i - 1], expected, atol=1e-15)
        assert_allclose(phi_state(i, theta), expected, atol=1e-15)
    assert_allclose(u.conj().T @ u, np.eye(16), atol=1e-14)


@pytest.mark.parametrize("theta", (np.pi / 4, 1.0))
def test_mixtures_match_recipe(rng, theta):
    q = random_weight_stack(rng, 5)
    stack = mixtures(q, theta)
    assert stack.shape == (5, 16, 16)
    for row, rho in zip(q, stack):
        weights = MixtureWeights(row)
        assert_allclose(rho, mixture_recipe(weights, theta), atol=1e-15)
        assert_allclose(build_mixture(weights, theta), rho, atol=1e-15)


# -------------------------------------------------------- basis realignment

def test_correlation_matrix_matches_einsum(rng):
    stack = np.stack([random_density(rng, 16) for _ in range(4)]
                     + [build_mixture(random_odd_weights(rng))])
    rt = correlation_matrix(stack)
    assert rt.shape == (5, 16, 16) and rt.dtype == float
    for rho, got in zip(stack, rt):
        assert_allclose(got, correlation_matrix_einsum(rho), atol=1e-15)
        assert_allclose(correlation_matrix(rho), got, atol=1e-15)


def test_witness_operator_matches_einsum(rng):
    coeffs = rng.normal(size=(3, 16, 16))
    w = witness_operator(coeffs)
    for A, got in zip(coeffs, w):
        assert_allclose(got, witness_operator_einsum(A), atol=1e-15)
        assert_allclose(witness_operator(A), got, atol=1e-15)


def test_witness_operator_is_adjoint_of_correlation(rng):
    # Tr(W rho) = 1 + <A, rho_tilde> for every coefficient matrix and state
    for _ in range(5):
        A = rng.normal(size=(16, 16))
        rho = random_density(rng, 16)
        expected = 1.0 + float(np.sum(A * correlation_matrix(rho)))
        assert abs(detect(witness_operator(A), rho) - expected) < 1e-13


def test_stacked_correlation_rejects_one_non_hermitian_member(rng):
    stack = np.stack([random_density(rng, 16) for _ in range(3)])
    stack[1, 0, 1] += 1e-3
    with pytest.raises(ValueError, match="imaginary residue"):
        correlation_matrix(stack)
    with pytest.raises(ValueError, match="not Hermitian"):
        require_hermitian(stack)
    with pytest.raises(ValueError, match="not Hermitian"):
        ppt_spectrum(stack)


# ------------------------------------------------------------------ filter

def test_filter_matches_kron(rng):
    t1 = np.array([a for a, _ in FILTER_ANGLES])
    t2 = np.array([b for _, b in FILTER_ANGLES])
    stack = np.stack([random_density(rng, 16) for _ in FILTER_ANGLES])
    out = effective_boost_mixture(stack, t1, t2)
    for rho, got, a, b in zip(stack, out, t1, t2):
        assert_allclose(got, effective_boost_mixture_kron(rho, a, b), atol=1e-15)
        assert_allclose(effective_boost_mixture(rho, a, b), got, atol=1e-15)
        state = rng.normal(size=16) + 1j * rng.normal(size=16)
        expected = filter_kron(a, b) @ state
        assert_allclose(effective_boost_pure(state, a, b),
                        expected / np.linalg.norm(expected), atol=1e-15)


def test_filter_broadcasts_one_mixture_over_angles(rng):
    rho = build_mixture(random_odd_weights(rng))
    t2 = np.linspace(0.0, 3.0, 7)
    out = effective_boost_mixture(rho, 0.4, t2)
    assert out.shape == (7, 16, 16)
    for got, b in zip(out, t2):
        assert_allclose(got, effective_boost_mixture_kron(rho, 0.4, b), atol=1e-15)


def test_sector_weights_elementwise():
    t1, t2 = np.array([0.0, 1.0, 3.0]), np.array([2.0, 1.0, np.pi])
    k1, k2, s = sector_weights(t1, t2)
    for n in range(3):
        assert (k1[n], k2[n], s[n]) == sector_weights(t1[n], t2[n])
    assert k1[1] == np.cos(0.5) and s[1] == 2 * np.cos(0.5) ** 4
    with pytest.raises(ValueError, match="both sector weights vanish"):
        sector_weights(np.array([0.0, np.pi]), np.array([0.0, np.pi]))


# ---------------------------------------------------------- stacked spectra

def test_stacked_spectra_match_per_matrix(rng):
    stack = np.stack([build_mixture(random_odd_weights(rng)) for _ in range(4)]
                     + [random_density(rng, 16)])
    stack = effective_boost_mixture(stack, 0.7, np.linspace(0.0, 2.5, 5))
    values = witness_min_value(stack)
    spectra_a, spectra_b = ppt_spectrum(stack, "A"), ppt_spectrum(stack, "B")
    for rho, value, spec_a, spec_b in zip(stack, values, spectra_a, spectra_b):
        assert abs(value - kkt_witness(rho)[0].min_value) < 1e-13
        assert_allclose(spec_a, ppt_spectrum(rho, "A"), atol=1e-14)
        assert_allclose(spec_b, ppt_spectrum(rho, "B"), atol=1e-14)


def test_require_hermitian_accepts_stacks(rng):
    stack = np.stack([random_hermitian(rng, 4) for _ in range(3)])
    assert require_hermitian(stack).shape == (3, 4, 4)
    with pytest.raises(ValueError, match="square"):
        require_hermitian(np.zeros((3, 4, 5)))


# ------------------------------------------------------------ sweep blocks

def write_weights(tmp_path):
    path = tmp_path / "w.json"
    path.write_text('{"q": {"1": 0.31, "3": 0.2, "5": 0.15, "7": 0.1, "9": 0.1, '
                    '"11": 0.08, "13": 0.03, "15": 0.03}, "parity": "odd"}')
    return str(path)


def run_sweep(tmp_path, argv):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", *argv, "--out", str(out)]) == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == CSV_COLUMNS
    return [[float(x) for x in row[1:]] for row in rows[1:]]


def point_inputs(parameter, value, flags, weights):
    t1, t2 = flags.get("theta1", 0.0), flags.get("theta2", 0.0)
    if parameter == "theta1":
        t1 = value
    elif parameter == "theta2":
        t2 = value
    elif parameter == "alpha":
        chi1, chi2 = flags["chi1"], flags["chi2"]
        t1, t2 = effective_angles(value, np.array([0.0, 0.0, 1.0]),
                                  2.0, np.array([0.0, np.sin(chi1), np.cos(chi1)]),
                                  2.0, np.array([0.0, np.sin(chi2), np.cos(chi2)]))
    else:
        weights = fr_companion_weights(value)
    return weights, t1, t2


SWEEPS = {
    # theta2 up to 3.14, just short of the theta = pi domain edge
    "theta2_near_pi": ("theta2", 0.0, 3.14, {"theta1": 0.4}),
    "theta1": ("theta1", -1.0, 3.14, {"theta2": 2.0}),
    "q1_diagonal": ("q1", 0.0, 0.5, {"theta1": 1.3, "theta2": 1.3}),
    "q1": ("q1", 0.01, 0.49, {"theta1": 2.9, "theta2": 0.2}),
    # equal kinematics keep theta1 = theta2 at every point
    "alpha_diagonal": ("alpha", 0.0, 2.5, {"chi1": 1.0, "chi2": 1.0}),
    "alpha": ("alpha", 0.1, 3.0, {"chi1": 0.4, "chi2": 2.5}),
}


@pytest.mark.parametrize("steps", (2, SWEEP_BLOCK - 1, SWEEP_BLOCK,
                                   SWEEP_BLOCK + 1, 2 * SWEEP_BLOCK + 1))
@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep_rows_match_point_by_point(tmp_path, name, steps):
    parameter, start, stop, flags = SWEEPS[name]
    argv = ["--parameter", parameter, "--start", repr(start), "--stop", repr(stop),
            "--steps", str(steps)]
    for flag, value in flags.items():
        argv += [f"--{flag}", repr(value)]
    weights = None
    if parameter != "q1":
        path = write_weights(tmp_path)
        argv += ["--weights", path]
        weights = MixtureWeights.odd({1: 0.31, 3: 0.2, 5: 0.15, 7: 0.1, 9: 0.1,
                                      11: 0.08, 13: 0.03, 15: 0.03})
    rows = run_sweep(tmp_path, argv)
    grid = np.linspace(start, stop, steps)
    assert len(rows) == steps
    for value, row in zip(grid, rows):
        w, t1, t2 = point_inputs(parameter, float(value), flags, weights)
        got = dict(zip(CSV_COLUMNS[1:], row))
        expected = sweep_point(w, t1, t2)
        expected.update(value=float(value),
                        witness_value_closed_form=relativistic_witness_value(w, t1, t2),
                        entropy_bits=entropy_formula(t1, t2))
        for column, x in expected.items():
            assert abs(got[column] - x) <= 1e-12, (column, value)
        assert abs(got["witness_value_closed_form"]
                   - got["witness_value_numeric"]) <= 1e-9


def test_sweep_domain_error_in_a_later_block_exits_one(tmp_path, capsys):
    # theta1 = pi with the theta2 grid ending on pi: only the last point,
    # in the second block, annihilates both sectors
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--parameter", "theta2", "--start", "0",
                 "--stop", repr(np.pi), "--steps", str(SWEEP_BLOCK + 1),
                 "--theta1", repr(np.pi), "--weights", write_weights(tmp_path),
                 "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.count("\n") == 1 and "both sector weights vanish" in err
    assert not out.exists()


def test_sweep_both_angles_at_pi_exits_one(capsys):
    code = main(["sweep", "--parameter", "q1", "--start", "0", "--stop", "0.5",
                 "--steps", "5", "--theta1", repr(np.pi), "--theta2", repr(np.pi)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("computation error")
