"""The batched evaluation core against its per-matrix oracles.

The family table, the realigned correlation matrix and witness operator, the
elementwise filter and the stacked spectra must reproduce the direct
constructions in ``oracles``; the block-wise ``doew sweep`` must reproduce a
point-by-point composition of ``kkt_witness``, ``ppt_spectrum`` and
``hs_distance``, including across block edges.  Filtered odd mixtures must
read both spectra off two constant bases, with no LAPACK call, and agree with
the dense spectra; the bases must be orthogonal and diagonalize every such
mixture, for both splits.  Even and free mixtures, random densities, odd
mixtures perturbed off the bases' commutant and NaN entries must take the
dense path and give its result bit for bit, and real input must stay real.
"""

import csv
import functools
from collections import Counter

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import random_density, random_hermitian, random_odd_weights
from doew import (MixtureWeights, build_mixture, correlation_matrix, detect,
                  edge_state, effective_angles, effective_boost_mixture,
                  effective_boost_pure, entropy_formula, kkt_witness,
                  family_matrix, mixtures, partial_transpose, phi_state,
                  ppt_spectrum, relativistic_witness_value, sector_weights,
                  witness_min_value, witness_operator)
import doew
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


def test_stacked_correlation_holds_the_residue_to_the_hermitian_tolerance(rng):
    # a 2e-11 one-sided entry leaves an imaginary residue of 1.4e-11 in the
    # correlation matrix, over HERMITIAN_TOL, as require_hermitian would see it
    stack = np.stack([random_density(rng, 16) for _ in range(3)])
    stack[1, 0, 1] += 2e-11
    with pytest.raises(ValueError, match="imaginary residue 1.41"):
        correlation_matrix(stack)
    with pytest.raises(ValueError, match="not Hermitian"):
        require_hermitian(stack)


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
    spectra_a = ppt_spectrum(stack)
    spectra_b = np.linalg.eigvalsh(partial_transpose(stack, (4, 4), "B"))
    for rho, value, spec_a, spec_b in zip(stack, values, spectra_a, spectra_b):
        assert abs(value - kkt_witness(rho)[0].min_value) < 1e-13
        assert_allclose(spec_a, ppt_spectrum(rho), atol=1e-14)
        assert_allclose(spec_b, np.linalg.eigvalsh(partial_transpose(rho, (4, 4), "B")),
                        atol=1e-14)


def lapack_shapes(monkeypatch):
    """The input shapes passed to svd and eigvalsh from now on, in call order."""
    shapes = []
    for name in ("svd", "eigvalsh"):
        def counted(m, *args, _original=getattr(np.linalg, name), **kwargs):
            shapes.append(np.shape(m))
            return _original(m, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return shapes


def dense_spectra(stack):
    """witness_min_value and ppt_spectrum of a stack with one 16x16 LAPACK call each."""
    return (1.0 - np.linalg.svd(correlation_matrix(stack), compute_uv=False).sum(axis=-1),
            np.linalg.eigvalsh(partial_transpose(stack)))


@pytest.mark.parametrize("parity", ["odd", "even", "free"])
def test_family_stacks_take_the_block_path(rng, monkeypatch, parity):
    # filtered odd mixtures are diagonal in the two constant bases, so a stack, one matrix
    # and the momentum-label split make no LAPACK call; even and free ones are not
    q = random_weight_stack(rng, 6)
    if parity != "free":   # odd states are the even 0-based columns
        q[:, int(parity == "odd")::2] = 0.0
    stack = effective_boost_mixture(mixtures(q / q.sum(axis=1, keepdims=True)),
                                    np.linspace(-1.0, 3.1, 6), 0.4)
    value, spectrum = dense_spectra(stack)
    momentum = np.linalg.eigvalsh(partial_transpose(stack[0], (2, 8)))
    shapes = lapack_shapes(monkeypatch)
    assert np.max(np.abs(witness_min_value(stack) - value)) <= 4e-15
    assert np.max(np.abs(ppt_spectrum(stack) - spectrum)) <= 4e-15
    assert np.max(np.abs(witness_min_value(stack[0]) - value[0])) <= 4e-15
    assert np.max(np.abs(ppt_spectrum(stack[0]) - spectrum[0])) <= 4e-15
    assert np.max(np.abs(ppt_spectrum(stack[0], dims=(2, 8)) - momentum)) <= 4e-15
    dense = [(6, 16, 16), (6, 16, 16), (16, 16), (16, 16), (16, 16)]
    assert shapes == ([] if parity == "odd" else dense)


def odd_stack(rng, n, theta1=0.4):
    """n filtered odd mixtures with Dirichlet(0.5) weights, some nearly zero."""
    q = np.zeros((n, 16))
    q[:, 0::2] = rng.dirichlet(np.full(8, 0.5), size=n)
    return effective_boost_mixture(mixtures(q), theta1, np.linspace(-1.0, 3.1, n))


@pytest.mark.parametrize("kind", ["odd-and-one-free", "even"])
def test_stacks_off_the_odd_family_take_the_dense_path_bitwise(rng, monkeypatch, kind):
    # one matrix outside the bases' commutant sends the whole stack to LAPACK
    stack = odd_stack(rng, 5)
    q = random_weight_stack(rng, 5)
    if kind == "even":
        q[:, 0::2] = 0.0
        stack = effective_boost_mixture(mixtures(q / q.sum(axis=1, keepdims=True)), 0.4, 2.0)
    else:
        stack[3] = effective_boost_mixture(mixtures(q[3]), 0.4, 2.0)
    value, spectrum = dense_spectra(stack)
    momentum = np.linalg.eigvalsh(partial_transpose(stack, (2, 8)))
    shapes = lapack_shapes(monkeypatch)
    assert np.array_equal(witness_min_value(stack), value)
    assert np.array_equal(ppt_spectrum(stack), spectrum)
    assert np.array_equal(ppt_spectrum(stack, dims=(2, 8)), momentum)
    assert shapes == [(5, 16, 16)] * 3


@pytest.mark.parametrize("size", [1e-12, 1e-9, 1e-6])
def test_an_odd_mixture_off_the_commutant_takes_the_dense_path_bitwise(rng, monkeypatch, size):
    # a symmetric perturbation keeps rho Hermitian but leaves an off-diagonal norm of
    # about 10 size in both bases, far above SPECTRUM_CERT_TOL
    g = rng.normal(size=(16, 16))
    rho = odd_stack(rng, 1)[0] + size * (g + g.T) / 2
    value, spectrum = dense_spectra(rho)
    momentum = np.linalg.eigvalsh(partial_transpose(rho, (2, 8)))
    shapes = lapack_shapes(monkeypatch)
    assert np.array_equal(witness_min_value(rho), value)
    assert np.array_equal(ppt_spectrum(rho), spectrum)
    assert np.array_equal(ppt_spectrum(rho, dims=(2, 8)), momentum)
    assert shapes == [(16, 16)] * 3


@pytest.mark.parametrize("entry", [(3, 3), (0, 5), (2, 13)])
@pytest.mark.parametrize("stacked", [False, True])
def test_a_nan_entry_raises_linalg_error(rng, entry, stacked):
    # NaN fails the certificate's comparison, and LAPACK refuses it
    stack = odd_stack(rng, 4)
    stack[1][entry] = stack[1][entry[::-1]] = np.nan
    rho = stack if stacked else stack[1]
    with pytest.raises(np.linalg.LinAlgError):
        witness_min_value(rho)
    for dims in ((4, 4), (2, 8)):
        with pytest.raises(np.linalg.LinAlgError):
            ppt_spectrum(rho, dims=dims)


@pytest.mark.parametrize("kind", ["float", "complex", "family-with-tiny-off-block-pair"])
def test_random_density_stacks_take_the_dense_path(rng, monkeypatch, kind):
    if kind == "float":
        g = rng.normal(size=(4, 16, 16))
        stack = g @ np.swapaxes(g, -1, -2)
        stack /= np.trace(stack, axis1=-2, axis2=-1)[:, None, None]
    elif kind == "complex":
        stack = np.stack([random_density(rng, 16) for _ in range(4)])
    else:   # 0 in every family mixture and off the blocks: no tolerance may hide it
        q = random_weight_stack(rng, 4)
        stack = mixtures(q / q.sum(axis=1, keepdims=True))
        assert not stack[:, 0, 1].any()
        stack[:, 0, 1] = stack[:, 1, 0] = 1e-300
    value, spectrum = dense_spectra(stack)
    shapes = lapack_shapes(monkeypatch)
    assert np.array_equal(witness_min_value(stack), value)
    assert np.array_equal(ppt_spectrum(stack), spectrum)
    assert shapes == [(4, 16, 16), (4, 16, 16)]


#: the index groups on which V (for rho_tilde: coefficient_table's) and U (for the
#: transposes) hold (e_i +/- e_j)/sqrt(2), (1, s1, s2, s1 s2)/2 or e_k
V_GROUPS = {(12, 13), (14, 15), (1, 4), (8, 9), (2, 3), (7, 10), (0,), (5,), (6,), (11,)}
U_GROUPS = {(0, 5), (1, 4), (10, 15), (11, 14), (2, 7, 8, 13), (3, 6, 9, 12)}


def test_constant_bases_diagonalize_filtered_odd_mixtures(rng):
    v, u = doew.witness._RT_BASIS, doew.ppt._PT_BASIS
    for basis, groups in ((v, V_GROUPS), (u, U_GROUPS)):
        assert np.max(np.abs(basis.T @ basis - np.eye(16))) <= 1e-15
        assert {tuple(np.flatnonzero(column)) for column in basis.T} == groups
        support = basis != 0
        assert np.max(np.abs(np.abs(basis) - support / np.sqrt(support.sum(axis=0)))) <= 1e-15
    rho = odd_stack(rng, 200, theta1=rng.uniform(-1.0, 3.1, 200))
    for basis, m in ((v, correlation_matrix(rho)), (u, partial_transpose(rho)),
                     (u, partial_transpose(rho, (4, 4), "B")), (u, partial_transpose(rho, (2, 8)))):
        assert np.max(np.abs((basis.T @ m @ basis) * (1.0 - np.eye(16)))) <= 1e-15


@pytest.mark.parametrize("entry", [1e-3, 2e-11])
def test_a_real_stack_with_a_one_sided_entry_is_refused(rng, entry):
    # the real path computes the whole imaginary residue of QF X QF^t: 1.41e-11
    # for a 2e-11 entry, as the complex path does
    stack = effective_boost_mixture(mixtures(random_weight_stack(rng, 3)), 0.3, 1.9)
    stack[1, 0, 1] += entry
    with pytest.raises(ValueError, match=f"imaginary residue {entry / np.sqrt(2):.3e}"):
        correlation_matrix(stack)
    with pytest.raises(ValueError, match="not Hermitian"):
        ppt_spectrum(stack)


def test_real_input_stays_real_and_complex_stays_complex(rng):
    rho = build_mixture(random_odd_weights(rng))
    for built in (family_matrix(1.0), phi_state(3), rho, mixtures(np.eye(16)[:2]),
                  edge_state()):
        assert built.dtype == float
    for dtype in (float, complex):
        m = rho.astype(dtype)
        assert require_hermitian(m).dtype == dtype
        assert effective_boost_mixture(m, 0.3, 1.2).dtype == dtype
        assert correlation_matrix(m).dtype == float
        assert ppt_spectrum(m).dtype == float


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


#: grid lengths at the edges of one and two blocks, with the block size they
#: are run at: a 16-point block, and SWEEP_BLOCK itself
BLOCK_EDGES = {**{steps: 16 for steps in (2, 15, 16, 17, 33)},
               **{steps: SWEEP_BLOCK for steps in (SWEEP_BLOCK - 1, SWEEP_BLOCK,
                                                   SWEEP_BLOCK + 1, 2 * SWEEP_BLOCK + 1)}}


@pytest.mark.parametrize("steps", BLOCK_EDGES)
@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep_rows_match_point_by_point(tmp_path, monkeypatch, name, steps):
    monkeypatch.setattr(doew.cli, "SWEEP_BLOCK", BLOCK_EDGES[steps])
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


#: per-point entry points a sweep must call a fixed number of times, not once per point
GRID_ONCE = ("wigner_half_angle", "relativistic_witness_value", "entropy_formula")


@pytest.mark.parametrize("parameter, flags", [
    ("alpha", ["--start", "0", "--stop", "3", "--chi1", "0.4", "--chi2", "2.5"]),
    ("q1", ["--start", "0", "--stop", "0.5", "--theta1", "2.9", "--theta2", "0.2"])])
def test_sweep_runs_closed_forms_once_per_grid(tmp_path, monkeypatch, parameter, flags):
    calls = Counter()

    def counted(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in GRID_ONCE:
        original = getattr(doew, name)
        for module in (doew, doew.cli, doew.measures, doew.relativity):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted(name, original))
    monkeypatch.setattr(MixtureWeights, "__init__",
                        counted("MixtureWeights", MixtureWeights.__init__))
    argv = ["--parameter", parameter, *flags, "--steps", "100"]
    if parameter == "alpha":
        argv += ["--weights", write_weights(tmp_path)]
    assert len(run_sweep(tmp_path, argv)) == 100
    # the sweep's own weights and the edge state's: two at most, whatever the grid
    assert all(calls[name] <= 2 for name in (*GRID_ONCE, "MixtureWeights")), calls
