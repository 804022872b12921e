"""Property tests: the whole-grid array forms against their scalar forms, row by row.

``effective_angles`` over an array of rapidities must give, element by element,
the angle 2 atan2(|sin(Omega/2) n|, cos(Omega/2)) of the scalar
``wigner_half_angle``; the broadcast closed forms and a stacked
``MixtureWeights`` must agree with a loop over single rows, and a stack must
be rejected exactly when one of its rows would be.  The spinor oracle must
agree with the closed form whenever it does not refuse, and the partial
transpose and the filter must keep their algebraic identities on stacks.  The
closed-form witness value and coefficient table must match the SVD witness,
also within 1e-9 of every tie, and the table must refuse exactly at its ties.
The Hilbert-Schmidt distance to the edge state that ``doew measure`` prints
must be the measure of the DOEW construction, also within 1e-12 of the edge.
The spectra of filtered odd mixtures, read off two constant bases with no
LAPACK call, must match the dense ones within 4e-15, also near theta = pi and
on the diagonal; near ties, at zero weights and a little off the bases'
commutant, each certified result must lie within its Weyl bound of LAPACK's,
and each uncertified one must be LAPACK's bit for bit.  The one
partial-transpose spectrum of a split must be that of both particle
transposes, and the momentum-label one that of its dense transpose, on random
densities and filtered family mixtures of every parity.
The separability floor with its skip certificate must be bitwise the floor of
one ``eigvalsh`` over every partner matrix, and the certificate must never
pass a matrix whose lowest eigenvalue lies below its shift beyond rounding.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doew import (MixtureWeights, TieError, b_coefficients, build_mixture,
                  closed_form_momentum_pt, coefficient_table, correlation_matrix,
                  doew_from_edge, edge_state, edge_weights, effective_angles,
                  effective_boost_mixture, entropy_formula, hs_distance,
                  kkt_witness, mixtures, partial_transpose, ppt_spectrum,
                  relativistic_witness_value, separability_floor_check,
                  wigner_half_angle, wigner_rotation_oracle, witness_min_value)
from doew import ppt, witness
from doew.linalg import SPECTRUM_CERT_TOL
from doew.measures import COINCIDENCE_TOL
from doew.relativity import AXIS_TOL, LORENTZ_TOL
from doew.witness import _B_SIGNS, FLOOR_CERT_TOL, TIE_TOL, _above
from conftest import random_density
from oracles import separability_floor_two_party

SETTINGS = settings(max_examples=150, deadline=None)

#: rapidities: exact zero, ordinary values, and saturated ones up to 1e300
RAPIDITY = st.one_of(st.just(0.0), st.floats(0.0, 30.0),
                     st.floats(1.0, 300.0).map(lambda x: 10.0 ** x))


@st.composite
def unit_vectors(draw):
    v = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)))
    if np.linalg.norm(v) < 1e-3:
        v = np.array([0.0, 0.0, 1.0])
    return v / np.linalg.norm(v)


@st.composite
def momentum_directions(draw, e_hat):
    """A generic direction, one parallel or antiparallel to e_hat, or one at an
    angle epsilon from e_hat with |e x p| within a decade of AXIS_TOL."""
    kind = draw(st.sampled_from(["generic", "parallel", "near_axis"]))
    if kind == "generic":
        return draw(unit_vectors())
    sign = draw(st.sampled_from([1.0, -1.0]))
    if kind == "parallel":
        return sign * e_hat
    u = np.cross(e_hat, draw(unit_vectors()))
    if np.linalg.norm(u) < 1e-3:
        u = np.cross(e_hat, [1.0, 0.0, 0.0] if abs(e_hat[0]) < 0.9 else [0.0, 1.0, 0.0])
    u /= np.linalg.norm(u)
    eps = draw(st.floats(0.1, 10.0)) * AXIS_TOL
    return sign * np.cos(eps) * e_hat + np.sin(eps) * u


@st.composite
def kinematics(draw):
    e_hat = draw(unit_vectors())
    particles = [(draw(RAPIDITY), draw(momentum_directions(e_hat))) for _ in range(2)]
    alpha = np.array(draw(st.lists(RAPIDITY, min_size=1, max_size=20)))
    return alpha, e_hat, particles


def scalar_angle(alpha, e_hat, delta, p_hat):
    cos_half, sin_axis = wigner_half_angle(alpha, e_hat, delta, p_hat)
    return 2.0 * np.arctan2(np.linalg.norm(sin_axis), cos_half)


@SETTINGS
@given(kinematics())
def test_effective_angles_match_scalar_half_angles(case):
    alpha, e_hat, ((d1, p1), (d2, p2)) = case
    omega1, omega2 = effective_angles(alpha, e_hat, d1, p1, d2, p2)
    assert omega1.shape == omega2.shape == alpha.shape
    for k, a in enumerate(alpha.tolist()):
        assert abs(omega1[k] - scalar_angle(a, e_hat, d1, p1)) <= 1e-15
        assert abs(omega2[k] - scalar_angle(a, e_hat, d2, p2)) <= 1e-15
    # a scalar rapidity gives floats, the same as its array element
    first = effective_angles(float(alpha[0]), e_hat, d1, p1, d2, p2)
    assert all(type(x) is float for x in first)
    assert first == (omega1[0], omega2[0])


@SETTINGS
@given(kinematics(), st.floats(-1e300, -1e-300))
def test_effective_angles_reject_a_negative_rapidity(case, negative):
    alpha, e_hat, ((d1, p1), (d2, p2)) = case
    alpha[len(alpha) // 2] = negative
    with pytest.raises(ValueError, match="rapidities must be nonnegative"):
        effective_angles(alpha, e_hat, d1, p1, d2, p2)
    with pytest.raises(ValueError, match="rapidities must be nonnegative"):
        effective_angles(np.abs(alpha), e_hat, -abs(negative), p1, d2, p2)


@st.composite
def oracle_kinematics(draw):
    """alpha + delta in [0, 25]: generic, alpha = 0 or delta = 0, and momenta
    parallel, antiparallel or nearly so to the boost."""
    total = draw(st.floats(0.0, 25.0))
    split = draw(st.sampled_from(["generic", "alpha_zero", "delta_zero"]))
    alpha = {"alpha_zero": 0.0, "delta_zero": total}.get(split)
    if alpha is None:
        alpha = draw(st.floats(0.0, total))
    e_hat = draw(unit_vectors())
    return alpha, e_hat, total - alpha, draw(momentum_directions(e_hat))


@SETTINGS
@given(oracle_kinematics())
def test_spinor_oracle_is_sound(case):
    alpha, e_hat, delta, p_hat = case
    try:
        oc, ov = wigner_rotation_oracle(alpha, e_hat, delta, p_hat)
    except ValueError:
        assert alpha + delta > 12.0
        return
    c, v = wigner_half_angle(alpha, e_hat, delta, p_hat)
    assert abs(c - oc) <= LORENTZ_TOL
    assert np.max(np.abs(v - ov)) <= LORENTZ_TOL


@SETTINGS
@given(st.sampled_from([(2, 2), (2, 3), (3, 2), (4, 4)]), st.integers(0, 5),
       st.sampled_from("AB"), st.integers(0, 2 ** 32 - 1))
def test_partial_transpose_is_an_involution_on_stacks(dims, n, party, seed):
    rng = np.random.default_rng(seed)
    d = dims[0] * dims[1]
    stack = rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))
    once = partial_transpose(stack, dims, party)
    assert once.shape == stack.shape
    assert np.array_equal(partial_transpose(once, dims, party), stack)
    assert np.array_equal(np.trace(once, axis1=-2, axis2=-1),
                          np.trace(stack, axis1=-2, axis2=-1))
    for k in range(n):
        assert np.array_equal(once[k], partial_transpose(stack[k], dims, party))


#: filter angles: ordinary, within 1e-3 of pi, and equal pairs (entropy 2 bits)
ANGLE = st.one_of(st.floats(-3.0, 3.1), st.floats(np.pi - 1e-3, np.pi - 1e-7))


@st.composite
def grids(draw):
    n = draw(st.integers(1, 12))
    theta1 = np.array(draw(st.lists(ANGLE, min_size=n, max_size=n)))
    theta2 = np.array(draw(st.lists(ANGLE, min_size=n, max_size=n)))
    equal = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    theta2[equal] = theta1[equal]
    # odd weights, some of them zero
    odd = np.array(draw(st.lists(st.lists(st.floats(0.0, 1.0), min_size=8, max_size=8),
                                 min_size=n, max_size=n)))
    odd[odd.sum(axis=1) == 0.0, 0] = 1.0
    q = np.zeros((n, 16))
    q[:, 0::2] = odd / odd.sum(axis=1, keepdims=True)
    return q, theta1, theta2, equal


@SETTINGS
@given(grids())
def test_closed_forms_broadcast_like_a_row_loop(grid):
    q, theta1, theta2, equal = grid
    stack = MixtureWeights(q, "odd")
    closed = relativistic_witness_value(stack, theta1, theta2)
    entropy = entropy_formula(theta1, theta2)
    spectra = closed_form_momentum_pt(stack, theta1, theta2)
    assert closed.shape == entropy.shape == theta1.shape
    assert spectra.shape == theta1.shape + (16,)
    for n, row in enumerate(q):
        single = MixtureWeights(row, "odd")
        assert np.array_equal(stack.q[n], single.q)
        t1, t2 = float(theta1[n]), float(theta2[n])
        assert abs(closed[n] - relativistic_witness_value(single, t1, t2)) <= 1e-15
        assert np.max(np.abs(spectra[n] - closed_form_momentum_pt(single, t1, t2))) <= 1e-15
        assert abs(entropy[n] - entropy_formula(t1, t2)) <= 1e-15
        if equal[n]:
            assert entropy[n] == 2.0
    # a scalar pair of angles still gives a float
    assert type(entropy_formula(float(theta1[0]), float(theta2[0]))) is float


@SETTINGS
@given(grids())
def test_block_spectra_match_the_dense_ones(grid):
    q, theta1, theta2, _ = grid
    rho = effective_boost_mixture(mixtures(q), theta1, theta2)
    with (mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd,
          mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as eigvalsh):
        value, spectrum = witness_min_value(rho), ppt_spectrum(rho)
        momentum = ppt_spectrum(rho, dims=(2, 8))
    # every spectrum is a diagonal in a constant basis: no LAPACK call
    assert svd.call_count == eigvalsh.call_count == 0
    dense = 1.0 - np.linalg.svd(correlation_matrix(rho), compute_uv=False).sum(axis=-1)
    assert np.max(np.abs(value - dense)) <= 4e-15
    assert np.max(np.abs(spectrum - np.linalg.eigvalsh(partial_transpose(rho)))) <= 4e-15
    assert np.max(np.abs(momentum - np.linalg.eigvalsh(partial_transpose(rho, (2, 8))))) <= 4e-15


@st.composite
def near_odd_mixtures(draw):
    """A filtered odd mixture whose weights may tie within 1e-9 in pairs or vanish, at
    angles that may near pi, perturbed symmetrically by 0 or 1e-17 to 1e-12."""
    odd = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=8, max_size=8)))
    for a, b in draw(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=4)):
        odd[b] = odd[a] + draw(st.floats(-1e-9, 1e-9))   # a tie, or nearly one
    odd = np.where(draw(st.lists(st.booleans(), min_size=8, max_size=8)), 0.0, odd.clip(0.0))
    if odd.sum() == 0.0:
        odd[0] = 1.0
    q = np.zeros(16)
    q[0::2] = odd / odd.sum()
    rho = effective_boost_mixture(mixtures(q), draw(ANGLE), draw(ANGLE))
    g = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).normal(size=(16, 16))
    size = draw(st.one_of(st.just(0.0), st.floats(-17.0, -12.0).map(lambda x: 10.0 ** x)))
    return rho + size * (g + g.T) / 2


def weyl_bound(m, basis):
    """||off-diagonal of basis^t m basis||_F: how far each eigenvalue or singular value of m
    can lie from the rotated diagonal's (Weyl)."""
    rotated = basis.T @ m @ basis
    return float(np.linalg.norm(rotated - np.diag(np.diag(rotated))))


@SETTINGS
@given(near_odd_mixtures())
def test_certified_spectra_lie_within_their_weyl_bounds(rho):
    rt = correlation_matrix(rho)
    dense_value = 1.0 - np.linalg.svd(rt, compute_uv=False).sum()
    checks = [(lambda: witness_min_value(rho), "svd", dense_value,
               16 * weyl_bound(rt, witness._RT_BASIS))]
    for dims in ((4, 4), (2, 8)):
        pt = partial_transpose(rho, dims)
        checks.append((lambda dims=dims: ppt_spectrum(rho, dims=dims), "eigvalsh",
                       np.linalg.eigvalsh(pt), weyl_bound(pt, ppt._PT_BASIS)))
    for run, lapack, dense, bound in checks:
        with mock.patch.object(np.linalg, lapack, wraps=getattr(np.linalg, lapack)) as call:
            got = run()
        if call.call_count:   # uncertified: LAPACK's result, bit for bit
            assert np.array_equal(got, dense)
        else:   # certified: within the bound, and the bound within SPECTRUM_CERT_TOL,
            # up to the 4e-15 of rounding the dense comparisons hold
            assert bound <= SPECTRUM_CERT_TOL + 4e-15
            assert np.max(np.abs(got - dense)) <= bound + 4e-15


@SETTINGS
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(["complex", "odd", "even", "free"]),
       st.floats(-1.0, 3.0), st.floats(-1.0, 5.5))
def test_one_spectrum_serves_both_particle_transposes(seed, kind, theta1, theta2):
    # rho^T_B = (rho^T_A)^T, so the two transposes share their eigenvalues
    rng = np.random.default_rng(seed)
    if kind == "complex":
        rho = random_density(rng, 16)
    else:   # odd states are the even 0-based columns
        q = rng.dirichlet(np.ones(16))
        if kind != "free":
            q[int(kind == "odd")::2] = 0.0
        rho = effective_boost_mixture(mixtures(q / q.sum()), theta1, theta2)
    spectrum = ppt_spectrum(rho)
    for party in ("A", "B"):
        dense = np.linalg.eigvalsh(partial_transpose(rho, (4, 4), party))
        assert np.max(np.abs(spectrum - dense)) <= 1e-14
    dense = np.linalg.eigvalsh(partial_transpose(rho, (2, 8)))
    assert np.max(np.abs(ppt_spectrum(rho, dims=(2, 8)) - dense)) <= 1e-14


#: ways to spoil one weight row, with the error each must raise
SPOILED = {"negative": "nonnegative", "non-finite": "finite", "sum": "sum to 1",
           "parity": "odd-parity"}


def spoil(q, how):
    j = int(np.argmax(q))   # an odd index holding weight
    if how == "negative":
        q[j] = -1e-3
    elif how == "non-finite":
        q[j] = np.nan
    elif how == "sum":
        q *= 1.0 + 1e-9
    else:
        q[j] = q[j + 1] = q[j] / 2


@SETTINGS
@given(grids(), st.sampled_from(sorted(SPOILED)), st.data())
def test_stack_rejects_a_bad_row_as_the_single_row(grid, how, data):
    q = grid[0].copy()
    n = data.draw(st.integers(0, len(q) - 1))
    spoil(q[n], how)
    with pytest.raises(ValueError, match=SPOILED[how]):
        MixtureWeights(q[n], "odd")
    with pytest.raises(ValueError, match=SPOILED[how]):
        MixtureWeights(q, "odd")
    # rounding far inside WEIGHT_SUM_TOL is renormalized away, row by row
    fine = grid[0] * (1.0 + 1e-14)
    assert np.allclose(MixtureWeights(fine, "odd").q.sum(axis=1), 1.0, atol=1e-15)


@SETTINGS
@given(st.lists(ANGLE, min_size=1, max_size=12), st.integers(0, 2 ** 32 - 1))
def test_equal_filter_angles_return_the_input(angles, seed):
    theta = np.array(angles)
    rho = mixtures(np.random.default_rng(seed).dirichlet(np.ones(16), len(theta)))
    assert np.max(np.abs(effective_boost_mixture(rho, theta, theta) - rho)) <= 1e-12
    single = effective_boost_mixture(rho[0], angles[0], angles[0])
    assert np.max(np.abs(single - rho[0])) <= 1e-12


#: each row: the signs over the eight odd weights of one of b1 - b2, b3 +/- b4,
#: b5 +/- b6, b7 +/- b8, the combinations whose vanishing is a tie (b1 + b2 = 1)
TIE_FORMS = np.array([_B_SIGNS[k] + sign * _B_SIGNS[k + 1]
                      for k in (0, 2, 4, 6) for sign in (1, -1)][1:])

#: a tie combination's value: exact, inside TIE_TOL, just outside, within 1e-9
TIE_OFFSET = st.sampled_from([0.0, 0.5, -0.5, 2.0, -2.0, 100.0, -1000.0]).map(
    lambda x: x * TIE_TOL)


@st.composite
def odd_weights(draw):
    """Odd weights: generic, on a small integer lattice (where exact and double
    ties are common), or with one tie combination set within 1e-9 of zero."""
    kind = draw(st.sampled_from(["generic", "lattice", "near_tie"]))
    if kind == "lattice":
        x = np.array(draw(st.lists(st.integers(0, 3), min_size=8, max_size=8)), float)
    else:
        x = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=8, max_size=8)))
    x = x / x.sum() if x.sum() else np.eye(8)[0]
    if kind == "near_tie":
        # rescale the + and - halves of the form so that it takes the value eps
        form, eps = TIE_FORMS[draw(st.integers(0, len(TIE_FORMS) - 1))], draw(TIE_OFFSET)
        plus, minus = form > 0, form < 0
        x[plus] *= (1.0 + eps) / 2 / x[plus].sum()
        x[minus] *= (1.0 - eps) / 2 / x[minus].sum()
    q = np.zeros(16)
    q[0::2] = x
    return MixtureWeights(q / q.sum(), "odd")


@SETTINGS
@given(odd_weights(), ANGLE, ANGLE)
def test_closed_form_witness_value_matches_the_svd(weights, theta1, theta2):
    rho = effective_boost_mixture(build_mixture(weights), theta1, theta2)
    closed = relativistic_witness_value(weights, theta1, theta2)
    assert abs(closed - witness_min_value(rho)) <= 1e-9


@SETTINGS
@given(odd_weights(), ANGLE, ANGLE)
def test_coefficient_table_refuses_exactly_at_a_tie(weights, theta1, theta2):
    b1, b2, _, _, b5, b6, b7, b8 = b_coefficients(weights)
    tied = [(abs(s) <= TIE_TOL) != (abs(d) <= TIE_TOL)
            for s, d in ((b1 + b2, b1 - b2), (b5 + b6, b5 - b6), (b7 + b8, b7 - b8))]
    if any(tied):
        with pytest.raises(TieError):
            coefficient_table(weights)
        return
    rho = effective_boost_mixture(build_mixture(weights), theta1, theta2)
    value = 1.0 + np.sum(coefficient_table(weights) * correlation_matrix(rho))
    assert abs(value - witness_min_value(rho)) <= 1e-9


@st.composite
def near_edge_weights(draw):
    """Odd weights: those of ``odd_weights``, or the edge weights with each odd
    weight moved by at most 1e-12 (zero included)."""
    if draw(st.booleans()):
        return draw(odd_weights())
    shift = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8)))
    q = edge_weights().q.copy()
    q[0::2] += draw(st.sampled_from([0.0, 1e-16, 1e-14, 1e-12])) * shift
    return MixtureWeights(q / q.sum(), "odd")


@SETTINGS
@given(near_edge_weights(), st.one_of(st.just(0.0), ANGLE), st.one_of(st.just(0.0), ANGLE))
def test_hs_distance_to_the_edge_is_the_doew_measure(weights, theta1, theta2):
    rho = effective_boost_mixture(build_mixture(weights), theta1, theta2)
    edge = edge_state()
    distance = hs_distance(edge, rho)
    try:
        _, measure = doew_from_edge(rho, edge)
    except ValueError:
        assert distance < COINCIDENCE_TOL
        return
    assert abs(distance - measure) <= 1e-15


@st.composite
def floor_coefficients(draw):
    """Coefficient matrices scaled by 10^k, k in [-3, 3]: an optimal witness of
    a filtered odd mixture, plus or minus a random orthogonal matrix, a
    rank-deficient matrix, zero, or the flat witness -I moved by 1e-13 to 1e-6,
    whose partner minima then all lie just above or below the floor."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["optimal", "orthogonal", "rank-deficient", "zero",
                                 "near-flat"]))
    if kind == "optimal":
        rho = effective_boost_mixture(build_mixture(draw(odd_weights())), draw(ANGLE),
                                      draw(ANGLE))
        A = kkt_witness(rho)[0].A
    elif kind == "orthogonal":
        A = draw(st.sampled_from([1.0, -1.0])) * np.linalg.qr(rng.normal(size=(16, 16)))[0]
    elif kind == "rank-deficient":
        rank = draw(st.integers(1, 15))
        A = rng.normal(size=(16, rank)) @ rng.normal(size=(rank, 16)) / 16
    elif kind == "near-flat":
        A = -np.eye(16) + 10.0 ** -draw(st.integers(6, 13)) * rng.normal(size=(16, 16))
    else:
        A = np.zeros((16, 16))
    return A * 10.0 ** draw(st.integers(-3, 3))


@SETTINGS
@given(floor_coefficients(), st.integers(0, 2 ** 32 - 1))
def test_certified_floor_is_bitwise_the_whole_stack_floor(A, seed):
    # a 16-matrix first chunk F and 64-matrix chunks C put n on every boundary the
    # floor check has, at a small cost
    first, chunk = 16, 64
    with mock.patch.object(witness, "_FLOOR_FIRST", first), \
            mock.patch.object(witness, "_FLOOR_CHUNK", chunk):
        for n in (1, first - 1, first, first + 1, first + chunk - 1, first + chunk,
                  first + chunk + 1, first + 2 * chunk + 5):
            assert separability_floor_check(A, n, seed) == separability_floor_two_party(A, n, seed)


@st.composite
def hermitian_stacks(draw):
    """Random Hermitian 4x4 stacks U diag(lambda) U^dag at scales 10^-3 to 10^3,
    the lowest eigenvalue simple, doubly or triply degenerate, and sometimes 0,
    with that eigenvalue per matrix."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(1, 64))
    lam = np.sort(rng.normal(size=(n, 4)), axis=1) * 10.0 ** draw(st.integers(-3, 3))
    lam[:, 1:draw(st.integers(1, 3))] = lam[:, :1]
    if draw(st.booleans()):
        lam -= lam[:, :1]
    u = np.linalg.qr(rng.normal(size=(n, 4, 4)) + 1j * rng.normal(size=(n, 4, 4)))[0]
    m = (u * lam[:, None, :]) @ u.conj().transpose(0, 2, 1)
    return (m + m.conj().transpose(0, 2, 1)) / 2, lam[:, 0]


@SETTINGS
@given(hermitian_stacks(), st.sampled_from([0.0, 1e-16, 1e-15, 1e-14]))
def test_the_floor_certificate_is_sound(case, shift):
    m, lowest = case
    x = lowest + np.where(np.arange(len(m)) % 2, shift, -shift)
    passed = _above(m, x)
    # wherever the pivots of M - x I are positive, eigvalsh puts M above x but for
    # rounding, and that rounding stays far inside the floor check's margin
    slack = 32 * np.finfo(float).eps * (1 + np.abs(x) + np.abs(m).max(axis=(1, 2)))
    assert np.all(np.linalg.eigvalsh(m)[passed, 0] > (x - slack)[passed])
    assert 32 * np.finfo(float).eps < FLOOR_CERT_TOL / 100
    # and a shift well below the lowest eigenvalue always certifies
    assert np.all(_above(m, lowest - 1e-6 * (1 + np.abs(m).max(axis=(1, 2)))))
