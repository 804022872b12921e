"""End-to-end acceptance checks, one per release criterion.

Each test evaluates its criterion at the stated tolerance, enforces the
stated runtime budget, and prints a PASS/FAIL line (visible with ``pytest -s``
or in the captured output of a failing run).
"""

import time

import numpy as np

from conftest import random_feasible_weights, random_odd_weights
from doew import (MixtureWeights, b_coefficients, build_mixture, detect,
                  doew_from_edge, edge_state, effective_boost_mixture,
                  effective_boost_pure, entropy_formula, entropy_pure, kappa,
                  kkt_witness, partial_transpose, phi_state, ppt_spectrum,
                  reduced_eigenvalue_pair, relativistic_witness_value,
                  separability_floor_check, wigner_half_angle,
                  wigner_rotation_oracle)

GRID = np.linspace(0.0, 3.0, 20)


def phi1_projector():
    v = phi_state(1)
    return np.outer(v, v.conj())


def tr1_witness():
    return np.eye(16) - 4 * phi1_projector()


def report(number: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def sample_odd_weights_away_from_ties(rng, count, gap=1e-3):
    out = []
    while len(out) < count:
        w = random_odd_weights(rng)
        b = b_coefficients(w)
        gaps = [b[0] + b[1], b[0] - b[1], b[2] + b[3], b[2] - b[3],
                b[4] + b[5], b[4] - b[5], b[6] + b[7], b[6] - b[7]]
        if min(abs(g) for g in gaps) >= gap:
            out.append(w)
    return out


def test_criterion_1_witness_reproduction():
    start = time.perf_counter()
    weights = MixtureWeights.odd({1: 0.4, 3: 0.2, 5: 0.2, 7: 0.2})
    _, w = kkt_witness(build_mixture(weights))
    err = float(np.max(np.abs(w - tr1_witness())))
    elapsed = time.perf_counter() - start
    report(1, err < 1e-10 and elapsed < 1.0,
           f"witness entrywise error {err:.2e} in {elapsed:.2f}s")


def test_criterion_2_separability_floor():
    start = time.perf_counter()
    a = kkt_witness(phi1_projector())[0].A
    floor = separability_floor_check(a, samples=100_000, seed=2024)
    plain = separability_floor_check(a, samples=100_000, seed=2024,
                                     optimize_partner=False)
    elapsed = time.perf_counter() - start
    ok = floor >= -1e-10 and abs(floor) < 1e-6 and plain >= -1e-10
    report(2, ok and elapsed < 10.0,
           f"floor {floor:.2e} (plain sampling {plain:.2e}) in {elapsed:.1f}s")


def test_criterion_3_detection_formula():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    w_op = tr1_witness()
    worst = 0.0
    worst_diag = 0.0
    for weights in [random_odd_weights(rng) for _ in range(10)]:
        rho = build_mixture(weights)
        q1, q7 = weights.weight(1), weights.weight(7)
        for t1 in GRID:
            for t2 in GRID:
                value = detect(w_op, effective_boost_mixture(rho, t1, t2))
                closed = 1 - 2 * q1 - 2 * q7 + 4 * (q7 - q1) * kappa(t1, t2)
                worst = max(worst, abs(value - closed))
                if t1 == t2:
                    worst_diag = max(worst_diag, abs(value - (1 - 4 * q1)))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and worst_diag < 1e-12 and elapsed < 5.0
    report(3, ok, f"closed-form error {worst:.2e}, diagonal error "
                  f"{worst_diag:.2e}, in {elapsed:.1f}s")


def test_criterion_4_lorentz_non_invariance():
    rng = np.random.default_rng(2024)
    w_op = tr1_witness()
    ok = True
    for _ in range(5):
        while True:
            weights = random_odd_weights(rng)
            if weights.weight(1) > weights.weight(7) + 0.05:
                break
        rho = build_mixture(weights)
        values = np.array([[detect(w_op, effective_boost_mixture(rho, t1, t2))
                            for t2 in GRID] for t1 in GRID])
        rest = detect(w_op, rho)
        ok &= bool(np.all(values >= rest - 1e-12))
        for i in range(len(GRID)):
            row = values[i]
            ok &= int(np.argmin(row)) == i
            ok &= bool(np.all(np.diff(row[i:]) > 0))       # moving away above
            ok &= bool(np.all(np.diff(row[:i + 1]) < 0))   # moving away below
    report(4, ok, "witness value minimized on the equal-angle diagonal and "
                  "strictly increasing with |theta1 - theta2|")


def test_criterion_5_feasible_region_ppt():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    angle_pairs = [(0.0, 0.0)] + [tuple(rng.uniform(0.0, 2.9, 2)) for _ in range(10)]
    worst = np.inf
    for _ in range(200):
        weights = random_feasible_weights(rng)
        rho = build_mixture(weights)
        for t1, t2 in angle_pairs:
            boosted = effective_boost_mixture(rho, t1, t2)
            pt_b = partial_transpose(boosted, (4, 4), "B")
            worst = min(worst, float(ppt_spectrum(boosted).min()),
                        float(np.linalg.eigvalsh(pt_b).min()))
    elapsed = time.perf_counter() - start
    ok = worst >= -1e-10 and elapsed < 10.0
    report(5, ok, f"min PT eigenvalue {worst:.2e} over 200 weight vectors x "
                  f"11 angle pairs x 2 parties in {elapsed:.1f}s")


def test_criterion_6_wigner_kinematics():
    start = time.perf_counter()
    ez = np.array([0.0, 0.0, 1.0])
    worst_norm = 0.0
    for alpha in np.linspace(0.0, 3.0, 30):
        for delta in np.linspace(0.0, 3.0, 30):
            for chi in np.linspace(0.0, np.pi, 30):
                p_hat = np.array([0.0, np.sin(chi), np.cos(chi)])
                c, v = wigner_half_angle(alpha, ez, delta, p_hat)
                worst_norm = max(worst_norm, abs(c ** 2 + v @ v - 1.0))
    rng = np.random.default_rng(2024)
    worst_oracle = 0.0
    for _ in range(100):
        alpha, delta = rng.uniform(0.05, 3.0, 2)
        e = rng.normal(size=3)
        e /= np.linalg.norm(e)
        p = rng.normal(size=3)
        p /= np.linalg.norm(p)
        c, v = wigner_half_angle(alpha, e, delta, p)
        oc, ov = wigner_rotation_oracle(alpha, e, delta, p)
        worst_oracle = max(worst_oracle, abs(c - oc), float(np.max(np.abs(v - ov))))
    c0, v0 = wigner_half_angle(0.0, ez, 1.7, np.array([0.0, 1.0, 0.0]))
    cp, vp = wigner_half_angle(2.1, ez, 1.7, ez)
    exact = (c0 == 1.0 and not v0.any() and cp == 1.0 and not vp.any())
    elapsed = time.perf_counter() - start
    ok = worst_norm < 1e-12 and worst_oracle < 1e-9 and exact and elapsed < 5.0
    report(6, ok, f"normalization error {worst_norm:.2e} on 30^3 grid, oracle "
                  f"error {worst_oracle:.2e} on 100 kinematics, in {elapsed:.1f}s")


def test_criterion_7_entropy():
    rest = entropy_pure(phi_state(1)).entropy_bits
    worst = 0.0
    worst_diag = 0.0
    for t1 in GRID:
        for t2 in GRID:
            closed = entropy_formula(t1, t2)
            numeric = entropy_pure(
                effective_boost_pure(phi_state(1), t1, t2)).entropy_bits
            worst = max(worst, abs(closed - numeric))
            if t1 == t2:
                worst_diag = max(worst_diag, abs(closed - 2.0))
    ok = abs(rest - 2.0) < 1e-10 and worst < 1e-10 and worst_diag < 1e-10
    report(7, ok, f"rest entropy {rest:.12f} bits, grid error {worst:.2e}, "
                  f"diagonal deviation {worst_diag:.2e}")


def test_criterion_8_measure_chain():
    rho_ent = phi1_projector()
    rho_edge = edge_state()
    w, measure = doew_from_edge(rho_ent, rho_edge)
    diff = abs(measure - float(np.linalg.norm(rho_edge - rho_ent)))
    on_ent = detect(w, rho_ent)
    on_edge = detect(w, rho_edge)
    ok = diff < 1e-10 and on_ent < 0 and abs(on_edge) < 1e-10
    report(8, ok, f"measure-distance gap {diff:.2e}, witness expectation "
                  f"{on_ent:.6f} on the entangled state, {on_edge:.2e} on the edge")


def test_criterion_9_concurrence_identity():
    w_op = tr1_witness()
    worst = 0.0
    for t1 in GRID:
        for t2 in GRID:
            state = effective_boost_pure(phi_state(1), t1, t2)
            rho = np.outer(state, state.conj())
            l1, l2 = reduced_eigenvalue_pair(t1, t2)
            chi = 1.0 + 8.0 * np.sqrt(l1 * l2)
            worst = max(worst, abs(-detect(w_op, rho) - chi))
    report(9, worst < 1e-10, f"identity error {worst:.2e} across the angle grid")


def test_criterion_10_closed_form_vs_kkt():
    rng = np.random.default_rng(2024)
    angle_pairs = [(0.0, 0.0), (0.6, 1.4), (2.2, 0.9), (1.0, 1.0), (2.7, 2.0)]
    worst = 0.0
    for weights in sample_odd_weights_away_from_ties(rng, 50):
        rho = build_mixture(weights)
        for t1, t2 in angle_pairs:
            closed = relativistic_witness_value(weights, t1, t2)
            numeric = kkt_witness(effective_boost_mixture(rho, t1, t2))[0].min_value
            worst = max(worst, abs(closed - numeric))
    report(10, worst < 1e-9,
           f"closed form vs SVD oracle worst gap {worst:.2e} over 50 weight "
           f"vectors x 5 angle pairs")
