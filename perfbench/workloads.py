"""The benchmark's workloads: seeded request generation, execution and output checks.

Every request is generated from ``numpy.random.default_rng([seed, index])``,
so the same seed gives the same request sequence and no two requests of a
run share inputs.  Generated weights reach the program only as a JSON file
named on its command line.  Requests call doew's public entry points by
module attribute at call time, so a traced run sees them through its
wrappers.

Output checks use the tolerances the repository already promises: the
README's 1e-9 between the closed-form and numeric witness columns, and the
acceptance criteria's 1e-10 (PPT, separability floor), 1e-9 (Wigner oracle)
and 1e-12 (half-angle normalization).
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from doew import cli, relativity

STEPS = 100
FLOOR_SAMPLES = 100_000
KINEMATIC_CONFIGS = 100

CLOSED_VS_NUMERIC_TOL = 1e-9
PPT_TOL = 1e-10
FEASIBLE_Q1_MAX = 0.25
FLOOR_TOL = 1e-10
ORACLE_TOL = 1e-9
NORMALIZATION_TOL = 1e-12
GRID_TOL = 1e-12

CSV_HEADER = ["parameter", "value", "witness_value_closed_form",
              "witness_value_numeric", "entropy_bits", "min_ppt_eig", "hs_measure"]


@dataclass
class Request:
    index: int
    params: dict
    argv: list[str] = field(default_factory=list)
    out_path: str = ""


def _odd_weights_file(rng, path: str) -> None:
    q = rng.dirichlet(np.ones(8))
    doc = {"q": {str(2 * k + 1): float(q[k]) for k in range(8)}, "parity": "odd"}
    with open(path, "w") as fh:
        json.dump(doc, fh)


def _unit_vectors(rng, count: int) -> np.ndarray:
    v = rng.normal(size=(count, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _f(x: float) -> str:
    return repr(float(x))


# ------------------------------------------------------------------ CLI runs

def _run_cli(request: Request):
    """One in-process ``doew`` call; returns (exit code, output file text)."""
    try:
        code = cli.main(request.argv)
    except SystemExit as exc:       # argparse rejects bad argv by exiting
        code = exc.code if isinstance(exc.code, int) else 2
    if code != 0:
        return code, None
    with open(request.out_path) as fh:
        return code, fh.read()


def _check_sweep_csv(request: Request, text: str, feasible_q1: bool) -> list[str]:
    rows = list(csv.reader(io.StringIO(text)))
    problems = []
    if not rows or rows[0] != CSV_HEADER:
        return [f"unexpected CSV header {rows[0] if rows else None!r}"]
    body = rows[1:]
    if len(body) != STEPS:
        problems.append(f"expected {STEPS} rows, got {len(body)}")
    start, stop = request.params["start"], request.params["stop"]
    for n, row in enumerate(body):
        try:
            values = [float(x) for x in row[1:]]
            value, closed, numeric, _, min_ppt, _ = values
        except ValueError:
            problems.append(f"row {n}: unparsable {row!r}")
            continue
        if not all(math.isfinite(x) for x in values):
            problems.append(f"row {n}: non-finite value {row!r}")
        if row[0] != request.params["parameter"]:
            problems.append(f"row {n}: parameter {row[0]!r}")
        if abs(closed - numeric) > CLOSED_VS_NUMERIC_TOL:
            problems.append(f"row {n}: |closed - numeric| = {abs(closed - numeric):.3e}")
        if feasible_q1 and value <= FEASIBLE_Q1_MAX and min_ppt < -PPT_TOL:
            problems.append(f"row {n}: feasible q1={value!r} has PT eigenvalue {min_ppt:.3e}")
    if len(body) == STEPS:
        first, last = float(body[0][1]), float(body[-1][1])
        if abs(first - start) > GRID_TOL or abs(last - stop) > GRID_TOL:
            problems.append(f"grid ends {first!r}..{last!r}, asked {start!r}..{stop!r}")
    return problems


class SweepAlpha:
    """One 100-point observer-rapidity sweep per request, fixed weights per request."""

    name = "sweep_alpha"
    items_per_request = STEPS

    def make(self, seed: int, index: int, workdir: str) -> Request:
        rng = np.random.default_rng([seed, index])
        weights = os.path.join(workdir, "weights.json")
        _odd_weights_file(rng, weights)
        p = {"parameter": "alpha",
             "start": float(rng.uniform(0.0, 0.5)), "stop": float(rng.uniform(2.0, 3.0)),
             "delta1": float(rng.uniform(0.5, 3.0)), "delta2": float(rng.uniform(0.5, 3.0)),
             "chi1": float(rng.uniform(0.1, np.pi - 0.1)),
             "chi2": float(rng.uniform(0.1, np.pi - 0.1))}
        out = os.path.join(workdir, "sweep.csv")
        argv = ["sweep", "--parameter", "alpha", "--start", _f(p["start"]),
                "--stop", _f(p["stop"]), "--steps", str(STEPS), "--weights", weights,
                "--delta1", _f(p["delta1"]), "--delta2", _f(p["delta2"]),
                "--chi1", _f(p["chi1"]), "--chi2", _f(p["chi2"]), "--out", out]
        return Request(index, p, argv, out)

    execute = staticmethod(_run_cli)

    def check(self, request: Request, output) -> list[str]:
        return _check_sweep_csv(request, output, feasible_q1=False)


class SweepQ1:
    """One 100-point feasible-family sweep per request; fresh weights at every point."""

    name = "sweep_q1"
    items_per_request = STEPS

    def make(self, seed: int, index: int, workdir: str) -> Request:
        rng = np.random.default_rng([seed, index])
        p = {"parameter": "q1",
             "start": float(rng.uniform(0.0, 0.05)), "stop": float(rng.uniform(0.45, 0.5)),
             "theta1": float(rng.uniform(0.0, 2.9)), "theta2": float(rng.uniform(0.0, 2.9))}
        out = os.path.join(workdir, "sweep.csv")
        argv = ["sweep", "--parameter", "q1", "--start", _f(p["start"]),
                "--stop", _f(p["stop"]), "--steps", str(STEPS),
                "--theta1", _f(p["theta1"]), "--theta2", _f(p["theta2"]), "--out", out]
        return Request(index, p, argv, out)

    execute = staticmethod(_run_cli)

    def check(self, request: Request, output) -> list[str]:
        return _check_sweep_csv(request, output, feasible_q1=True)


class WitnessFloor:
    """One SVD witness plus a 10^5-sample separable-state floor per request."""

    name = "witness_floor"
    items_per_request = FLOOR_SAMPLES

    def make(self, seed: int, index: int, workdir: str) -> Request:
        rng = np.random.default_rng([seed, index])
        weights = os.path.join(workdir, "weights.json")
        _odd_weights_file(rng, weights)
        p = {"theta1": float(rng.uniform(0.0, 2.9)), "theta2": float(rng.uniform(0.0, 2.9)),
             "floor_seed": int(rng.integers(0, 2 ** 31))}
        out = os.path.join(workdir, "witness.json")
        argv = ["witness", "--weights", weights, "--floor-samples", str(FLOOR_SAMPLES),
                "--seed", str(p["floor_seed"]), "--theta1", _f(p["theta1"]),
                "--theta2", _f(p["theta2"]), "--out", out]
        return Request(index, p, argv, out)

    execute = staticmethod(_run_cli)

    def check(self, request: Request, output) -> list[str]:
        try:
            doc = json.loads(output)
            floor = float(doc["separability_floor"])
            gap = abs(float(doc["min_value"]) - float(doc["closed_form_min_value"]))
            seed = doc["seed"]
        except (ValueError, KeyError, TypeError) as exc:
            return [f"malformed witness output: {exc!r}"]
        problems = []
        if not floor >= -FLOOR_TOL:
            problems.append(f"separability floor {floor!r} below -{FLOOR_TOL:g}")
        if not gap <= CLOSED_VS_NUMERIC_TOL:
            problems.append(f"|min_value - closed_form_min_value| = {gap!r}")
        if seed != request.params["floor_seed"]:
            problems.append(f"seed echoed as {seed!r}")
        return problems


class Kinematics:
    """100 two-particle Wigner configurations per request, through the library."""

    name = "kinematics"
    items_per_request = KINEMATIC_CONFIGS

    def make(self, seed: int, index: int, workdir: str) -> Request:
        rng = np.random.default_rng([seed, index])
        n = KINEMATIC_CONFIGS
        p = {"alpha": rng.uniform(0.05, 3.0, n).tolist(),
             "e_hat": _unit_vectors(rng, n),
             "delta": rng.uniform(0.05, 3.0, (n, 2)).tolist(),
             "p_hat": _unit_vectors(rng, 2 * n).reshape(n, 2, 3)}
        return Request(index, p)

    @staticmethod
    def execute(request: Request):
        """Per configuration and particle: closed form, 4x4 oracle and the
        2x2 rotation, as ``doew boost`` computes them."""
        p = request.params
        out = []
        for k in range(KINEMATIC_CONFIGS):
            alpha, e_hat = p["alpha"][k], p["e_hat"][k]
            for j in range(2):
                delta, p_hat = p["delta"][k][j], p["p_hat"][k, j]
                cos_half, sin_axis = relativity.wigner_half_angle(alpha, e_hat, delta, p_hat)
                oc, ov = relativity.wigner_rotation_oracle(alpha, e_hat, delta, p_hat)
                rot = relativity.wigner_matrix(cos_half, sin_axis)
                out.append((cos_half, sin_axis, oc, ov, rot))
        return 0, out

    def check(self, request: Request, output) -> list[str]:
        problems = []
        if len(output) != 2 * KINEMATIC_CONFIGS:
            problems.append(f"expected {2 * KINEMATIC_CONFIGS} rotations, got {len(output)}")
        for n, (cos_half, sin_axis, oc, ov, rot) in enumerate(output):
            residual = max(abs(cos_half - oc), float(np.max(np.abs(sin_axis - ov))))
            norm = abs(cos_half ** 2 + float(sin_axis @ sin_axis) - 1.0)
            if not residual <= ORACLE_TOL:
                problems.append(f"rotation {n}: oracle residual {residual:.3e}")
            if not norm <= NORMALIZATION_TOL:
                problems.append(f"rotation {n}: normalization error {norm:.3e}")
            if not math.isfinite(rot.omega):
                problems.append(f"rotation {n}: angle {rot.omega!r}")
        return problems


WORKLOADS = {w.name: w for w in (SweepAlpha(), SweepQ1(), WitnessFloor(), Kinematics())}
