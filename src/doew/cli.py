"""Command-line front end: build states, run witness constructions, sweep angles.

Subcommands: state, rho, boost, ppt, witness, measure, sweep.  All output is
JSON on stdout except ``sweep``, which emits CSV (17 significant digits, one
row per grid point, evaluated in stacked blocks of SWEEP_BLOCK points with
the same output as point by point).  Exit codes: 0 success, 1
computation-domain error, 2 usage or parse error.

Weights files are JSON of the form {"q": {"1": 0.4, "3": 0.2, ...},
"parity": "odd"} with 1-based indices; missing indices are zero.  A --config
file may hold the same keys as the flags; explicit flags win.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

import numpy as np

from . import __version__
from .linalg import partial_trace
from .measures import (doew_from_edge, entropy_formula, entropy_pure,
                       generalized_concurrence, hs_distance,
                       relativistic_witness_value)
from .ppt import (closed_form_momentum_pt, edge_state, feasible_region_check,
                  momentum_label_pt_spectrum, ppt_spectrum)
from .relativity import (effective_angles, effective_boost_mixture,
                         effective_boost_pure, wigner_half_angle,
                         wigner_matrix, wigner_rotation_oracle)
from .states import (BELL_TYPE_ANGLE, MixtureWeights, build_mixture, mixtures,
                     phi_state)
from .witness import (TieError, coefficient_table, detect, kkt_witness,
                      separability_floor_check, witness_min_value)

DEFAULT_SEED = 2024

#: grid points evaluated per stacked pass; bounds the memory of the stacks
SWEEP_BLOCK = 16

SWEEP_FLOAT_FLAGS = ("start", "stop", "theta1", "theta2", "delta1", "delta2", "chi1", "chi2")

CSV_COLUMNS = ("parameter", "value", "witness_value_closed_form",
               "witness_value_numeric", "entropy_bits", "min_ppt_eig",
               "hs_measure")


class UsageError(Exception):
    """Bad input that should exit with code 2."""


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _complex_pairs(m: np.ndarray) -> list:
    m = np.asarray(m, dtype=complex)
    if m.ndim == 1:
        return [[float(z.real), float(z.imag)] for z in m]
    return [_complex_pairs(row) for row in m]


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read JSON file {path!r}: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError(f"expected a JSON object in {path!r}")
    return data


def _load_weights(path: str) -> MixtureWeights:
    data = _load_json(path)
    try:
        return MixtureWeights.from_mapping(data.get("q", {}),
                                           parity=data.get("parity", "free"))
    except (AttributeError, TypeError, ValueError) as exc:
        raise UsageError(f"invalid weights in {path!r}: {exc}") from exc


def _parse_vec(text: str) -> np.ndarray:
    try:
        v = np.array([float(part) for part in text.split(",")], dtype=float)
    except ValueError as exc:
        raise UsageError(f"expected comma-separated floats, got {text!r}") from exc
    if v.shape != (3,):
        raise UsageError(f"expected three components, got {text!r}")
    return v


def _emit(doc: dict, out: str | None) -> None:
    doc = {"tool_version": __version__, **doc}
    text = json.dumps(doc, indent=2)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------- subcommands

def cmd_state(args) -> None:
    v = phi_state(args.phi, args.theta)
    _emit({
        "command": "state",
        "phi": args.phi,
        "theta": args.theta,
        "amplitudes": _complex_pairs(v),
        "norm": float(np.linalg.norm(v)),
    }, args.out)


def _load_state(args) -> tuple[MixtureWeights, np.ndarray]:
    """The --weights mixture at --theta, filtered at --theta1/--theta2."""
    weights = _load_weights(args.weights)
    rho = build_mixture(weights, args.theta)
    if args.theta1 or args.theta2:
        rho = effective_boost_mixture(rho, args.theta1, args.theta2)
    return weights, rho


def cmd_rho(args) -> None:
    weights, rho = _load_state(args)
    doc = {
        "command": "rho",
        "parity": weights.parity,
        "theta": args.theta,
        "theta1": args.theta1,
        "theta2": args.theta2,
        "trace": float(np.trace(rho).real),
        "eigenvalues": [float(x) for x in np.linalg.eigvalsh(rho)],
        "purity": float(np.einsum("ij,ji->", rho, rho).real),
        "reduced_A_eigenvalues": [float(x) for x in
                                  np.linalg.eigvalsh(partial_trace(rho, (4, 4), "B"))],
    }
    if args.full:
        doc["matrix"] = _complex_pairs(rho)
    _emit(doc, args.out)


def cmd_boost(args) -> None:
    e_hat = _parse_vec(args.e)
    e_hat = e_hat / np.linalg.norm(e_hat)
    particles, angles = [], []
    for delta, p_text in ((args.delta1, args.p1), (args.delta2, args.p2)):
        p_hat = _parse_vec(p_text)
        p_hat = p_hat / np.linalg.norm(p_hat)
        cos_half, sin_axis = wigner_half_angle(args.alpha, e_hat, delta, p_hat)
        oc, ov = wigner_rotation_oracle(args.alpha, e_hat, delta, p_hat)
        rot = wigner_matrix(cos_half, sin_axis)
        residual = max(abs(cos_half - oc), float(np.max(np.abs(sin_axis - ov))))
        particles.append({
            "delta": delta,
            "p_hat": [float(x) for x in p_hat],
            "cos_half": cos_half,
            "sin_half_axis": [float(x) for x in sin_axis],
            "omega": rot.omega,
            "axis": [float(x) for x in rot.axis],
            "d_matrix": _complex_pairs(rot.matrix),
            "oracle_residual": residual,
        })
        angles.append(rot.omega)
    _emit({
        "command": "boost",
        "alpha": args.alpha,
        "e_hat": [float(x) for x in e_hat],
        "particles": particles,
        "effective_angles": angles,
    }, args.out)


def cmd_ppt(args) -> None:
    weights, rho = _load_state(args)
    spec_a = ppt_spectrum(rho, "A")
    spec_b = ppt_spectrum(rho, "B")
    doc = {
        "command": "ppt",
        "theta1": args.theta1,
        "theta2": args.theta2,
        "ppt_spectrum_A": [float(x) for x in spec_a],
        "ppt_spectrum_B": [float(x) for x in spec_b],
        "min_eigenvalue_A": float(spec_a[0]),
        "min_eigenvalue_B": float(spec_b[0]),
    }
    if weights.parity == "odd":
        report = feasible_region_check(weights)
        mom = momentum_label_pt_spectrum(rho)
        closed = closed_form_momentum_pt(weights, args.theta1, args.theta2)
        doc["feasible_region"] = {
            "equalities": [[name, float(r)] for name, r in report.equalities],
            "inequalities": [[name, float(m)] for name, m in report.inequalities],
            "is_ppt": report.is_ppt,
        }
        doc["momentum_label_spectrum"] = [float(x) for x in mom]
        doc["closed_form_spectrum"] = [float(x) for x in closed]
        doc["closed_form_residual"] = float(np.max(np.abs(mom - closed)))
    _emit(doc, args.out)


def cmd_witness(args) -> None:
    if args.floor_samples < 0:
        raise UsageError("--floor-samples must be nonnegative")
    weights, rho = _load_state(args)
    coeffs, w = kkt_witness(rho)
    doc = {
        "command": "witness",
        "theta1": args.theta1,
        "theta2": args.theta2,
        "A": [[float(x) for x in row] for row in coeffs.A],
        "W_spectrum": [float(x) for x in np.linalg.eigvalsh(w)],
        "min_value": coeffs.min_value,
        "detection": detect(w, rho),
        "verdict": "entangled" if coeffs.min_value < -1e-10 else "not detected",
    }
    if weights.parity == "odd":
        doc["closed_form_min_value"] = relativistic_witness_value(
            weights, args.theta1, args.theta2)
        try:
            table = coefficient_table(weights)
            doc["coefficient_table_max_diff"] = float(np.max(np.abs(table - coeffs.A)))
        except TieError as exc:
            doc["warning"] = f"closed-form table undefined ({exc}); using KKT coefficients"
    if args.floor_samples:
        doc["separability_floor"] = separability_floor_check(
            coeffs.A, samples=args.floor_samples, seed=args.seed)
        doc["seed"] = args.seed
    _emit(doc, args.out)


def cmd_measure(args) -> None:
    weights, rho = _load_state(args)
    edge = edge_state(1, args.theta)
    try:
        _, measure = doew_from_edge(rho, edge)
    except ValueError:
        measure = 0.0   # coincident with the edge state
    doc = {
        "command": "measure",
        "theta1": args.theta1,
        "theta2": args.theta2,
        "hs_measure_to_edge": measure,
        "entropy_bits_formula": entropy_formula(args.theta1, args.theta2),
        "boosted_phi1_entropy_bits": entropy_pure(
            effective_boost_pure(phi_state(1, args.theta), args.theta1, args.theta2)
        ).entropy_bits,
    }
    conc = generalized_concurrence(args.theta1, args.theta2)
    doc["concurrence"] = {"chi": conc.chi, "d": conc.d,
                          "lambda1": conc.lambda1, "lambda2": conc.lambda2}
    if weights.parity == "odd":
        doc["witness_value_closed_form"] = relativistic_witness_value(
            weights, args.theta1, args.theta2)
        doc["witness_value_numeric"] = kkt_witness(rho)[0].min_value
    _emit(doc, args.out)


# --------------------------------------------------------------------- sweep

def fr_companion_weights(q1: float) -> MixtureWeights:
    """Feasible-region family with q1 = q7 swept and the residual spread evenly."""
    if not 0.0 <= q1 <= 0.5:
        raise UsageError("q1 must lie in [0, 0.5]")
    rest = (1.0 - 2.0 * q1) / 6.0
    mapping = {1: q1, 7: q1}
    mapping.update({i: rest for i in (3, 5, 9, 11, 13, 15)})
    return MixtureWeights.odd(mapping)


def _sweep_inputs(args) -> tuple[np.ndarray, list, np.ndarray, np.ndarray]:
    """Validated grid with the weights and filter angles of every point."""
    for name in SWEEP_FLOAT_FLAGS:
        value = getattr(args, name)
        if not (isinstance(value, (int, float)) and np.isfinite(value)):
            raise UsageError(f"--{name} must be a finite number, got {value!r}")
    if args.steps < 2:
        raise UsageError("steps must be at least 2")
    if not args.start < args.stop:
        raise UsageError("start must be strictly below stop")
    if args.parameter not in ("theta1", "theta2", "alpha", "q1"):
        raise UsageError(f"unknown sweep parameter {args.parameter!r}")
    grid = np.linspace(args.start, args.stop, args.steps)
    theta1, theta2 = np.full(args.steps, args.theta1), np.full(args.steps, args.theta2)
    if args.parameter == "q1":
        return grid, [fr_companion_weights(float(v)) for v in grid], theta1, theta2
    if not args.weights:
        raise UsageError(f"--weights is required for a {args.parameter} sweep")
    base = _load_weights(args.weights)
    if base.parity != "odd":
        raise UsageError("sweeps need odd-parity weights")
    if args.parameter == "theta1":
        theta1 = grid
    elif args.parameter == "theta2":
        theta2 = grid
    else:
        e_hat = np.array([0.0, 0.0, 1.0])
        p1 = np.array([0.0, np.sin(args.chi1), np.cos(args.chi1)])
        p2 = np.array([0.0, np.sin(args.chi2), np.cos(args.chi2)])
        theta1, theta2 = np.array([effective_angles(float(v), e_hat, args.delta1, p1,
                                                    args.delta2, p2) for v in grid]).T
    return grid, [base] * args.steps, theta1, theta2


def build_sweep_rows(args) -> list[dict]:
    """One row per grid point; the numeric columns come from stacked blocks of
    SWEEP_BLOCK points (mixture, filter, correlation-matrix SVD, PT spectrum)."""
    grid, weights, theta1, theta2 = _sweep_inputs(args)
    edge = edge_state(1)
    numeric, min_ppt, hs = np.empty((3, len(grid)))
    for lo in range(0, len(grid), SWEEP_BLOCK):
        block = slice(lo, lo + SWEEP_BLOCK)
        rho = mixtures(np.stack([w.q for w in weights[block]]))
        boosted = effective_boost_mixture(rho, theta1[block], theta2[block])
        numeric[block] = witness_min_value(boosted)
        min_ppt[block] = ppt_spectrum(boosted, "A")[:, 0]
        hs[block] = hs_distance(edge, boosted)
    rows = []
    for n, value in enumerate(grid):
        w, t1, t2 = weights[n], float(theta1[n]), float(theta2[n])
        rows.append(dict(zip(CSV_COLUMNS, (
            args.parameter, float(value), relativistic_witness_value(w, t1, t2),
            float(numeric[n]), entropy_formula(t1, t2), float(min_ppt[n]),
            float(hs[n])))))
    return rows


def cmd_sweep(args) -> None:
    rows = build_sweep_rows(args)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([row["parameter"]] + [_fmt(row[c]) for c in CSV_COLUMNS[1:]])
    text = buf.getvalue()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.record:
        record = {
            "tool_version": __version__,
            "seed": args.seed,
            "inputs": {k: v for k, v in vars(args).items()
                       if k not in ("func", "record", "out", "config")},
            "rows": rows,
        }
        with open(args.record, "w") as fh:
            json.dump(record, fh, indent=2)
            fh.write("\n")


# ------------------------------------------------------------------- parsing

_WEIGHTS = {"--weights": dict(required=True, help="weights JSON file")}
_ANGLES = {
    "--theta": dict(type=float, default=BELL_TYPE_ANGLE,
                    help="mixing angle of the state family (default pi/4)"),
    "--theta1": dict(type=float, default=0.0,
                     help="effective rotation angle of momentum sector 1"),
    "--theta2": dict(type=float, default=0.0,
                     help="effective rotation angle of momentum sector 2"),
}
_COMMON = {
    "--config": dict(help="JSON file of default flag values"),
    "--out": dict(help="write JSON/CSV to this file instead of stdout"),
    "--seed": dict(type=int, default=DEFAULT_SEED,
                   help=f"seed for all sampling (default {DEFAULT_SEED})"),
}

#: subcommand -> (handler, help, flags before the common ones)
COMMANDS = {
    "state": (cmd_state, "print one entangled basis state", {
        "--phi": dict(type=int, required=True, choices=range(1, 17), metavar="1..16"),
        "--theta": dict(type=float, default=BELL_TYPE_ANGLE)}),
    "rho": (cmd_rho, "build a mixture and report its spectrum", {
        **_WEIGHTS, "--full": dict(action="store_true", help="include the full matrix"),
        **_ANGLES}),
    "boost": (cmd_boost, "Wigner rotation data for two particles", {
        "--alpha": dict(type=float, required=True, help="observer rapidity"),
        "--e": dict(default="0,0,1", help="boost direction (comma separated)"),
        "--delta1": dict(type=float, default=2.0),
        "--p1": dict(default="0,0.8660254037844386,0.5"),
        "--delta2": dict(type=float, default=2.0),
        "--p2": dict(default="0,0.8660254037844386,-0.5")}),
    "ppt": (cmd_ppt, "partial-transpose spectra and feasible region",
            {**_WEIGHTS, **_ANGLES}),
    "witness": (cmd_witness, "construct the optimal witness", {
        **_WEIGHTS, "--floor-samples": dict(type=int, default=0, help=(
            "also sample the separable-state floor with this many states")),
        **_ANGLES}),
    "measure": (cmd_measure, "entanglement measures for a mixture",
                {**_WEIGHTS, **_ANGLES}),
    "sweep": (cmd_sweep, "sweep one parameter and emit CSV", {
        "--parameter": dict(required=True, choices=("theta1", "theta2", "alpha", "q1")),
        "--start": dict(type=float, required=True),
        "--stop": dict(type=float, required=True),
        "--steps": dict(type=int, required=True),
        "--weights": dict(help="weights JSON (theta/alpha sweeps)"),
        "--theta1": dict(type=float, default=0.0),
        "--theta2": dict(type=float, default=0.0),
        "--delta1": dict(type=float, default=2.0,
                         help="particle 1 rapidity for alpha sweeps"),
        "--delta2": dict(type=float, default=2.0),
        "--chi1": dict(type=float, default=np.pi / 3,
                       help="particle 1 momentum polar angle (yz-plane)"),
        "--chi2": dict(type=float, default=2 * np.pi / 3),
        "--record": dict(help="write a reproducible run record JSON here")}),
}


def build_parser(defaults: dict | None = None) -> argparse.ArgumentParser:
    """The ``doew`` parser; ``defaults`` (from --config) replace built-in flag defaults."""
    parser = argparse.ArgumentParser(
        prog="doew",
        description="Entanglement witnesses for two-particle momentum-spin states")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, kwargs in {**flags, **_COMMON}.items():
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func, **(defaults or {}))
    return parser


def _config_defaults(args: argparse.Namespace) -> dict:
    config = {key.replace("-", "_"): v for key, v in _load_json(args.config).items()}
    for key in config:
        if not hasattr(args, key) or key in ("command", "config", "func"):
            raise UsageError(f"unknown config key {key!r}")
    return config


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config:
            # parse again with the file's values as defaults: explicit flags win
            args = build_parser(_config_defaults(args)).parse_args(argv)
        args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, np.linalg.LinAlgError) as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return 1
    return 0


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
