"""Command-line front end: build states, run witness constructions, sweep angles.

Subcommands: state, rho, boost, ppt, witness, measure, sweep.  All output is JSON on
stdout except ``sweep``'s CSV table (17 significant digits, one row per grid point, in
real stacked blocks of SWEEP_BLOCK points; it refuses flags its --parameter overrides or
never reads).  Exit codes: 0 success, 1 computation-domain error, 2 usage or parse error.

Weights files are JSON of the form {"q": {"1": 0.4, "3": 0.2, ...},
"parity": "odd"} with 1-based ASCII-digit indices; missing indices are zero.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from collections import Counter
from dataclasses import asdict

import numpy as np

from . import __version__
from .linalg import partial_trace
from .measures import (entropy_formula, entropy_pure, generalized_concurrence,
                       hs_distance, relativistic_witness_value)
from .ppt import (closed_form_momentum_pt, edge_state, feasible_family,
                  feasible_region_check, ppt_spectrum)
from .relativity import (effective_angles, effective_boost_mixture,
                         effective_boost_pure, wigner_half_angle,
                         wigner_matrix, wigner_rotation_oracle)
from .states import (BELL_TYPE_ANGLE, MixtureWeights, build_mixture, mixtures,
                     phi_state)
from .witness import (TieError, coefficient_table, detect, kkt_witness,
                      separability_floor_check, witness_min_value)

DEFAULT_SEED = 2024

#: grid points evaluated per stacked pass; bounds a stack of 16x16 matrices at 128 KiB
SWEEP_BLOCK = 64

#: a witness minimum below -VERDICT_TOL detects entanglement; closer to zero
#: it is rounding of a state on the separable boundary
VERDICT_TOL = 1e-10

CSV_COLUMNS = ("parameter", "value", "witness_value_closed_form",
               "witness_value_numeric", "entropy_bits", "min_ppt_eig",
               "hs_measure")


class UsageError(Exception):
    """Bad input that should exit with code 2."""


def _jsonable(value):
    """json.dumps hook: arrays become lists, complex entries [re, im] pairs."""
    if isinstance(value, np.ndarray):
        if np.iscomplexobj(value):
            value = np.stack([value.real, value.imag], axis=-1)
        return value.tolist()
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _load_weights(path: str) -> MixtureWeights:
    def unique_keys(pairs):
        repeated = [key for key, n in Counter(key for key, _ in pairs).items() if n > 1]
        if repeated:   # a plain json.load would keep the last value
            raise UsageError(f"repeated key {repeated[0]!r} in weights file {path!r}")
        return dict(pairs)

    try:   # a check's UsageError is none of the types caught below: it passes unchanged
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh, object_pairs_hook=unique_keys)
        if not isinstance(data, dict):
            raise UsageError(f"expected a JSON object in {path!r}")
        for key in sorted(set(data) - {"q", "parity"}):
            raise UsageError(f"unknown key {key!r} in weights file {path!r}")
        if not isinstance(data.setdefault("q", {}), dict):
            raise UsageError(f"expected a JSON object under 'q' in {path!r}")
        return MixtureWeights.from_mapping(data["q"], parity=data.get("parity", "free"))
    except (OSError, RecursionError, TypeError, ValueError, OverflowError) as exc:
        raise UsageError(f"invalid weights file {path!r}: {exc}") from exc


def _write(text: str, out: str | None) -> None:
    """Write text to the file out, or to stdout when out is not given."""
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {out!r}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _emit(doc: dict, out: str | None) -> None:
    """doc as JSON headed by the tool version, to the file out or stdout."""
    doc = {"tool_version": __version__, **doc}
    _write(json.dumps(doc, indent=2, default=_jsonable, allow_nan=False) + "\n", out)


# ---------------------------------------------------------------- subcommands

def cmd_state(args) -> dict:
    v = phi_state(args.phi, args.theta)
    return {
        "phi": args.phi,
        "theta": args.theta,
        "amplitudes": v.astype(complex),
        "norm": np.linalg.norm(v),
    }


def _load_state(args, theta: float = BELL_TYPE_ANGLE) -> tuple[MixtureWeights, np.ndarray]:
    """The --weights mixture at mixing angle theta, filtered at --theta1/--theta2."""
    weights = _load_weights(args.weights)
    rho = build_mixture(weights, theta)
    if args.theta1 or args.theta2:
        rho = effective_boost_mixture(rho, args.theta1, args.theta2)
    return weights, rho


def cmd_rho(args) -> dict:
    weights, rho = _load_state(args, args.theta)
    doc = {
        "parity": weights.parity,
        "theta": args.theta,
        "theta1": args.theta1,
        "theta2": args.theta2,
        "trace": np.trace(rho).real,
        "eigenvalues": np.linalg.eigvalsh(rho),
        "purity": detect(rho, rho),
        "reduced_A_eigenvalues": np.linalg.eigvalsh(partial_trace(rho, (4, 4), "B")),
    }
    if args.full:
        doc["matrix"] = rho.astype(complex)
    return doc


def cmd_boost(args) -> dict:
    particles = []
    for delta, p_hat in ((args.delta1, args.p1), (args.delta2, args.p2)):
        cos_half, sin_axis = wigner_half_angle(args.alpha, args.e, delta, p_hat)
        oc, ov = wigner_rotation_oracle(args.alpha, args.e, delta, p_hat)
        rot = wigner_matrix(cos_half, sin_axis)
        residual = max(abs(cos_half - oc), float(np.max(np.abs(sin_axis - ov))))
        particles.append({
            "delta": delta,
            "p_hat": p_hat,
            "cos_half": cos_half,
            "sin_half_axis": sin_axis,
            "omega": rot.omega,
            "axis": rot.axis,
            "d_matrix": rot.matrix,
            "oracle_residual": residual,
        })
    return {
        "alpha": args.alpha,
        "e_hat": args.e,
        "particles": particles,
        "effective_angles": [p["omega"] for p in particles],
    }


def cmd_ppt(args) -> dict:
    weights, rho = _load_state(args)
    spectrum = ppt_spectrum(rho)   # rho^T_B = (rho^T_A)^T: one spectrum for both
    doc = {
        "theta1": args.theta1,
        "theta2": args.theta2,
        "ppt_spectrum_A": spectrum,
        "ppt_spectrum_B": spectrum,
        "min_eigenvalue_A": spectrum[0],
        "min_eigenvalue_B": spectrum[0],
    }
    if weights.parity == "odd":
        mom = ppt_spectrum(rho, dims=(2, 8))
        closed = closed_form_momentum_pt(weights, args.theta1, args.theta2)
        doc["feasible_region"] = asdict(feasible_region_check(weights))
        doc["momentum_label_spectrum"] = mom
        doc["closed_form_spectrum"] = closed
        doc["closed_form_residual"] = np.max(np.abs(mom - closed))
    return doc


def cmd_witness(args) -> dict:
    if args.seed is not None and not args.floor_samples:
        raise UsageError("--seed needs --floor-samples: nothing else is sampled")
    weights, rho = _load_state(args)
    coeffs, w = kkt_witness(rho)
    doc = {
        "theta1": args.theta1,
        "theta2": args.theta2,
        "A": coeffs.A,
        "W_spectrum": np.linalg.eigvalsh(w),
        "min_value": coeffs.min_value,
        "detection": detect(w, rho),
        "verdict": "entangled" if coeffs.min_value < -VERDICT_TOL else "not detected",
    }
    if weights.parity == "odd":
        doc["closed_form_min_value"] = relativistic_witness_value(
            weights, args.theta1, args.theta2)
        try:
            table = coefficient_table(weights)
            doc["coefficient_table_max_diff"] = np.max(np.abs(table - coeffs.A))
        except TieError as exc:
            doc["warning"] = f"closed-form table undefined ({exc}); using KKT coefficients"
    if args.floor_samples:
        seed = DEFAULT_SEED if args.seed is None else args.seed
        doc["separability_floor"] = separability_floor_check(
            coeffs.A, samples=args.floor_samples, seed=seed)
        doc["seed"] = seed
    return doc


def cmd_measure(args) -> dict:
    weights, rho = _load_state(args)
    doc = {
        "theta1": args.theta1,
        "theta2": args.theta2,
        "hs_measure_to_edge": hs_distance(edge_state(), rho),
        "entropy_bits_formula": entropy_formula(args.theta1, args.theta2),
        "boosted_phi1_entropy_bits": entropy_pure(
            effective_boost_pure(phi_state(1), args.theta1, args.theta2)
        ).entropy_bits,
        "concurrence": asdict(generalized_concurrence(args.theta1, args.theta2)),
    }
    if weights.parity == "odd":
        doc["witness_value_closed_form"] = relativistic_witness_value(
            weights, args.theta1, args.theta2)
        doc["witness_value_numeric"] = float(witness_min_value(rho))
    return doc


# --------------------------------------------------------------------- sweep

def fr_companion_weights(q1) -> MixtureWeights:
    """The feasible family with q1 = q7 swept (``ppt.feasible_family``)."""
    if not np.all((0.0 <= q1) & (q1 <= 0.5)):
        raise UsageError("q1 must lie in [0, 0.5]")
    return feasible_family(q1)


#: (default, the parameters that read it) of each sweep flag the parser leaves at None
_SWEEP_FLAGS = {"weights": (None, "theta1 theta2 alpha"), "theta1": (0.0, "theta2 q1"),
                "theta2": (0.0, "theta1 q1"), "delta1": (2.0, "alpha"), "delta2": (2.0, "alpha"),
                "chi1": (np.pi / 3, "alpha"), "chi2": (2 * np.pi / 3, "alpha")}


def _sweep_args(args) -> argparse.Namespace:
    """A copy of args less func, --record and --out, sweep flags left at None defaulted."""
    used = {k: v for k, v in vars(args).items() if k not in ("func", "record", "out")}
    for name, (default, readers) in _SWEEP_FLAGS.items():
        if used[name] is None:
            used[name] = default
        elif args.parameter not in readers.split():
            raise UsageError(f"a sweep over {args.parameter} does not read --{name}")
    return argparse.Namespace(**used)


def _sweep_inputs(args) -> tuple[np.ndarray, MixtureWeights, np.ndarray, np.ndarray]:
    """Validated grid with the weights (one vector or a stack) and filter angles."""
    if args.steps < 2:
        raise UsageError("steps must be at least 2")
    if not args.start < args.stop:
        raise UsageError("start must be strictly below stop")
    grid = np.linspace(args.start, args.stop, args.steps)
    theta1, theta2 = np.full(args.steps, args.theta1), np.full(args.steps, args.theta2)
    if args.parameter == "q1":
        return grid, fr_companion_weights(grid), theta1, theta2
    if not args.weights:
        raise UsageError(f"--weights is required for a {args.parameter} sweep")
    base = _load_weights(args.weights)
    if base.parity != "odd":
        raise UsageError("sweeps need odd-parity weights")
    if args.parameter == "theta1":
        theta1 = grid
    elif args.parameter == "theta2":
        theta2 = grid
    elif args.start < 0:
        raise UsageError("--start of an alpha sweep is a rapidity: it must be nonnegative")
    else:
        e_hat = np.array([0.0, 0.0, 1.0])
        p1 = np.array([0.0, np.sin(args.chi1), np.cos(args.chi1)])
        p2 = np.array([0.0, np.sin(args.chi2), np.cos(args.chi2)])
        theta1, theta2 = effective_angles(grid, e_hat, args.delta1, p1, args.delta2, p2)
    return grid, base, theta1, theta2


def build_sweep_rows(args) -> list[list[float]]:
    """The sweep's table, a row of CSV_COLUMNS[1:] floats per grid point: numeric columns from
    blocks of SWEEP_BLOCK points (mixture, filter, SVD, PT spectrum), closed forms in one pass."""
    grid, weights, theta1, theta2 = _sweep_inputs(_sweep_args(args))
    # theta and alpha sweeps have one weight vector: one mixture serves every block
    fixed = mixtures(weights.q) if weights.q.ndim == 1 else None
    edge = edge_state()
    numeric, min_ppt, hs = np.empty((3, len(grid)))
    for lo in range(0, len(grid), SWEEP_BLOCK):
        block = slice(lo, lo + SWEEP_BLOCK)
        rho = mixtures(weights.q[block]) if fixed is None else fixed
        boosted = effective_boost_mixture(rho, theta1[block], theta2[block])
        numeric[block] = witness_min_value(boosted)
        min_ppt[block] = ppt_spectrum(boosted)[:, 0]
        hs[block] = hs_distance(edge, boosted)
    return np.column_stack((grid, relativistic_witness_value(weights, theta1, theta2),
                            numeric, entropy_formula(theta1, theta2), min_ppt, hs)).tolist()


def cmd_sweep(args) -> None:
    table = build_sweep_rows(args)
    if args.record:   # first, so that a record it cannot write leaves stdout empty
        rows = [dict(zip(CSV_COLUMNS, (args.parameter, *row))) for row in table]
        _emit({"inputs": vars(_sweep_args(args)), "rows": rows}, args.record)
    line = args.parameter + ",%.17g" * 6 + "\n"
    _write(",".join(CSV_COLUMNS) + "\n" + "".join(line % tuple(row) for row in table), args.out)


# ------------------------------------------------------------------- parsing

#: the one grammar of a float flag or vector component: a plain ASCII decimal
_DECIMAL = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")


def _finite(text: str) -> float:
    """The argparse type of every float flag: a finite plain ASCII decimal."""
    value = float(text) if _DECIMAL.fullmatch(text) else np.nan
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _rapidity(text: str) -> float:
    """The argparse type of a rapidity flag: a finite number, not negative."""
    value = _finite(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {text!r}")
    return value


def _nonnegative_int(text: str) -> int:
    """The argparse type of every integer flag: ASCII digits only, the weights-index rule of
    ``MixtureWeights.from_mapping``, and no more than int() converts (a limit of 0 is none)."""
    if not (text.isascii() and text.isdigit()) or (
            0 < getattr(sys, "get_int_max_str_digits", int)() < len(text)):
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text!r}")
    return int(text)


def _parse_vec(text: str) -> np.ndarray:
    """The argparse type of a vector flag: the unit vector along comma-separated components."""
    if not all(map(_DECIMAL.fullmatch, text.split(","))):
        raise argparse.ArgumentTypeError(f"expected comma-separated floats, got {text!r}")
    v = np.array([float(part) for part in text.split(",")])
    if v.shape != (3,):
        raise argparse.ArgumentTypeError(f"expected three components, got {text!r}")
    peak = np.max(np.abs(v))
    if not 0.0 < peak < np.inf:
        raise argparse.ArgumentTypeError(f"expected a finite nonzero vector, got {text!r}")
    # an exact power-of-two rescale to the largest component keeps the norm finite
    v = np.ldexp(v, -np.frexp(peak)[1])
    return v / np.linalg.norm(v)


_WEIGHTS = {"--weights": dict(required=True, help="weights JSON file")}
_THETA = {"--theta": dict(type=_finite, default=BELL_TYPE_ANGLE,
                          help="mixing angle of the state family (default pi/4)")}
_FILTER = {
    "--theta1": dict(type=_finite, default=0.0,
                     help="effective rotation angle of momentum sector 1"),
    "--theta2": dict(type=_finite, default=0.0,
                     help="effective rotation angle of momentum sector 2"),
}
_COMMON = {"--out": dict(help="write JSON/CSV to this file instead of stdout")}

#: subcommand -> (handler, help, flags before the common ones)
COMMANDS = {
    "state": (cmd_state, "print one entangled basis state", {
        "--phi": dict(type=_nonnegative_int, required=True, choices=range(1, 17), metavar="1..16"),
        **_THETA}),
    "rho": (cmd_rho, "build a mixture and report its spectrum", {
        **_WEIGHTS, "--full": dict(action="store_true", help="include the full matrix"),
        **_THETA, **_FILTER}),
    "boost": (cmd_boost, "Wigner rotation data for two particles", {
        "--alpha": dict(type=_rapidity, required=True, help="observer rapidity"),
        "--e": dict(type=_parse_vec, default="0,0,1", help="boost direction (comma separated)"),
        "--delta1": dict(type=_rapidity, default=2.0),
        "--p1": dict(type=_parse_vec, default="0,0.8660254037844386,0.5"),
        "--delta2": dict(type=_rapidity, default=2.0),
        "--p2": dict(type=_parse_vec, default="0,0.8660254037844386,-0.5")}),
    "ppt": (cmd_ppt, "partial-transpose spectra and feasible region",
            {**_WEIGHTS, **_FILTER}),
    "witness": (cmd_witness, "construct the optimal witness", {
        **_WEIGHTS, "--floor-samples": dict(type=_nonnegative_int, default=0, help=(
            "also sample the separable-state floor with this many states")),
        **_FILTER, "--seed": dict(type=_nonnegative_int, help=(
            f"seed of the --floor-samples states (default {DEFAULT_SEED})"))}),
    "measure": (cmd_measure, "entanglement measures for a mixture",
                {**_WEIGHTS, **_FILTER}),
    "sweep": (cmd_sweep, "sweep one parameter and emit CSV", {
        "--parameter": dict(required=True, choices=("theta1", "theta2", "alpha", "q1")),
        "--start": dict(type=_finite, required=True),
        "--stop": dict(type=_finite, required=True),
        "--steps": dict(type=_nonnegative_int, required=True),
        "--weights": dict(help="weights JSON (theta/alpha sweeps)"),
        **{flag: {**kwargs, "default": None} for flag, kwargs in _FILTER.items()},
        "--delta1": dict(type=_rapidity, help="particle 1 rapidity for alpha sweeps"),
        "--delta2": dict(type=_rapidity),
        "--chi1": dict(type=_finite, help="particle 1 momentum polar angle (yz-plane)"),
        "--chi2": dict(type=_finite),
        "--record": dict(help="write a reproducible run record JSON here")}),
}


class _Parser(argparse.ArgumentParser):
    """Flags match only in full; usage errors raise UsageError (one stderr line, exit 2)."""
    __init__ = functools.partialmethod(argparse.ArgumentParser.__init__, allow_abbrev=False)

    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    """The ``doew`` parser."""
    parser = _Parser(
        prog="doew",
        description="Entanglement witnesses for two-particle momentum-spin states")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, kwargs in {**flags, **_COMMON}.items():
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)
    return parser


#: the parser, built at first use
_shared_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
        doc = args.func(args)
        if doc is not None:   # every command but sweep returns its JSON document
            _emit({"command": args.command, **doc}, args.out)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, MemoryError) as exc:   # np.linalg.LinAlgError is a ValueError
        print(f"computation error: {exc}", file=sys.stderr)
        return 1
    return 0


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
