import contextlib
import io
import json
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from doew import cli
from doew.cli import CSV_COLUMNS, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_weights(tmp_path, mapping, parity="odd", name="w.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"q": {str(k): v for k, v in mapping.items()},
                                "parity": parity}))
    return str(path)


ACCEPTANCE = {1: 0.4, 3: 0.2, 5: 0.2, 7: 0.2}
EDGE = {1: 0.25, 7: 0.25, 3: 1 / 12, 5: 1 / 12,
        9: 1 / 12, 13: 1 / 12, 11: 1 / 12, 15: 1 / 12}


def test_state_phi1(capsys):
    code, out, _ = run(capsys, "state", "--phi", "1",
                       "--theta", "0.7853981633974483")
    assert code == 0
    doc = json.loads(out)
    amps = np.array(doc["amplitudes"])
    nonzero = np.nonzero(np.abs(amps[:, 0]) > 1e-12)[0]
    assert list(nonzero) == [0, 5, 10, 15]
    assert np.allclose(amps[nonzero], [[0.5, 0.0]] * 4, atol=1e-12)
    assert abs(doc["norm"] - 1.0) < 1e-12


def test_state_phi3_at_zero_angle(capsys):
    code, out, _ = run(capsys, "state", "--phi", "3", "--theta", "0")
    assert code == 0
    amps = np.array(json.loads(out)["amplitudes"])
    v = amps[:, 0] + 1j * amps[:, 1]
    expected = np.zeros(16)
    expected[[5, 10]] = 1 / np.sqrt(2)   # (|11> + |22>) / sqrt(2)
    assert np.allclose(v, expected, atol=1e-12)


def test_state_rejects_out_of_range_index(capsys):
    expect_usage_error(capsys, ["state", "--phi", "17"], "--phi")


def test_rho_reports_spectrum(tmp_path, capsys):
    path = write_weights(tmp_path, ACCEPTANCE)
    code, out, _ = run(capsys, "rho", "--weights", path)
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["trace"] - 1.0) < 1e-12
    top = sorted(doc["eigenvalues"])[-4:]
    assert np.allclose(sorted(top), [0.2, 0.2, 0.2, 0.4], atol=1e-12)


def test_witness_detects_acceptance_mixture(tmp_path, capsys):
    path = write_weights(tmp_path, ACCEPTANCE)
    code, out, _ = run(capsys, "witness", "--weights", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "entangled"
    assert abs(doc["min_value"] + 0.6) < 1e-9
    assert abs(doc["closed_form_min_value"] - doc["min_value"]) < 1e-9
    assert doc["coefficient_table_max_diff"] < 1e-10


def test_witness_edge_state_not_detected(tmp_path, capsys):
    path = write_weights(tmp_path, EDGE)
    code, out, _ = run(capsys, "witness", "--weights", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["min_value"] >= -1e-10
    assert doc["verdict"] == "not detected"


def test_witness_tie_falls_back_to_kkt(tmp_path, capsys):
    path = write_weights(tmp_path, {1: 0.3, 3: 0.2, 9: 0.3, 11: 0.2})
    code, out, _ = run(capsys, "witness", "--weights", path)
    assert code == 0
    doc = json.loads(out)
    assert "warning" in doc
    assert "min_value" in doc


def test_malformed_weights_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "witness", "--weights", str(path))
    assert code == 2
    assert "error" in err


def test_weights_must_sum_to_one(tmp_path, capsys):
    path = write_weights(tmp_path, {1: 0.4})
    code, _, err = run(capsys, "witness", "--weights", path)
    assert code == 2


def test_domain_error_exit_code(tmp_path, capsys):
    path = write_weights(tmp_path, ACCEPTANCE)
    code, _, err = run(capsys, "measure", "--weights", path,
                       "--theta1", str(np.pi), "--theta2", str(np.pi))
    assert code == 1
    assert "computation error" in err


def test_ppt_feasible_region_fields(tmp_path, capsys):
    path = write_weights(tmp_path, EDGE)
    code, out, _ = run(capsys, "ppt", "--weights", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["feasible_region"]["is_ppt"] is True
    assert doc["min_eigenvalue_A"] > -1e-10
    assert doc["closed_form_residual"] < 1e-10


def test_boost_oracle_residuals(capsys):
    code, out, _ = run(capsys, "boost", "--alpha", "1.2")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["particles"]) == 2
    for particle in doc["particles"]:
        assert particle["oracle_residual"] < 1e-9
        norm = (particle["cos_half"] ** 2
                + sum(x ** 2 for x in particle["sin_half_axis"]))
        assert abs(norm - 1.0) < 1e-12


def test_measure_outputs(tmp_path, capsys):
    path = write_weights(tmp_path, ACCEPTANCE)
    code, out, _ = run(capsys, "measure", "--weights", path)
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["concurrence"]["chi"] - 3.0) < 1e-12
    assert abs(doc["entropy_bits_formula"] - 2.0) < 1e-12
    assert abs(doc["witness_value_closed_form"]
               - doc["witness_value_numeric"]) < 1e-9


def sweep_rows(out):
    lines = out.strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    return [line.split(",") for line in lines[1:]]


def test_sweep_theta2_rises_from_minus_three(tmp_path, capsys):
    path = write_weights(tmp_path, {1: 1.0})
    code, out, _ = run(capsys, "sweep", "--parameter", "theta2",
                       "--start", "0", "--stop", "3.0", "--steps", "13",
                       "--weights", path)
    assert code == 0
    rows = sweep_rows(out)
    closed = [float(r[2]) for r in rows]
    numeric = [float(r[3]) for r in rows]
    assert abs(closed[0] + 3.0) < 1e-12
    assert all(b >= a - 1e-12 for a, b in zip(closed, closed[1:]))
    assert closed[-1] > -1.6
    assert all(abs(c - n) < 1e-9 for c, n in zip(closed, numeric))


def test_sweep_equal_kinematics_constant(tmp_path, capsys):
    # equal particle kinematics keep theta1 = theta2 along the whole alpha
    # sweep, so the witness column stays at its rest value
    path = write_weights(tmp_path, ACCEPTANCE)
    code, out, _ = run(capsys, "sweep", "--parameter", "alpha",
                       "--start", "0", "--stop", "2.5", "--steps", "6",
                       "--weights", path, "--chi1", "1.0471975511965976",
                       "--chi2", "1.0471975511965976")
    assert code == 0
    rows = sweep_rows(out)
    closed = [float(r[2]) for r in rows]
    assert all(abs(c + 0.6) < 1e-10 for c in closed)


def test_sweep_alpha_distinct_kinematics(tmp_path, capsys):
    path = write_weights(tmp_path, {1: 1.0})
    code, out, _ = run(capsys, "sweep", "--parameter", "alpha",
                       "--start", "0", "--stop", "2.5", "--steps", "6",
                       "--weights", path)
    assert code == 0
    rows = sweep_rows(out)
    closed = [float(r[2]) for r in rows]
    assert abs(closed[0] + 3.0) < 1e-12
    assert closed[-1] > closed[0]


def test_sweep_q1_crosses_zero_at_quarter(capsys):
    code, out, _ = run(capsys, "sweep", "--parameter", "q1",
                       "--start", "0.0", "--stop", "0.3", "--steps", "7")
    assert code == 0
    rows = sweep_rows(out)
    values = [(float(r[1]), float(r[2])) for r in rows]
    at_quarter = [v for q1, v in values if abs(q1 - 0.25) < 1e-9]
    assert at_quarter and abs(at_quarter[0]) < 1e-12
    assert values[-1][1] < -1e-3  # past the crossing the witness detects
    assert all(v >= -1e-9 for q1, v in values if q1 <= 0.25 + 1e-9)


def test_sweep_rejects_bad_range(tmp_path, capsys):
    path = write_weights(tmp_path, {1: 1.0})
    code, _, err = run(capsys, "sweep", "--parameter", "theta2",
                       "--start", "2.0", "--stop", "1.0", "--steps", "5",
                       "--weights", path)
    assert code == 2
    code, _, err = run(capsys, "sweep", "--parameter", "theta2",
                       "--start", "0.0", "--stop", "1.0", "--steps", "1",
                       "--weights", path)
    assert code == 2


def test_sweep_deterministic_and_recorded(tmp_path, capsys):
    path = write_weights(tmp_path, ACCEPTANCE)
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    record = tmp_path / "record.json"
    for out in (out1, out2):
        code = main(["sweep", "--parameter", "theta2", "--start", "0",
                     "--stop", "2.0", "--steps", "5", "--weights", path,
                     "--out", str(out), "--record", str(record)])
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    rec = json.loads(record.read_text())
    assert "seed" not in rec and "seed" not in rec["inputs"]   # a sweep samples nothing
    assert rec["tool_version"]
    assert len(rec["rows"]) == 5
    assert rec["inputs"]["parameter"] == "theta2"
    # flags a theta2 sweep does not read are recorded at their defaults
    assert rec["inputs"]["theta1"] == 0.0 and rec["inputs"]["delta1"] == 2.0
    assert rec["inputs"]["chi2"] == 2 * np.pi / 3
    # the record and the CSV hold the same rows, value for value
    lines = out1.read_text().splitlines()[1:]
    assert len(rec["rows"]) == len(lines)
    for row, line in zip(rec["rows"], lines):
        assert ",".join([row["parameter"], *(f"{row[c]:.17g}" for c in CSV_COLUMNS[1:])]) == line


@pytest.mark.parametrize("parameter", ["q1", "theta2", "alpha"])
def test_build_sweep_rows_twice_on_one_namespace(tmp_path, parameter):
    # a library caller may reuse its parsed args; the defaults go to a copy
    argv = ["sweep", "--parameter", parameter, "--start", "0", "--stop", "0.5", "--steps", "5"]
    if parameter != "q1":
        argv += ["--weights", write_weights(tmp_path, ACCEPTANCE)]
    args = cli.build_parser().parse_args(argv)
    parsed = dict(vars(args))
    first = cli.build_sweep_rows(args)
    assert cli.build_sweep_rows(args) == first
    assert vars(args) == parsed


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_sweep_rejects_non_finite_weights(tmp_path, capsys, bad):
    path = write_weights(tmp_path, {1: bad, 3: 1.0})
    code, out, err = run(capsys, "sweep", "--parameter", "theta2", "--start", "0",
                         "--stop", "1", "--steps", "3", "--weights", path)
    assert code == 2
    assert out == "" and err.count("\n") == 1 and "finite" in err


def base_flags(tmp_path, command):
    """The smallest valid flag set of each command."""
    return {"state": {"phi": "1"}, "boost": {"alpha": "1"},
            "sweep": {"parameter": "q1", "start": "0", "stop": "0.5", "steps": "3"},
            }.get(command) or {"weights": write_weights(tmp_path, ACCEPTANCE)}


def expect_usage_error(capsys, argv, mention):
    """Exit 2 with nothing on stdout and one stderr line naming the culprit."""
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == "" and err.count("\n") == 1 and mention in err


#: every flag of every command that takes a number other than an integer
FLOAT_FLAGS = [(c, f[2:]) for c, (_, _, flags) in cli.COMMANDS.items()
               for f, kwargs in flags.items()
               if kwargs.get("type") not in (None, cli._nonnegative_int)]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command, flag", [
    pytest.param(c, f, id=f if c == "sweep" else f"{c}-{f}") for c, f in FLOAT_FLAGS])
def test_sweep_rejects_non_finite_flags(tmp_path, capsys, command, flag, value):
    # every command's float flags; the sweep's keep their original bare ids
    flags = {**base_flags(tmp_path, command), flag: value}
    expect_usage_error(capsys, [command, *[f"--{k}={v}" for k, v in flags.items()]],
                       f"--{flag}")


@pytest.mark.parametrize("flag, value", [("e", "0,0,0"), ("e", "nan,0,1"),
                                         ("p1", "0,0,0"), ("p2", "inf,0,0"),
                                         ("e", "a,b,c"), ("e", "1,2")])
def test_boost_rejects_degenerate_vectors(capsys, flag, value):
    # the parser reads the vector, so its message names the flag like any other
    expect_usage_error(capsys, ["boost", "--alpha", "1", f"--{flag}={value}"],
                       f"argument --{flag}: ")
    assert f"{value!r}" in run(capsys, "boost", "--alpha", "1", f"--{flag}={value}")[2]


def test_boost_normalizes_vectors(capsys):
    _, unit, _ = run(capsys, "boost", "--alpha", "1", "--e", "0,0,1", "--p1", "0,0.6,0.8")
    code, scaled, _ = run(capsys, "boost", "--alpha", "1", "--e", "0,0,3", "--p1", "0,3,4")
    assert code == 0
    assert scaled == unit


@pytest.mark.parametrize("vector, direction", [("1e200,0,0", "1,0,0"),
                                               ("-1e300,0,0", "-1,0,0"),
                                               ("0,1e-200,0", "0,1,0"),
                                               ("3e-310,0,0", "1,0,0")])
def test_boost_scales_huge_and_tiny_vectors(capsys, vector, direction):
    # the norm of such a vector overflows or underflows unless it is scaled
    # first; RuntimeWarnings are errors in the test run
    _, unit, _ = run(capsys, "boost", "--alpha", "1", f"--e={direction}")
    code, scaled, err = run(capsys, "boost", "--alpha", "1", f"--e={vector}")
    assert code == 0 and err == ""
    assert scaled == unit


def strict_json(text):
    """Parse JSON, refusing the NaN and Infinity extensions."""
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")
    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("argv, complex_field, shape", [
    (["state", "--phi", "2"], lambda d: d["amplitudes"], (16, 2)),
    (["rho", "--full", "--theta1", "0.4"], lambda d: d["matrix"], (16, 16, 2)),
    (["boost", "--alpha", "1.2"], lambda d: d["particles"][1]["d_matrix"], (2, 2, 2)),
    (["ppt", "--theta2", "1.1"], None, None),
    (["witness", "--floor-samples", "100"], None, None),
    (["measure", "--theta1", "0.5"], None, None),
], ids=["state", "rho", "boost", "ppt", "witness", "measure"])
def test_json_output_is_strict(tmp_path, capsys, argv, complex_field, shape):
    if argv[0] not in ("state", "boost"):
        argv = argv + ["--weights", write_weights(tmp_path, ACCEPTANCE)]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    doc = strict_json(out)
    assert doc["command"] == argv[0]
    if complex_field:
        assert np.array(complex_field(doc)).shape == shape


def test_witness_rejects_negative_floor_samples(tmp_path, capsys):
    path = write_weights(tmp_path, ACCEPTANCE)
    code, out, err = run(capsys, "witness", "--weights", path, "--floor-samples", "-5")
    assert code == 2
    assert out == "" and err.count("\n") == 1 and "--floor-samples" in err


def test_weights_q_must_be_an_object(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text('{"q": [1.0], "parity": "odd"}')
    code, _, err = run(capsys, "witness", "--weights", str(path))
    assert code == 2
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [["--alpha", "400"], ["--alpha", "700"], ["--alpha", "800"],
                                  ["--alpha", "1e300"], ["--alpha", "1", "--delta1", "800"]])
def test_boost_huge_rapidity_is_a_domain_error(capsys, argv):
    # the closed form is exact there, but the oracle cannot check it to 1e-9
    code, out, err = run(capsys, "boost", *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("computation error:") and err.count("\n") == 1


@pytest.mark.parametrize("alpha", ["7", "10"])
def test_boost_is_checked_beyond_alpha_plus_delta_of_8(capsys, alpha):
    # a 4x4 Lorentz-matrix oracle loses 1e-9 to cancellation there
    code, out, err = run(capsys, "boost", "--alpha", alpha)
    assert code == 0 and err == ""
    assert all(p["oracle_residual"] <= 1e-9 for p in json.loads(out)["particles"])


@pytest.mark.parametrize("stop", ["800", "1e300"])
def test_sweep_alpha_saturates_without_warnings(tmp_path, capsys, stop):
    path = write_weights(tmp_path, ACCEPTANCE)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "sweep", "--parameter", "alpha", "--start", "0",
                             "--stop", stop, "--steps", "9", "--weights", path)
    assert code == 0 and err == "" and not caught
    # past alpha of about 40, tanh(alpha / 2) is 1 and every column but the value is fixed
    saturated = [row[:1] + row[2:] for row in sweep_rows(out)[1:]]
    assert saturated == [saturated[0]] * 8


def test_memory_error_is_a_computation_error(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 745. GiB for an array with shape "
                          "(100000000000,) and data type float64")
    monkeypatch.setattr(np, "linspace", refuse)
    code, out, err = run(capsys, "sweep", "--parameter", "q1", "--start", "0",
                         "--stop", "0.5", "--steps", "100000000000")
    assert code == 1
    assert out == ""
    assert err == ("computation error: Unable to allocate 745. GiB for an array with "
                   "shape (100000000000,) and data type float64\n")


@pytest.mark.parametrize("text, mention", [
    ('{"q": {"1": true}, "parity": "odd"}', "True"),
    ('{"q": {"1": "1.0"}, "parity": "odd"}', "'1.0'"),
    ('{"q": {"1": 0.2, "01": 0.5, "3": 0.5}, "parity": "odd"}', "'01'"),
    ('{"q": {"1": 1.0}, "Parity": "odd"}', "'Parity'"),
    ('{"q": {"1": 1%s}, "parity": "odd"}' % ("0" * 400), "too large"),
    ('{"q": {"1": 0.9, "3": 0.6, "1": 0.4}, "parity": "odd"}', "repeated key '1'"),
    ('{"q": {"1": 0.5, "3": 0.5}, "parity": "odd", "parity": "free"}',
     "repeated key 'parity'"),
    ('{"q": {"1_5": 1.0}}', "'1_5'"),
    ('{"q": {"+1": 1.0}}', "'+1'"),
    ('{"q": {" 1": 1.0}}', "' 1'"),
    ('{"q": {"\\u0661": 1.0}}', "'\u0661'"),
    ('{"q": [0.5, 0.5]}', "expected a JSON object under 'q' in"),
    ('{"q": "0.5, 0.5"}', "expected a JSON object under 'q' in"),
    # json.load raises these past its own JSONDecodeError
    (b"\xff\xfe{}", "invalid weights file"),
    ("[" * 100_000 + "]" * 100_000, "invalid weights file"),
    ('{"q": {"1": 1%s}}' % ("0" * 4999), "invalid weights file"),
], ids=["bool", "string", "repeated-index", "unknown-key", "huge-integer", "repeated-key",
        "repeated-top-level-key", "underscored-index", "signed-index", "spaced-index",
        "non-ascii-digit-index", "q-list", "q-string", "not-utf-8", "deeply-nested",
        "5000-digit-integer"])
def test_weights_file_is_refused_unless_well_formed(tmp_path, capsys, text, mention):
    # each of these files was once read as some other weights, or crashed
    path = tmp_path / "w.json"
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    expect_usage_error(capsys, ["ppt", "--weights", str(path)], mention)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.binary(), st.text()))
def test_any_weights_file_exits_0_or_2_without_a_traceback(content):
    # tempfile and redirect, not the function-scoped tmp_path and capsys, which
    # would be shared by every example
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "w.json")
        with open(path, "wb") as fh:
            fh.write(content if isinstance(content, bytes) else content.encode())
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["rho", "--weights", path])
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2)
    assert "Traceback" not in out + err
    if code == 2:
        assert out == "" and err.count("\n") == 1


@pytest.mark.parametrize("argv, mention", [
    (["state"], "required: --phi"),
    (["state", "--phi", "1", "--bogus"], "--bogus"),
    (["sweep", "--parameter", "beta", "--start", "0", "--stop", "1", "--steps", "3"],
     "--parameter"),
    (["witness", "--weights", "w.json", "--seed", "1.5"], "--seed"),
    ([], "required: command"),
    (["sweep", "--param", "q1", "--start", "0", "--stop", "0.5", "--step", "3"],
     "--parameter"),
    (["boost", "--alpha", "fast"], "--alpha: must be a finite number, got 'fast'"),
    (["boost", "--alpha=-1"], "--alpha: must be nonnegative, got '-1'"),
    (["boost", "--alpha", "1", "--delta1=-0.5"], "--delta1: must be nonnegative"),
    (["boost", "--alpha", "1", "--delta2=-1e-300"], "--delta2: must be nonnegative"),
    (["sweep", "--parameter", "alpha", "--start", "0", "--stop", "1", "--steps", "3",
      "--delta1=-2"], "--delta1: must be nonnegative"),
    (["sweep", "--parameter", "alpha", "--start", "0", "--stop", "1", "--steps", "3",
      "--delta2=-2"], "--delta2: must be nonnegative"),
    (["witness", "--weights", "w.json", "--floor-samples", "10", "--seed", "-1"],
     "--seed: must be a nonnegative integer, got '-1'"),
    # integers are ASCII digits and floats plain ASCII decimals; int() and float()
    # alone read all of these as numbers
    (["state", "--phi", "1_0"], "--phi: must be a nonnegative integer, got '1_0'"),
    (["state", "--phi", "+3"], "--phi: must be a nonnegative integer, got '+3'"),
    (["state", "--phi", "\u0663"], "--phi: must be a nonnegative integer"),
    (["sweep", "--parameter", "q1", "--start", "0", "--stop", "0.5", "--steps", " 10"],
     "--steps: must be a nonnegative integer, got ' 10'"),
    (["witness", "--weights", "w.json", "--floor-samples", "1_000"],
     "--floor-samples: must be a nonnegative integer, got '1_000'"),
    (["witness", "--weights", "w.json", "--floor-samples", "10", "--seed", "\u0663"],
     "--seed: must be a nonnegative integer"),
    (["boost", "--alpha", "1_0"], "--alpha: must be a finite number, got '1_0'"),
    (["boost", "--alpha", "\u0661"], "--alpha: must be a finite number"),
    (["ppt", "--weights", "w.json", "--theta1", " 0.5"],
     "--theta1: must be a finite number, got ' 0.5'"),
    (["sweep", "--parameter", "alpha", "--start", "\uff11", "--stop", "2", "--steps", "3",
      "--weights", "w.json"], "--start: must be a finite number"),
    (["boost", "--alpha", "1", "--e", "0,0,1_0"],
     "--e: expected comma-separated floats, got '0,0,1_0'"),
    # longer than int()'s digit limit: refused by the grammar, not by int()
    (["witness", "--weights", "w.json", "--floor-samples", "1" + "0" * 5000],
     "--floor-samples: must be a nonnegative integer"),
], ids=["missing-flag", "unknown-flag", "bad-choice", "non-integer-seed", "no-command",
        "flag-prefixes", "non-numeric-float", "negative-alpha", "negative-delta1",
        "negative-delta2", "sweep-negative-delta1", "sweep-negative-delta2",
        "negative-seed", "underscored-phi", "signed-phi", "non-ascii-phi", "spaced-steps",
        "underscored-floor-samples", "non-ascii-seed", "underscored-alpha",
        "non-ascii-alpha", "spaced-theta1", "fullwidth-start", "underscored-vector",
        "5001-digit-floor-samples"])
def test_argparse_usage_errors_are_one_line(capsys, argv, mention):
    expect_usage_error(capsys, argv, mention)


def float_vector(text):
    """A vector flag read by float() alone, as before the decimal grammar: the reference."""
    v = np.array([float(part) for part in text.split(",")])
    v = np.ldexp(v, -np.frexp(np.max(np.abs(v)))[1])
    return v / np.linalg.norm(v)


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(FINITE, st.integers(min_value=0), st.lists(FINITE, min_size=3, max_size=3))
def test_the_grammar_refuses_nothing_the_program_writes(x, n, v):
    # repr is what the benchmark writes and %.17g what a sweep's CSV holds;
    # float.hex tells -0.0 from 0.0 and keeps every subnormal bit
    assert cli._finite(repr(x)).hex() == x.hex()
    assert cli._finite("%.17g" % x).hex() == x.hex()
    assert cli._nonnegative_int(str(n)) == n
    assume(any(v))
    text = ",".join(map(repr, v))
    assert cli._parse_vec(text).tobytes() == float_vector(text).tobytes()


@pytest.mark.parametrize("text", ["+1.5", ".5e0", "-0.0", "1e+16", "2.", "1E-3", "007"])
def test_every_plain_decimal_still_parses(text):
    assert cli._finite(text).hex() == float(text).hex()


@pytest.mark.parametrize("extra, mention", [
    (["--floor", "5"], "--floor"),
    (["--se", "3"], "--se"),
    (["--theta", "0.3"], "unrecognized arguments: --theta"),
], ids=["floor", "se", "theta"])
def test_a_flag_prefix_is_not_the_flag(tmp_path, capsys, extra, mention):
    expect_usage_error(capsys, ["witness", "--weights", write_weights(tmp_path, ACCEPTANCE),
                                *extra], mention)


@pytest.mark.parametrize("argv", [["--version"], ["--help"], ["sweep", "--help"]])
def test_help_and_version_still_exit_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().err == ""


#: (--parameter, flag) pairs where the grid overrides the flag or nothing reads it
SWEEP_IGNORES = [("alpha", "theta1"), ("alpha", "theta2"), ("theta1", "theta1"),
                 ("theta2", "theta2"),
                 *[(parameter, flag) for parameter in ("theta1", "theta2", "q1")
                   for flag in ("delta1", "delta2", "chi1", "chi2")]]


@pytest.mark.parametrize("argv, weights, mention", [
    (["--parameter", "alpha", "--start", "0", "--stop", "1"], None, "--weights"),
    (["--parameter", "theta2", "--start", "0", "--stop", "1"], ({1: 0.5, 2: 0.5}, "free"),
     "odd-parity"),
    (["--parameter", "theta1", "--start", "0", "--stop", "1"], ({2: 1.0}, "even"),
     "odd-parity"),
    (["--parameter", "q1", "--start", "0", "--stop", "0.6"], None, "[0, 0.5]"),
    (["--parameter", "alpha", "--start", "-1", "--stop", "1"], (ACCEPTANCE, "odd"),
     "--start"),
    (["--parameter", "q1", "--start", "0", "--stop", "0.5", "--weights", "/nonexistent.json"],
     None, "--weights"),
    *[(["--parameter", parameter, "--start", "0", "--stop", "0.5", f"--{flag}", "1"],
       None if parameter == "q1" else (ACCEPTANCE, "odd"),
       f"a sweep over {parameter} does not read --{flag}") for parameter, flag in SWEEP_IGNORES],
], ids=["alpha-without-weights", "free-weights", "even-weights", "q1-past-half",
        "alpha-negative-start", "q1-with-weights",
        *[f"{parameter}-with-{flag}" for parameter, flag in SWEEP_IGNORES]])
def test_sweep_refuses_what_it_cannot_sweep(tmp_path, capsys, argv, weights, mention):
    if weights:
        argv = argv + ["--weights", write_weights(tmp_path, *weights)]
    expect_usage_error(capsys, ["sweep", *argv, "--steps", "5"], mention)


def test_weights_file_must_hold_an_object(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[0.4, 0.2, 0.2, 0.2]")
    expect_usage_error(capsys, ["rho", "--weights", str(path)], "JSON object")


def test_measure_of_the_edge_state_itself_is_zero(tmp_path, capsys):
    # the edge mixture coincides with the edge state: no witness direction exists
    code, out, err = run(capsys, "measure", "--weights", write_weights(tmp_path, EDGE))
    assert code == 0 and err == ""
    assert json.loads(out)["hs_measure_to_edge"] == 0.0


@pytest.mark.parametrize("command, flag, value", [
    ("witness", "--theta", "0.3"), ("measure", "--theta", "0.3"), ("ppt", "--theta", "0.3"),
    *[(c, "--seed", "1") for c in ("state", "rho", "boost", "ppt", "measure", "sweep",
                                   "witness")],
    *[(c, "--config", "cfg.json") for c in cli.COMMANDS]])
def test_flags_a_command_does_not_read_are_refused(tmp_path, capsys, command, flag, value):
    # witness, measure and ppt print closed forms of the Bell-type angle, only
    # witness with --floor-samples has a seed to use, and values come from flags alone
    flags = [f"--{k}={v}" for k, v in base_flags(tmp_path, command).items()]
    expect_usage_error(capsys, [command, *flags, flag, value], flag)


#: one value per flag, other than its default or base value
ALTERNATES = {"--phi": "2", "--theta": "0.3", "--theta1": "0.5", "--theta2": "0.7",
              "--full": None, "--weights": EDGE, "--alpha": "2", "--e": "1,0,0",
              "--delta1": "1", "--delta2": "1", "--p1": "1,0,0", "--p2": "0,1,0",
              "--floor-samples": "100", "--seed": "9", "--parameter": "theta1",
              "--start": "0.1", "--stop": "0.4", "--steps": "4", "--chi1": "0.5",
              "--chi2": "2.5"}

#: flags whose effect needs another flag
NEEDS = {("witness", "--seed"): ["--floor-samples", "100"]}

#: the --parameter of the base sweep for each sweep flag: one whose rows read it
SWEEP_READS = {"--parameter": "theta2", "--theta1": "q1", "--theta2": "q1", "--start": "q1",
               "--stop": "q1", "--steps": "q1", "--weights": "theta2", "--delta1": "alpha",
               "--delta2": "alpha", "--chi1": "alpha", "--chi2": "alpha"}


@pytest.mark.parametrize("command, flag", [
    (c, f) for c in cli.COMMANDS for f in {**cli.COMMANDS[c][2], **cli._COMMON}
    if f not in ("--out", "--record")])
def test_every_flag_changes_the_output(tmp_path, capsys, command, flag):
    # a flag that leaves the output as it is does nothing a user can see
    assert flag in ALTERNATES, f"no alternate value for {flag}"
    value = ALTERNATES[flag]
    if flag == "--weights":
        value = write_weights(tmp_path, value, name="alt.json")
    base = {f"--{k}": v for k, v in base_flags(tmp_path, command).items()}
    if command == "sweep":
        assert flag in SWEEP_READS, f"no sweep parameter reads {flag}"
        base["--parameter"] = SWEEP_READS[flag]
        if base["--parameter"] != "q1":
            base["--weights"] = write_weights(tmp_path, ACCEPTANCE)
    outputs = []
    for flags in (base, {**base, flag: value}):
        argv = [x for kv in flags.items() for x in kv if x is not None]
        code, out, err = run(capsys, command, *NEEDS.get((command, flag), []), *argv)
        assert code == 0 and err == ""
        outputs.append(out)
    assert outputs[0] != outputs[1]


@pytest.mark.parametrize("argv", [
    ["state", "--phi", "1", "--out"],
    ["sweep", "--parameter", "q1", "--start", "0", "--stop", "0.5", "--steps", "3", "--record"],
], ids=["out", "record"])
def test_an_unwritable_output_path_is_a_usage_error(tmp_path, capsys, argv):
    # a sweep writes its record before its CSV, so stdout stays empty
    expect_usage_error(capsys, [*argv, str(tmp_path / "missing" / "x.json")], "cannot write")
