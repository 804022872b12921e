import json

import numpy as np
import pytest

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
    with pytest.raises(SystemExit) as exc:
        main(["state", "--phi", "17"])
    assert exc.value.code == 2


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
    assert rec["seed"] == 2024
    assert rec["tool_version"]
    assert len(rec["rows"]) == 5
    assert rec["inputs"]["parameter"] == "theta2"


def test_config_file_defaults(tmp_path, capsys):
    wpath = write_weights(tmp_path, {1: 1.0})
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"theta2": 1.5}))
    code, out, _ = run(capsys, "measure", "--weights", wpath,
                       "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["theta2"] == 1.5
    # explicit flag wins over the config value
    code, out, _ = run(capsys, "measure", "--weights", wpath,
                       "--config", str(cfg), "--theta2", "0.5")
    assert json.loads(out)["theta2"] == 0.5


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_sweep_rejects_non_finite_weights(tmp_path, capsys, bad):
    path = write_weights(tmp_path, {1: bad, 3: 1.0})
    code, out, err = run(capsys, "sweep", "--parameter", "theta2", "--start", "0",
                         "--stop", "1", "--steps", "3", "--weights", path)
    assert code == 2
    assert out == "" and err.count("\n") == 1 and "finite" in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("flag", ["start", "stop", "theta1", "theta2",
                                  "delta1", "delta2", "chi1", "chi2"])
def test_sweep_rejects_non_finite_flags(capsys, flag, value):
    flags = {"parameter": "q1", "start": "0", "stop": "0.5", "steps": "3", flag: value}
    code, out, err = run(capsys, "sweep", *[f"--{k}={v}" for k, v in flags.items()])
    assert code == 2
    assert out == "" and err.count("\n") == 1 and f"--{flag}" in err


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


def test_config_never_overrides_an_explicit_flag(tmp_path, capsys):
    # an explicit flag wins even when it repeats the built-in default
    wpath = write_weights(tmp_path, {1: 1.0})
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"theta2": 1.5}))
    code, out, _ = run(capsys, "measure", "--weights", wpath,
                       "--config", str(cfg), "--theta2", "0.0")
    assert code == 0
    assert json.loads(out)["theta2"] == 0.0
