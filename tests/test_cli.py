"""End-to-end command-line checks through subprocess."""

import csv
import json
import subprocess
import sys

import numpy as np
import pytest

SPIN_QC = {"model": "spin_rotation", "s": 1.0, "m_z": 0.0, "theta": [0.7, 1.1]}
SPIN_GEN = {"model": "spin_rotation", "s": 1.5, "m_z": 0.5, "theta": [0.9, 0.3],
            "oracle": {"restarts": 3, "seed": 2}}
N0 = {"model": "shifted_number", "n": 0, "theta": [0.2, -0.4]}


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "qcrb", *args],
                          capture_output=True, text=True, timeout=300)
    return proc


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def test_analyze_report_shape(tmp_path):
    cfg = write_json(tmp_path / "m.json", SPIN_QC)
    proc = run_cli("analyze", "--config", cfg)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["tool"] == "qcrb"
    assert doc["command"] == "analyze"
    assert doc["classification"] == "quasi_classical"
    assert doc["config"]["model"] == "spin_rotation"
    assert len(doc["JS"]) == 2
    # 17-significant-digit floats survive a JSON roundtrip exactly
    assert doc["theta"][0] == 0.7


def test_analyze_deterministic_bytes(tmp_path):
    cfg = write_json(tmp_path / "m.json", N0)
    a = run_cli("analyze", "--config", cfg)
    b = run_cli("analyze", "--config", cfg)
    assert a.stdout == b.stdout


def test_bound_oracle_cross_check(tmp_path):
    cfg = write_json(tmp_path / "m.json", SPIN_GEN)
    proc = run_cli("bound", "--config", cfg, "--weight", "identity", "--oracle")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["bound"]["method"] == "closed_form_2param"
    assert doc["oracle"]["agreement"] is True
    assert abs(doc["oracle"]["value"] - doc["bound"]["value"]) <= 1e-4


def test_bound_weight_file(tmp_path):
    cfg = write_json(tmp_path / "m.json", SPIN_QC)
    wpath = write_json(tmp_path / "w.json", [[2.0, 0.0], [0.0, 1.0]])
    proc = run_cli("bound", "--config", cfg, "--weight", wpath)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["weight"] == wpath
    assert doc["bound"]["method"] == "quasi_classical"


def test_bound_rejects_indefinite_weight(tmp_path):
    cfg = write_json(tmp_path / "m.json", SPIN_QC)
    wpath = write_json(tmp_path / "w.json", [[1.0, 0.0], [0.0, -1.0]])
    proc = run_cli("bound", "--config", cfg, "--weight", wpath)
    assert proc.returncode == 2
    err = json.loads(proc.stderr)
    assert err["error"] == "DomainError"


def test_boundary_beta_csv():
    proc = run_cli("boundary", "--beta", "0.6", "--samples", "7")
    assert proc.returncode == 0, proc.stderr
    rows = list(csv.reader(proc.stdout.strip().splitlines()))
    assert rows[0] == ["x", "z", "u", "v"]
    assert len(rows) == 8
    data = np.array([[float(c) for c in r] for r in rows[1:]])
    resid = np.abs(np.sqrt(data[:, 2] - 1) + np.sqrt(data[:, 3] - 1)
                   - 0.6 * np.sqrt(data[:, 2] * data[:, 3]))
    assert resid.max() <= 1e-10


def test_boundary_from_model_with_weight(tmp_path):
    cfg = write_json(tmp_path / "m.json", SPIN_GEN)
    proc = run_cli("boundary", "--config", cfg, "--weight", "identity",
                   "--samples", "5")
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.strip().splitlines()
    assert rows[0] == "x,z,u,v,trGV"
    assert len(rows) == 6


@pytest.mark.parametrize("weight, error", [
    ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], "SchemaError"),
    ([[1.0, 0.0], [0.0, -1.0]], "DomainError"),
    ([["a", 0.0], [0.0, 1.0]], "SchemaError"),
])
def test_boundary_beta_validates_weight(tmp_path, weight, error):
    wpath = write_json(tmp_path / "w.json", weight)
    proc = run_cli("boundary", "--beta", "0.6", "--weight", wpath, "--samples", "5")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert json.loads(proc.stderr)["error"] == error


def test_boundary_requires_two_params(tmp_path):
    cfg = write_json(tmp_path / "sq.json",
                     {"model": "squeezed", "theta": [0.0, 0.0, 0.4, 0.1]})
    proc = run_cli("boundary", "--config", cfg)
    assert proc.returncode == 2


def test_pvm_then_simulate_roundtrip(tmp_path):
    cfg = write_json(tmp_path / "m.json", N0)
    pvm_path = str(tmp_path / "pvm.json")
    proc = run_cli("pvm", "--config", cfg, "--weight", "identity",
                   "--out", pvm_path)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads((tmp_path / "pvm.json").read_text())
    assert doc["classification"] == "coherent"
    assert abs(doc["verification"]["trGV"] - doc["closed_form_value"]) <= 1e-6
    assert max(doc["verification"]["algebra_residuals"].values()) <= 1e-9
    assert abs(sum(doc["verification"]["probabilities"]) - 1.0) <= 1e-9

    csv_path = str(tmp_path / "runs.csv")
    sim = run_cli("simulate", "--config", cfg, "--pvm", pvm_path,
                  "--samples", "20000", "--seed", "11", "--out", csv_path)
    assert sim.returncode == 0, sim.stderr
    summary = json.loads(sim.stdout)
    assert summary["count"] == 20000
    assert np.abs(np.array(summary["z_mean"])).max() <= 4.0
    assert np.abs(np.array(summary["z_cov"])).max() <= 4.0
    with open(csv_path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["outcome_1", "outcome_2"]
    assert len(rows) == 20001


def test_simulate_deterministic(tmp_path):
    cfg = write_json(tmp_path / "m.json", SPIN_QC)
    pvm_path = str(tmp_path / "pvm.json")
    run_cli("pvm", "--config", cfg, "--out", pvm_path)
    a = run_cli("simulate", "--config", cfg, "--pvm", pvm_path,
                "--samples", "500", "--seed", "3")
    b = run_cli("simulate", "--config", cfg, "--pvm", pvm_path,
                "--samples", "500", "--seed", "3")
    assert a.stdout == b.stdout


def test_simulate_zero_samples(tmp_path):
    cfg = write_json(tmp_path / "m.json", SPIN_QC)
    pvm_path = str(tmp_path / "pvm.json")
    run_cli("pvm", "--config", cfg, "--out", pvm_path)
    proc = run_cli("simulate", "--config", cfg, "--pvm", pvm_path,
                   "--samples", "0")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["insufficient_data"] is True


def test_pvm_generic_model_unsupported(tmp_path):
    cfg = write_json(tmp_path / "m.json", SPIN_GEN)
    proc = run_cli("pvm", "--config", cfg)
    assert proc.returncode == 5
    assert json.loads(proc.stderr)["error"] == "NotSupported"


def test_oracle_command(tmp_path):
    cfg = write_json(tmp_path / "m.json", SPIN_GEN)
    proc = run_cli("oracle", "--config", cfg, "--weight", "identity")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["certificate"]["residual"] <= 1e-6
    assert doc["closed_form"]["difference"] <= 1e-4
    assert doc["oracle_config"]["restarts"] == 3


def test_missing_config_schema_error():
    proc = run_cli("analyze", "--config", "/nonexistent/x.json")
    assert proc.returncode == 2
    err = json.loads(proc.stderr)
    assert err["error"] == "SchemaError"
    assert err["exit_code"] == 2


def test_unknown_model_schema_error(tmp_path):
    cfg = write_json(tmp_path / "m.json", {"model": "nope", "theta": [0.0]})
    proc = run_cli("analyze", "--config", cfg)
    assert proc.returncode == 2
