"""End-to-end command-line checks, through subprocesses and in process."""

import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from qcrb import analysis, cli, errors, matkernel
from qcrb import oracle as oracle_mod

SPIN_QC = {"model": "spin_rotation", "s": 1.0, "m_z": 0.0, "theta": [0.7, 1.1]}
SPIN_GEN = {"model": "spin_rotation", "s": 1.5, "m_z": 0.5, "theta": [0.9, 0.3]}
N0 = {"model": "shifted_number", "n": 0, "theta": [0.2, -0.4]}
N3 = {"model": "shifted_number", "n": 3, "theta": [0.3, 0.1]}
SQUEEZED = {"model": "squeezed", "theta": [0.1, -0.2, 0.4, 0.3]}


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
    assert abs(doc["oracle"]["value"] - doc["bound"]["value"]) <= \
        matkernel.TOL["oracle_agreement"] * max(1.0, doc["bound"]["value"])
    assert abs(doc["oracle"]["gap"]) <= 1e-9 * max(1.0, doc["oracle"]["value"])


def test_bound_weight_file(tmp_path):
    cfg = write_json(tmp_path / "m.json", SPIN_QC)
    wpath = write_json(tmp_path / "w.json", [[2.0, 0.0], [0.0, 1.0]])
    proc = run_cli("bound", "--config", cfg, "--weight", wpath)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["weight"] == wpath
    assert doc["bound"]["method"] == "quasi_classical"


# A weight eigenvalue of 5e-10 in normalized form: above the one rank cut, so the
# closed form and the oracle both take the full-rank coherent value.
def test_bound_oracle_agrees_on_a_nearly_rank_one_weight(tmp_path, capsys):
    cfg = write_json(tmp_path / "m.json", N0)
    wpath = write_json(tmp_path / "w.json", [[1.0, 0.0], [0.0, 1e-9]])
    assert cli.main(["bound", "--config", cfg, "--weight", wpath, "--oracle"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["bound"]["attained"] is True and "rank" not in doc["bound"]["notes"]
    assert doc["oracle"]["agreement"] is True
    assert abs(doc["bound"]["value"] - doc["oracle"]["value"]) <= \
        matkernel.TOL["oracle_agreement"] * doc["bound"]["value"]
    assert abs(doc["bound"]["value"] - (0.5 + 5e-10 + 2.0 * np.sqrt(2.5e-10))) <= 1e-12


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
    # json writes these as NaN and Infinity, which json also reads back
    ([[1.0, 0.0], [0.0, float("nan")]], "SchemaError"),
    ([[1.0, 0.0], [0.0, float("inf")]], "SchemaError"),
])
def test_boundary_beta_validates_weight(tmp_path, weight, error):
    wpath = write_json(tmp_path / "w.json", weight)
    proc = run_cli("boundary", "--beta", "0.6", "--weight", wpath, "--samples", "5")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert json.loads(proc.stderr)["error"] == error


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_boundary_rejects_empty_sample_count(samples):
    proc = run_cli("boundary", "--beta", "0.5", "--samples", samples)
    assert proc.returncode == 2
    assert proc.stdout == ""
    err = json.loads(proc.stderr)
    assert err["error"] == "DomainError"
    assert err["exit_code"] == 2


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


def test_simulate_rejects_a_pvm_of_another_space(tmp_path, capsys):
    # a quasi-classical PVM lives on the 3-dim model space; N0 reads the embedding
    pvm_path = str(tmp_path / "pvm.json")
    assert cli.main(["pvm", "--config", write_json(tmp_path / "qc.json", SPIN_QC),
                     "--out", pvm_path]) == 0
    assert cli.main(["simulate", "--config", write_json(tmp_path / "n0.json", N0),
                     "--pvm", pvm_path, "--samples", "10"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "SchemaError"


def test_simulate_zero_samples(tmp_path):
    cfg = write_json(tmp_path / "m.json", SPIN_QC)
    pvm_path = str(tmp_path / "pvm.json")
    run_cli("pvm", "--config", cfg, "--out", pvm_path)
    proc = run_cli("simulate", "--config", cfg, "--pvm", pvm_path,
                   "--samples", "0")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["insufficient_data"] is True


def custom_config(seed, dim, m):
    """A custom model with random complex amplitudes, generic for m >= 2."""
    rng = np.random.default_rng(seed)
    phi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    phi = phi / np.linalg.norm(phi)
    dphi = 0.5 * (rng.normal(size=(m, dim)) + 1j * rng.normal(size=(m, dim)))
    pairs = lambda v: [[float(c.real), float(c.imag)] for c in v]
    return {"model": "custom", "dim": dim, "m": m, "phi": pairs(phi),
            "dphi": [pairs(row) for row in dphi], "theta": [0.0] * m}


# spin s = 2 has dimension 5 = 2m + 1, the size of the embedding
@pytest.mark.parametrize("config", [
    SPIN_GEN, N3, custom_config(4, 5, 3),
    {"model": "spin_rotation", "s": 2.0, "m_z": 1.0, "theta": [0.9, 0.3]},
], ids=["spin", "shifted_n3", "custom_m3", "spin_dim_5"])
def test_pvm_generic_model(tmp_path, capsys, config):
    cfg = write_json(tmp_path / "m.json", config)
    pvm_path = str(tmp_path / "pvm.json")
    assert cli.main(["pvm", "--config", cfg, "--out", pvm_path]) == 0
    doc = json.loads((tmp_path / "pvm.json").read_text())
    assert doc["classification"] == "generic"
    assert doc["method"] == "oracle"
    assert doc["verification"]["unbiased"] is True
    value = doc["closed_form_value"]
    assert abs(doc["verification"]["trGV"] - value) <= 1e-8 * max(1.0, abs(value))
    assert max(doc["verification"]["algebra_residuals"].values()) <= 1e-9

    assert cli.main(["simulate", "--config", cfg, "--pvm", pvm_path,
                     "--samples", "20000", "--seed", "5"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert np.abs(np.array(summary["z_mean"])).max() <= 4.0
    assert np.abs(np.array(summary["z_cov"])).max() <= 4.0


SQUEEZED_WEIGHT = np.diag([2.0, 1.0, 3.0, 0.5]).tolist()


@pytest.mark.parametrize("config, weight, method, oracle_calls", [
    (SPIN_QC, None, "quasi_classical", 0),
    (N0, None, "closed_form_2param", 0),
    (SQUEEZED, None, "closed_form_coherent", 0),
    (SQUEEZED, SQUEEZED_WEIGHT, "closed_form_coherent", 0),
    (SPIN_GEN, None, "oracle", 1),
], ids=["quasi_classical", "coherent_m2", "coherent_m4", "coherent_m4_weight", "generic"])
def test_pvm_runs_the_oracle_only_for_generic_models(tmp_path, capsys, count_calls, config,
                                                     weight, method, oracle_calls):
    cfg = write_json(tmp_path / "m.json", config)
    extra = [] if weight is None else ["--weight", write_json(tmp_path / "w.json", weight)]
    calls = count_calls(oracle_mod, "minimize")
    assert cli.main(["pvm", "--config", cfg, *extra]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["method"] == method
    assert len(calls) == oracle_calls
    value = doc["closed_form_value"]
    assert doc["verification"]["unbiased"] is True
    assert abs(doc["verification"]["trGV"] - value) <= 1e-8 * max(1.0, abs(value))


# JS = diag(1e4, 1 + 2.5e-15) and Jt_12 = 5e-6, so beta = 5e-8: ||Jt|| is below
# 1e-9 * ||JS||, yet the beta spectrum is not quasi-classical
SMALL_BETA = {"model": "custom", "dim": 3, "m": 2,
              "phi": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
              "dphi": [[[0.0, 0.0], [50.0, 0.0], [0.0, 0.0]],
                       [[0.0, 0.0], [0.0, 2.5e-8], [0.5, 0.0]]],
              "theta": [0.0, 0.0]}


def test_one_quasi_classical_rule_on_a_small_beta(tmp_path, capsys):
    cfg = write_json(tmp_path / "m.json", SMALL_BETA)
    assert cli.main(["analyze", "--config", cfg]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert abs(doc["betas"][0] - 5e-8) <= 1e-12
    assert doc["classification"] == "generic"
    assert doc["quasi_classical"] == (doc["classification"] == "quasi_classical")
    assert cli.main(["bound", "--config", cfg]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["bound"]["method"] == "closed_form_2param"


def test_pvm_singular_weight_on_coherent_model(tmp_path):
    # rank-1 weight on a coherent model: the infimum is not attained
    cfg = write_json(tmp_path / "m.json", N0)
    wpath = write_json(tmp_path / "w.json", [[1.0, 0.0], [0.0, 0.0]])
    proc = run_cli("pvm", "--config", cfg, "--weight", wpath)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert json.loads(proc.stderr)["error"] == "SingularWeight"


def test_oracle_command(tmp_path):
    cfg = write_json(tmp_path / "m.json", SPIN_GEN)
    proc = run_cli("oracle", "--config", cfg, "--weight", "identity")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["certificate"]["residual"] <= 1e-6
    assert doc["closed_form"]["difference"] <= 1e-4
    assert doc["closed_form"]["difference"] <= 1e-8 * max(1.0, doc["value"])
    assert abs(doc["gap"]) <= 1e-9 * max(1.0, doc["value"])
    assert doc["attained"] is True
    assert "restarts" not in doc and "oracle_config" not in doc


@pytest.mark.parametrize("theta", [[-0.4986, -0.0371], [0.4293, 0.2563]])
def test_oracle_command_coherent_points(tmp_path, capsys, theta):
    # the penalty search took 7-8 s here and returned 1.99999997
    cfg = write_json(tmp_path / "m.json", {"model": "shifted_number", "n": 0, "theta": theta})
    assert cli.main(["oracle", "--config", cfg]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert abs(doc["value"] - 2.0) <= 1e-9
    assert doc["certificate"]["residual"] <= 1e-9


def test_oracle_command_reports_a_failed_closed_form(tmp_path, capsys, monkeypatch):
    cfg = write_json(tmp_path / "m.json", SPIN_GEN)

    def failing(fd, g):
        raise errors.ConsistencyError("closed form failed")

    monkeypatch.setattr(analysis, "closed_form", failing)
    assert cli.main(["oracle", "--config", cfg]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert json.loads(out.err)["error"] == "ConsistencyError"


@pytest.mark.parametrize("command", [["oracle"], ["bound", "--oracle"], ["analyze"]])
def test_oracle_config_block_schema_error(tmp_path, command):
    cfg = write_json(tmp_path / "m.json", {**SPIN_GEN, "oracle": {"restarts": 3, "seed": 2}})
    proc = run_cli(*command, "--config", cfg)
    assert proc.returncode == 2
    assert proc.stdout == ""
    err = json.loads(proc.stderr)
    assert err["error"] == "SchemaError"
    assert "'oracle'" in err["message"]


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


@pytest.mark.parametrize("config", [
    {"model": "shifted_number", "n": 0, "theta": [float("nan"), 0.3]},
    {"model": "squeezed", "theta": [0.1, -0.2, 0.4, float("inf")]},
    {"model": "custom", "dim": 2, "m": 1, "phi": [[float("nan"), 0.0], [0.0, 0.0]],
     "dphi": [[[0.0, 0.0], [1.0, 0.0]]], "theta": [0.0]},
])
def test_non_finite_config_numbers_schema_error(tmp_path, config):
    # json writes NaN and Infinity, and reads them back
    cfg = write_json(tmp_path / "m.json", config)
    proc = run_cli("analyze", "--config", cfg)
    assert proc.returncode == 2
    assert proc.stdout == ""
    err = json.loads(proc.stderr)
    assert err["error"] == "SchemaError"
    assert err["exit_code"] == 2


def test_pvm_coherent_computes_the_bound_once(tmp_path, count_calls, capsys):
    cfg = write_json(tmp_path / "sq.json", SQUEEZED)
    calls = count_calls(analysis, "cr_bound_coherent")
    assert cli.main(["pvm", "--config", cfg]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["classification"] == "coherent"
    assert abs(doc["verification"]["trGV"] - doc["closed_form_value"]) <= 1e-8
    assert len(calls) == 1


IMPORT_PROBE = (
    "import json, sys\n"
    "import qcrb.cli\n"
    "code = qcrb.cli.main(sys.argv[1:])\n"
    "sys.stderr.write(json.dumps({'code': code, 'scipy': 'scipy' in sys.modules}))\n"
)


# No command loads scipy, the oracle included: its SDP runs on numpy alone.
@pytest.mark.parametrize("command, config, extra, scipy_loaded", [
    ("analyze", SPIN_GEN, [], False),
    ("bound", SPIN_GEN, [], False),
    ("bound", SQUEEZED, [], False),
    ("pvm", N0, [], False),
    ("simulate", N0, ["--samples", "50"], False),
    ("boundary", SPIN_GEN, ["--weight", "identity", "--samples", "5"], False),
    ("oracle", SPIN_GEN, [], False),
    ("bound", SPIN_GEN, ["--oracle"], False),
    ("pvm", SPIN_GEN, [], False),
])
def test_only_the_oracle_loads_scipy(tmp_path, command, config, extra, scipy_loaded):
    cfg = write_json(tmp_path / "m.json", config)
    if command == "simulate":
        pvm_path = str(tmp_path / "pvm.json")
        assert run_cli("pvm", "--config", cfg, "--out", pvm_path).returncode == 0
        extra = extra + ["--pvm", pvm_path]
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, command, "--config", cfg, *extra],
        capture_output=True, text=True, timeout=300)
    probe = json.loads(proc.stderr.strip().splitlines()[-1])
    assert probe == {"code": 0, "scipy": scipy_loaded}


# --seed and --samples exist only where a command reads them
@pytest.mark.parametrize("command, flag", [
    ("analyze", "--seed"), ("pvm", "--seed"), ("boundary", "--seed"),
    ("bound", "--samples"), ("oracle", "--samples"),
])
def test_flags_a_command_does_not_read_are_rejected(tmp_path, capsys, command, flag):
    cfg = write_json(tmp_path / "m.json", SPIN_GEN)
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--config", cfg, flag, "3"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err


def test_only_simulate_reports_a_seed(tmp_path, capsys):
    cfg = write_json(tmp_path / "m.json", SPIN_QC)
    pvm_path = str(tmp_path / "pvm.json")
    assert cli.main(["pvm", "--config", cfg, "--out", pvm_path]) == 0
    assert "seed" not in json.loads((tmp_path / "pvm.json").read_text())
    assert cli.main(["analyze", "--config", cfg]) == 0
    assert "seed" not in json.loads(capsys.readouterr().out)
    assert cli.main(["simulate", "--config", cfg, "--pvm", pvm_path,
                     "--samples", "10", "--seed", "7"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 7


@pytest.mark.parametrize("t3, error", [(4.5, "DegenerateModel"), (400.0, "NonFinite"),
                                       (1e6, "NonFinite")])
def test_bound_at_strong_squeezing_is_a_typed_model_error(tmp_path, t3, error):
    # past t3 of about 4.07 the Fisher matrix is singular at the dust level,
    # and past about 355 sinh(2 t3) leaves the float range
    cfg = write_json(tmp_path / "m.json", {"model": "squeezed", "theta": [0.1, -0.2, t3, 0.3]})
    proc = run_cli("bound", "--config", cfg)
    assert proc.returncode == 3
    assert proc.stdout == "" and "Traceback" not in proc.stderr
    err = json.loads(proc.stderr)
    assert err["error"] == error and err["exit_code"] == 3


def test_squeezed_trunc_key_is_a_schema_error(tmp_path):
    cfg = write_json(tmp_path / "m.json", dict(SQUEEZED, trunc=64))
    proc = run_cli("analyze", "--config", cfg)
    assert proc.returncode == 2
    assert json.loads(proc.stderr)["error"] == "SchemaError"


def test_misspelt_config_key_is_a_schema_error(tmp_path):
    cfg = write_json(tmp_path / "m.json", dict(N0, trunk=40))
    proc = run_cli("analyze", "--config", cfg)
    assert proc.returncode == 2
    err = json.loads(proc.stderr)
    assert err["error"] == "SchemaError" and "'trunk'" in err["message"]


@pytest.mark.parametrize("s", [1.0, 2.0, 20.0])
def test_spin_pvm_lives_on_the_spin_space(tmp_path, capsys, s):
    # a quasi-classical spin model is measured on its own 2s + 1 levels
    cfg = write_json(tmp_path / "m.json", dict(SPIN_QC, s=s))
    assert cli.main(["pvm", "--config", cfg]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["classification"] == "quasi_classical"
    d = int(2 * s + 1)
    assert all(len(o["projector"]) == d * d for o in doc["pvm"])
