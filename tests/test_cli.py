"""End-to-end command-line checks, through subprocesses and in process."""

import csv
import dataclasses
import fractions
import gc
import json
import math
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from qcrb import analysis, cli, errors, matkernel, measurement, reportio
from qcrb import model as model_mod
from qcrb import oracle as oracle_mod

DATA = pathlib.Path(__file__).parent / "data"
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
    # an integer past the float range, which numpy cannot convert
    ([[10 ** 400, 0], [0, 1]], "SchemaError"),
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


# The infinite window gave a NaN curve (NonFinite, exit 3), and each size exited
# 1 with a numpy traceback: the Fock size is n = 1e14, whose n + 2 levels
# take 1.42 PiB. numpy refuses each size before it touches any memory; a size
# it could allocate is not tried here. A spin s whose lift Gram entry 2 s(s+1) would pass the float
# range (from about 9.48e153) is refused before any array is formed.
@pytest.mark.parametrize("argv, config", [
    (["boundary", "--beta", "1", "--window", "inf", "1", "--samples", "3"], None),
    (["boundary", "--beta", "1", "--samples", "10000000000000"], None),
    (["simulate", "--pvm", "n0_coherent_pvm.json", "--samples", "10000000000000"],
     "n0_coherent_config.json"),
    (["analyze"], {"model": "spin_rotation", "s": 9.49e153, "m_z": 0.0, "theta": [0.9, 0.3]}),
    (["analyze"], {"model": "spin_rotation", "s": 1e300, "m_z": 0.0, "theta": [0.9, 0.3]}),
    (["analyze"], {"model": "shifted_number", "n": 100000000000000, "theta": [0.1, 0.2]}),
], ids=["infinite_window", "boundary_samples", "simulate_samples", "spin_past_gram_range",
        "spin_1e300", "shifted_n_1e14"])
def test_unallocatable_or_non_finite_inputs_exit_2(tmp_path, capsys, argv, config):
    data = pathlib.Path(__file__).parent / "data"
    argv = [str(data / a) if a.endswith(".json") else a for a in argv]
    if isinstance(config, str):
        argv += ["--config", str(data / config)]
    elif config is not None:
        argv += ["--config", write_json(tmp_path / "m.json", config)]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    doc = json.loads(err)
    assert doc["error"] == "DomainError" and doc["exit_code"] == 2


def test_hyperbola_window_up_to_the_float_range():
    # a window of 1e200 overflowed x * x (a RuntimeWarning, then NonFinite, exit 3);
    # one whose rows pass the float range is an input error, with JSON on stderr
    proc = run_cli("boundary", "--beta", "1", "--window", "0", "1e200", "--samples", "3")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert len(proc.stdout.splitlines()) == 4
    proc = run_cli("boundary", "--beta", "1", "--window", "0", "1e308", "--samples", "3")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert json.loads(proc.stderr)["error"] == "DomainError"


# argparse before Python 3.13 took a negative bound written with an exponent,
# and -inf, for an option string: `boundary` exited 2 with its plain-text usage
# error "expected 2 arguments". Each is now a value, checked by the route.
def test_boundary_reads_every_negative_float():
    proc = run_cli("boundary", "--beta", "1", "--window", "-1e300", "1e300", "--samples", "3")
    assert (proc.returncode, proc.stderr) == (0, "")
    rows = [[float(c) for c in line.split(",")] for line in proc.stdout.splitlines()[1:]]
    assert rows == analysis.boundary_2param(1.0, count=3, x_window=(-1e300, 1e300)).tolist()
    for x, _, u, v in rows:
        # (u-1)(v-1) = 1 in exact arithmetic on the printed floats, relative to
        # the size of its terms, as test_analysis checks the curve
        uq, vq = fractions.Fraction(u), fractions.Fraction(v)
        miss = abs((uq - 1) * (vq - 1) - 1)
        assert miss <= fractions.Fraction(1e-15) * (uq * abs(vq - 1) + abs(uq - 1) * vq), x
    for argv in (["--beta", "-1e-3"], ["--beta", "1", "--window", "-inf", "1"]):
        proc = run_cli("boundary", *argv, "--samples", "3")
        assert (proc.returncode, proc.stdout) == (2, ""), argv
        err = json.loads(proc.stderr)
        assert (err["error"], err["exit_code"]) == ("DomainError", 2), argv


def _disagreeing_oracle(monkeypatch):
    solve = analysis.oracle_bound

    def off(fd, g):
        report, result = solve(fd, g)
        return report, dataclasses.replace(result, value=1.5 * result.value)

    monkeypatch.setattr(analysis, "oracle_bound", off)


# Checks of the command layer that no other test reaches, in process.
@pytest.mark.parametrize("argv, config, patch, code, error", [
    (["bound", "--config", "{not_json}"], None, None, 2, "SchemaError"),
    (["boundary"], None, None, 2, "SchemaError"),
    (["boundary", "--beta", "0.3"], SPIN_GEN, None, 2, "SchemaError"),
    (["bound", "--oracle"], N0, _disagreeing_oracle, 4, "ConsistencyError"),
    (["oracle"], SPIN_GEN, lambda mp: mp.setattr(oracle_mod, "MAX_ITER", 2), 4,
     "NonConvergence"),
], ids=["config_not_json", "boundary_without_input", "boundary_config_and_beta",
        "oracle_disagrees", "nonconvergence"])
def test_command_checks_reject_their_inputs(tmp_path, monkeypatch, cli_error, argv, config,
                                            patch, code, error):
    (tmp_path / "bad.json").write_text("{not json")
    if patch is not None:
        patch(monkeypatch)
    argv = [a.format(not_json=tmp_path / "bad.json") for a in argv]
    got, out, err = cli_error(argv, config)
    assert (got, err["error"], err["exit_code"]) == (code, error, code)
    if error == "ConsistencyError":
        assert json.loads(out)["DISAGREEMENT"] is True
    else:
        assert out == ""


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


@pytest.mark.parametrize("extra", [["--seed", "-1"], ["--samples", "-4"],
                                   ["--samples", "0", "--seed", "-1"]],
                         ids=["seed", "samples", "seed_without_shots"])
def test_simulate_rejects_negative_seed_and_samples(tmp_path, capsys, extra):
    out = tmp_path / "s.csv"
    assert cli.main(["simulate", "--config", str(DATA / "n0_coherent_config.json"),
                     "--pvm", str(DATA / "n0_coherent_pvm.json"), "--out", str(out),
                     *extra]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert json.loads(captured.err)["error"] == "DomainError"


# Every file the CLI opens: an OSError or undecodable bytes name the path (exit 2).
@pytest.mark.parametrize("command, bad", [
    (["bound", "--config", "{bad}"], "dir"),
    (["bound", "--config", "{bad}"], "binary"),
    (["bound", "--config", "{cfg}", "--weight", "{bad}"], "dir"),
    (["bound", "--config", "{cfg}", "--weight", "{bad}"], "binary"),
    (["simulate", "--config", "{cfg}", "--pvm", "{bad}"], "dir"),
    (["simulate", "--config", "{cfg}", "--pvm", "{bad}"], "binary"),
    (["pvm", "--config", "{cfg}", "--out", "{bad}"], "missing_dir"),
    (["pvm", "--config", "{cfg}", "--out", "{bad}"], "dir"),
    (["simulate", "--config", "{cfg}", "--pvm", "{pvm}", "--out", "{bad}"], "missing_dir"),
], ids=["config_dir", "config_binary", "weight_dir", "weight_binary", "pvm_dir", "pvm_binary",
        "pvm_out_missing_dir", "pvm_out_dir", "simulate_out_missing_dir"])
def test_unusable_files_are_schema_errors(tmp_path, capsys, command, bad):
    paths = {"dir": tmp_path, "binary": tmp_path / "b.json",
             "missing_dir": tmp_path / "no" / "such" / "p.json"}
    (tmp_path / "b.json").write_bytes(b'{"\xff\xfe"}')   # not UTF-8
    fields = {"bad": str(paths[bad]), "cfg": str(DATA / "n0_coherent_config.json"),
              "pvm": str(DATA / "n0_coherent_pvm.json")}
    assert cli.main([arg.format(**fields) for arg in command]) == 2
    captured = capsys.readouterr()
    err = json.loads(captured.err)
    assert err["error"] == "SchemaError" and str(paths[bad]) in err["message"]
    assert captured.out == ""


def _pvm_with(key, value):
    """The n0_coherent PVM file with one number of its first entry's `key` replaced."""
    doc = json.loads((DATA / "n0_coherent_pvm.json").read_text())
    doc["pvm"][0][key][0] = value
    return json.dumps(doc)


BIG = 10 ** 400
DEEP = "[" * 100000 + "]" * 100000


# An integer past the float range, where numpy reads numbers, and a document
# nested past the recursion limit of the JSON reader, are input errors: exit 2
# with one line of error JSON. Both exited 1 with a traceback.
@pytest.mark.parametrize("command, text", [
    (["bound", "--config", "{cfg}", "--weight", "{bad}"], json.dumps([[BIG, 0], [0, 1]])),
    (["pvm", "--config", "{cfg}", "--weight", "{bad}"], json.dumps([[1, 0], [0, BIG]])),
    (["oracle", "--config", "{cfg}", "--weight", "{bad}"], json.dumps([[1, BIG], [BIG, 1]])),
    (["boundary", "--config", "{cfg}", "--weight", "{bad}"], json.dumps([[BIG, 0], [0, 1]])),
    (["simulate", "--config", "{cfg}", "--pvm", "{bad}"], _pvm_with("outcome", BIG)),
    (["simulate", "--config", "{cfg}", "--pvm", "{bad}"], _pvm_with("projector", [BIG, 0])),
    (["analyze", "--config", "{bad}"], DEEP),
    (["bound", "--config", "{cfg}", "--weight", "{bad}"], DEEP),
    (["simulate", "--config", "{cfg}", "--pvm", "{bad}"], DEEP),
], ids=["bound_weight_big", "pvm_weight_big", "oracle_weight_big", "boundary_weight_big",
        "simulate_outcome_big", "simulate_projector_big", "config_deep", "weight_deep",
        "pvm_deep"])
def test_oversized_integers_and_deep_nesting_exit_2(tmp_path, capsys, command, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    fields = {"bad": str(bad), "cfg": str(DATA / "n0_coherent_config.json")}
    assert cli.main([arg.format(**fields) for arg in command]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert json.loads(captured.err)["error"] == "SchemaError"


def custom_config(seed, dim, m):
    """A custom model with random complex amplitudes, generic for m >= 2."""
    rng = np.random.default_rng(seed)
    phi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    phi = phi / np.linalg.norm(phi)
    dphi = 0.5 * (rng.normal(size=(m, dim)) + 1j * rng.normal(size=(m, dim)))
    pairs = lambda v: [[float(c.real), float(c.imag)] for c in v]
    return {"model": "custom", "dim": dim, "m": m, "phi": pairs(phi),
            "dphi": [pairs(row) for row in dphi], "theta": [0.0] * m}


# custom_dim5 has dimension 5 = 2m + 1, the size of the embedding
@pytest.mark.parametrize("config", [
    SPIN_GEN, N3, custom_config(4, 5, 3),
    json.loads((DATA / "custom_dim5_config.json").read_text()),
], ids=["spin", "shifted_n3", "custom_m3", "custom_dim_5"])
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
    calls = count_calls(oracle_mod, "_minimize")
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


def test_pvm_coherent_computes_the_bound_once(tmp_path, table_solves, capsys):
    cfg = write_json(tmp_path / "sq.json", SQUEEZED)
    assert cli.main(["pvm", "--config", cfg]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["classification"] == "coherent"
    assert abs(doc["verification"]["trGV"] - doc["closed_form_value"]) <= 1e-8
    assert table_solves == ["closed_form_coherent"]


# Decompositions per `qcrb pvm`, after the model family's own tables are
# built: iK of the working point (JS^{+-1/2} and K come from the frame's SVD),
# whose lift factor is the Naimark frame's and the SDP's, then on generic
# models the weight's range and V - Y*Y in the SDP; coherent models add the
# completion's V' - kh* kh and their closed form's weight. lstsq runs only in
# the oracle's polish, never to move X between embeddings.
@pytest.mark.parametrize("config, eighs, lstsqs", [
    (SPIN_GEN, 3, 4),
    (N3, 3, 4),
    (N0, 3, 0),
    (SQUEEZED, 3, 0),
], ids=["generic_spin", "generic_n3", "coherent_m2", "coherent_m4"])
def test_pvm_decomposition_counts(tmp_path, capsys, count_calls, config, eighs, lstsqs):
    cfg = write_json(tmp_path / "m.json", config)
    eigh = count_calls(np.linalg, "eigh")
    lstsq = count_calls(np.linalg, "lstsq")
    assert cli.main(["pvm", "--config", cfg]) == 0
    assert json.loads(capsys.readouterr().out)["verification"]["unbiased"] is True
    assert (len(eigh), len(lstsq)) == (eighs, lstsqs)


# `qcrb oracle` and `bound --oracle` factor the working point once (one lift
# SVD, which gives JS^{+-1/2}; one eigh of iK): the SDP and the stationarity
# certificate read the FisherData that the bound reads. The other eigh calls are the
# normalized weight w G w, which the closed forms, the SDP and the certificate
# share, and V - Y*Y in the SDP.
@pytest.mark.parametrize("command, config, eighs", [
    (["oracle"], N3, 3),
    (["oracle"], SQUEEZED, 3),
    (["bound", "--oracle"], SPIN_GEN, 3),
], ids=["oracle_n3", "oracle_squeezed", "bound_oracle_spin"])
def test_oracle_commands_build_one_spectrum(tmp_path, capsys, count_calls, command, config,
                                            eighs):
    cfg = write_json(tmp_path / "m.json", config)
    factored = count_calls(matkernel, "lift_svd")
    eigh = count_calls(np.linalg, "eigh")
    solves = count_calls(oracle_mod, "_minimize")
    assert cli.main([*command, "--config", cfg]) == 0
    capsys.readouterr()
    assert (len(factored), len(eigh), len(solves)) == (1, eighs, 1)


# One decomposition per weight: the closed forms, the SDP, its certificate and
# the CLI all read w G w from the working point's FisherData, so a weight file
# adds no decomposition of its own.
@pytest.mark.parametrize("command, config, weight, eighs", [
    (["bound"], SPIN_QC, [[2.0, 0.3], [0.3, 1.0]], 2),
    (["pvm"], SQUEEZED, np.diag([1.0, 2.0, 3.0, 4.0]).tolist(), 3),
    (["oracle"], SQUEEZED, np.diag([1.0, 2.0, 3.0, 4.0]).tolist(), 3),
    (["bound"], SQUEEZED, None, 2),
    (["bound"], N0, None, 2),
], ids=["bound_file_spin_qc", "pvm_file_squeezed", "oracle_file_squeezed", "bound_squeezed",
        "bound_n0"])
def test_one_decomposition_per_weight(tmp_path, capsys, count_calls, command, config, weight,
                                      eighs):
    cfg = write_json(tmp_path / "m.json", config)
    extra = [] if weight is None else ["--weight", write_json(tmp_path / "w.json", weight)]
    eigh = count_calls(np.linalg, "eigh")
    assert cli.main([*command, "--config", cfg, *extra]) == 0
    capsys.readouterr()
    assert len(eigh) == eighs


IMPORT_PROBE = (
    "import json, sys\n"
    "import qcrb.cli\n"
    "code = qcrb.cli.main(sys.argv[1:])\n"
    "sys.stderr.write(json.dumps({'code': code, 'scipy': 'scipy' in sys.modules,\n"
    "                             'qcrb': sorted(m for m in sys.modules if m.startswith('qcrb'))}))\n"
)
CORE = ["qcrb", "qcrb.analysis", "qcrb.cli", "qcrb.errors", "qcrb.matkernel", "qcrb.model",
        "qcrb.reportio"]


# A command loads the core layers and only the modules it runs beyond them:
# `measurement` to build or read a PVM, `oracle` for the SDP, both for a generic
# PVM. No command loads scipy, the oracle included: its SDP runs on numpy alone.
@pytest.mark.parametrize("command, config, extra, scipy_loaded, adds", [
    ("analyze", SPIN_GEN, [], False, []),
    ("bound", SPIN_GEN, [], False, []),
    ("bound", SQUEEZED, [], False, []),
    ("pvm", N0, [], False, ["qcrb.measurement"]),
    ("simulate", N0, ["--samples", "50"], False, ["qcrb.measurement"]),
    ("boundary", SPIN_GEN, ["--weight", "identity", "--samples", "5"], False, []),
    ("oracle", SPIN_GEN, [], False, ["qcrb.oracle"]),
    ("bound", SPIN_GEN, ["--oracle"], False, ["qcrb.oracle"]),
    ("pvm", SPIN_GEN, [], False, ["qcrb.measurement", "qcrb.oracle"]),
], ids=[   # the ids pytest gave these cases without the `adds` column, kept stable
        "analyze-config0-extra0-False", "bound-config1-extra1-False",
        "bound-config2-extra2-False", "pvm-config3-extra3-False",
        "simulate-config4-extra4-False", "boundary-config5-extra5-False",
        "oracle-config6-extra6-False", "bound-config7-extra7-False",
        "pvm-config8-extra8-False"])
def test_only_the_oracle_loads_scipy(tmp_path, command, config, extra, scipy_loaded, adds):
    cfg = write_json(tmp_path / "m.json", config)
    if command == "simulate":
        pvm_path = str(tmp_path / "pvm.json")
        assert run_cli("pvm", "--config", cfg, "--out", pvm_path).returncode == 0
        extra = extra + ["--pvm", pvm_path]
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, command, "--config", cfg, *extra],
        capture_output=True, text=True, timeout=300)
    probe = json.loads(proc.stderr.strip().splitlines()[-1])
    assert probe == {"code": 0, "scipy": scipy_loaded, "qcrb": sorted(CORE + adds)}


def test_importing_the_package_loads_no_submodule():
    proc = subprocess.run(
        [sys.executable, "-c", "import json, sys, qcrb\n"
         "print(json.dumps(sorted(m for m in sys.modules if m.startswith('qcrb'))))"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == ["qcrb"]


# `qcrb pvm` reads the probabilities, covariance and unbiasedness of its PVM from
# one validated probability pass, and reports what a fresh pass gives.
@pytest.mark.parametrize("config", [SQUEEZED, N0, SPIN_GEN], ids=["squeezed", "n0", "spin"])
def test_pvm_reads_the_probabilities_once(tmp_path, capsys, count_calls, config):
    cfg = write_json(tmp_path / "m.json", config)
    probs = count_calls(measurement, "outcome_probabilities")
    assert cli.main(["pvm", "--config", cfg]) == 0
    assert len(probs) == 1
    doc = json.loads(capsys.readouterr().out)
    mdl = model_mod.model_from_config(config)
    frame = model_mod.tangent_frame(mdl, mdl.theta0)
    fd = model_mod.fisher_data(frame)
    space = measurement.pvm_space(frame, fd)
    ev, _ = measurement.optimal_vectors(space, fd, fd.weight(np.eye(len(mdl.theta0))))
    pvm = measurement.pvm_from_vectors(ev)
    v, unbiased = measurement.covariance_of_pvm(pvm, space)
    ver = doc["verification"]
    assert ver["probabilities"] == measurement.outcome_probabilities(pvm, space.phi).tolist()
    assert ver["covariance"] == v.tolist() and ver["unbiased"] is unbiased


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


def _squeezed(t3):
    return {"model": "squeezed", "theta": [0.1, -0.2, t3, 0.3]}


def _near_dust_weight(fd, seed, ratio):
    """G whose normalized weight w G w has its lowest eigenvalue at `ratio` times
    the eigen dust, drawn with a random eigenbasis."""
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.normal(size=(4, 4)))[0]
    lam = np.concatenate([[0.0], rng.uniform(0.5, 2.0, size=3)])
    lam[0] = ratio * matkernel.TOL["eigen_dust"] * np.abs((q * lam) @ q.T).max()
    root = matkernel.sqrt_psd(fd.JS)
    return matkernel.symmetrize(root @ ((q * lam) @ q.T) @ root)


# At t3 = 3.5, Tr(G V) in theta cancels entries near 1e10 ||JS^{-1}||, which
# leaves up to 1e-6 of the value on these weights against coherent_trace's
# 1e-9; Tr(G' V'), where JS = I, keeps it to roundoff.
@pytest.mark.parametrize("seed, ratio", [(3, 1.5), (3, 3.0), (5, 1.5), (5, 3.0)])
def test_coherent_trace_near_the_weight_dust(tmp_path, capsys, seed, ratio):
    cfg = write_json(tmp_path / "m.json", _squeezed(3.5))
    mdl = model_mod.model_from_config(_squeezed(3.5))
    fd = model_mod.fisher_data(model_mod.tangent_frame(mdl, mdl.theta0))
    g = _near_dust_weight(fd, seed, ratio)
    rep = analysis.cr_bound(fd, g)
    assert rep.method == "closed_form_coherent"
    oracle_value = analysis.oracle_bound(fd, fd.weight(g))[0].value
    assert abs(rep.value - oracle_value) <= \
        matkernel.TOL["oracle_agreement"] * max(1.0, abs(rep.value))
    wpath = write_json(tmp_path / "w.json", g.tolist())
    assert cli.main(["pvm", "--config", cfg, "--weight", wpath]) == 0
    assert json.loads(capsys.readouterr().out)["verification"]["unbiased"] is True


# The completion and every vector check work where JS = I. Done in theta, the
# completion loses its floor and Re X*L - I its 1e-8 from about t3 = 3.7 on.
@pytest.mark.parametrize("weight", ["identity", "sld"])
def test_pvm_on_the_squeezed_grid(tmp_path, capsys, weight):
    cfg = tmp_path / "m.json"
    for t3 in np.round(np.arange(1, 82) * 0.05, 2).tolist():
        write_json(cfg, _squeezed(t3))
        assert cli.main(["bound", "--config", str(cfg), "--weight", weight]) == 0, t3
        value = json.loads(capsys.readouterr().out)["bound"]["value"]
        assert cli.main(["pvm", "--config", str(cfg), "--weight", weight]) == 0, t3
        ver = json.loads(capsys.readouterr().out)["verification"]
        assert ver["unbiased"] is True, t3
        assert abs(ver["trGV"] - value) <= 1e-9 * abs(value), t3


# A coherent model reparametrized by a real T, with cond(L) = 9.3e3: the
# stacked lifts' SVD gives K and beta, so the model stays coherent. Read from
# the Gram, its beta passed 1 by more than 1e-9, and `analyze`, `bound` and
# `pvm` exited 2.
def test_reparametrized_coherent_config(capsys):
    cfg = str(DATA / "custom_reparametrized_config.json")
    mdl = model_mod.model_from_config(json.loads(pathlib.Path(cfg).read_text()))
    s = model_mod.fisher_data(model_mod.tangent_frame(mdl, mdl.theta0)).svd[1]
    assert 5e3 <= s[0] / s[-1] <= 2e4
    assert cli.main(["analyze", "--config", cfg]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["classification"] == "coherent" and doc["coherent"] is True
    assert cli.main(["bound", "--config", cfg]) == 0
    assert json.loads(capsys.readouterr().out)["bound"]["method"] == "closed_form_coherent"
    assert cli.main(["pvm", "--config", cfg]) == 0
    assert json.loads(capsys.readouterr().out)["verification"]["unbiased"] is True


# JS = 3e-10 I, m = 3, one pair at beta = 0.5. With a floor of 1 on ||JS|| the
# weight G = 2 JS passed the G = JS test: `bound` reported CR(JS), half the
# bound, and `bound --oracle` exited 4.
def test_small_fisher_config_is_not_taken_for_the_js_weight(capsys):
    cfg, wfile = str(DATA / "small_fisher_config.json"), str(DATA / "small_fisher_weight.json")
    mdl = model_mod.model_from_config(json.loads(pathlib.Path(cfg).read_text()))
    fd = model_mod.fisher_data(model_mod.tangent_frame(mdl, mdl.theta0))
    assert np.abs(fd.JS - 3e-10 * np.eye(3)).max() <= 1e-24
    g = np.array(json.loads(pathlib.Path(wfile).read_text()))
    expect = analysis.oracle_bound(fd, fd.weight(g))[0].value
    assert cli.main(["bound", "--config", cfg, "--weight", wfile]) == 0
    bound = json.loads(capsys.readouterr().out)["bound"]
    assert bound["method"] == "oracle"
    assert abs(bound["value"] - expect) <= 1e-8 * expect
    assert cli.main(["bound", "--oracle", "--config", cfg, "--weight", wfile]) == 0


# Shifted n = 0 with its lifts times 1e-6 (theta in units a million times
# larger): the degeneracy floor reads cond(L), so `pvm` builds its measurement.
# With a floor of 1 on s_max^2 it exited 3.
def test_small_units_config_gets_its_pvm(capsys):
    assert cli.main(["pvm", "--config", str(DATA / "small_units_config.json")]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["classification"] == "coherent"
    assert doc["verification"]["unbiased"] is True
    value = doc["closed_form_value"]
    assert abs(value - 2e12) <= 1e-12 * value
    assert abs(doc["verification"]["trGV"] - value) <= 1e-9 * value


# A weight of 1e-11 I is not a zero weight: with a floor of 1 on ||w G w|| its
# rank cut read rank 0, and `bound` and `pvm` reported 0.
def test_tiny_weight_gets_its_bound_and_pvm(tmp_path, capsys):
    cfg = write_json(tmp_path / "m.json", SQUEEZED)
    wpath = write_json(tmp_path / "w.json", (1e-11 * np.eye(4)).tolist())
    assert cli.main(["bound", "--config", cfg]) == 0
    unit = json.loads(capsys.readouterr().out)["bound"]["value"]
    assert cli.main(["bound", "--config", cfg, "--weight", wpath]) == 0
    bound = json.loads(capsys.readouterr().out)["bound"]
    assert bound["attained"] is True
    assert abs(bound["value"] - 1e-11 * unit) <= 1e-12 * bound["value"]
    assert cli.main(["pvm", "--config", cfg, "--weight", wpath]) == 0
    doc = json.loads(capsys.readouterr().out)
    value = doc["closed_form_value"]
    assert value == bound["value"]
    assert abs(doc["verification"]["trGV"] - value) <= 1e-9 * value


# np.linalg.svd calls per command outside the SDP's interior-point iterations
# (one per iteration there): the lifts' one SVD in fisher_data, which keeps its
# vectors for JS^{+-1/2} and K, then the coherent closed form's |M| and the
# SDP's null space. They are the counts of the Gram route this replaced.
@pytest.mark.parametrize("command, config, svds", [
    (["analyze"], SPIN_QC, 1),
    (["bound"], SQUEEZED, 2),
    (["bound", "--oracle"], N3, 2),
    (["pvm"], N0, 1),
    (["pvm"], SPIN_GEN, 2),
    (["oracle"], SQUEEZED, 3),
], ids=["analyze_spin_qc", "bound_squeezed", "bound_oracle_n3", "pvm_n0", "pvm_spin_gen",
        "oracle_squeezed"])
def test_svd_calls_per_command(monkeypatch, tmp_path, capsys, command, config, svds):
    cfg = write_json(tmp_path / "m.json", config)
    calls, inside = [], []
    svd, interior = np.linalg.svd, oracle_mod._interior_point

    def counted(*args, **kwargs):
        if not inside:
            calls.append("svd")
        return svd(*args, **kwargs)

    def iterations(*args, **kwargs):
        inside.append(True)
        try:
            return interior(*args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(np.linalg, "svd", counted)
    monkeypatch.setattr(oracle_mod, "_interior_point", iterations)
    assert cli.main([*command, "--config", cfg]) == 0
    capsys.readouterr()
    assert len(calls) == svds


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


@pytest.mark.parametrize("s", [1.0, 2.0, 20.0, 1e6])
def test_spin_pvm_lives_on_the_spin_space(tmp_path, capsys, s):
    # a quasi-classical spin model is measured on its own three levels,
    # |m_z + 1>, |m_z> and |m_z - 1>, at every s: three rays and no complement
    cfg = write_json(tmp_path / "m.json", dict(SPIN_QC, s=s))
    assert cli.main(["pvm", "--config", cfg]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["classification"] == "quasi_classical"
    assert len(doc["pvm"]) == 3
    assert all(len(o["projector"]) == 3 * 3 for o in doc["pvm"])


# The spin frame is exact in three levels, so s = 1e6 is analyzed in closed
# form: beta = |m_z| / (s(s+1) - m_z^2), and the bound is Tr JS^{-1} at
# m_z = 0, and 2 / (1 + sqrt(1 - beta^2)) per parameter under the weight JS.
@pytest.mark.parametrize("m_z, weight", [(0.0, "identity"), (999999.0, "sld")],
                         ids=["quasi_classical", "generic"])
def test_spin_1e6_matches_its_exact_formulas(tmp_path, capsys, m_z, weight):
    s, theta = 1e6, [0.9, 0.3]
    cfg = write_json(tmp_path / "m.json", {"model": "spin_rotation", "s": s, "m_z": m_z,
                                           "theta": theta})
    c = fractions.Fraction(s) * (fractions.Fraction(s) + 1) - fractions.Fraction(m_z) ** 2
    beta = float(abs(fractions.Fraction(m_z)) / c)
    sin2 = fractions.Fraction(math.sin(theta[0])) ** 2
    value = (float((1 + 1 / sin2) / (2 * c)) if weight == "identity"
             else 4.0 / (1.0 + math.sqrt(1.0 - beta * beta)))
    assert cli.main(["analyze", "--config", cfg]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    betas = json.loads(out)["betas"]
    assert max(abs(b - beta) for b in betas) <= 1e-13 * beta   # exactly 0 at m_z = 0
    assert cli.main(["bound", "--config", cfg, "--weight", weight]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert abs(json.loads(out)["bound"]["value"] - value) <= 1e-13 * value


def test_spin_below_the_gram_edge_is_analyzed(tmp_path, capsys):
    cfg = write_json(tmp_path / "m.json", {"model": "spin_rotation", "s": 9.48e153, "m_z": 0.0,
                                           "theta": [0.9, 0.3]})
    assert cli.main(["analyze", "--config", cfg]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    js = 2 * fractions.Fraction(9.48e153) * (fractions.Fraction(9.48e153) + 1)
    assert abs(json.loads(out)["JS"][0][0] - float(js)) <= 1e-13 * float(js)


# At beta = 1 the bound under c I is 2c. The curve's point reads only the ratio of
# the weight's eigenvalues, so nothing overflows (sqrt(g0 g1) did from c = 1e160)
# or underflows (it read c from 1e-165 down, and 1.99999997 c at 1e-158).
@pytest.mark.parametrize("c", [1e-300, 1e-165, 1e-158, 1e160, 1e300])
def test_n0_bound_is_homogeneous_over_the_float_range(tmp_path, capsys, c):
    cfg = write_json(tmp_path / "m.json", N0)
    weight = write_json(tmp_path / "w.json", [[c, 0.0], [0.0, c]])
    for argv in (["bound"], ["bound", "--oracle"], ["pvm"]):
        assert cli.main(argv + ["--config", cfg, "--weight", weight]) == 0, argv
        out, err = capsys.readouterr()
        assert err == "", argv
        doc = json.loads(out)
        value = doc["closed_form_value"] if argv == ["pvm"] else doc["bound"]["value"]
        assert abs(value - 2 * c) <= 1e-15 * 2 * c, argv
    ver = doc["verification"]   # of the pvm report, the last one read
    assert ver["unbiased"] and abs(ver["trGV"] - 2 * c) <= 1e-15 * 2 * c


# The certificate's m = 2 identities are quadratic in the weight: taken on it
# scaled by a power of two, they do not overflow (NonFinite, exit 3, from
# c = 1e154), and reported relative to the size of their terms they read
# roundoff at every c (they read 0 from underflow at c = 1e-300).
# Spin (1.5, 0.5) at (0.7, 0.3), CR(I) = 0.4891628838117551, exited 3 from
# c = 1e160 the same way.
@pytest.mark.parametrize("config, unit_value", [
    (N0, 2.0), ({**SPIN_GEN, "theta": [0.7, 0.3]}, 0.4891628838117551)], ids=["n0", "spin"])
@pytest.mark.parametrize("c", [1e-300, 1e-165, 1.0, 1e154, 1e160, 1e300])
def test_oracle_certificate_over_the_float_range(tmp_path, capsys, config, unit_value, c):
    cfg = write_json(tmp_path / "m.json", config)
    weight = write_json(tmp_path / "w.json", [[c, 0.0], [0.0, c]])
    assert cli.main(["oracle", "--config", cfg, "--weight", weight]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    doc = json.loads(out)
    assert abs(doc["value"] - unit_value * c) <= 1e-12 * unit_value * c
    extras = doc["certificate"]["extras"]
    assert extras["quadratic_sym"] <= 1e-14 and extras["quadratic_antisym"] <= 1e-14


# A weight enters at unit scale (`FisherData.weight`), and its bound is scaled back
# in one place. At G = 1.7e308 I neither its symmetrization nor w G w overflows, so
# spin (1.5, 0.5) at (0.9, 0.3) gets its bound 0.37750131278087606 c, where `bound`
# and `oracle` exited 3 after numpy warnings. A bound past the normal float range
# is a DomainError (exit 2), with one line of error JSON: shifted n = 0 there
# (CR = 3.4e308) exited 3 after warnings. Under 1e-320 I, spin (2, 0) printed
# 2.4555e-321 for 2.4527e-321, `bound --oracle` on spin (1.5, 0.5) exited 4 on a
# 5e-324 disagreement, and squeezed failed coherent_trace against a limit of 0.
@pytest.mark.parametrize("config, c, unit_value", [
    (SPIN_GEN, 1.7e308, 0.37750131278087606),
    (N0, 1.7e308, None),
    ({"model": "spin_rotation", "s": 2.0, "m_z": 0.0, "theta": [0.8, 0.5]}, 1e-320, None),
    (SPIN_GEN, 1e-320, None),
    (SQUEEZED, 1e-320, None),
], ids=["spin15_max", "n0_max", "spin2_tiny", "spin15_tiny", "squeezed_tiny"])
@pytest.mark.parametrize("argv", [["bound"], ["bound", "--oracle"], ["oracle"], ["pvm"]],
                         ids=["bound", "bound_oracle", "oracle", "pvm"])
def test_a_weight_at_the_ends_of_the_float_range(tmp_path, capsys, config, c, unit_value,
                                                 argv):
    cfg = write_json(tmp_path / "m.json", config)
    weight = write_json(tmp_path / "w.json", (c * np.eye(len(config["theta"]))).tolist())
    code = cli.main(argv + ["--config", cfg, "--weight", weight])
    out, err = capsys.readouterr()
    if unit_value is None:
        assert code == 2 and out == "" and err.count("\n") == 1
        doc = json.loads(err)
        assert doc["error"] == "DomainError" and doc["exit_code"] == 2
        return
    assert code == 0 and err == ""
    doc = json.loads(out)
    value = {"bound": doc.get("bound", {}).get("value"), "oracle": doc.get("value"),
             "pvm": doc.get("closed_form_value")}[argv[0]]
    assert abs(value - unit_value * c) <= 1e-14 * value


# `pvm` takes its trGV, Tr(G V), at unit scale too: on shifted n = 0 under a weight
# near rank 1 at 6.8e307, whose bound is 6.8e307, G * V overflowed (exit 3 after
# numpy warnings).
def test_pvm_trgv_near_the_top_of_the_float_range(tmp_path, capsys):
    c = 6.8e307
    cfg = write_json(tmp_path / "m.json", N0)
    weight = write_json(tmp_path / "w.json", [[c, c * (1 - 1e-6)], [c * (1 - 1e-6), c]])
    assert cli.main(["pvm", "--config", cfg, "--weight", weight]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    doc = json.loads(out)
    ver = doc["verification"]
    assert ver["unbiased"]
    assert abs(ver["trGV"] - doc["closed_form_value"]) <= 1e-9 * doc["closed_form_value"]


# The trGV column of `boundary --weight` is taken at unit scale and scaled back by
# the same rule: with --beta 0.5, 1.7e308 I exited 3, and 1e-320 I printed
# 2.3334720453e-320 for c (u + v) = 2.3333e-320. Both are DomainErrors now; from
# 1e-300 to 1e300 the column is c times the column of I.
@pytest.mark.parametrize("source", ["beta", "config"])
def test_boundary_trgv_over_the_float_range(tmp_path, capsys, source):
    args = ["--beta", "0.5"] if source == "beta" else \
        ["--config", write_json(tmp_path / "m.json", N0)]
    columns = {}
    for c in (1.0, 1e-300, 1e300, 1.7e308, 1e-320):
        weight = write_json(tmp_path / "w.json", [[c, 0.0], [0.0, c]])
        code = cli.main(["boundary", *args, "--samples", "7", "--weight", weight])
        out, err = capsys.readouterr()
        if c in (1.7e308, 1e-320):
            assert code == 2 and out == ""
            assert json.loads(err)["error"] == "DomainError"
            continue
        assert code == 0 and err == ""
        columns[c] = np.array([float(row[4]) for row in list(csv.reader(out.splitlines()))[1:]])
    for c in (1e-300, 1e300):
        assert np.abs(columns[c] - c * columns[1.0]).max() <= 1e-15 * c * columns[1.0].max()


# `boundary --beta --weight` builds its Weight outside a working point, by the
# rule of fd.weight: a G symmetric bit for bit is kept, and its subnormal
# off-diagonal stays 5e-324 (it was symmetrized again, to 0.0, under --beta).
@pytest.mark.parametrize("source", ["beta", "config"])
def test_boundary_weight_keeps_a_symmetric_g(tmp_path, capsys, monkeypatch, source):
    built, build = [], analysis.Weight

    def spy(*args):
        built.append(build(*args))
        return built[-1]

    monkeypatch.setattr(analysis, "Weight", spy)
    args = ["--beta", "1"] if source == "beta" else \
        ["--config", write_json(tmp_path / "m.json", N0)]
    weight = write_json(tmp_path / "w.json", [[1.0, 5e-324], [5e-324, 1.0]])
    assert cli.main(["boundary", *args, "--samples", "3", "--weight", weight]) == 0
    capsys.readouterr()
    assert len(built) == 1
    assert built[0].G[0, 1] == built[0].G[1, 0] == 5e-324


# A lift Gram entry between float max/2 and float max passes lift_svd; the working
# point halves the Gram before it sums it with its adjoint, so that sum cannot
# overflow (it did, with two RuntimeWarnings and exit 3).
def test_a_gram_entry_near_the_float_range_is_read(tmp_path, capsys):
    x = math.sqrt(0.7 * sys.float_info.max / 4)
    cfg = write_json(tmp_path / "m.json", {"model": "custom", "dim": 2, "m": 1,
                                           "phi": [[1.0, 0.0], [0.0, 0.0]],
                                           "dphi": [[[0.0, 0.0], [x, 0.0]]], "theta": [0.0]})
    for cmd in ("analyze", "bound", "pvm", "oracle"):
        assert cli.main([cmd, "--config", cfg]) == 0, cmd
        out, err = capsys.readouterr()
        assert err == "", cmd
        json.loads(out)


PVM_FILES = ["n0_coherent", "spin2_quasi_classical", "spin15_generic"]


def _close(new, old, key):
    """Recursive comparison: numbers within 1e-12 of the largest entry of their array."""
    if isinstance(old, dict):
        assert new.keys() == old.keys(), key
        for k in old:
            _close(new[k], old[k], f"{key}.{k}")
    elif isinstance(old, (int, float, list)) and not isinstance(old, bool):
        a, b = np.asarray(new, dtype=float), np.asarray(old, dtype=float)
        assert a.shape == b.shape, key
        assert np.abs(a - b).max(initial=0.0) <= 1e-12 * np.abs(b).max(initial=0.0), key
    else:
        assert new == old, key


# PVM files written before a Pvm was stored as rays; see tests/data/README.md
@pytest.mark.parametrize("name", PVM_FILES)
def test_simulate_reads_stored_pvm_files(tmp_path, capsys, name):
    out = tmp_path / "samples.csv"
    assert cli.main(["simulate", "--config", str(DATA / f"{name}_config.json"),
                     "--pvm", str(DATA / f"{name}_pvm.json"),
                     "--samples", "2000", "--seed", "7", "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / f"{name}_samples.csv").read_bytes()
    summary = json.loads(capsys.readouterr().out)
    assert summary.pop("csv") == str(out)
    _close(summary, json.loads((DATA / f"{name}_simulate.json").read_text()), name)


# The spin frame was 2s + 1 levels before it became three: a quasi-classical
# spin PVM written then lives in five levels, which the model no longer has.
def test_simulate_rejects_a_five_level_spin_pvm(capsys):
    assert cli.main(["simulate", "--config", str(DATA / "spin2_quasi_classical_config.json"),
                     "--pvm", str(DATA / "spin2_quasi_classical_5_levels_pvm.json"),
                     "--samples", "10"]) == 2
    out, err = capsys.readouterr()
    doc = json.loads(err)
    assert out == "" and doc["error"] == "SchemaError"
    assert doc["message"] == "PVM dimension 5 does not match the model (3)"


# Every outcome of this PVM is theta, so its analytic variance vanishes: each
# z-score has a zero standard error and is null, with nothing on stderr.
def test_simulate_writes_null_z_scores_for_zero_variance(tmp_path, capsys):
    doc = json.loads((DATA / "n0_coherent_pvm.json").read_text())
    for entry in doc["pvm"]:
        entry["outcome"] = [0.2, -0.4]
    pvm_path = write_json(tmp_path / "pvm.json", doc)
    assert cli.main(["simulate", "--config", str(DATA / "n0_coherent_config.json"),
                     "--pvm", pvm_path, "--samples", "100"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    summary = json.loads(out)
    assert summary["analytic_covariance"] == [[0, 0], [0, 0]]
    assert summary["empirical_mean"] == [0.2, -0.4]
    assert summary["z_mean"] == [None, None]
    assert summary["z_cov"] == [[None, None], [None, None]]


# The CSV is written a block of shots at a time, from rows formatted once per outcome.
@pytest.mark.parametrize("name", PVM_FILES)
def test_simulate_out_across_blocks(tmp_path, capsys, count_calls, name):
    count = 2 * measurement.BLOCK + 5
    cfg, pvm_path, out = DATA / f"{name}_config.json", DATA / f"{name}_pvm.json", tmp_path / "f.csv"
    rows = count_calls(reportio, "csv_row")
    assert cli.main(["simulate", "--config", str(cfg), "--pvm", str(pvm_path),
                     "--samples", str(count), "--seed", "3", "--out", str(out)]) == 0
    capsys.readouterr()
    mdl = model_mod.model_from_config(json.loads(cfg.read_text()))
    frame = model_mod.tangent_frame(mdl, mdl.theta0)
    fd = model_mod.fisher_data(frame)
    pvm = measurement.pvm_from_obj(json.loads(pvm_path.read_text())["pvm"], mdl.m,
                                   theta=mdl.theta0)
    result = measurement.sample_outcomes(pvm, measurement.pvm_space(frame, fd), count, 3)
    assert len(rows) == np.count_nonzero(result.counts) <= len(pvm.outcomes)
    header = [f"outcome_{i + 1}" for i in range(mdl.m)]
    assert out.read_bytes() == reportio.csv_rows(header, result.samples).encode()


def _bend(entry, k, eps):
    """entry's projector with eps added to its (0, k) and (k, 0) elements."""
    d = int(round(math.sqrt(len(entry["projector"]))))
    p = np.array([complex(*z) for z in entry["projector"]]).reshape(d, d)
    p[0, k] += eps
    p[k, 0] += eps
    return dict(entry, projector=[[z.real, z.imag] for z in p.reshape(-1)])


def _scaled(entry, c):
    return dict(entry, projector=[[c * re, c * im] for re, im in entry["projector"]])


# Checks on the outcome probabilities alone miss some of these: a moved weight or
# a dropped complement keeps N0's probabilities valid. Each is a SchemaError.
@pytest.mark.parametrize("corrupt", [
    lambda pvm: [_scaled(pvm[0], 1.2)] + pvm[1:],
    lambda pvm: [_scaled(pvm[0], 1.0 + 1e-6)] + pvm[1:],
    lambda pvm: [_bend(pvm[0], 1, 1e-3), _bend(pvm[1], 1, -1e-3)] + pvm[2:],
    lambda pvm: pvm[:-1] + [_bend(pvm[-1], 3, 1e-6)],
    lambda pvm: pvm[:-1],
    lambda pvm: [_scaled(pvm[0], 0.0)] + pvm[1:],
], ids=["scaled", "scaled_1e-6", "weight_moved", "complement_bent", "complement_dropped",
        "zero"])
def test_simulate_rejects_an_entry_that_is_not_a_projector(tmp_path, capsys, corrupt):
    doc = json.loads((DATA / "n0_coherent_pvm.json").read_text())
    assert cli.main(["simulate", "--config", str(DATA / "n0_coherent_config.json"),
                     "--pvm", write_json(tmp_path / "bad.json", corrupt(doc["pvm"])),
                     "--samples", "10"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "SchemaError"


@pytest.mark.parametrize("name", PVM_FILES)
def test_simulate_decomposes_nothing_of_the_pvm_document(monkeypatch, capsys, name):
    inside, eighs = [], []
    eigh = np.linalg.eigh

    def counted(*args, **kwargs):
        eighs.extend(inside)
        return eigh(*args, **kwargs)

    def tracked(fn):
        def wrapper(*args, **kwargs):
            inside.append(fn.__name__)
            try:
                return fn(*args, **kwargs)
            finally:
                inside.pop()
        return wrapper

    monkeypatch.setattr(np.linalg, "eigh", counted)
    for fn in ("pvm_from_obj", "sample_outcomes"):
        monkeypatch.setattr(measurement, fn, tracked(getattr(measurement, fn)))
    assert cli.main(["simulate", "--config", str(DATA / f"{name}_config.json"),
                     "--pvm", str(DATA / f"{name}_pvm.json"), "--samples", "100"]) == 0
    assert eighs == []


# The seven commands of a cold-process round, a SchemaError (exit 2), a model
# error (exit 3) and an argparse usage error (exit 2 from SystemExit).
ENTRY_RUNS = {
    "analyze": (["analyze"], SPIN_GEN),
    "bound": (["bound"], SQUEEZED),
    "bound_oracle": (["bound", "--oracle"], SPIN_GEN),
    "pvm": (["pvm"], SQUEEZED),
    "simulate": (["simulate"], N0),
    "boundary": (["boundary"], SPIN_GEN),
    "oracle": (["oracle"], N3),
    "schema_error": (["analyze"], {"model": "nope", "theta": [0.0]}),
    "model_error": (["bound"], _squeezed(4.5)),
    "usage_error": (["bound", "--no-such-flag"], N0),
}


def _entry_argv(tmp_path, name):
    argv, config = ENTRY_RUNS[name]
    argv = argv + ["--config", write_json(tmp_path / "m.json", config)]
    if argv[0] == "simulate":
        pvm_path = str(tmp_path / "pvm.json")
        assert cli.main(["pvm", "--config", argv[-1], "--out", pvm_path]) == 0
        argv += ["--pvm", pvm_path]
    return argv


def _main_in_process(argv, capsys):
    capsys.readouterr()
    try:
        code = cli.main(argv)
    except SystemExit as exc:   # argparse's usage error
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("name", list(ENTRY_RUNS))
def test_main_in_process_freezes_nothing(tmp_path, capsys, name):
    argv = _entry_argv(tmp_path, name)
    frozen = gc.get_freeze_count()
    code = _main_in_process(argv, capsys)[0]
    assert code == {"schema_error": 2, "model_error": 3, "usage_error": 2}.get(name, 0)
    assert gc.get_freeze_count() == frozen


# `python -m qcrb` runs the process entry; an atexit handler, which runs after the
# command and after the entry's `finally`, reads the frozen count on every way out.
FREEZE_PROBE = (
    "import atexit, gc, runpy, sys\n"
    "atexit.register(lambda: sys.stderr.write('frozen %d' % gc.get_freeze_count()))\n"
    "sys.argv[0] = 'qcrb'\n"
    "runpy.run_module('qcrb', run_name='__main__')\n"
)


@pytest.mark.parametrize("name, code", [("analyze", 0), ("schema_error", 2),
                                        ("model_error", 3), ("usage_error", 2)])
def test_process_entry_freezes_the_heap_after_the_command(tmp_path, name, code):
    argv = _entry_argv(tmp_path, name)
    proc = subprocess.run([sys.executable, "-c", FREEZE_PROBE, *argv],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == code, proc.stderr
    frozen = proc.stderr.rsplit("frozen ", 1)[1]
    assert int(frozen) > 0


@pytest.mark.parametrize("name", list(ENTRY_RUNS))
def test_python_m_matches_main_in_process(tmp_path, capsys, name):
    argv = _entry_argv(tmp_path, name)
    proc = run_cli(*argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == _main_in_process(argv, capsys)


# A report that cannot be written to stdout is a SchemaError, as with --out: the
# write and its flush fail inside the check, so stderr is the error JSON alone.
@pytest.mark.skipif(not pathlib.Path("/dev/full").exists(), reason="no /dev/full")
@pytest.mark.parametrize("name", ["analyze", "pvm", "simulate", "boundary"])
def test_a_full_stdout_exits_2(tmp_path, name):
    argv = _entry_argv(tmp_path, name)
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "qcrb", *argv], stdout=full,
                              stderr=subprocess.PIPE, text=True, timeout=300)
    assert proc.returncode == 2, proc.stderr
    err = json.loads(proc.stderr)
    assert err["error"] == "SchemaError" and err["exit_code"] == 2
    assert "stdout" in err["message"]


# A stdout whose buffer keeps the bytes that failed (the pure-Python io stack does)
# leaves them for the interpreter's exit flush; that flush must not fail again.
KEEPING_STDOUT = (
    "import _pyio, runpy, sys\n"
    "sys.stdout = sys.__stdout__ = _pyio.TextIOWrapper(\n"
    "    _pyio.BufferedWriter(_pyio.FileIO(1, 'w', closefd=False)))\n"
    "sys.argv[0] = 'qcrb'\n"
    "runpy.run_module('qcrb', run_name='__main__')\n"
)


@pytest.mark.skipif(not pathlib.Path("/dev/full").exists(), reason="no /dev/full")
@pytest.mark.parametrize("name", ["analyze", "simulate"])
def test_a_full_stdout_that_keeps_its_bytes_exits_2(tmp_path, name):
    argv = _entry_argv(tmp_path, name)
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-c", KEEPING_STDOUT, *argv],
                              stdout=full, stderr=subprocess.PIPE, text=True,
                              timeout=300)
    assert proc.returncode == 2, proc.stderr
    assert json.loads(proc.stderr)["exit_code"] == 2


# Each command that reads a weight builds one Weight of its --weight, with one
# FisherData.weight, and hands it down: `bound`, `bound --oracle` (whose
# cross-check solves the oracle at the closed form's Weight), `oracle` and
# `pvm` (whose Tr(G V) reads it too) each look it up once. The certificate of
# an attained `oracle` bound looks up the solve's own G once more, and that
# returns the same Weight.
@pytest.mark.parametrize("weight", ["identity", "sld"])
@pytest.mark.parametrize("config", sorted(DATA.glob("*_config.json")),
                         ids=lambda p: p.name[:-len("_config.json")])
def test_weight_lookups_per_command(capsys, count_calls, config, weight):
    calls = count_calls(analysis.FisherData, "weight")
    built = count_calls(analysis, "Weight")
    for command in (["bound"], ["bound", "--oracle"], ["oracle"], ["pvm"]):
        calls.clear()
        built.clear()
        assert cli.main([*command, "--config", str(config), "--weight", weight]) == 0
        doc = json.loads(capsys.readouterr().out)
        expected = 2 if command == ["oracle"] and doc["attained"] else 1
        assert len(calls) == expected, command
        assert len(built) == 1, command


# A weight that is symmetric bit for bit is taken as it is. Symmetrizing rounds
# an odd multiple of 2^-1074 again on each pass: the off-diagonal 5e-324 above
# and 1e-323 below read 5e-324, and that again 0, so the certificate's lookup of
# the solve's own G built a second Weight.
def test_certificate_reads_the_commands_weight_on_subnormal_entries(tmp_path, capsys,
                                                                    count_calls):
    cfg = write_json(tmp_path / "m.json", SPIN_GEN)
    wpath = write_json(tmp_path / "w.json", [[1.0, 5e-324], [1e-323, 1.0]])
    built = count_calls(analysis, "Weight")
    assert cli.main(["oracle", "--config", cfg, "--weight", wpath]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["certificate"] is not None
    assert len(built) == 1


# --weight is an option of the commands that read a weight; analyze and
# simulate reject it as any unknown option, and never open the file
@pytest.mark.parametrize("command", [["analyze"], ["simulate", "--pvm", "p.json"]],
                         ids=["analyze", "simulate"])
def test_weight_is_no_option_of_commands_that_read_none(tmp_path, capsys, command):
    cfg = write_json(tmp_path / "m.json", N0)
    with pytest.raises(SystemExit) as exc:
        cli.main([*command, "--config", cfg, "--weight", str(tmp_path / "missing.json")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --weight" in capsys.readouterr().err
