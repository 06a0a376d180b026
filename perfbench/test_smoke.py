"""Smoke test of the benchmark: one tiny case per workload.

It checks the output schema, and that the count metrics repeat exactly between
two traced runs of one seed. It has no timing bound. Run from the repository
root with

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# generic_oracle is runnable but not listed in BENCHMARK.json (see README.md)
WORKLOADS = ["catalog_sweep", "generic_oracle", "cli_oneshot"]
# per-layer metrics that are counts, or deterministic functions of counts
COUNTS = (
    "matkernel.hermitian_eig.calls_per_op",
    "matkernel.antisym_canonical.calls_per_op",
    "model.tangent_frame.calls_per_op",
    "model.expm_frechet.calls_per_op",
    "model.trunc_dim_mean",
    "analysis.beta_spectrum.calls_per_op",
    "measurement.outcomes_per_pvm",
    "oracle.inner_solves_per_op",
    "oracle.lbfgs_iters_per_op",
    "oracle.fevals_per_op",
    "oracle.dup_restart_frac",
    "cli.modules_loaded",
)


def run(workload, trace):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=600)
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_schema(result, spec):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["correct"], bool)
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        entry = result["metrics"][m["name"]]
        assert set(entry) == {"value", "unit"}
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"])


def test_declarations():
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(WORKLOADS)
    assert set(COUNTS) <= {m["name"] for m in BENCHMARK["per_layer"]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_schema(workload):
    check_schema(run(workload, 0), BENCHMARK["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    first, second = run(workload, 1), run(workload, 1)
    check_schema(first, BENCHMARK["per_layer"])
    check_schema(second, BENCHMARK["per_layer"])
    for name in COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
