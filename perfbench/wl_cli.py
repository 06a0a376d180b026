"""cli_oneshot: one fresh `python -m qcrb ...` process per op.

A round runs the seven commands below once each, one child at a time, on
spin, shifted-number and squeezed configs written in set-up; `simulate` reads
a PVM that set-up writes with `qcrb pvm --out`. The same argv repeats every
round, so each child's stdout must match the first one byte for byte. The
traced run calls `qcrb.cli.main` in-process on the same argv instead.
"""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import yardstick

SAMPLES_DEFAULT = {"boundary": 101, "simulate": 100000}
SPIN_S, SPIN_MZ = 1.5, 0.5
SRC = Path(__file__).resolve().parents[1] / "src"



@dataclass
class Result:
    code: int
    stdout: bytes
    stderr: bytes
    rss_kb: int = 0


def _configs(rng):
    """Model configs keyed by file stem; the working points are seeded."""
    def angle(lo, hi):
        return float(rng.uniform(lo, hi))

    a, b = angle(0.0, 2.0 * math.pi), angle(0.0, 2.0 * math.pi)
    return {
        "spin": {"model": "spin_rotation", "s": SPIN_S, "m_z": SPIN_MZ,
                 "theta": [angle(0.2, math.pi - 0.2), angle(0.0, 2.0 * math.pi)]},
        "shifted_n0": {"model": "shifted_number", "n": 0,
                       "theta": [0.5 * math.cos(a), 0.5 * math.sin(a)]},
        "shifted_n3": {"model": "shifted_number", "n": 3,
                       "theta": [0.5 * math.cos(b), 0.5 * math.sin(b)]},
        "squeezed": {"model": "squeezed",
                     "theta": [angle(-0.5, 0.5), angle(-0.5, 0.5), 0.4, angle(0.0, math.pi)]},
    }


def child_env():
    """This process's environment (BLAS already pinned) with the sources on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv, env, workdir):
    """Run `python -m qcrb argv` to completion; its own peak RSS comes from wait4."""
    out_path, err_path = workdir / "child.out", workdir / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen([sys.executable, "-m", "qcrb", *argv],
                                stdout=out, stderr=err, env=env, cwd=workdir)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Result(proc.returncode, out_path.read_bytes(), err_path.read_bytes(),
                  usage.ru_maxrss)


class Workload:
    TAIL_PERCENTILE = 75.0    # ten samples beyond it take six rounds
    REF_EVERY = 2             # a reference child before every other command

    def __init__(self, seed, workdir):
        self._workdir = workdir
        self._env = child_env()
        self._digests = {}
        self.peak_rss_kb = 0
        paths = {}
        for stem, doc in _configs(np.random.default_rng(seed)).items():
            paths[stem] = str(workdir / f"{stem}.json")
            with open(paths[stem], "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        pvm_path = str(workdir / "shifted_n0_pvm.json")
        made = spawn(["pvm", "--config", paths["shifted_n0"], "--out", pvm_path],
                     self._env, workdir)
        if made.code != 0:
            raise RuntimeError(f"set-up `qcrb pvm` exited {made.code}: "
                               f"{made.stderr.decode(errors='replace')}")
        self._round = [
            ("analyze", "--config", paths["spin"]),
            ("bound", "--config", paths["squeezed"]),
            ("bound", "--oracle", "--config", paths["spin"]),
            ("pvm", "--config", paths["squeezed"]),
            ("simulate", "--config", paths["shifted_n0"], "--pvm", pvm_path),
            ("boundary", "--config", paths["spin"]),
            ("oracle", "--config", paths["shifted_n3"]),
        ]

    def round(self, r):
        return self._round

    def trace_ops(self):
        return self._round

    def run(self, argv):
        result = spawn(argv, self._env, self._workdir)
        self.peak_rss_kb = max(self.peak_rss_kb, result.rss_kb)
        return result

    def reference(self):
        yardstick.child(self._env, self._workdir)

    def run_in_process(self, argv):
        from qcrb import cli   # only the traced run loads the package in this process

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        return Result(code, out.getvalue().encode(), err.getvalue().encode())

    def check(self, argv, res):
        """None if the child passes every gate, else what failed."""
        command = argv[0]
        if res.code != 0:
            return f"{command} exited {res.code}: {res.stderr.decode(errors='replace')[:200]}"
        digest = hashlib.sha256(res.stdout).hexdigest()
        if self._digests.setdefault(argv, digest) != digest:
            return f"{command} stdout differs from an earlier run of the same argv"
        text = res.stdout.decode()
        if command == "boundary":
            return _check_boundary(text)
        try:
            rep = json.loads(text)
        except json.JSONDecodeError as exc:
            return f"{command} printed no JSON: {exc}"
        return _CHECKS[command](rep)

    def peak_rss_mb(self):
        return self.peak_rss_kb / 1024.0


def _check_boundary(text):
    rows = list(csv.reader(io.StringIO(text)))
    if rows[:1] != [["x", "z", "u", "v"]] or len(rows) != 1 + SAMPLES_DEFAULT["boundary"]:
        return f"boundary CSV has header {rows[:1]} and {len(rows) - 1} rows"
    if not all(len(r) == 4 and all(math.isfinite(float(x)) for x in r) for r in rows[1:]):
        return "boundary CSV has a non-numeric row"
    return None


def _check_analyze(rep):
    expect = abs(SPIN_MZ) / (SPIN_S * (SPIN_S + 1) - SPIN_MZ ** 2)
    err = max(abs(b - expect) for b in rep["betas"])
    return None if err <= 1e-8 else f"analyze beta off by {err:.3e}"


def _check_bound(rep):
    if "oracle" in rep and rep["oracle"]["agreement"] is not True:
        return f"bound --oracle disagrees by {rep['oracle']['difference']!r}"
    value = rep["bound"]["value"]
    return None if math.isfinite(value) else f"bound value {value!r}"


def _check_pvm(rep):
    ver = rep["verification"]
    gap = abs(ver["trGV"] - rep["closed_form_value"])
    if not (ver["unbiased"] and gap <= 1e-8):
        return f"pvm unbiased={ver['unbiased']} misses the bound by {gap:.3e}"
    return None


def _check_simulate(rep):
    want = SAMPLES_DEFAULT["simulate"]
    return None if rep["count"] == want else f"simulate drew {rep['count']} of {want}"


def _check_oracle(rep):
    diff = rep["closed_form"]["difference"]
    return None if diff <= 1e-4 else f"oracle vs closed form differ by {diff!r}"


_CHECKS = {"analyze": _check_analyze, "bound": _check_bound, "pvm": _check_pvm,
           "simulate": _check_simulate, "oracle": _check_oracle}
