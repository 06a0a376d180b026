"""The example scripts run to completion on small arguments."""

import pathlib
import subprocess
import sys

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("script, args", [
    ("sampling_demo.py", ["--shots", "2000"]),
    ("boundary_sweep.py", ["--count", "11", "--out-dir", "{tmp}"]),
    ("closed_form_vs_oracle.py", ["--weights", "1"]),
], ids=["sampling_demo", "boundary_sweep", "closed_form_vs_oracle"])
def test_script_runs(tmp_path, script, args):
    argv = [a.format(tmp=tmp_path) for a in args]
    proc = subprocess.run([sys.executable, str(SCRIPTS / script), *argv],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
