"""Smoke tests of the scripts/ entry points: each runs in a subprocess on a
small problem, must exit 0, and must end on its summary line."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import semiflow

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
SWEEP = ["run_admissibility_sweep.py", "--modes", "16", "--t-min-exp", "-6",
         "--t-max-exp", "-3"]


@pytest.mark.parametrize("argv, last", [
    (SWEEP + ["--q", "inf"], "fitted exponent:"),
    (SWEEP + ["--q", "2"], "fitted exponent:"),
    (["burgers_demo.py", "--modes", "8", "--t-end", "0.05"], "min "),
    (["props_report.py", "--modes", "4", "--pairs", "2", "--tau", "0.2"],
     "[PASS] brs:"),
], ids=["sweep_q_inf", "sweep_q_2", "burgers_demo", "props_report"])
def test_script_runs(argv, last):
    # the child imports the same semiflow package as this process
    src = str(Path(semiflow.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    run = subprocess.run([sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip().splitlines()[-1].startswith(last)
