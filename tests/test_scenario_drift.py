import importlib.util
import json
import shutil
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "scenario_drift.py"


@pytest.fixture(scope="module")
def drift():
    spec = importlib.util.spec_from_file_location("scenario_drift", SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _write_outputs(root: Path, x: float = 0.25, status: str = "completed"):
    (root / "run").mkdir(parents=True)
    (root / "run" / "trajectory.csv").write_text(
        f"t,norm_X,coeff_1\n0.0,1.0,1.0\n0.5,{x!r},-0.125\n")
    (root / "run" / "diagnostics.json").write_text(json.dumps(
        {"status": {"kind": status}, "windows": [{"t1": 0.5, "K": x}]},
        indent=2, sort_keys=True))


def test_identical_copy(drift, tmp_path):
    _write_outputs(tmp_path / "base")
    shutil.copytree(tmp_path / "base", tmp_path / "out")
    lines, ok = drift.compare(tmp_path / "out", tmp_path / "base")
    assert ok
    assert lines == ["run/diagnostics.json: identical", "run/trajectory.csv: identical"]


def test_planted_numeric_change(drift, tmp_path):
    _write_outputs(tmp_path / "base", x=0.25)
    _write_outputs(tmp_path / "out", x=0.25 + 1e-12)
    assert drift.drift(tmp_path / "out" / "run" / "trajectory.csv",
                       tmp_path / "base" / "run" / "trajectory.csv") == \
        pytest.approx((1e-12, 4e-12), rel=1e-3)
    lines, ok = drift.compare(tmp_path / "out", tmp_path / "base")
    assert ok
    assert lines == ["run/diagnostics.json: max abs 1.000e-12, max rel 4.000e-12",
                     "run/trajectory.csv: max abs 1.000e-12, max rel 4.000e-12"]


def test_changed_string_or_file_set_fails(drift, tmp_path):
    _write_outputs(tmp_path / "base")
    _write_outputs(tmp_path / "out", status="failed")
    lines, ok = drift.compare(tmp_path / "out", tmp_path / "base")
    assert not ok
    assert "run/diagnostics.json: non-numeric field differs" in lines
    assert "run/trajectory.csv: identical" in lines

    (tmp_path / "out" / "run" / "extra.csv").write_text("a\n")
    lines, ok = drift.compare(tmp_path / "out", tmp_path / "base")
    assert "run/extra.csv: only in OUT" in lines and not ok
