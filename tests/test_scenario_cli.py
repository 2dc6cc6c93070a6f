import dataclasses
import json
import math
import os
import subprocess
import sys

import pytest

from semiflow.cli import main
from semiflow.solver import SolverConfig
from semiflow.scenario import COMMAND_SCHEMAS, ScenarioError, load_scenario

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")


def repo_scenario(name):
    return os.path.join(SCENARIO_DIR, name)


def write_scenario(tmp_path, payload, name="sc.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_load_all_repo_scenarios():
    names = sorted(os.listdir(SCENARIO_DIR))
    assert len(names) >= 6
    for name in names:
        sc = load_scenario(repo_scenario(name))
        assert sc["task"] in COMMAND_SCHEMAS


def test_solver_schema_keys_are_the_config_fields():
    # a key the config lacks would fail at run time, a field the schema
    # lacks could not be set from a scenario
    fields = {f.name for f in dataclasses.fields(SolverConfig)}
    assert set(COMMAND_SCHEMAS["solve"]["properties"]["solver"]["properties"]) == fields
    for schema in COMMAND_SCHEMAS.values():
        solver = schema["properties"].get("solver")
        if solver is not None:
            assert set(solver["properties"]) == fields


def test_unknown_task_message(tmp_path):
    path = write_scenario(tmp_path, {"task": "frobnicate"})
    with pytest.raises(ScenarioError, match="unknown task 'frobnicate'"):
        load_scenario(path)


def test_schema_error_reports_json_path(tmp_path):
    base = json.loads(open(repo_scenario("heat_decay.json")).read())
    missing = dict(base)
    del missing["t_end"]
    with pytest.raises(ScenarioError, match=r"config error at \$"):
        load_scenario(write_scenario(tmp_path, missing, "a.json"))
    nested = json.loads(json.dumps(base))
    nested["solver"] = {"substeps_per_window": 4}
    with pytest.raises(ScenarioError,
                       match=r"config error at \$\.solver\.substeps_per_window"):
        load_scenario(write_scenario(tmp_path, nested, "b.json"))


def test_semantic_error_unknown_family(tmp_path, capsys):
    sc = {
        "task": "solve",
        "system": {"semigroup": {"family": "neumann_wave"},
                   "nonlinearity": {"name": "zero"}},
        "x0": {"mode": 1},
        "t_end": 0.1,
    }
    out = tmp_path / "out"
    rc = main([write_scenario(tmp_path, sc), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "unknown semigroup family" in err
    assert not out.exists()


def test_cli_config_error_exit_code_and_no_outputs(tmp_path, capsys):
    bad = {"task": "solve"}
    out = tmp_path / "out"
    rc = main([write_scenario(tmp_path, bad), "--out", str(out)])
    assert rc == 1
    assert "error: config error at $" in capsys.readouterr().err
    assert not out.exists()


def test_cli_runtime_error_exit_code(tmp_path, capsys):
    sc = {
        "task": "bcs",
        "family": "dirichlet_heat_0_pi",
        "n_modes": 16,
        "x0": {"coeffs": [0.0] * 16},
        "input_poly": [[1.0], [1.0]],
        "tau": 0.2,
    }
    out = tmp_path / "out"
    rc = main([write_scenario(tmp_path, sc), "--out", str(out)])
    assert rc == 1
    assert "compatibility condition" in capsys.readouterr().err
    assert not out.exists()


def test_heat_decay_scenario_outputs(tmp_path, capsys):
    out = tmp_path / "run"
    rc = main([repo_scenario("heat_decay.json"), "--out", str(out)])
    assert rc == 0
    assert "solve: status=completed" in capsys.readouterr().out
    csv = (out / "trajectory.csv").read_text()
    assert csv.splitlines()[0].startswith("t,norm_X,coeff_1")
    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["status"]["kind"] == "completed"


def test_dense_scenario_with_polynomial_input(tmp_path, capsys):
    # the schema accepts a "poly" input for every semigroup, the dense one too
    sc = {
        "task": "solve",
        "system": {"semigroup": {"dense": [[0, 1], [-2, -0.3]]},
                   "nonlinearity": {"name": "arctan", "params": {"gain": 0.3}},
                   "B": {"coeffs": [[0], [1]]}},
        "x0": {"coeffs": [1, 0]},
        "input": {"poly": [[1], [0.5], [-0.25]]},
        "t_end": 1,
    }
    out = tmp_path / "out"
    assert main([write_scenario(tmp_path, sc), "--out", str(out)]) == 0
    assert "solve: status=completed" in capsys.readouterr().out
    rows = (out / "trajectory.csv").read_text().splitlines()
    assert rows[0] == "t,norm_X,coeff_1,coeff_2"
    assert float(rows[-1].split(",")[0]) == 1.0


def test_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main([repo_scenario("heat_decay.json"), "--out", str(a), "--quiet"]) == 0
    assert main([repo_scenario("heat_decay.json"), "--out", str(b), "--quiet"]) == 0
    for name in ("trajectory.csv", "diagnostics.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_substeps_override_changes_sampling(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    argv = [repo_scenario("heat_decay.json"), "--quiet"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b), "--substeps", "16"]) == 0
    rows_a = (a / "trajectory.csv").read_text().count("\n")
    rows_b = (b / "trajectory.csv").read_text().count("\n")
    assert rows_b < rows_a


def test_expect_mismatch_exits_2(tmp_path, capsys):
    sc = json.loads(open(repo_scenario("heat_decay.json")).read())
    sc["expect"] = {"final_norm": [0.0, 1e-6]}
    out = tmp_path / "out"
    rc = main([write_scenario(tmp_path, sc), "--out", str(out), "--quiet"])
    assert rc == 2
    assert "expectation failed: final norm" in capsys.readouterr().err
    # the run itself still writes its outputs
    assert (out / "trajectory.csv").exists()


def test_failed_certification_exits_3_unless_expected(tmp_path, capsys):
    sc = {
        "task": "solve",
        "system": {"semigroup": {"mu": [0.0], "omega": 1.0},
                   "nonlinearity": {"name": "scalar_square"}},
        "x0": {"coeffs": [50.0]},
        "t_end": 1.0,
        "solver": {"max_window_bisections": 2},
    }
    out = tmp_path / "a"
    rc = main([write_scenario(tmp_path, sc), "--out", str(out), "--quiet"])
    assert rc == 3
    assert "certification failed: no certified window" in capsys.readouterr().err
    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["status"]["kind"] == "failed"
    sc["expect"] = {"status": "failed"}
    rc = main([write_scenario(tmp_path, sc, "expected.json"),
               "--out", str(tmp_path / "b"), "--quiet"])
    assert rc == 0


@pytest.mark.parametrize("name, value", [
    ("picard_tol", math.inf), ("picard_tol", math.nan),
    ("blowup_threshold", math.inf), ("window_cap", math.inf)])
def test_non_finite_solver_setting_exits_1(tmp_path, capsys, name, value):
    # Python's json reads Infinity and NaN, and the schema's exclusiveMinimum
    # lets both through; with picard_tol = Infinity the blow-up run stopped
    # each window after one iteration, missed ln 2 by 10% and exited 0
    sc = json.loads(open(repo_scenario("blowup_square.json")).read())
    del sc["expect"]
    sc["solver"] = {name: value}
    rc = main([write_scenario(tmp_path, sc), "--out", str(tmp_path / "out"), "--quiet"])
    assert rc == 1
    assert f"solver config: {name} must be positive and finite" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["heat_decay.json", "burgers_driven.json",
                                  "bcs_quadratic.json", "admissibility_boundary.json"])
@pytest.mark.parametrize("modes", ["0", "-2"])
def test_nonpositive_modes_override_exits_1(tmp_path, capsys, name, modes):
    # the runners read `modes or <scenario value>`, so --modes 0 used to run
    # the scenario's own mode count and exit 0
    out = tmp_path / "out"
    rc = main([repo_scenario(name), "--out", str(out), "--quiet", "--modes", modes])
    assert rc == 1
    assert f"error: modes must be >= 1, got {modes}" in capsys.readouterr().err
    assert not out.exists()


def test_blowup_scenario(tmp_path):
    out = tmp_path / "out"
    rc = main([repo_scenario("blowup_square.json"), "--out", str(out), "--quiet"])
    assert rc == 0
    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["status"]["kind"] == "blowup"
    assert 0.55 <= diag["status"]["t_blowup"] <= 0.6932


def test_burgers_scenario_snapshots(tmp_path):
    out = tmp_path / "out"
    rc = main([repo_scenario("burgers_driven.json"), "--out", str(out),
               "--quiet", "--substeps", "16"])
    assert rc == 0
    for name in ("trajectory.csv", "diagnostics.json",
                 "snapshot_0.csv", "snapshot_1.csv"):
        assert (out / name).exists()
    lines = (out / "snapshot_1.csv").read_text().splitlines()
    assert lines[0] == "# t = 0.25"
    assert lines[1] == "z,value"
    # every cell is a plain float, not the repr of a numpy scalar
    for name in ("snapshot_0.csv", "snapshot_1.csv"):
        rows = (out / name).read_text().splitlines()[2:]
        assert rows
        for row in rows:
            assert len([float(c) for c in row.split(",")]) == 2


def test_admissibility_scenario(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main([repo_scenario("admissibility_boundary.json"), "--out", str(out)])
    assert rc == 0
    assert "admissibility: fitted exponent" in capsys.readouterr().out
    payload = json.loads((out / "estimate.json").read_text())
    assert 0.2 <= payload["fitted_exponent"] <= 0.4
    assert payload["operator_class"] == "smooth_class(alpha=0.2)"
    rows = (out / "estimate.csv").read_text().splitlines()
    assert rows[0] == "t,h_lower,h_upper"
    assert len(rows) == 8


def test_bcs_scenario(tmp_path):
    out = tmp_path / "out"
    rc = main([repo_scenario("bcs_quadratic.json"), "--out", str(out),
               "--quiet", "--substeps", "32"])
    assert rc == 0
    payload = json.loads((out / "crosscheck.json").read_text())
    assert payload["passed"] is True
    assert payload["max_difference"] <= 1e-6
    assert payload["family"] == "dirichlet_heat_0_pi"


def test_props_scenario(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main([repo_scenario("props_arctan.json"), "--out", str(out),
               "--substeps", "32"])
    assert rc == 0
    text = (out / "reports.txt").read_text()
    for name in ("axioms", "deviation", "continuous_dependence", "cep", "brs"):
        assert f"[PASS] {name}:" in text
    payload = json.loads((out / "reports.json").read_text())
    assert [r["property"] for r in payload] == [
        "axioms", "deviation", "continuous_dependence", "cep", "brs"]
    assert capsys.readouterr().out.rstrip("\n") == text.rstrip("\n")


def test_props_expected_fail_absorbs_known_failure(tmp_path):
    sc = {
        "task": "props",
        "system": {"semigroup": {"mu": [0.0], "omega": 1.0},
                   "nonlinearity": {"name": "scalar_square"}},
        "seed": 9,
        "checks": {"brs": {"bound": 3.0, "tau": 2.0, "n_samples": 2}},
    }
    path = write_scenario(tmp_path, sc)
    rc = main([path, "--out", str(tmp_path / "a"), "--quiet"])
    assert rc == 2  # the escaping sample fails the check
    sc["expect"] = {"expected_fail": ["brs"]}
    path = write_scenario(tmp_path, sc, "absorbed.json")
    rc = main([path, "--out", str(tmp_path / "b"), "--quiet"])
    assert rc == 0
    text = (tmp_path / "b" / "reports.txt").read_text()
    assert "[FAIL] brs:" in text


def test_module_entrypoint_subprocess(tmp_path):
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "semiflow", repo_scenario("heat_decay.json"),
         "--out", str(out), "--quiet"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == ""
    assert (out / "trajectory.csv").exists()
