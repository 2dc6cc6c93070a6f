"""Smoke tests of the scripts/ entry points: each runs in a subprocess on a
small problem, must exit 0, and must end on its summary line."""

import hashlib
import importlib.util
import json
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


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPTS / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_summary_on_canned_records():
    # four pairs; the change is faster in three of them and slower in one
    rate = {"parent": [4.0, 4.2, 4.1, 3.9], "change": [5.0, 5.6, 4.0, 5.2]}
    records = [{"pair": k, "side": side, "wall_s": 30.0 + k, "correct": True,
                "attempted": 10, "failed": int(side == "change" and k == 3),
                "metrics": {"tasks_per_s": rate[side][k], "setup_s": 0.5}}
               for k in range(4) for side in ("parent", "change")]
    # an unpaired run counts in the tallies but in no metric
    records.append(dict(records[0], pair=9, metrics={"tasks_per_s": 99.0}))
    end_to_end = [{"name": "tasks_per_s", "better": "higher", "bound": 0.25},
                  {"name": "setup_s", "better": "lower", "bound": 0.25},
                  {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]
    bp = _bench_pairs()
    s = bp.summarize(records, end_to_end)
    assert s["pairs"] == 4
    assert s["all_correct"]
    assert s["failed"] == {"parent": 0, "change": 1}
    assert s["attempted"] == {"parent": 50, "change": 40}
    assert s["wall_s"]["change"] == [30.0, 31.0, 32.0, 33.0]
    # the unpaired parent run (wall 30) is a whole run too
    assert s["wall_median_s"] == {"parent": 31.0, "change": 31.5}
    assert set(s["metrics"]) == {"tasks_per_s", "setup_s"}
    m = s["metrics"]["tasks_per_s"]
    q1, med, q3 = bp.quartiles(rate["parent"])
    assert m["parent"] == {"q1": q1, "median": med, "q3": q3}
    assert m["change"]["median"] == pytest.approx(5.1)
    assert m["gain"] == pytest.approx(5.1 - 4.05)
    assert m["gain_rel"] == pytest.approx((5.1 - 4.05) / 4.05)
    assert m["parent_iqr"] == pytest.approx(q3 - q1)
    assert m["wins"] == 3
    tie = s["metrics"]["setup_s"]
    assert tie["gain"] == 0.0 and tie["wins"] == 0 and tie["better"] == "lower"
    lines = bp.format_summary("w", s)
    assert lines[0].startswith("w: 4 pairs, all correct: True")
    assert any("wins 3/4" in line for line in lines)
    assert lines[-2] == "  whole-run wall s, parent: 30.0 31.0 32.0 33.0 30.0 (median 31.0)"
    assert lines[-1] == "  whole-run wall s, change: 30.0 31.0 32.0 33.0 (median 31.5)"


def test_bench_pairs_names_a_dirty_tree_by_its_diff(tmp_path):
    def git(*argv):
        return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                               *argv], cwd=tmp_path, check=True,
                              capture_output=True).stdout

    git("init", "-q")
    (tmp_path / "a.txt").write_text("one\n")
    git("add", "a.txt")
    git("commit", "-q", "-m", "one")
    bp = _bench_pairs()
    clean = bp.describe(tmp_path)
    assert clean["diff_sha256"] is None and not clean["describe"].endswith("-dirty")
    (tmp_path / "a.txt").write_text("two\n")
    dirty = bp.describe(tmp_path)
    assert dirty["describe"] == clean["describe"] + "-dirty"
    assert dirty["diff_sha256"] == hashlib.sha256(git("diff", "HEAD")).hexdigest()
    assert bp.describe(tmp_path / "missing") is None


def test_bench_pairs_cold_start_summary_on_canned_records():
    # three rounds; the change wins the import twice, heat_decay never
    wall = {("parent", "import"): [0.45, 0.50, 0.20],
            ("change", "import"): [0.15, 0.18, 0.30],
            ("parent", "heat_decay"): [0.50, 0.52, 0.54],
            ("change", "heat_decay"): [0.50, 0.60, 0.70]}
    records = [{"round": k, "side": side, "target": target, "wall_s": w[k]}
               for (side, target), w in wall.items() for k in range(3)]
    # a target timed on one side only has no summary
    records.append({"round": 0, "side": "change", "target": "solo", "wall_s": 1.0})
    bp = _bench_pairs()
    s = bp.summarize_cold_start(records)
    assert set(s) == {"import", "heat_decay"}
    assert s["import"] == {"rounds": 3, "parent_median_s": 0.45, "change_median_s": 0.18,
                           "gain_s": pytest.approx(0.27), "wins": 2}
    assert s["heat_decay"]["wins"] == 0
    assert s["heat_decay"]["gain_s"] == pytest.approx(-0.08)
    assert bp.format_cold_start(s) == [
        "  cold import: parent 0.450 s, change 0.180 s, gain +0.270 s, wins 2/3",
        "  cold heat_decay: parent 0.520 s, change 0.600 s, gain -0.080 s, wins 0/3"]


def test_bench_pairs_compares_traced_counters_on_canned_records():
    def result(metrics):
        return {"correct": True, "metrics": {
            n: {"value": v, "unit": u} for n, (v, u) in metrics.items()}}

    results = {
        "parent": result({"solver.solve.calls": (40, "count"),
                          "solver.picard_iters": (2790, "count"),
                          "core.f_rows": (47430, "count"),
                          "solver.solve.self_s": (0.31, "s")}),
        "change": result({"solver.solve.calls": (40, "count"),
                          "solver.picard_iters": (2791, "count"),
                          "solver.windows": (441, "count"),
                          "solver.solve.self_s": (0.25, "s")}),
    }
    c = _bench_pairs().compare_counters(results)
    # the self time is no count; a counter one side lacks is not equal
    assert list(c) == ["core.f_rows", "solver.picard_iters", "solver.solve.calls",
                       "solver.windows"]
    assert c["solver.solve.calls"] == {"parent": 40, "change": 40, "equal": True}
    assert c["solver.picard_iters"]["equal"] is False
    assert c["core.f_rows"] == {"parent": 47430, "change": None, "equal": False}
    assert c["solver.windows"] == {"parent": None, "change": 441, "equal": False}


CANNED_PYTEST = """\
........................................................................ [ 23%]
============================= acceptance criteria ==============================
A2 PASS: escape times 0.999899, 0.999989, 0.999998 vs 1.0 exact
============================== slowest durations ===============================
{a10}s call     tests/test_acceptance.py::test_A10_equilibrium_persistence_table
2.61s call     tests/test_acceptance.py::test_A4_deviation_bound
0.31s setup    tests/test_acceptance.py::test_A4_deviation_bound
0.90s call     tests/test_bcs.py::test_A_like_but_not_acceptance
0.07s call     tests/test_acceptance.py::test_A2_blowup_bracketing
0.05s call     tests/test_solver.py::test_window_scan[A2]

(1201 durations < 0.005s hidden.  Use -vv to show these durations.)
307 passed in 18.52s
"""


def test_bench_pairs_tier1_durations_on_canned_pytest_output():
    bp = _bench_pairs()
    # only the call phase of a test_A<k> function counts
    assert bp.acceptance_durations(CANNED_PYTEST.format(a10="4.91")) == {
        "test_A10_equilibrium_persistence_table": 4.91,
        "test_A4_deviation_bound": 2.61,
        "test_A2_blowup_bracketing": 0.07}
    records = [{"side": side, "wall_s": wall,
                "acceptance": bp.acceptance_durations(CANNED_PYTEST.format(a10=a10))}
               for side, wall, a10 in [("parent", 20.0, "5.0"), ("change", 17.0, "4.0"),
                                       ("change", 16.0, "4.5"), ("parent", 22.0, "6.0"),
                                       ("parent", 21.0, "5.5")]]
    s = bp.summarize_tier1(records)
    assert s["parent"]["rounds"] == 3 and s["change"]["rounds"] == 2
    assert s["parent"]["wall_median_s"] == 21.0
    assert s["change"]["wall_median_s"] == 16.5
    # ordered by acceptance number
    assert list(s["change"]["acceptance_median_s"]) == [
        "test_A2_blowup_bracketing", "test_A4_deviation_bound",
        "test_A10_equilibrium_persistence_table"]
    assert s["parent"]["acceptance_median_s"]["test_A10_equilibrium_persistence_table"] == 5.5
    assert s["change"]["acceptance_median_s"]["test_A10_equilibrium_persistence_table"] == 4.25


def test_design_metrics_on_a_temporary_tree(tmp_path):
    pkg = tmp_path / "src" / "semiflow"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text(
        '__all__ = ["f", "g"]\n'
        "if sys.alpha > 0.0:\n"
        "    pass\n"
        "if isinstance(sg, DenseGenerator) or a > 0.0:\n"
        "    pass\n"
        "x = sys.alpha >= 0.0\n")
    # the re-exported "f" counts once
    (pkg / "__init__.py").write_text('from .a import f\n__all__ = ["f", "h"]\n')
    # lines outside src/semiflow count toward src_lines only
    (tmp_path / "src" / "other.py").write_text("if analytic_alpha is None:\n    pass\n")
    run = subprocess.run([sys.executable, str(SCRIPTS / "design_metrics.py"), str(tmp_path)],
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == {"src_lines": 10, "branch_sites": 2, "public_names": 3}
