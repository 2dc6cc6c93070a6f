"""Import-time dependencies: importing semiflow loads numpy only.

scipy.linalg (dense exponentials), scipy.special (the analytic
global_bound), jsonschema (scenario validation) and orjson (CSV export)
are imported on first use.  Each first use runs in a fresh interpreter,
so nothing this test process imported earlier can stand in for the
deferred import, and must return what the same call returns here.  The hot paths (a dense memo hit,
select_step) must execute no import statement at all.
"""

import dis
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np

import semiflow
from semiflow import (
    DenseGenerator,
    EvolutionSystem,
    global_bound,
    heat_dirichlet_semigroup,
    load_scenario,
    select_step,
)
from semiflow.nonlinearities import arctan_saturation

ROOT = Path(__file__).resolve().parents[1]
DEFERRED = ("scipy", "jsonschema", "orjson")

# the child prints the deferred modules (scipy*, jsonschema*, orjson*)
# loaded before and after its call, then the call's result as JSON
CHILD = """
import json, sys
def loaded():
    return sorted(m for m in sys.modules if m.startswith({deferred!r}))
import semiflow, semiflow.cli
before = loaded()
{body}
print(json.dumps({{"before": before, "after": loaded(), "result": result}}))
"""


def _fresh(body):
    """Run body (which sets result) in a fresh interpreter on this semiflow."""
    src = str(Path(semiflow.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = CHILD.format(deferred=DEFERRED, body=textwrap.dedent(body))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, cwd=ROOT, timeout=120)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout.strip().splitlines()[-1])


def _dense_A():
    n = np.arange(1.0, 5.0)
    return np.diag(-n * n) + np.triu(np.full((4, 4), 0.5), 1)


def test_import_loads_neither_scipy_nor_jsonschema():
    out = _fresh("result = None")
    assert out["before"] == []


def test_dense_exponential_imports_scipy_linalg_on_first_use():
    out = _fresh("""
        import numpy as np
        n = np.arange(1.0, 5.0)
        A = np.diag(-n * n) + np.triu(np.full((4, 4), 0.5), 1)
        result = semiflow.DenseGenerator(A).apply_T(0.3, np.ones(4)).tolist()
    """)
    assert out["before"] == []
    assert "scipy.linalg" in out["after"]
    assert out["result"] == DenseGenerator(_dense_A()).apply_T(0.3, np.ones(4)).tolist()


def test_analytic_global_bound_imports_scipy_special_on_first_use():
    out = _fresh("""
        from semiflow.nonlinearities import arctan_saturation
        sys_ = semiflow.EvolutionSystem(
            semiflow.heat_dirichlet_semigroup(8),
            arctan_saturation(8, gain=0.5), analytic_alpha=0.5)
        result = semiflow.global_bound(sys_, 1.0, 0.0, 2.0)
    """)
    assert out["before"] == []
    assert "scipy.special" in out["after"]
    assert "scipy.linalg" not in out["after"]
    sys_ = EvolutionSystem(heat_dirichlet_semigroup(8), arctan_saturation(8, gain=0.5),
                           analytic_alpha=0.5)
    assert out["result"] == global_bound(sys_, 1.0, 0.0, 2.0)


def test_scenario_load_imports_jsonschema_on_first_use():
    out = _fresh("""
        result = semiflow.load_scenario("scenarios/heat_decay.json")
    """)
    assert out["before"] == []
    assert "jsonschema" in out["after"]
    assert not any(m.startswith("scipy") for m in out["after"])
    assert out["result"] == load_scenario(str(ROOT / "scenarios" / "heat_decay.json"))


def test_first_csv_export_imports_orjson(tmp_path):
    # the 1e-5 and 1e-20 modes decay into cells that repr, not orjson, lays out
    out = _fresh(f"""
        import numpy as np
        from semiflow.nonlinearities import arctan_saturation
        sys_ = semiflow.EvolutionSystem(
            semiflow.heat_dirichlet_semigroup(4), arctan_saturation(4, gain=0.5))
        traj = semiflow.solve(
            sys_, semiflow.SpectralState(np.array([1.0, 1e-5, -0.25, 1e-20])), None, 0.5)
        semiflow.trajectory_to_csv(traj, {str(tmp_path / "child.csv")!r})
        result = open({str(tmp_path / "child.csv")!r}).read()
    """)
    assert out["before"] == []
    assert "orjson" in out["after"]
    sys_ = EvolutionSystem(heat_dirichlet_semigroup(4), arctan_saturation(4, gain=0.5))
    traj = semiflow.solve(sys_, semiflow.SpectralState(np.array([1.0, 1e-5, -0.25, 1e-20])),
                          None, 0.5)
    semiflow.trajectory_to_csv(traj, str(tmp_path / "here.csv"))
    assert out["result"] == (tmp_path / "here.csv").read_text()


def _imports_executed(call):
    """(function name, module) of every import statement executed by call()."""
    imports = {}
    seen = []

    def trace(frame, event, arg):
        frame.f_trace_opcodes = True
        if event == "opcode":
            code = frame.f_code
            if code not in imports:
                imports[code] = {i.offset: i.argval for i in dis.get_instructions(code)
                                 if i.opname == "IMPORT_NAME"}
            name = imports[code].get(frame.f_lasti)
            if name is not None:
                seen.append((code.co_name, name))
        return trace

    sys.settrace(trace)
    try:
        call()
    finally:
        sys.settrace(None)
    return seen


def test_opcode_trace_sees_an_import_statement():
    # the detector itself: a cached module's import statement is still seen
    def imports_json():
        import json  # noqa: F401

    assert _imports_executed(imports_json) == [("imports_json", "json")]


def test_hot_paths_execute_no_import_statement():
    gen = DenseGenerator(_dense_A())
    x = np.ones(4)
    gen.apply_T(0.3, x)  # the miss imports scipy.linalg
    assert _imports_executed(lambda: gen.apply_T(0.3, x)) == []

    def step(sys_, n):
        return lambda: select_step(sys_, K=0.5, u_sup=0.0, start_state=np.full(n, 0.1))

    diag = EvolutionSystem(heat_dirichlet_semigroup(8), arctan_saturation(8, gain=0.5))
    assert _imports_executed(step(diag, 8)) == []
    # a dense system's first window length misses the memo and imports
    dense = step(EvolutionSystem(gen, arctan_saturation(4, gain=0.5)), 4)
    dense()
    assert _imports_executed(dense) == []
