"""JSON scenario files: validated run descriptions for the command line.

A scenario names a task (solve, burgers, props, admissibility, bcs) and
the objects it needs.  Validation is two-stage: a JSON schema for shape,
then the builders for semantic constraints (mode counts, operator
classes, registry names).  Both raise ScenarioError before anything is
written, so a bad config never leaves partial outputs behind.

Runs are deterministic: given the same scenario and overrides, the output
files are byte-identical.  Every CSV table (trajectories, Burgers
snapshots, admissibility estimates) goes through solver._write_rows, so
each cell is the repr of a Python float.

jsonschema is imported inside load_scenario, on the first scenario read,
and orjson on the first CSV write, so importing the package or the
command line loads numpy only (jsonschema is about 45 ms of import time).
"""

from __future__ import annotations

import json
import math
import os
import sys
from typing import Dict, List, Optional

import numpy as np

from .admissibility import (
    Bounded,
    InputOperator,
    QAdmissible,
    SmoothClass,
    estimate_admissibility,
    measure_h,
)
from .bcs import BCS_FAMILIES, representation_crosscheck
from .burgers import BurgersSystem
from .core import InputSignal, SpectralState
from .flow_props import (
    check_axioms,
    check_brs,
    check_cep,
    check_continuous_dependence,
    deviation_suite,
    draw_signals,
    draw_states,
    format_reports,
    reports_to_json,
)
from .nonlinearities import make_local_term, make_nonlinearity
from .semigroup import SEMIGROUP_FAMILIES, DenseGenerator, DiagonalSemigroup
from .solver import (
    EvolutionSystem,
    PolySignal,
    SolverConfig,
    Trajectory,
    _write_json,
    _write_rows,
    solve,
    trajectory_diagnostics_json,
    trajectory_to_csv,
)

__all__ = ["ScenarioError", "load_scenario", "run_scenario", "COMMAND_SCHEMAS"]


class ScenarioError(Exception):
    """Configuration problem; the run is refused before any output."""


# ---------------------------------------------------------------------------
# schemas

_NUMBER = {"type": "number"}
_POSITIVE = {"type": "number", "exclusiveMinimum": 0}
_INT_POS = {"type": "integer", "minimum": 1}
_NUM_ARRAY = {"type": "array", "items": _NUMBER, "minItems": 1}
_MATRIX = {"type": "array", "items": _NUM_ARRAY, "minItems": 1}
_RANGE = {"type": "array", "items": _NUMBER, "minItems": 2, "maxItems": 2}

_SEMIGROUP = {
    "type": "object",
    "oneOf": [
        {"required": ["family"]},
        {"required": ["mu"]},
        {"required": ["dense"]},
    ],
    "properties": {
        "family": {"type": "string"},
        "n_modes": _INT_POS,
        "omega": _NUMBER,
        "mu": _NUM_ARRAY,
        "M": {"type": "number", "minimum": 1},
        "lam": _NUMBER,
        "analytic": {"type": "boolean"},
        "dense": _MATRIX,
    },
    "additionalProperties": False,
}

_CLASS = {
    "type": "object",
    "required": ["kind"],
    "properties": {
        "kind": {"enum": ["bounded", "smooth_class", "q_admissible"]},
        "alpha": _NUMBER,
        "q": _NUMBER,
    },
    "additionalProperties": False,
}

_OPERATOR = {
    "type": "object",
    "oneOf": [{"required": ["coeffs"]}, {"required": ["identity"]}],
    "properties": {
        "coeffs": {"oneOf": [_NUM_ARRAY, _MATRIX]},
        "identity": {"type": "boolean"},
        "scale": _NUMBER,
        "class": _CLASS,
    },
    "additionalProperties": False,
}

_STATE = {
    "type": "object",
    "oneOf": [{"required": ["coeffs"]}, {"required": ["mode"]}],
    "properties": {
        "coeffs": _NUM_ARRAY,
        "mode": _INT_POS,
        "amplitude": _NUMBER,
    },
    "additionalProperties": False,
}

_INPUT = {
    "type": "object",
    "oneOf": [
        {"required": ["grid", "values"]},
        {"required": ["constant", "horizon"]},
        {"required": ["poly"]},
    ],
    "properties": {
        "grid": _NUM_ARRAY,
        "values": {"oneOf": [_NUM_ARRAY, _MATRIX]},
        "constant": {"oneOf": [_NUMBER, _NUM_ARRAY]},
        "horizon": _POSITIVE,
        "poly": {"oneOf": [_NUM_ARRAY, _MATRIX]},
    },
    "additionalProperties": False,
}

_NAMED = {
    "type": "object",
    "required": ["name"],
    "properties": {"name": {"type": "string"}, "params": {"type": "object"}},
    "additionalProperties": False,
}

_SOLVER = {
    "type": "object",
    "properties": {
        "substeps_per_window": {"type": "integer", "minimum": 8},
        "picard_tol": _POSITIVE,
        "blowup_threshold": _POSITIVE,
        "max_window_bisections": _INT_POS,
        "window_cap": _POSITIVE,
    },
    "additionalProperties": False,
}

_SYSTEM = {
    "type": "object",
    "required": ["semigroup", "nonlinearity"],
    "properties": {
        "semigroup": _SEMIGROUP,
        "nonlinearity": _NAMED,
        "B": _OPERATOR,
        "B2": _OPERATOR,
        "analytic_alpha": {"type": "number", "minimum": 0, "exclusiveMaximum": 1},
    },
    "additionalProperties": False,
}

_TRAJ_EXPECT = {
    "type": "object",
    "properties": {
        "status": {"enum": ["completed", "blowup", "failed"]},
        "t_blowup": _RANGE,
        "final_norm": _RANGE,
        "sup_norm": _RANGE,
    },
    "additionalProperties": False,
}

COMMAND_SCHEMAS: Dict[str, dict] = {
    "solve": {
        "type": "object",
        "required": ["task", "system", "x0", "t_end"],
        "properties": {
            "task": {"const": "solve"},
            "system": _SYSTEM,
            "x0": _STATE,
            "input": _INPUT,
            "t_end": _POSITIVE,
            "solver": _SOLVER,
            "checkpoints": _NUM_ARRAY,
            "expect": _TRAJ_EXPECT,
        },
        "additionalProperties": False,
    },
    "burgers": {
        "type": "object",
        "required": ["task", "n_modes", "x0", "t_end"],
        "properties": {
            "task": {"const": "burgers"},
            "n_modes": _INT_POS,
            "local_term": _NAMED,
            "x0": _STATE,
            "input": _INPUT,
            "boundary": _INPUT,
            "boundary_alpha": _POSITIVE,
            "t_end": _POSITIVE,
            "solver": _SOLVER,
            "checkpoints": _NUM_ARRAY,
            "snapshot_times": _NUM_ARRAY,
            "expect": _TRAJ_EXPECT,
        },
        "additionalProperties": False,
    },
    "props": {
        "type": "object",
        "required": ["task", "system", "checks"],
        "properties": {
            "task": {"const": "props"},
            "system": _SYSTEM,
            "seed": {"type": "integer", "minimum": 0},
            "solver": _SOLVER,
            "checks": {
                "type": "object",
                "minProperties": 1,
                "properties": {
                    "axioms": {
                        "type": "object",
                        "properties": {
                            "t_end": _POSITIVE,
                            "n_samples": _INT_POS,
                            "radius": _POSITIVE,
                            "input_radius": _POSITIVE,
                        },
                        "additionalProperties": False,
                    },
                    "deviation": {
                        "type": "object",
                        "properties": {
                            "tau": _POSITIVE,
                            "n_pairs": _INT_POS,
                            "radius": _POSITIVE,
                            "input_radius": _POSITIVE,
                        },
                        "additionalProperties": False,
                    },
                    "continuous_dependence": {
                        "type": "object",
                        "properties": {
                            "tau": _POSITIVE,
                            "n_pairs": _INT_POS,
                            "radius": _POSITIVE,
                            "perturbation": _POSITIVE,
                        },
                        "additionalProperties": False,
                    },
                    "cep": {
                        "type": "object",
                        "properties": {
                            "eps_grid": _NUM_ARRAY,
                            "h_grid": _NUM_ARRAY,
                            "n_samples": _INT_POS,
                            "ladder_steps": _INT_POS,
                        },
                        "additionalProperties": False,
                    },
                    "brs": {
                        "type": "object",
                        "properties": {
                            "bound": _POSITIVE,
                            "tau": _POSITIVE,
                            "n_samples": _INT_POS,
                        },
                        "additionalProperties": False,
                    },
                },
                "additionalProperties": False,
            },
            "expect": {
                "type": "object",
                "properties": {
                    "expected_fail": {
                        "type": "array",
                        "items": {"type": "string"},
                    }
                },
                "additionalProperties": False,
            },
        },
        "additionalProperties": False,
    },
    "admissibility": {
        "type": "object",
        "required": ["task", "semigroup", "operator"],
        "properties": {
            "task": {"const": "admissibility"},
            "semigroup": _SEMIGROUP,
            "operator": _OPERATOR,
            "q": {"oneOf": [{"const": 2}, {"const": "inf"}]},
            "t_grid": _NUM_ARRAY,
            "expect": {
                "type": "object",
                "properties": {"slope": _RANGE},
                "additionalProperties": False,
            },
        },
        "additionalProperties": False,
    },
    "bcs": {
        "type": "object",
        "required": ["task", "family", "input_poly", "tau"],
        "properties": {
            "task": {"const": "bcs"},
            "family": {"type": "string"},
            "n_modes": _INT_POS,
            "omega": _NUMBER,
            "nonlinearity": _NAMED,
            "x0": {"oneOf": [_STATE, {"const": "lifted"}]},
            "input_poly": {"oneOf": [_NUM_ARRAY, _MATRIX]},
            "w_poly": {"oneOf": [_NUM_ARRAY, _MATRIX]},
            "tau": _POSITIVE,
            "class": _CLASS,
            "tolerance": _POSITIVE,
            "solver": _SOLVER,
            "expect": {
                "type": "object",
                "properties": {"passed": {"type": "boolean"}},
                "additionalProperties": False,
            },
        },
        "additionalProperties": False,
    },
}


def load_scenario(path: str) -> dict:
    """Read and validate a scenario file; ScenarioError on any problem."""
    try:
        with open(path) as fh:
            sc = json.load(fh)
    except OSError as e:
        raise ScenarioError(f"cannot read scenario: {e}") from e
    except json.JSONDecodeError as e:
        raise ScenarioError(f"scenario is not valid JSON: {e}") from e
    if not isinstance(sc, dict):
        raise ScenarioError("scenario must be a JSON object")
    task = sc.get("task")
    if task not in COMMAND_SCHEMAS:
        known = ", ".join(sorted(COMMAND_SCHEMAS))
        raise ScenarioError(f"unknown task {task!r}; expected one of: {known}")
    import jsonschema

    validator = jsonschema.Draft202012Validator(COMMAND_SCHEMAS[task])
    err = jsonschema.exceptions.best_match(validator.iter_errors(sc))
    if err is not None:
        raise ScenarioError(f"config error at {err.json_path}: {err.message}")
    return sc


# ---------------------------------------------------------------------------
# builders (semantic validation)


def _build_semigroup(spec: dict, modes: Optional[int]):
    if "family" in spec:
        name = spec["family"]
        if name not in SEMIGROUP_FAMILIES:
            known = ", ".join(sorted(SEMIGROUP_FAMILIES))
            raise ScenarioError(f"unknown semigroup family {name!r}; have: {known}")
        n = modes or spec.get("n_modes", 64)
        return SEMIGROUP_FAMILIES[name](n, omega=spec.get("omega", 1.0))
    try:
        if "mu" in spec:
            mu = np.asarray(spec["mu"], float)
            omega = spec.get("omega", float(np.max(mu)) + 1.0)
            return DiagonalSemigroup(
                mu=mu, omega=omega, M=spec.get("M", 1.0), lam=spec.get("lam"),
                analytic=spec.get("analytic", False))
        return DenseGenerator(A=np.asarray(spec["dense"], float),
                              M=spec.get("M", 1.0), lam=spec.get("lam"))
    except ValueError as e:
        raise ScenarioError(f"semigroup: {e}") from e


def _build_class(spec: Optional[dict]):
    if spec is None:
        return Bounded()
    kind = spec["kind"]
    try:
        if kind == "bounded":
            return Bounded()
        if kind == "smooth_class":
            if "alpha" not in spec:
                raise ScenarioError("smooth_class needs an alpha")
            return SmoothClass(spec["alpha"])
        if "q" not in spec:
            raise ScenarioError("q_admissible needs a q")
        return QAdmissible(spec["q"])
    except ValueError as e:
        raise ScenarioError(f"operator class: {e}") from e


def _build_operator(spec: dict, n_modes: int) -> InputOperator:
    cls = _build_class(spec.get("class"))
    scale = spec.get("scale", 1.0)
    if spec.get("identity"):
        coeffs = scale * np.eye(n_modes)
    else:
        coeffs = scale * np.asarray(spec["coeffs"], float)
    if coeffs.shape[0] != n_modes:
        raise ScenarioError(
            f"operator has {coeffs.shape[0]} mode rows, semigroup has {n_modes}")
    return InputOperator(coeffs, cls)


def _build_state(spec: dict, n_modes: int) -> SpectralState:
    if "coeffs" in spec:
        c = np.asarray(spec["coeffs"], float)
        if c.shape[0] != n_modes:
            raise ScenarioError(
                f"state has {c.shape[0]} coefficients, system has {n_modes} modes")
        return SpectralState(c)
    k = spec["mode"]
    if k > n_modes:
        raise ScenarioError(f"state mode {k} exceeds the {n_modes}-mode truncation")
    c = np.zeros(n_modes)
    c[k - 1] = spec.get("amplitude", 1.0)
    return SpectralState(c)


def _build_input(spec: Optional[dict], m: Optional[int] = None):
    if spec is None:
        return None
    if "poly" in spec:
        sig = PolySignal(np.asarray(spec["poly"], float))
    elif "constant" in spec:
        sig = InputSignal.constant(
            np.atleast_1d(np.asarray(spec["constant"], float)), spec["horizon"])
    else:
        try:
            sig = InputSignal(np.asarray(spec["grid"], float),
                              np.asarray(spec["values"], float))
        except ValueError as e:
            raise ScenarioError(f"input signal: {e}") from e
    if m is not None and sig.m != m:
        raise ScenarioError(f"input has {sig.m} channels, expected {m}")
    return sig


def _build_cfg(spec: Optional[dict], substeps: Optional[int]) -> SolverConfig:
    kwargs = dict(spec or {})
    if substeps is not None:
        kwargs["substeps_per_window"] = substeps
    try:
        return SolverConfig(**kwargs)
    except ValueError as e:
        raise ScenarioError(f"solver config: {e}") from e


def _build_system(spec: dict, modes: Optional[int]) -> EvolutionSystem:
    sg = _build_semigroup(spec["semigroup"], modes)
    n = sg.n_modes
    nl = spec["nonlinearity"]
    try:
        f = make_nonlinearity(nl["name"], n, nl.get("params", {}))
    except (KeyError, ValueError) as e:
        raise ScenarioError(f"nonlinearity: {e}") from e
    B = _build_operator(spec["B"], n) if "B" in spec else None
    B2 = _build_operator(spec["B2"], n) if "B2" in spec else None
    try:
        return EvolutionSystem(
            semigroup=sg, f=f, B=B, B2=B2,
            analytic_alpha=spec.get("analytic_alpha"),
        )
    except ValueError as e:
        raise ScenarioError(f"system: {e}") from e


# ---------------------------------------------------------------------------
# expectation checks


def _in_range(value: float, lohi: List[float]) -> bool:
    return lohi[0] <= value <= lohi[1]


def _check_traj_expect(expect: Optional[dict], traj: Trajectory) -> List[str]:
    if not expect:
        return []
    bad = []
    if "status" in expect and traj.status.kind != expect["status"]:
        bad.append(f"status is {traj.status.kind}, expected {expect['status']}")
    if "t_blowup" in expect:
        tb = traj.status.t_blowup
        if tb is None:
            bad.append("expected a blow-up time, run completed")
        elif not _in_range(tb, expect["t_blowup"]):
            bad.append(f"blow-up at t={tb:.6g}, outside {expect['t_blowup']}")
    if "final_norm" in expect:
        fn = float(np.linalg.norm(traj.coeffs[-1]))
        if not _in_range(fn, expect["final_norm"]):
            bad.append(f"final norm {fn:.6g} outside {expect['final_norm']}")
    if "sup_norm" in expect:
        sn = traj.sup_norm()
        if not _in_range(sn, expect["sup_norm"]):
            bad.append(f"sup norm {sn:.6g} outside {expect['sup_norm']}")
    return bad


def _finish(mismatches: List[str], quiet: bool, summary: str) -> int:
    if not quiet and summary:
        print(summary)
    if mismatches:
        for msg in mismatches:
            print(f"expectation failed: {msg}", file=sys.stderr)
        return 2
    return 0


def _finish_traj(expect: Optional[dict], traj: Trajectory, quiet: bool, summary: str) -> int:
    """_finish for solve and burgers runs.  A run whose window certificate
    failed exits 3, whatever else held, unless expect.status is "failed"."""
    code = _finish(_check_traj_expect(expect, traj), quiet, summary)
    if traj.status.kind != "failed" or (expect or {}).get("status") == "failed":
        return code
    print(f"certification failed: {traj.status.reason}", file=sys.stderr)
    return 3


# ---------------------------------------------------------------------------
# task runners


def _run_solve(sc: dict, out_dir: str, seed, substeps, modes, quiet) -> int:
    sys_ = _build_system(sc["system"], modes)
    x0 = _build_state(sc["x0"], sys_.n_modes)
    u = _build_input(sc.get("input"))  # solve checks its channels against B
    cfg = _build_cfg(sc.get("solver"), substeps)
    traj = solve(sys_, x0, u, sc["t_end"], cfg,
                 checkpoint_times=sc.get("checkpoints"))
    os.makedirs(out_dir, exist_ok=True)
    trajectory_to_csv(traj, os.path.join(out_dir, "trajectory.csv"))
    trajectory_diagnostics_json(traj, os.path.join(out_dir, "diagnostics.json"))
    summary = (f"solve: status={traj.status.kind} t_final={traj.times[-1]:.6g} "
               f"samples={traj.n_samples} windows={len(traj.diagnostics)}")
    return _finish_traj(sc.get("expect"), traj, quiet, summary)


def _run_burgers(sc: dict, out_dir: str, seed, substeps, modes, quiet) -> int:
    n = modes or sc["n_modes"]
    local = None
    if "local_term" in sc:
        lt = sc["local_term"]
        try:
            local = make_local_term(lt["name"], lt.get("params", {}))
        except (KeyError, ValueError) as e:
            raise ScenarioError(f"local term: {e}") from e
    try:
        bsys = BurgersSystem(n, local=local)
    except ValueError as e:
        raise ScenarioError(f"burgers: {e}") from e
    x0 = _build_state(sc["x0"], n)
    u = _build_input(sc.get("input"), n)
    d = _build_input(sc.get("boundary"), 1)
    cfg = _build_cfg(sc.get("solver"), substeps)
    snaps = sorted(sc.get("snapshot_times", []))
    cps = sorted(set(sc.get("checkpoints", [])) | set(snaps))
    try:
        traj = bsys.simulate(
            x0, u, d, sc["t_end"], cfg,
            checkpoint_times=cps or None,
            boundary_alpha=sc.get("boundary_alpha", 0.2),
        )
    except ValueError as e:
        raise ScenarioError(f"burgers: {e}") from e
    os.makedirs(out_dir, exist_ok=True)
    trajectory_to_csv(traj, os.path.join(out_dir, "trajectory.csv"))
    trajectory_diagnostics_json(traj, os.path.join(out_dir, "diagnostics.json"))
    for k, t_s in enumerate(snaps):
        if t_s > traj.times[-1] + 1e-12:
            break
        z, v = bsys.physical_snapshot(traj.state_at(t_s))
        with open(os.path.join(out_dir, f"snapshot_{k}.csv"), "w") as fh:
            fh.write(f"# t = {t_s!r}\nz,value\n")
            _write_rows(fh, [z, v])
    summary = (f"burgers: status={traj.status.kind} t_final={traj.times[-1]:.6g} "
               f"samples={traj.n_samples}")
    return _finish_traj(sc.get("expect"), traj, quiet, summary)


def _run_props(sc: dict, out_dir: str, seed, substeps, modes, quiet) -> int:
    sys_ = _build_system(sc["system"], modes)
    cfg = _build_cfg(sc.get("solver"), substeps)
    the_seed = seed if seed is not None else sc.get("seed", 0)
    checks = sc["checks"]
    reports = []
    try:
        if "axioms" in checks:
            p = checks["axioms"]
            reports.append(check_axioms(
                sys_, t_end=p.get("t_end", 0.5),
                n_samples=p.get("n_samples", 5), seed=the_seed, cfg=cfg,
                radius=p.get("radius", 0.5),
                input_radius=p.get("input_radius", 0.5)))
        if "deviation" in checks:
            p = checks["deviation"]
            reports.append(deviation_suite(
                sys_, tau=p.get("tau", 0.5), n_pairs=p.get("n_pairs", 10),
                seed=the_seed, radius=p.get("radius", 0.5),
                input_radius=p.get("input_radius", 0.5), cfg=cfg))
        if "continuous_dependence" in checks:
            p = checks["continuous_dependence"]
            reports.append(check_continuous_dependence(
                sys_, _dependence_pairs(sys_, p, the_seed),
                tau=p.get("tau", 0.5), cfg=cfg))
        if "cep" in checks:
            p = checks["cep"]
            reports.append(check_cep(
                sys_, eps_grid=p.get("eps_grid", [0.5, 0.25]),
                h_grid=p.get("h_grid", [0.5, 1.0]), cfg=cfg,
                n_samples=p.get("n_samples", 4), seed=the_seed,
                ladder_steps=p.get("ladder_steps", 10)))
        if "brs" in checks:
            p = checks["brs"]
            reports.append(check_brs(
                sys_, C=p.get("bound", 1.0), tau=p.get("tau", 0.5),
                n_samples=p.get("n_samples", 10), seed=the_seed, cfg=cfg))
    except ValueError as e:
        raise ScenarioError(f"props: {e}") from e
    os.makedirs(out_dir, exist_ok=True)
    reports_to_json(reports, os.path.join(out_dir, "reports.json"))
    text = format_reports(reports)
    with open(os.path.join(out_dir, "reports.txt"), "w") as fh:
        fh.write(text)
    allowed = set((sc.get("expect") or {}).get("expected_fail", []))
    bad = [f"check {r.name} failed (worst ratio {r.worst_ratio:.6g})"
           for r in reports if not r.passed and r.name not in allowed]
    return _finish(bad, quiet, text.rstrip("\n"))


def _dependence_pairs(sys_: EvolutionSystem, p: dict, seed: int):
    """Base samples plus shrinking perturbations of state and input."""
    rng = np.random.default_rng(seed + 1)
    n_pairs = p.get("n_pairs", 6)
    radius = p.get("radius", 0.5)
    eps0 = p.get("perturbation", 0.1)
    tau = p.get("tau", 0.5)
    states = draw_states(rng, sys_, radius, n_pairs)
    signals = draw_signals(rng, sys_.input_channels, radius, tau, n_pairs)
    pairs = []
    for i in range(n_pairs):
        eps = eps0 * 0.5 ** i
        dx = rng.normal(size=sys_.n_modes) / sys_.weights
        dx *= eps / max(sys_.working_norm(dx), 1e-300)
        u1 = signals[i]
        dv = rng.normal(size=u1.m)
        dv *= eps / max(float(np.linalg.norm(dv)), 1e-300)
        u2 = InputSignal(u1.grid, u1.values + dv[None, :])
        pairs.append((
            (SpectralState(states[i]), u1),
            (SpectralState(states[i] + dx), u2),
        ))
    return pairs


def _run_admissibility(sc: dict, out_dir: str, seed, substeps, modes, quiet) -> int:
    sg = _build_semigroup(sc["semigroup"], modes)
    if not isinstance(sg, DiagonalSemigroup):
        raise ScenarioError("the admissibility sweep needs a diagonal semigroup")
    B = _build_operator(sc["operator"], sg.n_modes)
    q = math.inf if sc.get("q", "inf") == "inf" else 2.0
    t_grid = np.asarray(sc["t_grid"], float) if "t_grid" in sc else None
    est = estimate_admissibility(sg, B, t_grid, q=q)
    uppers = [measure_h(sg, B, float(t), q=q)[1] for t in est.t_grid]
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "estimate.csv"), "w") as fh:
        fh.write("t,h_lower,h_upper\n")
        _write_rows(fh, [est.t_grid, est.h_values, uppers])
    payload = {
        "fitted_exponent": est.fitted_exponent,
        "t_min": float(est.t_grid[0]),
        "t_max": float(est.t_grid[-1]),
        "h_at_t_min": float(est.h_values[0]),
        "h_at_t_max": float(est.h_values[-1]),
        "q": "inf" if q == math.inf else q,
        "operator_class": B.declared_class.describe(),
    }
    _write_json(os.path.join(out_dir, "estimate.json"), payload)
    bad = []
    expect = sc.get("expect") or {}
    if "slope" in expect and not _in_range(est.fitted_exponent, expect["slope"]):
        bad.append(
            f"fitted exponent {est.fitted_exponent:.4f} outside {expect['slope']}")
    summary = f"admissibility: fitted exponent {est.fitted_exponent:.4f}"
    return _finish(bad, quiet, summary)


def _run_bcs(sc: dict, out_dir: str, seed, substeps, modes, quiet) -> int:
    name = sc["family"]
    if name not in BCS_FAMILIES:
        known = ", ".join(sorted(BCS_FAMILIES))
        raise ScenarioError(f"unknown boundary family {name!r}; have: {known}")
    bcs_obj = BCS_FAMILIES[name](modes or sc.get("n_modes", 48),
                                 omega=sc.get("omega", 1.0))
    bcs_obj.validate()
    n = bcs_obj.semigroup.n_modes
    try:
        u = PolySignal(np.asarray(sc["input_poly"], float))
    except ValueError as e:
        raise ScenarioError(f"input_poly: {e}") from e
    if u.m != bcs_obj.m:
        raise ScenarioError(f"input_poly has {u.m} channels, system has {bcs_obj.m}")
    w = None
    if "w_poly" in sc:
        w = PolySignal(np.asarray(sc["w_poly"], float))
    f = None
    if "nonlinearity" in sc:
        nl = sc["nonlinearity"]
        try:
            f = make_nonlinearity(nl["name"], n, nl.get("params", {}))
        except (KeyError, ValueError) as e:
            raise ScenarioError(f"nonlinearity: {e}") from e
    x_spec = sc.get("x0", "lifted")
    if x_spec == "lifted":
        x0 = SpectralState(bcs_obj.lift(u.value(0.0)))
    else:
        x0 = _build_state(x_spec, n)
    declared = _build_class(sc["class"]) if "class" in sc else None
    cfg = None
    if "solver" in sc or substeps is not None:
        cfg = _build_cfg(sc.get("solver"), substeps)
    try:
        report = representation_crosscheck(
            bcs_obj, f, x0, u, sc["tau"], w=w, declared_class=declared,
            cfg=cfg, tol=sc.get("tolerance", 1e-6))
    except ValueError as e:
        raise ScenarioError(f"bcs: {e}") from e
    os.makedirs(out_dir, exist_ok=True)
    payload = {"family": name, "n_modes": n, **report.as_dict()}
    _write_json(os.path.join(out_dir, "crosscheck.json"), payload)
    expect = sc.get("expect") or {"passed": True}
    bad = []
    if "passed" in expect and report.passed != expect["passed"]:
        bad.append(
            f"cross-check passed={report.passed} "
            f"(max difference {report.max_difference:.3g}), "
            f"expected passed={expect['passed']}")
    summary = (f"bcs: max pairwise difference {report.max_difference:.3g} "
               f"over {len(report.times)} checkpoints")
    return _finish(bad, quiet, summary)


_RUNNERS = {
    "solve": _run_solve,
    "burgers": _run_burgers,
    "props": _run_props,
    "admissibility": _run_admissibility,
    "bcs": _run_bcs,
}


def run_scenario(sc: dict, out_dir: str, seed: Optional[int] = None,
                 substeps: Optional[int] = None, modes: Optional[int] = None,
                 quiet: bool = False) -> int:
    """Execute a validated scenario; returns the process exit code
    (0 success, 2 expectation mismatch, 3 a solve or burgers run whose
    certification failed and was not expected to)."""
    if modes is not None and modes < 1:
        raise ScenarioError(f"modes must be >= 1, got {modes}")
    return _RUNNERS[sc["task"]](sc, out_dir, seed, substeps, modes, quiet)
