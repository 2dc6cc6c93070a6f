"""Executable checks of the flow-map properties the solver is built around.

Each check samples the universally quantified statement on seeded random
data plus adversarial corners (axis states, max-amplitude inputs), then
compares the measured quantity against the certified bound assembled from
the same constants the solver uses.  A report stores the worst observed
ratio measured / certified; the bounds are theorems for the truncated
system whenever the window certificates held, so a genuine violation
points at a solver defect, not at bad luck in sampling.

All checks are deterministic given their seed, and every report carries a
witness (the sample achieving the worst ratio) so failures replay.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence

import numpy as np

from .admissibility import outside_x_alpha
from .core import InputSignal, Nonlinearity, SpectralState, signal_sup_distance
from .solver import (
    EvolutionSystem,
    SolverConfig,
    Trajectory,
    solve,
    global_bound,
)

__all__ = [
    "PropertyReport",
    "check_axioms",
    "check_deviation",
    "deviation_suite",
    "check_continuous_dependence",
    "check_cep",
    "check_brs",
    "cocycle_residual",
    "saturated_system",
    "format_reports",
    "reports_to_json",
]

REPORT_TOLERANCE = 1e-6


@dataclass
class PropertyReport:
    name: str
    n_samples: int
    worst_ratio: float
    passed: bool
    tolerance: float
    witness: dict = field(default_factory=dict)
    notes: str = ""

    def as_dict(self) -> dict:
        return {
            "property": self.name,
            "n_samples": self.n_samples,
            "worst_ratio": self.worst_ratio,
            "passed": self.passed,
            "tolerance": self.tolerance,
            "witness": self.witness,
            "notes": self.notes,
        }


def _report(name: str, n: int, ratio: float, witness: dict,
            notes: str = "") -> PropertyReport:
    return PropertyReport(
        name=name, n_samples=n, worst_ratio=float(ratio),
        passed=bool(ratio <= 1.0 + REPORT_TOLERANCE), tolerance=REPORT_TOLERANCE,
        witness=witness, notes=notes,
    )


def format_reports(reports: Sequence[PropertyReport]) -> str:
    lines = []
    for r in reports:
        flag = "PASS" if r.passed else "FAIL"
        lines.append(
            f"[{flag}] {r.name}: worst ratio {r.worst_ratio:.6g} "
            f"over {r.n_samples} samples (tol {r.tolerance:g})"
        )
        if r.notes:
            lines.append(f"       {r.notes}")
    return "\n".join(lines) + "\n"


def reports_to_json(reports: Sequence[PropertyReport], path: str) -> None:
    with open(path, "w") as fh:
        json.dump([r.as_dict() for r in reports], fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# seeded sample generation

def draw_states(rng: np.random.Generator, n_modes: int, radius: float,
                count: int, weights: Optional[np.ndarray] = None) -> List[np.ndarray]:
    """count states of working norm <= radius; axis corners first.

    With weights the draws carry an extra 1/(1+k) envelope on the weighted
    coordinates and the high corner moves below the top octave: samples
    must decay along the truncation ladder, not just have finite norm; a
    draw that the solver's X_alpha screen (outside_x_alpha) refuses is redrawn.
    """
    out: List[np.ndarray] = []
    w = np.ones(n_modes) if weights is None else weights
    env = np.ones(n_modes) if weights is None \
        else 1.0 / (1.0 + np.arange(n_modes))
    hi = n_modes - 1 if weights is None else max(0, n_modes // 2 - 1)
    for k in (0, hi):
        e = np.zeros(n_modes)
        e[k] = radius / w[k]
        out.append(e)
    while len(out) < count:
        x = rng.normal(size=n_modes) * env / w
        nrm = float(np.linalg.norm(w * x))
        x = x * (radius * rng.uniform(0.3, 1.0) / nrm) if nrm > 0 else np.zeros(n_modes)
        if weights is None or not outside_x_alpha(w * x):
            out.append(x)
    return out[:count]


def draw_signals(rng: np.random.Generator, m: int, radius: float,
                 horizon: float, count: int) -> List[InputSignal]:
    """count inputs with sup norm <= radius, piecewise constant on 3 cells;
    the max-amplitude constant first."""
    out = [InputSignal.constant(np.full(m, radius / math.sqrt(m)), horizon)]
    while len(out) < count:
        edges = np.sort(rng.uniform(0.1, 0.9, size=2)) * horizon
        grid = np.concatenate(([0.0], edges, [horizon]))
        vals = rng.normal(size=(3, m))
        nrm = np.linalg.norm(vals, axis=1, keepdims=True)
        vals = vals / np.maximum(nrm, 1e-12) * radius * rng.uniform(0.2, 1.0, (3, 1))
        out.append(InputSignal(grid, vals))
    return out[:count]


# ---------------------------------------------------------------------------
# control-system axioms

def cocycle_residual(sys: EvolutionSystem, x0: SpectralState,
                     u: Optional[InputSignal], split: float, t_end: float,
                     cfg: Optional[SolverConfig] = None) -> float:
    """Working-norm mismatch at t_end between the direct run and the run
    restarted at `split` from the interpolated intermediate state with the
    shifted input.  The restart state and the restarted discretization both
    carry their own O(h^2) reconstruction error, so the residual shrinks
    quadratically under substep refinement."""
    cfg = cfg or SolverConfig()
    if not 0.0 < split < t_end:
        raise ValueError("split must lie strictly inside (0, t_end)")
    a = solve(sys, x0, u, t_end, cfg)
    if a.status.kind != "completed":
        raise RuntimeError(f"direct run did not complete: {a.status}")
    x_mid = a.state_at(split)
    u_tail = u.shift(split) if u is not None else None
    b = solve(sys, x_mid, u_tail, t_end - split, cfg)
    if b.status.kind != "completed":
        raise RuntimeError(f"restarted run did not complete: {b.status}")
    return sys.working_norm(a.coeffs[-1] - b.coeffs[-1])


def check_axioms(sys: EvolutionSystem, t_end: float, n_samples: int = 5,
                 seed: int = 0, cfg: Optional[SolverConfig] = None,
                 radius: float = 0.5, input_radius: float = 0.5) -> PropertyReport:
    """Identity, causality, continuity in t, and the cocycle property.

    Identity and causality admit exact certificates (the flow starts at the
    given state; inputs agreeing up to s produce the same partial run, so
    only accumulated fixed-point tolerance may differ).  Continuity is
    checked against the per-substep mild-solution increment certificate
    |(T(h)-I)x| + h_h |u| + c_h (L K' + sigma + c), plus a refinement run
    verifying the observed modulus does not grow when substeps double.
    The cocycle residual is compared at two resolutions: quadratic decay
    means the fine residual sits well below 0.6 of the coarse one.
    """
    cfg = cfg or SolverConfig()
    rng = np.random.default_rng(seed)
    w = sys.weights if sys.alpha > 0.0 else None
    m = sys.input_channels
    states = draw_states(rng, sys.n_modes, radius, n_samples, w)
    inputs = draw_signals(rng, m, input_radius, t_end, n_samples)
    tails = draw_signals(rng, m, input_radius, t_end, n_samples)

    worst = {"identity": 0.0, "causality": 0.0, "continuity": 0.0, "cocycle": 0.0}
    witness: dict = {}
    s_c = 0.5 * t_end
    s_k = 0.4142 * t_end

    for i in range(n_samples):
        x0 = SpectralState(states[i])
        u = inputs[i]
        traj = solve(sys, x0, u, t_end, cfg, checkpoint_times=[s_c])
        if traj.status.kind != "completed":
            witness.setdefault("skipped", []).append(
                {"sample": i, "status": traj.status.kind})
            continue
        scale = max(1.0, traj.sup_norm())
        atol = 1e-12 * scale

        # identity: the trajectory must begin exactly at x0
        d_id = sys.working_norm(traj.coeffs[0] - x0.coeffs)
        r = d_id / atol
        if r > worst["identity"]:
            worst["identity"] = r
            witness["identity"] = {"sample": i, "difference": d_id}

        # causality: swapping the input tail after s_c cannot move phi(s_c)
        u_alt = InputSignal.concat(u, tails[i], s_c)
        traj2 = solve(sys, x0, u_alt, t_end, cfg, checkpoint_times=[s_c])
        d_c = sys.working_norm(traj.state_at(s_c).coeffs - traj2.state_at(s_c).coeffs)
        cert = atol + 20.0 * cfg.picard_tol * max(len(traj.diagnostics), 1)
        r = d_c / cert
        if r > worst["causality"]:
            worst["causality"] = r
            witness["causality"] = {"sample": i, "difference": d_c, "certified": cert}

        # continuity: every substep increment against its certificate
        r, info = _continuity_ratio(sys, traj, u, cfg)
        if r > worst["continuity"]:
            worst["continuity"] = r
            witness["continuity"] = {"sample": i, **info}
        fine = solve(sys, x0, u, t_end,
                     replace(cfg, substeps_per_window=2 * cfg.substeps_per_window),
                     checkpoint_times=[s_c])
        inc_c = _max_row_norm(np.diff(traj.coeffs, axis=0), sys.weights)
        inc_f = _max_row_norm(np.diff(fine.coeffs, axis=0), sys.weights)
        r = inc_f / (1.01 * inc_c + atol)
        if r > worst["continuity"]:
            worst["continuity"] = r
            witness["continuity"] = {
                "sample": i, "refined_increment": inc_f, "coarse_increment": inc_c}

        # cocycle at two resolutions
        res_f = cocycle_residual(sys, x0, u, s_k, t_end, cfg)
        coarse = replace(cfg, substeps_per_window=max(8, cfg.substeps_per_window // 2))
        res_c = cocycle_residual(sys, x0, u, s_k, t_end, coarse)
        cert = 1e-6 * scale + 0.6 * res_c + 100.0 * cfg.picard_tol
        r = res_f / cert
        if r > worst["cocycle"]:
            worst["cocycle"] = r
            witness["cocycle"] = {
                "sample": i, "residual": res_f, "residual_coarse": res_c,
                "certified": cert}

    ratio = max(worst.values())
    witness["per_axiom_ratio"] = worst
    return _report("axioms", n_samples, ratio, witness)


def _max_row_norm(rows: np.ndarray, w: np.ndarray) -> float:
    """Largest working norm among the rows (weights w); 0 without rows."""
    d = rows * w[None, :]
    return float(np.max(np.linalg.norm(d, axis=1))) if d.shape[0] else 0.0


def _continuity_ratio(sys: EvolutionSystem, traj: Trajectory,
                      u: Optional[InputSignal], cfg: SolverConfig):
    """Worst increment / certificate over all consecutive sample pairs."""
    sg = sys.semigroup
    bounds_start = list(traj.window_boundaries) + [traj.n_samples - 1]
    worst, info = 0.0, {}
    for k, d in enumerate(traj.diagnostics):
        lo, hi = bounds_start[k], bounds_start[k + 1]
        if hi <= lo:
            continue
        h = d.t1 / cfg.substeps_per_window
        if u is not None:
            u_sup = u.sup_norm(d.t_start, min(d.t_start + d.t1, u.horizon))
        else:
            u_sup = 0.0
        # sum_i h_i times the joint sup bounds sum_i h_i sup|u_i|
        gain_h, in_h = sys.gain(h), sum(sys.input_gain(h))
        load = d.lipschitz * (d.K + d.delta) \
            + sys.f.growth_sigma(u_sup) + sys.f.growth_c
        flat = in_h * u_sup + gain_h * load
        for j in range(lo, hi):
            inc = sys.working_norm(traj.coeffs[j + 1] - traj.coeffs[j])
            cert = sg.sg_distance(h, traj.coeffs[j], sys.alpha) + flat + 1e-13
            if inc / cert > worst:
                worst = inc / cert
                info = {"t": float(traj.times[j]), "increment": inc,
                        "certified": cert}
    return worst, info


# ---------------------------------------------------------------------------
# exponential deviation

def check_deviation(sys: EvolutionSystem, x1: SpectralState, x2: SpectralState,
                    u: Optional[InputSignal], tau: float,
                    cfg: Optional[SolverConfig] = None) -> PropertyReport:
    """|phi(t, x1, u) - phi(t, x2, u)| <= 2 M e^{R t} |x1 - x2| at 16
    equally spaced checkpoints, with R = lam + ln(2M) / t1, t1 the shortest
    certified window either trajectory used.  Shorter windows only enlarge
    R, so the bound stays valid for the chained window argument."""
    cfg = cfg or SolverConfig()
    cps = list(np.linspace(0.0, tau, 17)[1:])
    t1_ = solve(sys, x1, u, tau, cfg, checkpoint_times=cps)
    t2_ = solve(sys, x2, u, tau, cfg, checkpoint_times=cps)
    if t1_.status.kind != "completed" or t2_.status.kind != "completed":
        return _report(
            "deviation", 1, 0.0,
            {"status": [t1_.status.kind, t2_.status.kind]},
            notes="inapplicable: a trajectory left the horizon early")
    t1_min = min(d.t1 for d in t1_.diagnostics + t2_.diagnostics)
    sg = sys.semigroup
    R = sg.lam + math.log(2.0 * sg.M) / t1_min
    d0 = sys.working_norm(x1.coeffs - x2.coeffs)
    worst, witness = 0.0, {"R": R, "t1": t1_min, "initial_distance": d0}
    for t in cps:
        dev = sys.working_norm(t1_.state_at(t).coeffs - t2_.state_at(t).coeffs)
        # compare in log space: R t easily exceeds the float exp range
        # when a trajectory needed very short certified windows
        log_bound = math.log(2.0 * sg.M) + R * t + \
            (math.log(d0) if d0 > 0.0 else -math.inf)
        bound = math.exp(log_bound) if log_bound < 700.0 else math.inf
        if log_bound < math.log(1e-14):
            r = 0.0 if dev < 1e-12 else math.inf
        elif dev == 0.0:
            r = 0.0
        else:
            r = math.exp(math.log(dev) - log_bound)
        if r > worst:
            worst = r
            witness.update({"t": t, "deviation": dev, "bound": bound})
    return _report("deviation", 1, worst, witness)


def deviation_suite(sys: EvolutionSystem, tau: float, n_pairs: int = 20,
                    seed: int = 0, radius: float = 0.5,
                    input_radius: float = 0.5,
                    cfg: Optional[SolverConfig] = None) -> PropertyReport:
    """Seeded aggregation of check_deviation over random pairs."""
    rng = np.random.default_rng(seed)
    w = sys.weights if sys.alpha > 0.0 else None
    states = draw_states(rng, sys.n_modes, radius, 2 * n_pairs, w)
    inputs = draw_signals(rng, sys.input_channels, input_radius, tau, n_pairs)
    worst, witness, used = 0.0, {}, 0
    for i in range(n_pairs):
        rep = check_deviation(sys, SpectralState(states[2 * i]),
                              SpectralState(states[2 * i + 1]), inputs[i],
                              tau, cfg)
        if "inapplicable" in rep.notes:
            continue
        used += 1
        if rep.worst_ratio > worst:
            worst = rep.worst_ratio
            witness = {"pair": i, **rep.witness}
    notes = "" if used == n_pairs else f"{n_pairs - used} pairs inapplicable"
    return _report("deviation", used, worst, witness, notes=notes)


# ---------------------------------------------------------------------------
# continuous dependence on (x, u)

def check_continuous_dependence(sys: EvolutionSystem, pairs, tau: float,
                                cfg: Optional[SolverConfig] = None) -> PropertyReport:
    """First-window estimate 2 M e^{lam t1} |dx| + 2 h_t1 |du| + q(|du|),
    with q the declared input modulus of f, plus the window-chained
    propagation of the same constants over [0, tau].

    pairs is a sequence of ((x1, u1), (x2, u2)); inputs must be the
    piecewise-constant kind so the sup distance is exact.
    """
    if sys.f.input_modulus is None:
        raise ValueError("continuous dependence needs a declared input modulus")
    q = sys.f.input_modulus
    pairs = list(pairs)
    cfg = cfg or SolverConfig()
    sg = sys.semigroup
    cps = sorted({tau * 2.0 ** (-j) for j in range(11)})
    worst, witness, used = 0.0, {}, 0
    for i, ((x1, u1), (x2, u2)) in enumerate(pairs):
        r1 = solve(sys, x1, u1, tau, cfg, checkpoint_times=cps)
        r2 = solve(sys, x2, u2, tau, cfg, checkpoint_times=cps)
        if r1.status.kind != "completed" or r2.status.kind != "completed":
            continue
        used += 1
        t1 = min(r1.diagnostics[0].t1, r2.diagnostics[0].t1)
        dx = sys.working_norm(x1.coeffs - x2.coeffs)
        du_w = signal_sup_distance(u1, u2, t1)
        du_full = signal_sup_distance(u1, u2, tau)
        h_t1 = sum(sys.input_gain(t1))
        growth = 2.0 * sg.M * math.exp(sg.lam * t1)
        bound_w = growth * dx + 2.0 * h_t1 * du_w + q(du_w)

        ratio_i, info = 0.0, {}
        for t in cps:
            if t > t1 + 1e-13:
                break
            dev = sys.working_norm(r1.state_at(t).coeffs - r2.state_at(t).coeffs)
            r = 0.0 if bound_w < 1e-14 and dev < 1e-12 else dev / max(bound_w, 1e-300)
            if r > ratio_i:
                ratio_i = r
                info = {"t": t, "deviation": dev, "window_bound": bound_w}

        # chained constants over [0, tau]; exponential in tau / t1, so the
        # propagated bound is loose but honestly derived
        D = dx
        n_win = max(1, math.ceil(tau / t1 - 1e-12))
        for _ in range(n_win):
            D = growth * D + 2.0 * h_t1 * du_full + q(du_full)
            if D > 1e300:
                D = math.inf
                break
        sup_dev = max(
            sys.working_norm(r1.state_at(t).coeffs - r2.state_at(t).coeffs)
            for t in cps)
        r_prop = 0.0 if D == math.inf else (
            0.0 if D < 1e-14 and sup_dev < 1e-12 else sup_dev / max(D, 1e-300))
        ratio_i = max(ratio_i, r_prop)
        info["propagated_bound"] = D
        info["sup_deviation"] = sup_dev
        if ratio_i > worst:
            worst = ratio_i
            witness = {"pair": i, "t1": t1, **info}
    notes = "" if used == len(pairs) else "some pairs inapplicable"
    return _report("continuous_dependence", used, worst, witness, notes=notes)


# ---------------------------------------------------------------------------
# continuity at the equilibrium via the saturated companion system

def saturated_system(sys: EvolutionSystem) -> EvolutionSystem:
    """Companion system with f~(x, v) = f(sat x, sat v), sat the radial
    retraction onto the unit ball of the working state norm (input norm for
    v).  Retractions are 1-Lipschitz in a Hilbert norm, so the local
    certificates at radius 1 become uniform ones; inside the unit ball the
    companion coincides with the original system."""
    w = sys.weights[None, :]

    def sat_rows(X: np.ndarray) -> np.ndarray:
        nrm = np.linalg.norm(X * w, axis=-1, keepdims=True)
        return X / np.maximum(nrm, 1.0)

    def sat_vec(v: np.ndarray) -> np.ndarray:
        nrm = np.linalg.norm(v)
        return v / max(nrm, 1.0)

    f = sys.f
    L1 = f.lipschitz(1.0)

    def ev(x, v):
        return f(sat_rows(np.asarray(x, float)[None, :])[0], sat_vec(np.asarray(v, float)))

    def ev_batch(X, V):
        Xs = sat_rows(np.asarray(X, float))
        V = np.asarray(V, float)
        nrm = np.linalg.norm(V, axis=-1, keepdims=True)
        Vs = V / np.maximum(nrm, 1.0)
        return f.batch(Xs, Vs)

    f_sat = Nonlinearity(
        eval=ev,
        eval_batch=ev_batch,
        lipschitz=lambda r: L1,
        growth_sigma=f.growth_sigma,
        growth_c=f.growth_c,
        uniform_lipschitz=L1,
        input_modulus=f.input_modulus,
        label=f.label + "_saturated",
    )
    return EvolutionSystem(
        semigroup=sys.semigroup, f=f_sat, B=sys.B, B2=sys.B2,
        analytic_alpha=sys.analytic_alpha,
    )


def check_cep(sys: EvolutionSystem, eps_grid: Sequence[float],
              h_grid: Sequence[float], cfg: Optional[SolverConfig] = None,
              n_samples: int = 5, seed: int = 0,
              ladder_steps: int = 12) -> PropertyReport:
    """For each (eps, horizon) cell, walk delta down the ladder eps, eps/2,
    ... until every sampled trajectory from the delta-balls stays inside
    the eps-ball of the saturated companion system.  For eps <= 1 the
    companion agrees with the original system on the whole eps-ball, so a
    found delta certifies the sampled statement for the original flow.

    Reports the found delta per cell (the ladder's delta, not the infimal
    one, which is not computable); a cell with no delta at the ladder floor
    fails the report.
    """
    z = np.zeros(sys.n_modes)
    zu = np.zeros(sys.input_channels)
    f00 = float(np.linalg.norm(sys.f(z, zu)))
    if f00 > 1e-12:
        raise ValueError(f"origin is not an equilibrium: |f(0,0)| = {f00:.3g}")
    cfg = cfg or SolverConfig()
    sat = saturated_system(sys)
    w = sys.weights if sys.alpha > 0.0 else None
    rng = np.random.default_rng(seed)
    m = sys.input_channels

    table = []
    worst = 0.0
    for eps in eps_grid:
        for horizon in h_grid:
            delta, found, sup_found = float(eps), None, math.inf
            for _ in range(ladder_steps + 1):
                states = draw_states(rng, sys.n_modes, delta, n_samples, w)
                signals = draw_signals(rng, m, delta, horizon, n_samples)
                sup = 0.0
                for x0, u in zip(states, signals):
                    traj = solve(sat, SpectralState(x0), u, horizon, cfg)
                    if traj.status.kind != "completed":
                        sup = math.inf
                        break
                    sup = max(sup, _max_row_norm(traj.coeffs, sys.weights))
                if sup <= eps * (1.0 + 1e-9):
                    found, sup_found = delta, sup
                    break
                delta *= 0.5
            row = {"eps": float(eps), "horizon": float(horizon),
                   "delta": found, "sup": sup_found if found else None}
            table.append(row)
            worst = max(worst, (sup_found / eps) if found else 2.0)
    notes = "delta is the ladder value, not the infimum"
    if any(e > 1.0 for e in eps_grid):
        notes += "; eps > 1 certifies the saturated companion only"
    return _report("cep", len(table) * n_samples, worst, {"table": table},
                   notes=notes)


# ---------------------------------------------------------------------------
# bounded reachability

def check_brs(sys: EvolutionSystem, C: float, tau: float, n_samples: int = 20,
              seed: int = 0, cfg: Optional[SolverConfig] = None) -> PropertyReport:
    """Sampled sup of the trajectory norm over the C-balls and [0, tau].

    With a uniform Lipschitz certificate the sampled sup is compared
    against the a-priori reachability bound; otherwise only completeness
    is checked and the sup is reported as-is.  A blow-up among the samples
    is reported as the witness and fails the check.
    """
    cfg = cfg or SolverConfig()
    rng = np.random.default_rng(seed)
    w = sys.weights if sys.alpha > 0.0 else None
    states = draw_states(rng, sys.n_modes, C, n_samples, w)
    signals = draw_signals(rng, sys.input_channels, C, tau, n_samples)
    sup_x, sup_w, witness = 0.0, 0.0, {}
    for i, (x0, u) in enumerate(zip(states, signals)):
        traj = solve(sys, SpectralState(x0), u, tau, cfg)
        if traj.status.kind == "blowup":
            return _report(
                "brs", i + 1, 2.0,
                {"sample": i, "t_blowup": traj.status.t_blowup},
                notes="reachability fails: sampled trajectory escapes")
        if traj.status.kind == "failed":
            return _report(
                "brs", i + 1, 2.0, {"sample": i, "reason": traj.status.reason},
                notes="solver could not certify the sample")
        s = traj.sup_norm()
        if s > sup_x:
            sup_x, witness = s, {"sample": i, "sup": s}
        sup_w = max(sup_w, _max_row_norm(traj.coeffs, sys.weights))
    witness["sampled_sup"] = sup_x
    if sys.f.uniform_lipschitz is None:
        return _report("brs", n_samples, 0.0, witness,
                       notes="no uniform certificate; sampled sup only")
    bound = global_bound(sys, C, C, tau, cfg)
    witness["certified_bound"] = bound
    return _report("brs", n_samples, sup_w / bound, witness)
