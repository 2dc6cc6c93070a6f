"""End-to-end acceptance checks, one per shipped guarantee.

Each test computes its quantity from scratch, records a one-line verdict
for the terminal summary, and then asserts.  Tolerances and sample counts
are part of the guarantee, not tuning knobs.
"""

import math
import time

import numpy as np
from conftest import record_acceptance

from semiflow import (
    EvolutionSystem,
    InputOperator,
    InputSignal,
    PolySignal,
    SolverConfig,
    SpectralState,
    DiagonalSemigroup,
    global_bound,
    solve,
)
from semiflow.admissibility import Bounded, estimate_admissibility, upper_bound_h
from semiflow.bcs import dirichlet_heat_0_pi, representation_crosscheck
from semiflow.burgers import BurgersSystem
from semiflow.flow_props import (
    check_cep,
    cocycle_residual,
    deviation_suite,
    draw_states,
)
from semiflow.nonlinearities import (
    arctan_saturation,
    make_nonlinearity,
    scalar_square,
)
from semiflow.semigroup import SEMIGROUP_FAMILIES


def _arctan_system(n_modes: int, gain: float, input_gain: float) -> EvolutionSystem:
    sg = DiagonalSemigroup(mu=-np.arange(1.0, n_modes + 1.0) ** 2, omega=1.0,
                           analytic=True)
    f = arctan_saturation(n_modes, gain=gain, input_gain=input_gain)
    return EvolutionSystem(sg, f, B=InputOperator.identity(n_modes))


def test_A1_linear_exactness():
    rng = np.random.default_rng(1)
    grid = np.array([0.0, 0.3, 0.7, 1.0])
    vals = rng.uniform(-1.0, 1.0, size=(3, 2))
    checkpoints = [0.25, 0.5, 1.0]
    worst = 0.0
    elapsed = 0.0
    for N in (64, 512):
        mu = -rng.uniform(0.02, 40.0, N)
        mu[5] = 0.0  # an integrator mode exercises the phi1 limit
        sg = DiagonalSemigroup(mu=mu, omega=1.0)
        Bc = rng.standard_normal((N, 2))
        sys_ = EvolutionSystem(sg, make_nonlinearity("zero", N, {}),
                               B=InputOperator(Bc, Bounded()))
        x0 = rng.standard_normal(N)
        u = InputSignal(grid, vals)
        t0 = time.perf_counter()
        traj = solve(sys_, SpectralState(x0), u, 1.0,
                     SolverConfig(substeps_per_window=32),
                     checkpoint_times=checkpoints)
        elapsed += time.perf_counter() - t0

        def closed_form(t):
            x = x0 * np.exp(mu * t)
            for j in range(3):
                a, b = grid[j], min(grid[j + 1], t)
                if t <= a:
                    break
                g = Bc @ vals[j]
                with np.errstate(divide="ignore", invalid="ignore"):
                    k = np.where(mu == 0.0, b - a,
                                 (np.exp(mu * (t - a)) - np.exp(mu * (t - b))) / mu)
                x = x + g * k
            return x

        for t in checkpoints:
            want = closed_form(t)
            got = traj.state_at(t).coeffs
            worst = max(worst, float(np.linalg.norm(got - want)
                                     / np.linalg.norm(want)))
    ok = worst <= 1e-10 and elapsed < 1.0
    record_acceptance(
        "A1", ok, f"diagonal closed-form rel error {worst:.2e} "
                  f"(N up to 512, solve time {elapsed:.3f}s)")
    assert worst <= 1e-10
    assert elapsed < 1.0


def test_A2_blowup_bracketing():
    sg = DiagonalSemigroup(mu=np.array([0.0]), omega=1.0)
    sys_ = EvolutionSystem(sg, scalar_square(1))
    x0 = SpectralState(np.array([1.0]))
    t_m = []
    for threshold in (1e4, 1e5, 1e6):
        traj = solve(sys_, x0, None, 2.0, SolverConfig(blowup_threshold=threshold))
        assert traj.status.kind == "blowup"
        t_m.append(traj.status.t_blowup)
    close = all(abs(t - 1.0) <= 0.01 for t in t_m)
    monotone = t_m[0] <= t_m[1] <= t_m[2]
    record_acceptance(
        "A2", close and monotone,
        "escape times " + ", ".join(f"{t:.6f}" for t in t_m)
        + " vs 1.0 exact, monotone in threshold")
    assert close
    assert monotone


def test_A3_cocycle_residual_ladder():
    # 20 seeded samples, each stitched at an interior sample of a
    # cap-sized window so every ladder level restarts from an exact grid
    # state and the residual is the pure O(h^2) reconstruction term
    rng = np.random.default_rng(2026)
    ladder = (8, 16, 32)
    slopes, fine_residuals, excess = [], [], []

    sys_a = _arctan_system(12, gain=0.5, input_gain=0.4)
    for _ in range(12):
        x0 = SpectralState(draw_states(rng, sys_a, 0.8, 1)[0])
        t_end = float(rng.choice([0.25, 0.375, 0.5]))
        u = InputSignal.constant(rng.uniform(-0.5, 0.5, size=12), t_end)
        cap = t_end / 2.0
        res = [cocycle_residual(
            sys_a, x0, u, 3.0 * t_end / 8.0, t_end,
            SolverConfig(substeps_per_window=S, window_cap=cap))
            for S in ladder]
        h = [cap / S for S in ladder]
        slopes.append(float(np.polyfit(np.log2(h), np.log2(res), 1)[0]))
        fine_residuals.append(res[-1])
        excess.append(res[-1] - 2.0 * (res[0] / h[0] ** 2) * h[-1] ** 2)

    sys_b = BurgersSystem(16).system(False, True)
    cap = 1.0 / 64.0
    for _ in range(8):
        c = np.zeros(16)
        c[0] = rng.uniform(0.08, 0.15) * (1.0 if rng.random() < 0.5 else -1.0)
        c[1] = rng.uniform(-0.03, 0.03)
        x0 = SpectralState(c)
        u = InputSignal.constant(np.array([rng.uniform(0.005, 0.02)]), 8 * cap)
        res = [cocycle_residual(
            sys_b, x0, u, 1.75 * cap, 8 * cap,
            SolverConfig(substeps_per_window=S, window_cap=cap,
                         picard_tol=1e-13))
            for S in ladder]
        h = [cap / S for S in ladder]
        slopes.append(float(np.polyfit(np.log2(h), np.log2(res), 1)[0]))
        fine_residuals.append(res[-1])
        excess.append(res[-1] - 2.0 * (res[0] / h[0] ** 2) * h[-1] ** 2)

    worst_res = max(fine_residuals)
    min_slope = min(slopes)
    within = all(e <= 1e-6 for e in excess)
    ok = min_slope >= 1.8 and within
    record_acceptance(
        "A3", ok, f"20 samples, min refinement slope {min_slope:.3f}, "
                  f"largest stitching residual {worst_res:.2e}")
    assert min_slope >= 1.8
    assert within


def test_A4_deviation_bound():
    rep_a = deviation_suite(_arctan_system(12, gain=0.5, input_gain=0.4),
                            tau=0.5, n_pairs=50, seed=12)
    rep_b = deviation_suite(BurgersSystem(16).system(False, True),
                            tau=0.1, n_pairs=50, seed=13,
                            cfg=SolverConfig(substeps_per_window=12))
    ok = rep_a.passed and rep_b.passed \
        and rep_a.worst_ratio <= 1.0 and rep_b.worst_ratio <= 1.0
    record_acceptance(
        "A4", ok, f"50 pairs per system, worst deviation/bound ratios "
                  f"{rep_a.worst_ratio:.3f} (arctan) "
                  f"{rep_b.worst_ratio:.3f} (burgers), zero violations")
    assert ok, (rep_a.witness, rep_b.witness)


def test_A5_zero_class_scaling():
    bsys = BurgersSystem(128)
    B = bsys.boundary_operator(0.2)
    t_grid = 2.0 ** np.arange(-14.0, -1.0)
    est = estimate_admissibility(bsys.semigroup, B, t_grid)
    uppers = np.array([upper_bound_h(bsys.semigroup, B, 0.0, float(t))
                       for t in est.t_grid])
    dominated = bool(np.all(est.h_values <= uppers))
    vanishing = est.h_values[0] < est.h_values[-1]
    ok = est.fitted_exponent >= 0.2 and dominated and vanishing
    record_acceptance(
        "A5", ok, f"boundary h_t slope {est.fitted_exponent:.3f} >= 0.2, "
                  f"certified upper bound holds at all {len(t_grid)} grid points")
    assert est.fitted_exponent >= 0.2
    assert dominated
    assert vanishing


def test_A6_burgers_inequality_suite():
    bsys = BurgersSystem(128)
    rng = np.random.default_rng(6)
    violations = 0
    worst_margin = -np.inf
    t0 = time.perf_counter()
    for i in range(100):
        c = rng.standard_normal(128)
        if i % 2:
            c /= np.arange(1.0, 129.0) ** 2
        c *= rng.uniform(0.1, 5.0) / np.linalg.norm(c)
        x = SpectralState(c)
        c2 = rng.standard_normal(128)
        c2 *= rng.uniform(0.1, 5.0) / np.linalg.norm(c2)
        try:
            pairs = [bsys.certify_sup_bound(x), bsys.certify_F_bound(x),
                     bsys.certify_lipschitz(x, SpectralState(c2))]
        except AssertionError:
            violations += 1
            continue
        for lhs, rhs in pairs:
            worst_margin = max(worst_margin, lhs - rhs)
            if lhs > rhs + 1e-8:
                violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 10.0
    record_acceptance(
        "A6", ok, f"100 states, {violations} violations, worst lhs-rhs "
                  f"{worst_margin:.2e}, {elapsed:.2f}s")
    assert violations == 0
    assert elapsed < 10.0


def test_A7_boundary_representations_agree():
    bcs = dirichlet_heat_0_pi(128)
    u_quad = PolySignal(np.array([[0.0], [0.0], [1.0]]))
    u_cubic = PolySignal(np.array([[1.0], [1.0], [0.0], [-1.0 / 6.0]]))
    f_small = arctan_saturation(128, gain=0.1)
    cfg = SolverConfig(substeps_per_window=32, picard_tol=1e-9)
    worst = 0.0
    runs = 0
    for u in (u_quad, u_cubic):
        x0 = SpectralState(bcs.lift(u.value(0.0)))
        for f in (None, f_small):
            rep = representation_crosscheck(bcs, f, x0, u, 0.4, cfg=cfg)
            assert rep.passed, rep.pairwise
            worst = max(worst, rep.max_difference)
            runs += 1
    ok = worst <= 1e-6
    record_acceptance(
        "A7", ok, f"{runs} runs (two inputs x with/without nonlinearity), "
                  f"max pairwise difference {worst:.2e}")
    assert ok


def test_A8_global_bound_dominates():
    sys_ = _arctan_system(8, gain=0.4, input_gain=0.5)
    cfg = SolverConfig(substeps_per_window=16)
    bound = global_bound(sys_, 3.0, 3.0, 5.0, cfg)
    rng = np.random.default_rng(8)
    grid = np.linspace(0.0, 5.0, 5)
    worst = 0.0
    for _ in range(100):
        x0 = SpectralState(draw_states(rng, sys_, 3.0, 1)[0])
        vals = rng.uniform(-1.0, 1.0, size=(4, 8))
        vals *= rng.uniform(0.0, 3.0) \
            / np.maximum(np.linalg.norm(vals, axis=1, keepdims=True), 1e-9)
        traj = solve(sys_, x0, InputSignal(grid, vals), 5.0, cfg)
        assert traj.status.kind == "completed", traj.status
        worst = max(worst, traj.sup_norm())
    ok = worst <= bound
    record_acceptance(
        "A8", ok, f"100 trajectories on [0,5], sup norm {worst:.3f} "
                  f"<= certified bound {bound:.1f}")
    assert ok


def test_A9_fractional_smoothing_stability():
    dyadic = 2.0 ** -np.arange(0.0, 17.0)
    spreads = []
    for alpha in (0.25, 0.5, 0.75):
        sups = []
        for N in (128, 256, 512):
            sg = SEMIGROUP_FAMILIES["dirichlet_laplacian_0_pi"](N)
            kappa = sg.omega0 + 1.0
            sups.append(max(t ** alpha * sg.frac_T_norm(alpha, t)
                            * math.exp(-kappa * t) for t in dyadic))
        sups = np.array(sups)
        spreads.append(float((sups.max() - sups.min()) / sups.min()))
    ok = all(s < 0.10 for s in spreads)
    record_acceptance(
        "A9", ok, "weighted smoothing sup varies by "
                  + ", ".join(f"{s:.1%}" for s in spreads)
                  + " at alpha 1/4, 1/2, 3/4 across N in {128, 256, 512}")
    assert ok


def test_A10_equilibrium_persistence_table():
    sys_ = BurgersSystem(16).system(False, True)
    rep = check_cep(sys_, eps_grid=[0.5, 1.0], h_grid=[0.5, 1.0],
                    cfg=SolverConfig(substeps_per_window=12),
                    n_samples=3, seed=4, ladder_steps=8)
    table = rep.witness["table"]
    deltas_ok = all(cell["delta"] is not None and cell["delta"] > 0.0
                    for cell in table)
    ok = rep.passed and deltas_ok and len(table) == 4
    cells = ", ".join(
        f"eps={c['eps']:g},h={c['horizon']:g}:delta={c['delta']:g}"
        for c in table)
    record_acceptance("A10", ok, cells)
    assert ok, table
