import json
import math
from dataclasses import asdict

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from semiflow import (
    Bounded,
    DenseGenerator,
    DiagonalSemigroup,
    EvolutionSystem,
    InputOperator,
    InputSignal,
    PolySignal,
    QAdmissible,
    SmoothClass,
    SolverConfig,
    SpectralState,
    convolve,
    global_bound,
    heat_dirichlet_semigroup,
    select_step,
    solve,
    solve_analytic,
    trajectory_diagnostics_json,
    trajectory_to_csv,
    upper_bound_h,
    zero_nonlinearity,
)
from semiflow.core import KinfFunction, Nonlinearity
from semiflow.nonlinearities import arctan_saturation, scalar_square
from semiflow.semigroup import phi1, phi2
import semiflow.solver as solver_module
from semiflow.solver import (
    _CSV_BLOCK_ROWS,
    _WINDOW_MEMO_ENTRIES,
    CONTRACTION_TARGET,
    MAX_PICARD_ITERS,
    StepSelectionError,
    _mittag_leffler,
    _picard_window_raw,
    _write_rows,
    convolve_poly,
    poly_exp_integral,
)


def variation_of_constants(mu, x0, b, u, t):
    """Per-mode closed form for dx/dt = mu x + b u with piecewise-constant u."""
    x = np.exp(mu * t) * x0
    for i in range(u.values.shape[0]):
        a = float(u.grid[i])
        bb = float(min(u.grid[i + 1], t))
        if a >= t:
            break
        # int_a^b e^{mu (t-s)} ds, elementary
        if mu == 0.0:
            cell = bb - a
        else:
            cell = (np.exp(mu * (t - a)) - np.exp(mu * (t - bb))) / mu
        x += b * float(u.values[i, 0]) * cell
    return x


def test_linear_diagonal_matches_closed_form():
    mu = np.array([-4.0, -1.0, 0.0, 0.5])
    sg = DiagonalSemigroup(mu=mu, omega=1.0)
    b = np.array([1.0, -2.0, 0.5, 1.5])
    B = InputOperator(b, Bounded())
    sys = EvolutionSystem(sg, zero_nonlinearity(4), B=B)
    u = InputSignal(np.array([0.0, 0.3, 0.8, 1.2]),
                    np.array([[1.0], [-0.5], [2.0]]))
    # a cell shorter than the 1e-13 the window marks resolve
    sliver = InputSignal(np.array([0.0, 0.3, 0.3 + 1e-14, 0.8, 1.2]),
                         np.array([[1.0], [5.0], [-0.5], [2.0]]))
    x0 = np.array([1.0, 0.0, -1.0, 0.25])
    for u in (u, sliver):
        traj = solve(sys, SpectralState(x0), u, 1.2,
                     checkpoint_times=[0.45, 0.9])
        assert traj.status.kind == "completed"
        for t in (0.3, 0.45, 0.8, 0.9, 1.2):
            got = traj.state_at(t).coeffs
            want = np.array([
                variation_of_constants(mu[n], x0[n], b[n], u, t) for n in range(4)
            ])
            err = np.linalg.norm(got - want) / max(np.linalg.norm(want), 1.0)
            assert err <= 1e-10


def test_constant_input_single_mode_oracle():
    # mu = -1, b = 1, u = 1, x0 = 0: x(t) = 1 - e^{-t}
    sg = DiagonalSemigroup(mu=np.array([-1.0]), omega=1.0)
    sys = EvolutionSystem(sg, zero_nonlinearity(1),
                          B=InputOperator(np.array([1.0]), Bounded()))
    u = InputSignal.constant(np.array([1.0]), 2.0)
    traj = solve(sys, SpectralState.zero(1), u, 2.0)
    t_fin = traj.times[-1]
    assert traj.final_state().coeffs[0] == pytest.approx(1.0 - np.exp(-t_fin),
                                                         abs=1e-12)


def test_logistic_blowup_time():
    # dx/dt = -x + x^2, x0 = 2 escapes at t* = ln 2
    sg = DiagonalSemigroup(mu=np.array([-1.0]), omega=1.0)
    sys = EvolutionSystem(sg, scalar_square(1))
    traj = solve(sys, SpectralState(np.array([2.0])), None, 2.0)
    assert traj.status.kind == "blowup"
    t_star = np.log(2.0)
    assert traj.status.t_blowup <= t_star + 1e-9
    assert traj.status.t_blowup >= t_star - 5e-3


def test_blowup_threshold_monotone():
    sg = DiagonalSemigroup(mu=np.array([-1.0]), omega=1.0)
    sys = EvolutionSystem(sg, scalar_square(1))
    times = []
    for thr in (1e4, 1e5, 1e6):
        cfg = SolverConfig(blowup_threshold=thr)
        traj = solve(sys, SpectralState(np.array([2.0])), None, 2.0, cfg)
        assert traj.status.kind == "blowup"
        times.append(traj.status.t_blowup)
    assert times[0] <= times[1] <= times[2]


_DENSE_ORACLE_INPUTS = {
    "piecewise_constant": (InputSignal(np.array([0.0, 0.5, 1.0]), np.array([[1.0], [-1.0]])),
                           lambda t: 1.0 if t < 0.5 else -1.0),
    "poly_degree2": (PolySignal(np.array([[1.0], [0.5], [-0.25]])),
                     lambda t: 1.0 + 0.5 * t - 0.25 * t * t),
}


@pytest.mark.parametrize("case", sorted(_DENSE_ORACLE_INPUTS))
def test_dense_linear_against_ivp_oracle(case):
    u, u_of_t = _DENSE_ORACLE_INPUTS[case]
    A = np.array([[0.0, 1.0], [-2.0, -0.3]])
    gen = DenseGenerator(A)
    B = InputOperator(np.array([[0.0], [1.0]]), Bounded())
    sys = EvolutionSystem(gen, zero_nonlinearity(2), B=B)
    x0 = np.array([1.0, 0.0])
    traj = solve(sys, SpectralState(x0), u, 1.0)

    def rhs(t, x):
        return A @ x + B.coeffs[:, 0] * u_of_t(t)

    sol = scipy.integrate.solve_ivp(rhs, (0.0, 1.0), x0, rtol=1e-12, atol=1e-13,
                                    max_step=0.01)
    assert np.linalg.norm(traj.final_state().coeffs - sol.y[:, -1]) <= 1e-8


def _sequential_window(sys, x0, t1, cfg):
    """The window's Picard iteration with the plain recurrence
    conv[j+1] = E conv[j] + A1 g[j] + A2 g[j+1], one substep at a time
    (X mode, no input): the reference the kernel's scan must reproduce."""
    sg, S = sys.semigroup, cfg.substeps_per_window
    h = t1 / S
    tau = np.linspace(0.0, t1, S + 1)
    free = np.empty((S + 1, sys.n_modes))
    free[0] = x0
    if isinstance(sg, DenseGenerator):
        E, P1, P2 = sg.propagators(h)
        A1, A2 = P1 - P2, P2
        for j in range(S):
            free[j + 1] = E @ free[j]
    else:
        z = sg.mu * h
        E, A1, A2 = np.exp(z), h * (phi1(z) - phi2(z)), h * phi2(z)
        free = np.exp(np.outer(tau, sg.mu)) * x0
    y = free
    u = np.zeros((S + 1, 1))
    scale = max(1.0, float(np.max(np.linalg.norm(free, axis=1))))
    for k in range(MAX_PICARD_ITERS):
        g = sys.f.batch(y, u)
        conv = np.zeros_like(y)
        for j in range(S):
            if E.ndim == 2:
                conv[j + 1] = E @ conv[j] + A1 @ g[j] + A2 @ g[j + 1]
            else:
                conv[j + 1] = E * conv[j] + A1 * g[j] + A2 * g[j + 1]
        y_new = free + conv
        delta = float(np.max(np.linalg.norm(y_new - y, axis=1)))
        y = y_new
        if delta <= cfg.picard_tol * scale:
            return y, k + 1
    raise AssertionError("reference iteration did not converge")


# 8 and 16 are powers of two, where the scan of rows 1..S needs one power
# fewer than a scan of all S+1 rows; 9 and 17 are one past them
@pytest.mark.parametrize("S", [8, 9, 13, 16, 17, 64])
@pytest.mark.parametrize("dense", [False, True])
def test_window_scan_matches_sequential_recurrence(S, dense):
    t1 = 0.25
    # one unstable mode, two moderate ones, and a stiff one with mu h = -100,
    # so E^d underflows to zero from d = 8 on
    mu = np.array([2.0, -1.0, -0.3, -100.0 * S / t1])
    if dense:
        A = np.diag(mu) + np.triu(np.full((4, 4), 0.4), 1)
        sg = DenseGenerator(A)
    else:
        sg = DiagonalSemigroup(mu=mu, omega=3.0)
    sys = EvolutionSystem(sg, arctan_saturation(4, gain=0.5))
    cfg = SolverConfig(substeps_per_window=S)
    x0 = np.array([0.7, -1.1, 0.4, 0.9])
    p = PolySignal(np.zeros((1, 1)))
    _, y, iters, _ = _picard_window_raw(sys, x0, p, t1, cfg)
    y_ref, iters_ref = _sequential_window(sys, x0, t1, cfg)
    assert iters == iters_ref
    scale = np.max(np.abs(y_ref), axis=0)
    assert np.all(np.abs(y - y_ref) <= 1e-13 * scale)


@pytest.mark.parametrize("S", [8, 13, 64])
def test_dense_window_free_rows_are_the_exponential(S):
    import scipy.linalg

    t1 = 0.25
    A = np.diag([2.0, -1.0, -0.3, -100.0 * S / t1]) + np.triu(np.full((4, 4), 0.4), 1)
    sys = EvolutionSystem(DenseGenerator(A), zero_nonlinearity(4))
    x0 = np.array([0.7, -1.1, 0.4, 0.9])
    tau, y, _, _ = _picard_window_raw(sys, x0, PolySignal(np.zeros((1, 1))), t1,
                                      SolverConfig(substeps_per_window=S))
    ref = np.array([scipy.linalg.expm(A * t) @ x0 for t in tau])
    assert np.allclose(y, ref, rtol=1e-13, atol=1e-13 * np.max(np.abs(ref)))


def test_dense_nonlinear_against_ivp_oracle():
    A = np.array([[0.0, 1.0], [-1.0, -0.1]])
    gen = DenseGenerator(A)
    f = arctan_saturation(2, gain=0.3)
    sys = EvolutionSystem(gen, f)
    x0 = np.array([0.8, -0.2])

    def rhs(t, x):
        return A @ x + 0.3 * np.arctan(x)

    sol = scipy.integrate.solve_ivp(rhs, (0.0, 2.0), x0, rtol=1e-12, atol=1e-13,
                                    max_step=0.01)
    errs = []
    for S in (64, 128, 256):
        cfg = SolverConfig(substeps_per_window=S)
        traj = solve(sys, SpectralState(x0), None, 2.0, cfg)
        errs.append(np.linalg.norm(traj.final_state().coeffs - sol.y[:, -1]))
    assert errs[0] <= 1e-5
    # the substep reconstruction is second order in h
    assert errs[0] / errs[1] >= 3.5
    assert errs[1] / errs[2] >= 3.5


def test_dense_poly_input_against_ivp_oracle():
    # a degree-2 input on the 8-mode non-normal generator: with zero f the
    # linear part is exact to roundoff at every S; with arctan f only the
    # second-order reconstruction error of the f samples is left
    base = _props_dense_system()
    A, Bc = base.semigroup.A, base.input_blocks[0].coeffs
    p = PolySignal(np.array([[0.6, -0.3], [0.8, 0.4], [-0.5, 0.2]]))
    x0 = np.linspace(0.5, -0.4, 8)
    cases = [(zero_nonlinearity(8), lambda x, u: 0.0),
             (base.f, lambda x, u: 0.4 * np.arctan(x + 0.5 * np.r_[u, np.zeros(6)]))]
    errs = []
    for f, f_of in cases:
        sys = EvolutionSystem(base.semigroup, f, B=base.B)

        def rhs(t, x):
            u = p.value(t)
            return A @ x + Bc @ u + f_of(x, u)

        sol = scipy.integrate.solve_ivp(rhs, (0.0, 2.0), x0, rtol=1e-12, atol=1e-13,
                                        max_step=0.01)
        trajs = [solve(sys, SpectralState(x0), p, 2.0, SolverConfig(substeps_per_window=S))
                 for S in (64, 128)]
        assert all(tr.status.kind == "completed" for tr in trajs)
        errs.append([np.linalg.norm(tr.final_state().coeffs - sol.y[:, -1]) for tr in trajs])
    (zero_64, zero_128), (arctan_64, arctan_128) = errs
    assert zero_64 <= 1e-12 and zero_128 <= 1e-12
    assert arctan_64 <= 1e-6
    # the substep reconstruction is second order in h
    assert arctan_64 / arctan_128 >= 3.5


def test_select_step_zero_f_hits_cap():
    sg = heat_dirichlet_semigroup(8)
    sys = EvolutionSystem(sg, zero_nonlinearity(8))
    t1 = select_step(sys, K=0.5, u_sup=0.0, start_state=np.zeros(8))
    assert t1 == 1.0  # the window cap
    t1 = select_step(sys, K=0.5, u_sup=0.0, start_state=np.zeros(8), cap=0.25)
    assert t1 == 0.25


def test_select_step_scalar_square_dyadic_value():
    # mu = 0, K = 2: delta = 2, K' = 4, L = 8, c_t = t, so the contraction
    # condition t * 8 <= 1/2 and the invariance 32 t <= 2 both bind exactly
    # at the dyadic value 1/16
    sg = DiagonalSemigroup(mu=np.array([0.0]), omega=1.0)
    sys = EvolutionSystem(sg, scalar_square(1))
    t1 = select_step(sys, K=2.0, u_sup=0.0, start_state=np.array([2.0]))
    assert t1 == pytest.approx(1.0 / 16.0, rel=1e-12)


def test_select_step_error_names_last_length_tried():
    # candidates 1, 1/2, 1/4 all fail at K = 50; the last one checked is 1/4
    sg = DiagonalSemigroup(mu=np.array([0.0]), omega=1.0)
    sys = EvolutionSystem(sg, scalar_square(1))
    cfg = SolverConfig(max_window_bisections=2)
    with pytest.raises(StepSelectionError) as err:
        select_step(sys, K=50.0, u_sup=0.0, cfg=cfg, start_state=np.array([50.0]))
    assert "down to 0.25 " in str(err.value)
    assert "0.125" not in str(err.value)


def _scan_reference(sys, K, u_sup, cfg, x, cap, block_sups):
    """The descending scan the warm-started search replaced: the first
    candidate cap 2^-k, k = 0, 1, ..., that passes (a) and (b), on a fresh
    copy of sys (no memoised constant); None when none does."""
    fresh = EvolutionSystem(sys.semigroup, sys.f, B=sys.B, B2=sys.B2,
                            analytic_alpha=sys.analytic_alpha)
    delta = max(1.0, K)
    K_prime = K + delta
    L = sys.f.lipschitz(max(K_prime, u_sup))
    rest = L * K_prime + sys.f.growth_sigma(u_sup) + sys.f.growth_c
    for k in range(cfg.max_window_bisections + 1):
        t = min(cfg.window_cap, cap) * 0.5 ** k
        gain = fresh.gain(t)
        inv = (sys.semigroup.sg_distance(t, x, sys.alpha)
               + sum([h * s for h, s in zip(fresh.input_gain(t), block_sups)])
               + gain * rest)
        if gain * L <= CONTRACTION_TARGET and inv <= delta:
            return t
    return None


_PREVIOUS = st.one_of(st.none(), st.sampled_from(["above", "cap", 2.0 ** -30]),
                      st.floats(2.0 ** -20, 1.0))


def _previous(previous, cap):
    return {"above": 2.0 * cap, "cap": cap}.get(previous, previous)


@settings(max_examples=60)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 16),
       analytic=st.booleans(), previous=_PREVIOUS)
def test_select_step_warm_start_matches_descending_scan(seed, n, analytic, previous):
    # on a diagonal semigroup every certificate term grows with t, so the
    # warm-started search must return exactly the scan's length, failures
    # included
    rng = np.random.default_rng(seed)
    modes = np.arange(1.0, n + 1.0)
    if analytic:
        sg = DiagonalSemigroup(mu=-rng.uniform(0.2, 3.0) * modes ** 2, omega=1.0,
                               analytic=True)
        classes = [Bounded(), SmoothClass(0.6), SmoothClass(0.9)]
        alpha = float(rng.choice([0.25, 0.5]))
    else:
        mu = rng.uniform(-n * n, 1.0, n)
        sg = DiagonalSemigroup(mu=mu, omega=float(np.max(mu)) + 1.0,
                               analytic=bool(rng.integers(2)))
        classes = [Bounded(), SmoothClass(0.2), QAdmissible(2.0)]
        alpha = None
    blocks = tuple(InputOperator(rng.normal(size=(n, int(rng.integers(1, 3))))
                                 / modes[:, None] ** rng.uniform(0.0, 1.0),
                                 classes[int(rng.integers(len(classes)))])
                   for _ in range(int(rng.integers(0, 3))))
    f = (scalar_square(n) if rng.integers(2)
         else arctan_saturation(n, gain=float(rng.uniform(0.1, 30.0))))
    sys = EvolutionSystem(sg, f, B=blocks or None, analytic_alpha=alpha)
    cfg = SolverConfig(max_window_bisections=int(rng.integers(2, 41)))
    x = rng.normal(size=n) * 10.0 ** rng.uniform(-2.0, 1.5)
    K = sys.working_norm(x) * rng.uniform(1.0, 2.0)
    block_sups = [float(v) for v in rng.uniform(0.0, 5.0, len(blocks))]
    u_sup = max(block_sups, default=0.0) * rng.uniform(1.0, 1.5)
    cap = float(rng.choice([1.0, rng.uniform(1e-4, 1.0)]))
    want = _scan_reference(sys, K, u_sup, cfg, x, cap, block_sups)
    kwargs = dict(start_state=x, cap=cap, block_sups=block_sups,
                  previous=_previous(previous, cap))
    if want is None:
        with pytest.raises(StepSelectionError, match="no certified window down to"):
            select_step(sys, K, u_sup, cfg, **kwargs)
    else:
        assert select_step(sys, K, u_sup, cfg, **kwargs) == want


def _props_dense_system():
    # the 8-mode non-normal generator and 2-channel B of perfbench's props_dense
    rng = np.random.default_rng(2211)
    A = -np.diag(np.arange(1.0, 9.0)) + np.triu(rng.uniform(-1.5, 1.5, (8, 8)), 1)
    Bc = rng.normal(size=(8, 2))
    Bc /= np.linalg.norm(Bc, 2)
    return EvolutionSystem(DenseGenerator(A), arctan_saturation(8, 0.4, 0.5),
                           B=InputOperator(Bc, Bounded()))


@settings(max_examples=40)
@given(seed=st.integers(0, 2 ** 32 - 1), previous=_PREVIOUS)
def test_select_step_dense_warm_start_is_certified_and_not_longer(seed, previous):
    # |(e^{At} - I) x| may oscillate in t: the search must still return a
    # length passing both inequalities, and never a longer one than the scan
    sys = _props_dense_system()
    rng = np.random.default_rng(seed)
    cfg = SolverConfig(substeps_per_window=16)
    x = rng.normal(size=8) * 10.0 ** rng.uniform(-1.0, 1.5)
    K = sys.working_norm(x)
    u_sup = float(rng.uniform(0.0, 3.0))
    cap = float(rng.choice([1.0, rng.uniform(1e-3, 1.0)]))
    want = _scan_reference(sys, K, u_sup, cfg, x, cap, [u_sup])
    t1 = select_step(sys, K, u_sup, cfg, start_state=x, cap=cap,
                     previous=_previous(previous, cap))
    assert want is not None and t1 <= want
    delta = max(1.0, K)
    L = sys.f.lipschitz(max(K + delta, u_sup))
    c_t = _phi1_bound(sys.semigroup.lam, t1)
    h_t = np.linalg.norm(sys.B.coeffs, 2) * c_t
    assert c_t * L <= CONTRACTION_TARGET
    drift = np.linalg.norm(scipy.linalg.expm(sys.semigroup.A * t1) @ x - x)
    rest = L * (K + delta) + sys.f.growth_sigma(u_sup) + sys.f.growth_c
    assert drift + h_t * u_sup + c_t * rest <= delta * (1.0 + 1e-12)


def test_window_constants_memo_is_exact_bounded_and_per_system():
    sg = heat_dirichlet_semigroup(8)
    n = np.arange(1.0, 9.0)
    nl = zero_nonlinearity(8)
    rough = InputOperator(n * np.sqrt(2 / np.pi), SmoothClass(0.2))
    smooth = InputOperator(n ** -1.0, SmoothClass(0.8))
    variants = [  # pairs differ only in B2, in B, or in alpha
        dict(B=rough), dict(B=rough, B2=InputOperator(np.diag(2.0 / n), Bounded())),
        dict(B=(rough, smooth)), dict(B=(smooth, rough)),
        dict(B=smooth, analytic_alpha=0.25), dict(B=smooth, analytic_alpha=0.5),
    ]
    systems = [EvolutionSystem(sg, nl, **v) for v in variants]
    ts = [0.5 ** k for k in range(12)] + [0.3, 0.3 * 0.5 ** 7]
    for _ in range(2):  # the second pass reads the memo
        for t in ts:
            for sys, v in zip(systems, variants):
                fresh = EvolutionSystem(sg, nl, **v)
                assert sys.gain(t) == fresh.gain(t)
                assert sys.input_gain(t) == fresh.input_gain(t)
    # the pairs do differ, so a shared entry would have shown
    t = 0.3
    assert systems[0].gain(t) != systems[1].gain(t)
    assert systems[2].input_gain(t) != systems[3].input_gain(t)
    assert systems[4].gain(t) != systems[5].gain(t)
    # the memo stays within its bound and stays exact after evicting
    sys, fresh = systems[2], EvolutionSystem(sg, nl, **variants[2])
    many = np.linspace(1e-3, 1.0, 3 * _WINDOW_MEMO_ENTRIES)
    for t in many:
        sys.gain(float(t)), sys.input_gain(float(t))
        assert len(sys._window_memo) <= _WINDOW_MEMO_ENTRIES
    for t in many[::97]:
        assert sys.gain(float(t)) == fresh.gain(float(t))
        assert sys.input_gain(float(t)) == fresh.input_gain(float(t))
    # systems built in turn, each at a possibly reused address, never read
    # another's constant
    for scale in range(1, 60):
        B2 = InputOperator(np.eye(8) * scale, Bounded())
        assert EvolutionSystem(sg, nl, B2=B2).gain(0.25) == scale * 0.25


def test_blowup_window_search_tests_about_two_lengths_per_window(monkeypatch):
    # x' = -x + x^2 from 2.5 at 16 substeps: every window is bisected, and
    # the descending scan tested 14.8 lengths per window
    calls = {"gain": 0, "inside": False}
    gain, select = EvolutionSystem.gain, solver_module.select_step

    def counting_gain(self, t):
        calls["gain"] += calls["inside"]
        return gain(self, t)

    def counting_select(*args, **kwargs):
        calls["inside"] = True
        try:
            return select(*args, **kwargs)
        finally:
            calls["inside"] = False

    monkeypatch.setattr(EvolutionSystem, "gain", counting_gain)
    monkeypatch.setattr(solver_module, "select_step", counting_select)
    sys = EvolutionSystem(DiagonalSemigroup(mu=np.array([-1.0]), omega=0.5),
                          scalar_square(1))
    traj = solve(sys, SpectralState([2.5]), None, 2.0,
                 SolverConfig(substeps_per_window=16))
    windows = len(traj.diagnostics)
    assert traj.status.kind == "blowup"
    assert windows == 146
    assert sum(d.bisections for d in traj.diagnostics) == 2022
    assert calls["gain"] <= 3 * windows


def _phi1_bound(lam, t):
    return t if lam == 0.0 else np.expm1(lam * t) / lam


def test_working_space_members_x_mode():
    sg = DiagonalSemigroup(mu=np.array([0.5, -1.0, -4.0]), omega=1.0)
    nl = zero_nonlinearity(3)
    B = InputOperator(np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]]), Bounded())
    sys = EvolutionSystem(sg, nl, B=B)
    assert sys.alpha == 0.0 and EvolutionSystem(sg, nl, analytic_alpha=0.0).alpha == 0.0
    assert np.array_equal(sys.weights, np.ones(3))
    c = np.array([3.0, -4.0, 12.0])
    assert sys.working_norm(c) == 13.0
    for t in (0.125, 0.5, 1.0):
        # M = 1, lam = 0.5: c_t = (e^{lam t} - 1)/lam and h_t = |B| c_t
        assert sys.gain(t) == pytest.approx(_phi1_bound(0.5, t), rel=1e-14)
        assert sys.input_gain(t) == pytest.approx((2.0 * _phi1_bound(0.5, t),), rel=1e-14)
    assert sys.input_gain(0.0) == (0.0,)
    assert EvolutionSystem(sg, nl).input_gain(0.5) == ()
    # a bare q-admissibility declaration gets the truncation-level bound on
    # B and no zero-class certificate on B2
    Bq = InputOperator(np.array([[0.0], [3.0], [4.0]]), QAdmissible(2.0))
    sys_q = EvolutionSystem(sg, nl, B=Bq, B2=Bq)
    assert sys_q.input_gain(0.5) == pytest.approx((5.0 * _phi1_bound(0.5, 0.5),), rel=1e-14)
    with pytest.raises(ValueError, match="q_admissible"):
        sys_q.gain(0.5)


def test_input_gain_smooth_class_x_mode():
    sg = heat_dirichlet_semigroup(16)
    n = np.arange(1, 17, dtype=float)
    B = InputOperator(n * np.sqrt(2 / np.pi), SmoothClass(0.2))
    sys = EvolutionSystem(sg, zero_nonlinearity(16), B=B)
    # M = 1, lam = 0: the smaller of |B| t and the t^alpha smoothing bound;
    # the first is smaller at t = 0.01, the second at t = 1
    assert sys.input_gain(0.01) == pytest.approx((0.01 * B.norm(),), rel=1e-14)
    assert sys.input_gain(1.0) == (upper_bound_h(sg, B, 0.0, 1.0),)
    assert upper_bound_h(sg, B, 0.0, 1.0) < B.norm()
    # without analyticity only the bounded-operator bound is certified
    plain = DiagonalSemigroup(mu=-(n ** 2), omega=1.0)
    assert EvolutionSystem(plain, zero_nonlinearity(16), B=B).input_gain(0.5) \
        == pytest.approx((0.5 * B.norm(),), rel=1e-14)


def test_working_space_members_analytic_mode():
    sg = heat_dirichlet_semigroup(8)
    n = np.arange(1, 9, dtype=float)
    nl = zero_nonlinearity(8)
    w = (1.0 + n ** 2) ** 0.5
    Bb = InputOperator(np.eye(8)[:, :1], Bounded())
    sys = EvolutionSystem(sg, nl, B=Bb, analytic_alpha=0.5)
    assert sys.alpha == 0.5
    assert np.allclose(sys.weights, w, rtol=1e-15)
    c = np.linspace(-1.0, 1.0, 8)
    assert sys.working_norm(c) == pytest.approx(np.linalg.norm(w * c), rel=1e-15)
    # kappa = omega0 + 1 = 0: c_t = C_{1/2} t^{1/2} / (1/2)
    C = sg.smoothing_constant(0.5)
    for t in (0.01, 0.25):
        assert sys.gain(t) == pytest.approx(2.0 * C * np.sqrt(t), rel=1e-14)
        assert sys.input_gain(t) == pytest.approx((sys.gain(t),), rel=1e-14)
    smooth = InputOperator(n ** -1.0, SmoothClass(0.8))
    sys_s = EvolutionSystem(sg, nl, B=smooth, analytic_alpha=0.5)
    assert sys_s.input_gain(0.25) == (upper_bound_h(sg, smooth, 0.5, 0.25),)
    # a smoothness deficit falls back to |(omega - A)^alpha B| M t at lam = 0
    rough = InputOperator(n * np.sqrt(2 / np.pi), SmoothClass(0.2))
    sys_r = EvolutionSystem(sg, nl, B=rough, analytic_alpha=0.5)
    assert sys_r.input_gain(0.25) == pytest.approx(
        (0.25 * np.linalg.norm(w * rough.coeffs[:, 0]),), rel=1e-14)


def test_working_space_members_dense():
    A = np.array([[0.2, 1.0], [0.0, -1.0]])
    gen = DenseGenerator(A)
    lam = float(np.max(np.linalg.eigvalsh(0.5 * (A + A.T))))
    B = InputOperator(np.array([[3.0], [4.0]]), Bounded())
    sys = EvolutionSystem(gen, zero_nonlinearity(2), B=B)
    assert sys.alpha == 0.0 and np.array_equal(sys.weights, np.ones(2))
    assert sys.working_norm(np.array([3.0, 4.0])) == 5.0
    t = 0.3
    assert sys.gain(t) == pytest.approx(_phi1_bound(lam, t), rel=1e-14)
    assert sys.input_gain(t) == pytest.approx((5.0 * _phi1_bound(lam, t),), rel=1e-14)


def test_poly_signal_algebra():
    p = PolySignal(np.array([[1.0], [2.0], [-0.5]]))  # 1 + 2t - t^2/2
    assert p.value(0.0)[0] == 1.0
    assert p.value(2.0)[0] == pytest.approx(1.0 + 4.0 - 2.0)
    d = p.derivative()
    assert d.value(3.0)[0] == pytest.approx(2.0 - 3.0)
    s = p.shift(0.5)
    for t in (0.0, 0.3, 1.1):
        assert s.value(t)[0] == pytest.approx(p.value(t + 0.5)[0], rel=1e-13)
    # an array of times gives one row per time, equal to the scalar values
    q = PolySignal(np.array([[1.0, -2.0], [0.3, 0.0], [0.0, 1.5], [-0.25, 0.1]]))
    ts = np.array([0.0, 0.37, 1.9, 4.0])
    rows = q.value(ts)
    assert rows.shape == (4, 2)
    for t, row in zip(ts, rows):
        assert np.array_equal(row, q.value(float(t)))
    assert p.sup_norm(0.0, 2.0) >= max(abs(p.value(t)[0])
                                       for t in np.linspace(0, 2, 50))
    with pytest.raises(ValueError):
        PolySignal(np.zeros((6, 1)))


def test_poly_exp_integral_against_quadrature():
    ts = np.array([[0.1], [0.7]])
    for mu in (-30.0, -0.3, 0.0, 0.2):
        for k in range(5):
            # scalar calls, and one call with the times as a (2, 1) array
            rows = poly_exp_integral(np.array([mu]), ts, k)
            assert rows.shape == (2, 1)
            for t, row in zip(ts[:, 0], rows):
                got = poly_exp_integral(np.array([mu]), float(t), k)[0]
                want, err = scipy.integrate.quad(
                    lambda s: np.exp(mu * (t - s)) * s ** k, 0.0, t,
                    epsabs=1e-14, epsrel=1e-13,
                )
                assert got == pytest.approx(want, rel=1e-10, abs=1e-14)
                assert row[0] == pytest.approx(want, rel=1e-10, abs=1e-14)


def test_convolve_poly_single_mode_closed_form():
    # mu = -1, u(s) = s: int_0^t e^{-(t-s)} s ds = t - 1 + e^{-t}
    sg = DiagonalSemigroup(mu=np.array([-1.0]), omega=1.0)
    B = InputOperator(np.array([1.0]), Bounded())
    p = PolySignal(np.array([[0.0], [1.0]]))
    for t in (0.2, 1.0, 2.5):
        got = convolve_poly(sg, B, p, t)[0]
        assert got == pytest.approx(t - 1.0 + np.exp(-t), rel=1e-12)


def test_diagonal_convolve_is_the_one_polynomial_convolution():
    rng = np.random.default_rng(17)
    mu = np.array([-40.0, -3.0, -0.2, 0.0, 0.4])
    sg = DiagonalSemigroup(mu=mu, omega=1.0)
    # blocks of degrees 3, 2 and 0 in one call
    forcing = [rng.normal(size=(d + 1, 5)) for d in (3, 2, 0)]
    for t in (0.3, np.array([0.05, 0.3, 1.7])[:, None]):
        got = sg.convolve(t, forcing)
        assert len(got) == 3
        for rows, block in zip(forcing, got):
            want = sum(rows[k] * poly_exp_integral(mu, t, k) for k in range(len(rows)))
            assert np.array_equal(block, want)
    assert sg.convolve(0.3, []) == []

    # the window's linear part is free + the sum of its blocks' convolutions
    x0 = rng.normal(size=5)
    two = [rng.normal(size=(3, 5)) for _ in range(2)]
    tau, *_, free, lin = sg.window(0.25, 8, x0, two)
    assert np.array_equal(tau, np.linspace(0.0, 0.25, 9))
    blocks = [sum(Bp[k] * poly_exp_integral(mu, tau[:, None], k) for k in range(3))
              for Bp in two]
    assert np.array_equal(lin, free + (blocks[0] + blocks[1]))

    # convolve_poly is the one-block case, B p_k as InputOperator.apply forms it
    B = InputOperator(rng.normal(size=(5, 2)), Bounded())
    p = PolySignal(rng.normal(size=(3, 2)))
    for t in (0.3, tau[:, None]):
        want = sum(B.apply(p.coeffs[k]) * poly_exp_integral(mu, t, k) for k in range(3))
        assert np.array_equal(convolve_poly(sg, B, p, t), want)


def test_analytic_mode_reports_alpha_norms():
    sg = heat_dirichlet_semigroup(16)
    sys = EvolutionSystem(sg, zero_nonlinearity(16), analytic_alpha=0.5)
    x0 = SpectralState.basis(16, 0)
    traj = solve_analytic(sys, x0, None, 0.3)
    assert traj.alpha == 0.5
    assert traj.alpha_norms is not None
    # mode 1 decays as e^{-t}; the X_alpha norm is 2^{1/2} times the X norm
    assert traj.alpha_norms[-1] == pytest.approx(
        np.sqrt(2.0) * np.exp(-traj.times[-1]), rel=1e-10
    )


def test_analytic_mode_rejects_rough_initial_state():
    sg = heat_dirichlet_semigroup(64)
    sys = EvolutionSystem(sg, zero_nonlinearity(64), analytic_alpha=0.5)
    rough = SpectralState(np.ones(64))  # weighted mass climbs like n^2
    with pytest.raises(ValueError, match="not in X_alpha"):
        solve_analytic(sys, rough, None, 0.1)


def test_global_bound_dominates_trajectories():
    sg = heat_dirichlet_semigroup(8)
    f = arctan_saturation(8, gain=0.5)
    B = InputOperator(np.eye(8), Bounded())
    sys = EvolutionSystem(sg, f, B=B)
    rng = np.random.default_rng(5)
    bound = global_bound(sys, 1.0, 1.0, 2.0)
    for _ in range(3):
        x0 = rng.normal(size=8)
        x0 *= 1.0 / max(np.linalg.norm(x0), 1.0)
        vals = rng.uniform(-0.5, 0.5, size=(4, 8))
        vals /= np.maximum(np.linalg.norm(vals, axis=1, keepdims=True), 1.0)
        u = InputSignal(np.linspace(0.0, 2.0, 5), vals)
        assert u.sup_norm() <= 1.0 + 1e-12
        traj = solve(sys, SpectralState(x0), u, 2.0)
        assert traj.status.kind == "completed"
        assert traj.sup_norm() <= bound


def test_global_bound_window_search_bisects():
    # arctan with gain 4 on the heat semigroup (lam = 0, so c_1 = 1) has
    # c_1 L = 4: c_t L <= 1/2 first holds three halvings down, at t = 1/8
    sg = heat_dirichlet_semigroup(8)
    sys = EvolutionSystem(sg, arctan_saturation(8, gain=4.0),
                          B=InputOperator(np.eye(8), Bounded()))
    assert sys.gain(1.0) * sys.f.uniform_lipschitz == 4.0
    bound = global_bound(sys, 1.0, 1.0, 1.0)
    assert sorted(t for kind, t in sys._window_memo if kind == "c") == \
        [0.125, 0.25, 0.5, 1.0]
    rng = np.random.default_rng(11)
    for _ in range(3):
        x0 = rng.normal(size=8)
        x0 /= max(np.linalg.norm(x0), 1.0)
        vals = rng.normal(size=(4, 8))
        vals /= np.maximum(np.linalg.norm(vals, axis=1, keepdims=True), 1.0)
        traj = solve(sys, SpectralState(x0), InputSignal(np.linspace(0.0, 1.0, 5), vals),
                     1.0, SolverConfig(substeps_per_window=16))
        assert traj.status.kind == "completed"
        assert traj.sup_norm() <= bound
    # c_t L = 1e13 t stays above 1/2 at every one of the 41 candidates
    stiff = EvolutionSystem(sg, arctan_saturation(8, gain=1e13))
    with pytest.raises(StepSelectionError, match="no window with c_t"):
        global_bound(stiff, 1.0, 0.0, 1.0)


def test_global_bound_needs_uniform_lipschitz():
    sg = DiagonalSemigroup(mu=np.array([-1.0]), omega=1.0)
    sys = EvolutionSystem(sg, scalar_square(1))
    with pytest.raises(ValueError, match="uniform Lipschitz"):
        global_bound(sys, 1.0, 0.0, 1.0)


@settings(max_examples=60)
@given(beta=st.floats(0.3, 0.95), s=st.floats(30.0, 1000.0))
def test_mittag_leffler_is_inf_or_asymptotic(beta, s):
    # for z = s^beta with s >= 30, E_beta(z) = (1/beta) e^s to far below 1e-9
    got = _mittag_leffler(beta, s ** beta)
    assert got == math.inf or \
        abs(math.log(got) - (s - math.log(beta))) <= 1e-9


@pytest.mark.parametrize("z", [20.0, 24.0, 30.0])
def test_mittag_leffler_never_truncates_low(z):
    # the capped series used to return a partial sum far below log 2 + z^2
    got = _mittag_leffler(0.5, z)
    assert got == math.inf or \
        abs(math.log(got) - (math.log(2.0) + z * z)) <= 1e-9


def test_global_bound_analytic_mode_past_the_series_cap():
    sg = heat_dirichlet_semigroup(8)
    sys = EvolutionSystem(sg, arctan_saturation(8, gain=0.5), analytic_alpha=0.5)
    assert global_bound(sys, 1.0, 0.0, 1e4) == math.inf
    # a zero prefactor bounds the zero trajectory by 0, not by 0 * inf
    assert global_bound(sys, 0.0, 0.0, 1e4) == 0.0


@pytest.mark.parametrize("beta", [0.5, 1.0])
def test_mittag_leffler_is_an_upper_bound_within_1e_10(beta):
    # E_{1/2}(z) = erfcx(-z) and E_1(z) = e^z.  The plain series summed
    # below the value (144009798674.66058 at z = 5 for ...66104) and
    # returned inf from z = 13.5, where E_{1/2} is 2.8e79.
    exact = (lambda z: scipy.special.erfcx(-z)) if beta == 0.5 else np.exp
    for z in np.linspace(0.0, 26.0, 521):
        want = exact(z)
        got = _mittag_leffler(beta, float(z))
        assert want <= got <= want * (1.0 + 1e-10), z


def test_mittag_leffler_closed_forms():
    # E_1(z) = e^z and E_{1/2}(z) = e^{z^2} (1 + erf z)
    for z in (0.3, 1.0, 2.0):
        assert _mittag_leffler(1.0, z) == pytest.approx(np.exp(z), rel=1e-12)
        want = np.exp(z * z) * (1.0 + scipy.special.erf(z))
        assert _mittag_leffler(0.5, z) == pytest.approx(want, rel=1e-10)


def test_state_at_hits_and_interpolates():
    sg = DiagonalSemigroup(mu=np.array([-1.0]), omega=1.0)
    sys = EvolutionSystem(sg, zero_nonlinearity(1))
    traj = solve(sys, SpectralState(np.array([1.0])), None, 1.0,
                 checkpoint_times=[0.375])
    exact = traj.state_at(0.375).coeffs[0]
    assert exact == pytest.approx(np.exp(-0.375), abs=1e-12)
    mid = traj.state_at(0.3751234).coeffs[0]
    assert mid == pytest.approx(np.exp(-0.3751234), abs=1e-6)
    with pytest.raises(ValueError):
        traj.state_at(1.5)


def test_checkpoints_and_breakpoints_are_sample_times():
    sg = heat_dirichlet_semigroup(4)
    B = InputOperator(np.ones(4), Bounded())
    sys = EvolutionSystem(sg, zero_nonlinearity(4), B=B)
    u = InputSignal(np.array([0.0, 0.37, 1.0]), np.array([[1.0], [0.0]]))
    traj = solve(sys, SpectralState.zero(4), u, 1.0, checkpoint_times=[0.81])
    for t in (0.37, 0.81, 1.0):
        assert np.min(np.abs(traj.times - t)) <= 1e-12


def test_window_bookkeeping():
    sg = DiagonalSemigroup(mu=np.array([0.0]), omega=1.0)
    sys = EvolutionSystem(sg, scalar_square(1))
    traj = solve(sys, SpectralState(np.array([0.5])), None, 0.5)
    assert traj.status.kind == "completed"
    assert len(traj.diagnostics) == traj.window_boundaries.shape[0]
    assert traj.window_boundaries[0] == 0
    starts = traj.times[traj.window_boundaries]
    for d, s in zip(traj.diagnostics, starts):
        assert d.t_start == pytest.approx(s, abs=1e-12)
        assert d.contraction_observed <= 0.6  # certified target plus margin
        assert d.delta == max(1.0, d.K)


def test_constant_input_solve_is_the_closed_form_bit_for_bit():
    # zero f, bounded B, constant u: every sample of the one window is
    # exactly e^{mu tau} x0 + convolve(sg, B, u, tau), with no roundoff of
    # its own, so reruns and refactors of the window kernel keep bytes
    sg = heat_dirichlet_semigroup(6)
    B = InputOperator(np.linspace(0.5, -0.5, 12).reshape(6, 2), Bounded())
    sys = EvolutionSystem(sg, zero_nonlinearity(6), B=B)
    x0 = SpectralState(np.array([0.3, -0.2, 0.1, 0.05, -0.02, 0.01]))
    u = InputSignal.constant([0.4, -0.3], 0.5)
    traj = solve(sys, x0, u, 0.5, SolverConfig(substeps_per_window=16))
    assert traj.status.kind == "completed" and len(traj.diagnostics) == 1
    for t, c in zip(traj.times, traj.coeffs):
        want = np.exp(sg.mu * t) * x0.coeffs + convolve(sg, B, u, float(t))
        assert np.array_equal(c, want)


def _linear_f(n_modes, a):
    """f(x, v) = a x: the window's Picard error scales with the state."""
    return Nonlinearity(eval=lambda x, v: a * x, lipschitz=lambda r: abs(a),
                        growth_sigma=KinfFunction.identity(),
                        uniform_lipschitz=abs(a), label="linear")


def test_picard_stop_is_relative_to_the_window_scale():
    # a linear f makes every Picard difference scale with x0, so a window
    # from 1e6 x0 needs exactly as many iterations as one from x0 when the
    # stop is relative; an absolute 1e-10 would demand a 1e-16 relative fit
    sg = DiagonalSemigroup(mu=np.array([-1.0, -2.0, -5.0]), omega=1.0)
    sys = EvolutionSystem(sg, _linear_f(3, 0.8))
    cfg = SolverConfig(substeps_per_window=32)
    x0 = np.array([1.5, -0.7, 0.4])
    p = PolySignal(np.zeros((1, 1)))
    _, y, iters, _ = _picard_window_raw(sys, x0, p, 0.5, cfg)
    _, y_big, iters_big, _ = _picard_window_raw(sys, 1e6 * x0, p, 0.5, cfg)
    assert iters_big == iters
    assert np.allclose(y_big, 1e6 * y, rtol=1e-12, atol=0.0)


def test_b2_channel_matches_the_matrix_exponential():
    # x' = A x + P (a x) with a non-symmetric bounded P is the linear ODE
    # x' = (A + a P) x.  The kernel's only error is the O(h^2) reconstruction
    # of f on the sub-grid: measured sup over the samples 7.34e-6 at S = 16
    # and 1.84e-6 at S = 32.  Applying P^T instead moves x(1) by 0.26.
    mu = np.array([-1.0, -2.0, -3.0, -4.0])
    P = np.array([[0.0, 1.0, 0.5, 0.0], [0.0, 0.0, 1.0, 0.5],
                  [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 0.0]])
    a = 0.8
    sys = EvolutionSystem(DiagonalSemigroup(mu=mu, omega=1.0), _linear_f(4, a),
                          B2=InputOperator(P, Bounded()))
    x0 = np.array([1.0, 0.5, -0.3, 0.2])
    errors = []
    for S in (16, 32):
        traj = solve(sys, SpectralState(x0), None, 1.0, SolverConfig(substeps_per_window=S))
        assert traj.status.kind == "completed"
        errors.append(max(
            np.linalg.norm(c - scipy.linalg.expm((np.diag(mu) + a * P) * t) @ x0)
            for t, c in zip(traj.times, traj.coeffs)))
    assert errors[0] <= 1e-5
    assert 3.5 <= errors[0] / errors[1] <= 4.5


def test_picard_failure_on_a_certified_window_fails_the_solve():
    # f = 40 x declared 0.01-Lipschitz: select_step certifies the whole
    # [0, 1], where the Picard iteration diverges.  The solve must fail
    # there and name the window, not halve it until the false certificate
    # no longer shows (that used to end in blowup at t = 0.34375).
    liar = Nonlinearity(eval=lambda x, v: 40.0 * x, lipschitz=lambda r: 0.01,
                        growth_sigma=KinfFunction.identity(), label="liar")
    sys = EvolutionSystem(heat_dirichlet_semigroup(4), liar)
    traj = solve(sys, SpectralState(np.ones(4)), None, 1.0,
                 SolverConfig(substeps_per_window=16))
    assert traj.status.kind == "failed"
    assert traj.status.reason == "certified window [0, 1]: Picard iteration diverged"
    assert traj.diagnostics == [] and traj.times.tolist() == [0.0]


def test_contraction_above_the_certificate_fails_the_solve():
    # f = 5 x declared 0.01-Lipschitz: the Picard iteration still converges
    # on the certified [0, 1], but with ratio 2.5 against c_t * L = 0.01,
    # which no roundoff explains.  That used to complete unnoticed.
    liar = Nonlinearity(eval=lambda x, v: 5.0 * x, lipschitz=lambda r: 0.01,
                        growth_sigma=KinfFunction.identity(), label="liar")
    sys = EvolutionSystem(heat_dirichlet_semigroup(4), liar)
    traj = solve(sys, SpectralState(np.ones(4)), None, 1.0,
                 SolverConfig(substeps_per_window=16))
    assert traj.status.kind == "failed"
    assert traj.status.reason == ("certified window [0, 1]: observed Picard "
                                  "contraction 2.5 exceeds the certified c_t*L = 0.01")
    assert traj.diagnostics == []

    # the same f declared with its true constant 5 completes, each window's
    # observed ratio below its certificate
    honest = Nonlinearity(eval=lambda x, v: 5.0 * x, lipschitz=lambda r: 5.0,
                          growth_sigma=KinfFunction.identity())
    traj = solve(EvolutionSystem(heat_dirichlet_semigroup(4), honest),
                 SpectralState(np.ones(4)), None, 1.0, SolverConfig(substeps_per_window=16))
    assert traj.status.kind == "completed"
    assert all(d.contraction_observed <= d.c_t * d.lipschitz for d in traj.diagnostics)


def _blocks_system(dense: bool, zero_block: bool):
    """An arctan system whose input is one bounded block, or the same block
    followed by a zero block that the solve feeds zeros."""
    n = 4
    f = arctan_saturation(n, gain=0.5)
    sg = (DenseGenerator(np.diag([-1.0, -2.0, 0.3, -4.0]) + np.triu(np.full((n, n), 0.2), 1))
          if dense else DiagonalSemigroup(mu=np.array([-1.0, -2.0, 0.3, -4.0]), omega=1.0))
    B = InputOperator(np.array([[1.0], [-0.5], [0.25], [2.0]]), Bounded())
    if not zero_block:
        return EvolutionSystem(sg, f, B=B)
    return EvolutionSystem(sg, f, B=(B, InputOperator(np.zeros((n, 1)), Bounded())))


@pytest.mark.parametrize("dense", [False, True])
def test_one_block_is_bit_identical_through_the_block_path(dense):
    # per-block certificate and per-block linear part: a second block that
    # carries nothing adds exact zeros, so windows, diagnostics and samples
    # equal the one-block solve bit for bit, under a degree-1 polynomial
    # input and a piecewise-constant one
    one, two = _blocks_system(dense, False), _blocks_system(dense, True)
    assert (one.input_channels, two.input_channels) == (1, 2)
    assert two.input_columns == (slice(0, 1), slice(1, 2))
    grid = np.array([0.0, 0.3, 0.7, 1.5])
    vals = np.array([[0.8], [-1.2], [0.5]])
    u1 = InputSignal(grid, vals)
    u2 = InputSignal(grid, np.hstack([vals, np.zeros((3, 1))]))
    x0 = SpectralState(np.array([0.6, -0.4, 0.9, 0.2]))
    ramp = np.array([[0.8], [-1.2]])
    for v1, v2 in [(PolySignal(ramp), PolySignal(np.hstack([ramp, np.zeros((2, 1))]))),
                   (u1, u2)]:
        a = solve(one, x0, v1, 1.5, SolverConfig(substeps_per_window=16))
        b = solve(two, x0, v2, 1.5, SolverConfig(substeps_per_window=16))
        assert a.status.kind == b.status.kind == "completed"
        assert np.array_equal(a.times, b.times) and np.array_equal(a.coeffs, b.coeffs)
        assert [asdict(d) for d in a.diagnostics] == [asdict(d) for d in b.diagnostics]
    tuple_one = EvolutionSystem(one.semigroup, one.f, B=(one.B,))
    # a is the piecewise-constant solve of the last pass
    c = solve(tuple_one, x0, u1, 1.5, SolverConfig(substeps_per_window=16))
    assert np.array_equal(a.coeffs, c.coeffs)


def test_block_validation():
    sg = heat_dirichlet_semigroup(4)
    ok = InputOperator(np.ones(4), Bounded())
    with pytest.raises(ValueError, match="at least one block"):
        EvolutionSystem(sg, zero_nonlinearity(4), B=())
    with pytest.raises(ValueError, match="mode count"):
        EvolutionSystem(sg, zero_nonlinearity(4),
                        B=(ok, InputOperator(np.ones(5), Bounded())))
    with pytest.raises(ValueError, match="smooth_class"):
        EvolutionSystem(sg, zero_nonlinearity(4), analytic_alpha=0.5,
                        B=(ok, InputOperator(np.ones(4), QAdmissible(2.0))))
    sys = EvolutionSystem(sg, zero_nonlinearity(4), analytic_alpha=0.5,
                          B=(ok, InputOperator(np.ones(4), SmoothClass(0.2))))
    assert sys.input_regularity_deficit and sys.input_channels == 2
    assert len(sys.input_gain(0.1)) == 2


def _heat_b_system(b_columns):
    # 4-mode heat equation with an arctan f, driven through a B of b_columns
    sg = heat_dirichlet_semigroup(4)
    f = arctan_saturation(4, gain=0.5)
    return EvolutionSystem(sg, f, B=InputOperator(np.ones((4, b_columns)), Bounded()))


def _two_signals(m):
    # a piecewise-constant and a polynomial input of m channels
    return [InputSignal.constant(np.arange(1.0, m + 1.0), 0.5),
            PolySignal(np.arange(1.0, 2 * m + 1.0).reshape(2, m))]


@pytest.mark.parametrize("b_columns, m", [(1, 2), (2, 1)])
def test_solve_refuses_an_input_that_b_does_not_take(b_columns, m):
    # more channels than B takes used to be dropped unseen (u = [1, 100] ran
    # exactly like u = [1]); fewer failed inside the kernel's matmul
    sys = _heat_b_system(b_columns)
    x0 = SpectralState(np.array([0.5, -0.2, 0.1, 0.0]))
    for u in _two_signals(m):
        with pytest.raises(ValueError, match=f"input has {m} channels, B takes {b_columns}"):
            solve(sys, x0, u, 0.5)
    for u in _two_signals(b_columns):
        assert solve(sys, x0, u, 0.5).status.kind == "completed"


def test_solve_without_b_leaves_the_channel_count_to_f():
    # without B only f reads u, here its first two channels
    sys = EvolutionSystem(heat_dirichlet_semigroup(4),
                          arctan_saturation(4, gain=0.5, input_gain=0.4))
    assert sys.input_channels == 1
    x0 = SpectralState(np.array([0.5, -0.2, 0.1, 0.0]))
    for u in _two_signals(2):
        assert solve(sys, x0, u, 0.5).status.kind == "completed"


def test_analytic_solve_returns_X_coordinates():
    sg = heat_dirichlet_semigroup(8)
    sys = EvolutionSystem(sg, zero_nonlinearity(8), analytic_alpha=0.25)
    x0 = SpectralState.basis(8, 0, 0.7)
    traj = solve(sys, x0, None, 0.125)
    assert traj.times[0] == 0.0 and traj.times[-1] == 0.125
    assert traj.coeffs[0, 0] == pytest.approx(0.7)
    assert traj.coeffs[-1, 0] == pytest.approx(0.7 * np.exp(-0.125), rel=1e-10)
    # the X_alpha norms are the X coefficients weighted by (1 + n^2)^(1/4)
    assert traj.alpha_norms[-1] == pytest.approx(
        2.0 ** 0.25 * traj.coeffs[-1, 0], rel=1e-12)


def test_system_validation():
    sg = heat_dirichlet_semigroup(4)
    with pytest.raises(ValueError):
        EvolutionSystem(sg, zero_nonlinearity(4),
                        B=InputOperator(np.ones(5), Bounded()))
    dense = DenseGenerator(np.array([[-1.0]]))
    with pytest.raises(ValueError):
        EvolutionSystem(dense, zero_nonlinearity(1),
                        B=InputOperator(np.array([1.0]), SmoothClass(0.5)))
    with pytest.raises(ValueError):
        EvolutionSystem(sg, zero_nonlinearity(4), analytic_alpha=0.5,
                        B2=InputOperator.identity(4))
    with pytest.raises(ValueError):
        EvolutionSystem(DiagonalSemigroup(mu=np.array([-1.0]), omega=1.0),
                        zero_nonlinearity(1), analytic_alpha=0.5)
    with pytest.raises(ValueError, match="analytic mode needs an analytic semigroup"):
        EvolutionSystem(dense, zero_nonlinearity(1), analytic_alpha=0.5)


def test_input_regularity_deficit_flag():
    sg = heat_dirichlet_semigroup(8)
    n = np.arange(1, 9, dtype=float)
    B = InputOperator(n * np.sqrt(2 / np.pi), SmoothClass(0.2))
    sys = EvolutionSystem(sg, zero_nonlinearity(8), B=B, analytic_alpha=0.25)
    assert sys.input_regularity_deficit
    free = EvolutionSystem(sg, zero_nonlinearity(8), analytic_alpha=0.25)
    assert not free.input_regularity_deficit


def test_solve_requires_input_to_reach_horizon():
    sg = heat_dirichlet_semigroup(4)
    B = InputOperator(np.ones(4), Bounded())
    sys = EvolutionSystem(sg, zero_nonlinearity(4), B=B)
    u = InputSignal.constant(np.array([1.0]), 0.5)
    with pytest.raises(ValueError, match="input defined to"):
        solve(sys, SpectralState.zero(4), u, 1.0)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(substeps_per_window=4)
    with pytest.raises(ValueError):
        SolverConfig(picard_tol=0.0)


@pytest.mark.parametrize("cap", [0.0, -0.1, math.nan])
def test_solver_config_refuses_nonpositive_window_cap(cap):
    # a zero cap divided by zero in solve and global_bound, a negative one
    # failed later with "empty time range"
    with pytest.raises(ValueError, match="window_cap must be positive"):
        SolverConfig(window_cap=cap)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("name", ["picard_tol", "blowup_threshold", "window_cap"])
def test_solver_config_refuses_non_finite_settings(name, value):
    # an infinite picard_tol stopped every window after one Picard iteration
    # and reported a wrong blow-up time as a success
    with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
        SolverConfig(**{name: value})


def test_solver_config_refuses_negative_bisections():
    with pytest.raises(ValueError, match="max_window_bisections must be >= 0"):
        SolverConfig(max_window_bisections=-3)
    assert SolverConfig(max_window_bisections=0).max_window_bisections == 0


def _rowwise_csv(columns) -> str:
    """Reference writer: one row at a time, each value's Python float repr."""
    cols = [np.asarray(c, float) for c in columns]
    cols = [c[:, None] if c.ndim == 1 else c for c in cols]
    return "".join(",".join(repr(float(v)) for c in cols for v in c[i]) + "\n"
                   for i in range(cols[0].shape[0]))


@pytest.mark.parametrize("rows", [0, 1, _CSV_BLOCK_ROWS - 1, _CSV_BLOCK_ROWS,
                                  _CSV_BLOCK_ROWS + 1, 2 * _CSV_BLOCK_ROWS + 3])
def test_block_csv_writer_matches_rowwise_repr(rows):
    import io

    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1e16, 1e-5,
               np.finfo(float).max, -np.finfo(float).max, 0.1, -1.0 / 3.0]
    rng = np.random.default_rng(rows)
    pool = np.concatenate([special, rng.normal(size=16) * 10.0 ** rng.integers(-20, 20, 16)])
    t = rng.choice(pool, size=rows)
    block = rng.choice(pool, size=(rows, 5))
    fh = io.StringIO()
    _write_rows(fh, [t, block, np.arange(rows, dtype=float)])
    assert fh.getvalue() == _rowwise_csv([t, block, np.arange(rows, dtype=float)])


# float64 values from arbitrary bit patterns: nan payloads, +-inf,
# subnormals and +-0
_BIT_PATTERN_FLOATS = st.integers(0, 2**64 - 1).map(
    lambda b: float(np.array(b, dtype=np.uint64).view(np.float64)))
# each power of ten +-10^k, k = -6..17, with its two neighbours: the writer
# switches from orjson's token to repr at 1e-4 and at 1e16
_SWITCH_NEIGHBOURS = [
    float(w)
    for k in range(-6, 18)
    for v in (10.0 ** k, -(10.0 ** k))
    for w in (np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf))
]


def _first_difference(got: str, want: str):
    """None if the texts are equal, else the first differing line as
    (index, got, want): a short failure report, where pytest's diff of two
    long texts would take seconds on every failing example hypothesis shrinks."""
    if got == want:
        return None
    got_lines, want_lines = got.split("\n"), want.split("\n")
    i = next((i for i, (g, w) in enumerate(zip(got_lines, want_lines)) if g != w),
             min(len(got_lines), len(want_lines)))
    return i, got_lines[i:i + 1], want_lines[i:i + 1]


@settings(max_examples=60, deadline=None)
@given(
    drawn=st.lists(st.one_of(_BIT_PATTERN_FLOATS, st.floats()), min_size=1, max_size=16),
    rows=st.sampled_from([0, 1, _CSV_BLOCK_ROWS - 1, _CSV_BLOCK_ROWS + 1]),
)
def test_block_csv_writer_matches_repr_on_any_float(drawn, rows):
    import io

    # the drawn values, then every switch neighbour, repeat cyclically over
    # a 1-D column and a 4-column block: from 511 rows on every value lands
    # in several columns, and past 512 rows in both blocks
    pool = np.array(drawn + _SWITCH_NEIGHBOURS, dtype=float)
    table = np.resize(pool, (rows, 5))
    columns = [table[:, 0], table[:, 1:]]
    fh = io.StringIO()
    _write_rows(fh, columns)
    assert _first_difference(fh.getvalue(), _rowwise_csv(columns)) is None


def test_burgers_trajectory_csv_matches_rowwise_repr(tmp_path, monkeypatch):
    # the paper's Burgers case study end to end: its decaying modes reach
    # the 1e-5..1e-4 band, where orjson and repr lay a float out differently
    import pathlib

    import semiflow.scenario as scenario_module

    trajs = []

    def keep(traj, path):
        trajs.append(traj)
        trajectory_to_csv(traj, path)

    monkeypatch.setattr(scenario_module, "trajectory_to_csv", keep)
    root = pathlib.Path(__file__).resolve().parents[1]
    sc = scenario_module.load_scenario(str(root / "scenarios" / "burgers_driven.json"))
    assert scenario_module.run_scenario(sc, str(tmp_path), quiet=True) == 0
    (traj,) = trajs
    columns = [traj.times, traj.norms()]
    if traj.alpha_norms is not None:
        columns.append(traj.alpha_norms)
    columns.append(traj.coeffs)
    header, body = (tmp_path / "trajectory.csv").read_text().split("\n", 1)
    assert header.startswith("t,norm_X,")
    assert _first_difference(body, _rowwise_csv(columns)) is None
    mag = np.abs(traj.coeffs)
    assert np.any((mag >= 1e-5) & (mag < 1e-4))


def test_diagnostics_json_writes_what_asdict_wrote(tmp_path):
    sys = EvolutionSystem(heat_dirichlet_semigroup(4), arctan_saturation(4, gain=0.5))
    traj = solve(sys, SpectralState(np.array([1.0, 0.5, -0.25, 0.125])), None, 0.5)
    path = tmp_path / "diagnostics.json"
    trajectory_diagnostics_json(traj, str(path))
    payload = {
        "status": asdict(traj.status),
        "n_samples": int(traj.n_samples),
        "t_final": float(traj.times[-1]),
        "alpha": traj.alpha,
        "windows": [asdict(d) for d in traj.diagnostics],
    }
    assert len(traj.diagnostics) > 1
    assert path.read_text() == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_export_determinism(tmp_path):
    sg = heat_dirichlet_semigroup(4)
    sys = EvolutionSystem(sg, zero_nonlinearity(4))
    x0 = SpectralState(np.array([1.0, 0.5, -0.25, 0.125]))

    paths = []
    for tag in ("a", "b"):
        traj = solve(sys, x0, None, 0.5)
        csv = tmp_path / f"traj_{tag}.csv"
        js = tmp_path / f"diag_{tag}.json"
        trajectory_to_csv(traj, str(csv))
        trajectory_diagnostics_json(traj, str(js))
        paths.append((csv.read_bytes(), js.read_bytes()))
    assert paths[0] == paths[1]
    header = paths[0][0].decode().splitlines()[0]
    assert header == "t,norm_X,coeff_1,coeff_2,coeff_3,coeff_4"
    payload = json.loads(paths[0][1])
    assert payload["status"]["kind"] == "completed"
    assert payload["windows"]


@settings(max_examples=15, deadline=None)
@given(
    mu_val=st.floats(-5.0, 0.5),
    x0_val=st.floats(-2.0, 2.0),
    t_end=st.floats(0.1, 1.5),
)
def test_linear_scalar_solutions_property(mu_val, x0_val, t_end):
    sg = DiagonalSemigroup(mu=np.array([mu_val]), omega=mu_val + 1.0)
    sys = EvolutionSystem(sg, zero_nonlinearity(1))
    traj = solve(sys, SpectralState(np.array([x0_val])), None, t_end)
    want = x0_val * np.exp(mu_val * traj.times[-1])
    assert traj.final_state().coeffs[0] == pytest.approx(want, abs=1e-9)
