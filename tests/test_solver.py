import json
import math

import numpy as np
import pytest
import scipy.integrate
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
from semiflow.nonlinearities import arctan_saturation, scalar_square
from semiflow.solver import (
    StepSelectionError,
    _mittag_leffler,
    convolve_poly,
    picard_window,
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


def test_dense_linear_against_ivp_oracle():
    A = np.array([[0.0, 1.0], [-2.0, -0.3]])
    gen = DenseGenerator(A)
    B = InputOperator(np.array([[0.0], [1.0]]), Bounded())
    sys = EvolutionSystem(gen, zero_nonlinearity(2), B=B)
    u = InputSignal(np.array([0.0, 0.5, 1.0]), np.array([[1.0], [-1.0]]))
    x0 = np.array([1.0, 0.0])
    traj = solve(sys, SpectralState(x0), u, 1.0)

    def rhs(t, x):
        return A @ x + B.coeffs[:, 0] * (1.0 if t < 0.5 else -1.0)

    sol = scipy.integrate.solve_ivp(rhs, (0.0, 1.0), x0, rtol=1e-12, atol=1e-13,
                                    max_step=0.01)
    assert np.linalg.norm(traj.final_state().coeffs - sol.y[:, -1]) <= 1e-8


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
        assert sys.input_gain(t) == pytest.approx(2.0 * _phi1_bound(0.5, t), rel=1e-14)
    assert sys.input_gain(0.0) == 0.0
    assert EvolutionSystem(sg, nl).input_gain(0.5) == 0.0
    # a bare q-admissibility declaration gets the truncation-level bound on
    # B and no zero-class certificate on B2
    Bq = InputOperator(np.array([[0.0], [3.0], [4.0]]), QAdmissible(2.0))
    sys_q = EvolutionSystem(sg, nl, B=Bq, B2=Bq)
    assert sys_q.input_gain(0.5) == pytest.approx(5.0 * _phi1_bound(0.5, 0.5), rel=1e-14)
    with pytest.raises(ValueError, match="q_admissible"):
        sys_q.gain(0.5)


def test_input_gain_smooth_class_x_mode():
    sg = heat_dirichlet_semigroup(16)
    n = np.arange(1, 17, dtype=float)
    B = InputOperator(n * np.sqrt(2 / np.pi), SmoothClass(0.2))
    sys = EvolutionSystem(sg, zero_nonlinearity(16), B=B)
    # M = 1, lam = 0: the smaller of |B| t and the t^alpha smoothing bound;
    # the first is smaller at t = 0.01, the second at t = 1
    assert sys.input_gain(0.01) == pytest.approx(0.01 * B.norm(), rel=1e-14)
    assert sys.input_gain(1.0) == upper_bound_h(sg, B, 0.0, 1.0) < B.norm()
    # without analyticity only the bounded-operator bound is certified
    plain = DiagonalSemigroup(mu=-(n ** 2), omega=1.0)
    assert EvolutionSystem(plain, zero_nonlinearity(16), B=B).input_gain(0.5) \
        == pytest.approx(0.5 * B.norm(), rel=1e-14)


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
    C = sg.smoothing_constant(0.5, kappa=0.0)
    for t in (0.01, 0.25):
        assert sys.gain(t) == pytest.approx(2.0 * C * np.sqrt(t), rel=1e-14)
        assert sys.input_gain(t) == pytest.approx(sys.gain(t), rel=1e-14)
    smooth = InputOperator(n ** -1.0, SmoothClass(0.8))
    sys_s = EvolutionSystem(sg, nl, B=smooth, analytic_alpha=0.5)
    assert sys_s.input_gain(0.25) == upper_bound_h(sg, smooth, 0.5, 0.25)
    # a smoothness deficit falls back to |(omega - A)^alpha B| M t at lam = 0
    rough = InputOperator(n * np.sqrt(2 / np.pi), SmoothClass(0.2))
    sys_r = EvolutionSystem(sg, nl, B=rough, analytic_alpha=0.5)
    assert sys_r.input_gain(0.25) == pytest.approx(
        0.25 * np.linalg.norm(w * rough.coeffs[:, 0]), rel=1e-14)


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
    assert sys.input_gain(t) == pytest.approx(5.0 * _phi1_bound(lam, t), rel=1e-14)


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


def test_picard_window_refuses_breakpoint_inside_window():
    sg = heat_dirichlet_semigroup(4)
    sys = EvolutionSystem(sg, zero_nonlinearity(4),
                          B=InputOperator(np.eye(4)[:, :1], Bounded()))
    u = InputSignal(np.array([0.0, 0.05, 0.2]), np.array([[1.0], [-1.0]]))
    with pytest.raises(ValueError, match="breakpoint"):
        picard_window(sys, SpectralState.zero(4), u, 0.125)
    # a window that ends on the breakpoint is fine
    tau, states, _ = picard_window(sys, SpectralState.zero(4), u, 0.05)
    assert tau[-1] == 0.05


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


def test_picard_window_returns_X_coordinates():
    sg = heat_dirichlet_semigroup(8)
    sys = EvolutionSystem(sg, zero_nonlinearity(8), analytic_alpha=0.25)
    x0 = SpectralState.basis(8, 0, 0.7)
    tau, states, diag = picard_window(sys, x0, None, 0.125)
    assert tau[0] == 0.0 and tau[-1] == 0.125
    assert states[0].coeffs[0] == pytest.approx(0.7)
    assert states[-1].coeffs[0] == pytest.approx(0.7 * np.exp(-0.125), rel=1e-10)


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
        SolverConfig(contraction_target=1.5)
    with pytest.raises(ValueError):
        SolverConfig(picard_tol=0.0)


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
