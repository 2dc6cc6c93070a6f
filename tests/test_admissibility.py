import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semiflow import (
    AdmissibilityEstimate,
    Bounded,
    DenseGenerator,
    DiagonalSemigroup,
    EvolutionSystem,
    InputOperator,
    InputSignal,
    QAdmissible,
    SmoothClass,
    c_constant,
    convolve,
    estimate_admissibility,
    heat_dirichlet_semigroup,
    measure_h,
    upper_bound_h,
    zero_nonlinearity,
)
from semiflow.admissibility import outside_x_alpha


def riemann_convolve(sys, B, u, t, n_per_cell=50000):
    """Midpoint-rule oracle for the input convolution, split at input cells."""
    out = np.zeros(sys.n_modes)
    for i in range(u.values.shape[0]):
        a = float(u.grid[i])
        b = float(min(u.grid[i + 1], t))
        if a >= t:
            break
        w = (b - a) / n_per_cell
        s = a + w * (np.arange(n_per_cell) + 0.5)
        kernel_sum = np.exp(sys.mu[:, None] * (t - s)[None, :]).sum(axis=1) * w
        out += B.apply(u.values[i]) * kernel_sum
    return out


def boundary_like_operator(n_modes, alpha=0.2):
    n = np.arange(1, n_modes + 1, dtype=float)
    return InputOperator(n * np.sqrt(2.0 / np.pi), SmoothClass(alpha))


def test_convolve_matches_riemann_sum():
    sys = heat_dirichlet_semigroup(8)
    rng = np.random.default_rng(11)
    B = InputOperator(rng.normal(size=(8, 2)), Bounded())
    u = InputSignal(
        np.array([0.0, 0.25, 0.5, 0.75]),
        rng.normal(size=(3, 2)),
    )
    for t in (0.1, 0.4, 0.6):
        got = convolve(sys, B, u, t)
        want = riemann_convolve(sys, B, u, t)
        assert np.linalg.norm(got - want) <= 1e-8 * max(1.0, np.linalg.norm(want))


def test_convolve_zero_horizon_and_guards():
    sys = heat_dirichlet_semigroup(4)
    B = InputOperator.identity(4)
    u = InputSignal.constant(np.ones(4), 0.5)
    assert np.all(convolve(sys, B, u, 0.0) == 0.0)
    with pytest.raises(ValueError):
        convolve(sys, B, u, 0.8)  # beyond the input horizon
    with pytest.raises(ValueError):
        convolve(heat_dirichlet_semigroup(5), B, u, 0.3)


def test_single_mode_h_closed_form_inf():
    # one mode, mu = -1, b = 1, sup-norm probes: the positive constant input
    # is optimal and gives h_t = 1 - e^{-t} exactly
    sys = DiagonalSemigroup(mu=np.array([-1.0]), omega=1.0)
    B = InputOperator(np.array([1.0]), Bounded())
    for t in (0.25, 1.0, 3.0):
        lower, upper = measure_h(sys, B, t, q=np.inf)
        assert lower == pytest.approx(1.0 - np.exp(-t), rel=1e-12)
        assert upper == pytest.approx(t, rel=1e-12)  # lam = 0 truncation bound
        assert lower <= upper


def test_single_mode_h_closed_form_l2():
    # integrator mode mu = 0: h_t = sup_{|u|_2 <= 1} int_0^t u = sqrt(t),
    # attained by the full-width normalized impulse the probe family contains
    sys = DiagonalSemigroup(mu=np.array([0.0]), omega=1.0)
    B = InputOperator(np.array([1.0]), QAdmissible(2.0))
    for t in (0.3, 1.0, 2.5):
        lower, upper = measure_h(sys, B, t, q=2.0)
        assert lower == pytest.approx(np.sqrt(t), rel=1e-12)
        assert upper == pytest.approx(np.sqrt(t), rel=1e-12)


def test_measure_h_guards():
    sys = heat_dirichlet_semigroup(4)
    B = InputOperator.identity(4)
    assert measure_h(sys, B, 0.0) == (0.0, 0.0)
    with pytest.raises(ValueError):
        measure_h(sys, B, 0.5, q=3.0)
    with pytest.raises(ValueError):
        measure_h(sys, B, -1.0)


def test_c_constant_closed_forms():
    growing = DiagonalSemigroup(mu=np.array([1.0]), omega=2.0)
    # M (e^{lam t} - 1)/lam with lam = 1 at t = ln 2 is exactly 1
    assert c_constant(growing, None, np.log(2.0)) == pytest.approx(1.0, rel=1e-13)
    flat = DiagonalSemigroup(mu=np.array([-1.0]), omega=1.0)
    # lam = 0 reads as |B2| M t
    B2 = InputOperator(np.array([[2.0]]), Bounded())
    assert c_constant(flat, B2, 0.3) == pytest.approx(0.6, rel=1e-13)
    assert c_constant(flat, None, 0.3) == pytest.approx(0.3, rel=1e-13)


def test_c_constant_dense_generator_takes_the_truncation_bound():
    # the smoothing constants are diagonal-only: c_t is M t at lam = 0
    dense = DenseGenerator(np.array([[-1.0, 0.5], [0.0, -2.0]]))
    assert c_constant(dense, None, 0.1) == 0.1


def test_c_constant_refuses_bare_q_admissibility():
    sys = heat_dirichlet_semigroup(4)
    B2 = InputOperator(np.ones(4), QAdmissible(2.0))
    with pytest.raises(ValueError):
        c_constant(sys, B2, 0.5)


def test_c_constant_smooth_class_scales_like_t_alpha():
    sys = heat_dirichlet_semigroup(32)
    B2 = boundary_like_operator(32, alpha=0.2)
    u1 = upper_bound_h(sys, B2, 0.0, 0.01)
    u2 = upper_bound_h(sys, B2, 0.0, 0.02)
    # kappa = omega0 + 1 = 0 for the heat family, so the ratio is exactly 2^alpha
    assert u2 / u1 == pytest.approx(2.0 ** 0.2, rel=1e-12)
    # c_t is the smaller of the truncation bound |B2| M t phi1(lam t) (M = 1,
    # lam = 0) and the smoothing bound; the first is the smaller here
    for t, u in ((0.01, u1), (0.02, u2)):
        assert B2.norm() * t < u
        assert c_constant(sys, B2, t) == min(B2.norm() * t, u)


def test_upper_bound_h_guards():
    sys = heat_dirichlet_semigroup(8)
    bounded = InputOperator.identity(8)
    with pytest.raises(ValueError):
        upper_bound_h(sys, bounded, 0.0, 0.1)
    B = boundary_like_operator(8)
    with pytest.raises(ValueError):
        upper_bound_h(sys, B, 0.3, 0.1)  # d >= alpha
    lazy = DiagonalSemigroup(mu=np.array([-1.0]), omega=1.0)  # not analytic
    with pytest.raises(ValueError):
        upper_bound_h(lazy, InputOperator(np.array([1.0]), SmoothClass(0.2)), 0.0, 0.1)


def test_upper_bound_dominates_measured_lower():
    sys = heat_dirichlet_semigroup(32)
    B = boundary_like_operator(32)
    for t in 2.0 ** np.arange(-8.0, -1.0):
        lower, upper = measure_h(sys, B, float(t))
        cert = upper_bound_h(sys, B, 0.0, float(t))
        assert lower <= cert * (1 + 1e-12)
        assert lower <= upper


def test_estimate_slope_on_resolved_grid():
    # restrict to t >= 2^-8 so every grid point resolves the truncated
    # operator's smoothing regime at N = 32; the fitted rate then sits in
    # the t^alpha band rather than the bounded slope-1 regime
    sys = heat_dirichlet_semigroup(32)
    B = boundary_like_operator(32)
    est = estimate_admissibility(sys, B, t_grid=2.0 ** np.arange(-8.0, -1.0))
    assert np.all(est.h_values > 0)
    assert 0.2 <= est.fitted_exponent <= 0.5
    assert np.all(np.diff(est.h_values) >= -1e-12)


def test_estimate_validation():
    with pytest.raises(ValueError):
        AdmissibilityEstimate(np.array([0.1, 0.2]), np.array([1.0, 0.5]), 0.0)
    with pytest.raises(ValueError):
        AdmissibilityEstimate(np.array([0.2, 0.1]), np.array([0.5, 1.0]), 0.0)


def test_ladder_ratio_separates_classes():
    sys = heat_dirichlet_semigroup(64)
    b = np.arange(1, 65, dtype=float) * np.sqrt(2.0 / np.pi)
    # in X_{-1} coordinates the boundary column decays, so the top half of
    # the mode ladder carries almost nothing
    assert not outside_x_alpha(sys.frac_weights(-1.0) * b)
    # unweighted, the mass is still climbing with the cutoff
    assert outside_x_alpha(b)
    assert not outside_x_alpha(np.zeros(64))


def test_operator_norms():
    sys = heat_dirichlet_semigroup(3)
    B = InputOperator(np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]]), Bounded())
    assert B.norm() == pytest.approx(2.0)
    w = sys.frac_weights(-1.0)
    assert B.weighted_norm(sys, -1.0) == pytest.approx(
        np.linalg.norm(w[:, None] * B.coeffs, 2)
    )
    assert B.m == 2 and B.n_modes == 3


def test_weighted_norm_cache_follows_the_semigroup():
    # semigroups built and dropped in turn may share an address; a cache
    # keyed by that address answered with an earlier semigroup's norm
    B = InputOperator(np.ones(4), SmoothClass(0.5))
    for k in range(200):
        sys = DiagonalSemigroup(mu=-np.arange(1.0, 5.0) ** 2, omega=1.0 + k, analytic=True)
        w = sys.frac_weights(0.5)[:, None]
        assert B.weighted_norm(sys, 0.5) == float(np.linalg.norm(w * B.coeffs, 2))


def test_operator_class_validation():
    with pytest.raises(ValueError):
        QAdmissible(0.5)
    with pytest.raises(ValueError):
        SmoothClass(0.0)
    with pytest.raises(ValueError):
        SmoothClass(1.5)
    assert Bounded().describe() == "bounded"
    assert "0.2" in SmoothClass(0.2).describe()


@settings(max_examples=20, deadline=None)
@given(
    t=st.floats(0.01, 2.0),
    seed=st.integers(0, 50),
)
def test_measured_lower_never_beats_certified_upper(t, seed):
    rng = np.random.default_rng(seed)
    sys = heat_dirichlet_semigroup(6)
    B = InputOperator(rng.normal(size=(6, 1)), Bounded())
    lower, upper = measure_h(sys, B, t)
    assert lower <= upper * (1 + 1e-12)


def test_measure_h_reports_upper_as_computed():
    # mu = 1 grows like e^t; the constructor refuses lam = 0, so forge it to
    # see that measure_h reports the broken bracket instead of hiding it
    sys = DiagonalSemigroup(mu=np.array([1.0]), omega=2.0)
    object.__setattr__(sys, "lam", 0.0)
    B = InputOperator(np.array([1.0]), Bounded())
    lower, upper = measure_h(sys, B, 1.0)
    assert lower == pytest.approx(np.e - 1.0, rel=1e-12)
    assert upper == 1.0


@pytest.mark.parametrize("shift", [4.0, 9.0, 30.0])
@pytest.mark.parametrize("a", [0.2, 0.6, 0.9])
def test_smoothing_bound_sound_below_zero_kappa(shift, a):
    # mu = -n^2 - shift gives kappa = omega0 + 1 = -shift < 0; the kernel
    # integral int_0^t s^-beta e^{kappa s} ds needs e^{kappa_+ t}, not the
    # e^{kappa t} that decays below the exact response
    n = np.arange(1, 33, dtype=float)
    sg = DiagonalSemigroup(mu=-(n ** 2) - shift, omega=1.0, lam=0.0, analytic=True)
    B = InputOperator(n ** (0.5 - a) * np.sqrt(2.0 / np.pi), SmoothClass(a))
    f = zero_nonlinearity(32)
    systems = {0.0: EvolutionSystem(sg, f, B=B),
               0.1: EvolutionSystem(sg, f, B=B, analytic_alpha=0.1)}
    for d, sys_d in systems.items():
        for t in np.logspace(-4.0, 0.0, 13):
            # the response to u = 1, per mode b_n (1 - e^{mu_n t}) / (-mu_n)
            resp = B.coeffs[:, 0] * -np.expm1(sg.mu * t) / -sg.mu
            exact = float(np.linalg.norm(sg.frac_weights(d) * resp))
            assert exact <= upper_bound_h(sg, B, d, float(t))
            assert exact <= sys_d.input_gain(float(t))[0]


def _probe_by_probe(sys, B, t, q, k_cells):
    """measure_h's lower bound from one InputSignal per probe through convolve."""
    best = 0.0
    if q == np.inf:
        grid = np.linspace(0.0, t, k_cells + 1)
        for ch in range(B.m):
            for mask in range(2 ** k_cells):
                values = np.zeros((k_cells, B.m))
                values[:, ch] = [1.0 if mask >> i & 1 else -1.0 for i in range(k_cells)]
                u = InputSignal(grid, values)
                best = max(best, float(np.linalg.norm(convolve(sys, B, u, t))))
        return best
    for j in range(14):
        width = t * 2.0 ** (-j)
        for start in (0.0, t - width, (t - width) / 2.0):
            a = min(max(start, 0.0), t - width)
            pts = sorted({0.0, a, a + width, t})
            for ch in range(B.m):
                values = np.zeros((len(pts) - 1, B.m))
                values[pts.index(a), ch] = 1.0 / np.sqrt(width)
                u = InputSignal(np.array(pts), values)
                best = max(best, float(np.linalg.norm(convolve(sys, B, u, t))))
    return best


@pytest.mark.parametrize("q", [np.inf, 2.0])
def test_measure_h_matches_probe_by_probe_reference(q):
    sys = heat_dirichlet_semigroup(8)
    B = InputOperator(np.array([[1.0, -0.5], [-2.0, 0.3], [1.5, 1.0], [-0.7, -2.0],
                                [0.4, 0.9], [-1.1, 0.2], [2.2, -1.3], [-0.6, 0.8]]),
                      Bounded())
    f = zero_nonlinearity(8)
    for t in (0.05, 0.3, 1.0):
        lower, upper = measure_h(sys, B, t, q=q)
        assert lower == pytest.approx(_probe_by_probe(sys, B, t, q, 8), rel=1e-14)
        if q == np.inf:
            assert upper == EvolutionSystem(sys, f, B=B).input_gain(t)[0]
