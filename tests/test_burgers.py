import math

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from semiflow import (
    EvolutionSystem,
    InputOperator,
    InputSignal,
    PolySignal,
    SmoothClass,
    SolverConfig,
    SpectralState,
    make_local_term,
    solve,
    stack_channels,
)
from semiflow.bcs import dirichlet_heat_0_pi
from semiflow.burgers import BurgersSystem, SineBasis
from semiflow.solver import convolve_poly


def project_mode(fn, k):
    """Quadrature oracle for the k-th sine coefficient of fn on (0, pi)."""
    scale = math.sqrt(2.0 / math.pi)
    val, _ = scipy.integrate.quad(lambda z: fn(z) * scale * np.sin(k * z),
                                  0.0, np.pi, limit=200)
    return val


def test_basis_round_trip():
    rng = np.random.default_rng(0)
    basis = SineBasis(24)
    a = rng.normal(size=24)
    back = basis.analyze(basis.values(a))
    assert np.linalg.norm(back - a) <= 1e-10


def test_basis_grid_norm_isometry():
    rng = np.random.default_rng(1)
    basis = SineBasis(16)
    a = rng.normal(size=16)
    assert basis.grid_norm(basis.values(a)) == pytest.approx(
        np.linalg.norm(a), rel=1e-12
    )


def test_basis_slope_is_exact_derivative():
    basis = SineBasis(8)
    a = np.zeros(8)
    a[2] = 1.5  # x = 1.5 sqrt(2/pi) sin(3z), x' = 4.5 sqrt(2/pi) cos(3z)
    _, dx = basis.values_and_slope(a)
    want = 4.5 * basis.scale * np.cos(3.0 * basis.z)
    assert np.allclose(dx, want, atol=1e-12)


def test_basis_guards():
    with pytest.raises(ValueError):
        SineBasis(0)
    with pytest.raises(ValueError):
        SineBasis(8, n_grid=10)  # below the 2N alias-free floor
    SineBasis(8, n_grid=16)  # exactly 2N is allowed


def test_F_of_sine_is_half_sine_2z():
    # x = sin z: F(x) = -sin z cos z = -(1/2) sin 2z, whose mode-2
    # coefficient is -(1/2) sqrt(pi/2); every other mode vanishes
    bs = BurgersSystem(16)
    a = np.zeros(16)
    a[0] = math.sqrt(math.pi / 2.0)  # x = sin z exactly
    Fa = bs.F_batch(a)
    want2 = -0.5 * math.sqrt(math.pi / 2.0)
    assert Fa[1] == pytest.approx(want2, rel=1e-12)
    rest = np.delete(Fa, 1)
    assert np.max(np.abs(rest)) <= 1e-12


def test_F_matches_quadrature_oracle():
    bs = BurgersSystem(12)
    rng = np.random.default_rng(7)
    a = rng.normal(size=12) * np.exp(-0.4 * np.arange(12))
    scale = bs.basis.scale

    def x_fn(z):
        return sum(a[n] * scale * np.sin((n + 1) * z) for n in range(12))

    def dx_fn(z):
        return sum(a[n] * scale * (n + 1) * np.cos((n + 1) * z) for n in range(12))

    Fa = bs.F_batch(a)
    for k in (1, 3, 8):
        want = project_mode(lambda z: -x_fn(z) * dx_fn(z), k)
        assert Fa[k - 1] == pytest.approx(want, abs=1e-10)


def test_F_with_reaction_term_quadrature():
    # tanh(x) is not band-limited, so the reaction-term projection carries
    # collocation error that dies out with the grid; the transport part
    # stays exact on every admissible grid
    lt = make_local_term("sine_tanh", {"amplitude": 0.3})
    scale = math.sqrt(2.0 / math.pi)

    def x_fn(z):
        return 1.2 * scale * np.sin(z)

    def rhs(z):
        return -x_fn(z) * 1.2 * scale * np.cos(z) \
            + 0.3 * np.sin(z) * np.tanh(x_fn(z))

    a = np.zeros(10)
    a[0] = 1.2
    coarse = BurgersSystem(10, local=lt).F_batch(a)
    fine = BurgersSystem(10, local=lt, n_grid=256).F_batch(a)
    for k in (1, 2, 4):
        want = project_mode(rhs, k)
        assert coarse[k - 1] == pytest.approx(want, abs=2e-5)
        assert fine[k - 1] == pytest.approx(want, abs=2e-9)


def test_lifting_coeffs_quadrature_oracle():
    # the lifting of the boundary value at z = 0 is the profile 1 - z/pi
    got = dirichlet_heat_0_pi(6).lifting[:, 0]
    for n in range(1, 5):
        want = project_mode(lambda z: 1.0 - z / math.pi, n)
        assert got[n - 1] == pytest.approx(want, rel=1e-10)
    n = np.arange(1, 7, dtype=float)
    assert np.allclose(got, math.sqrt(2.0 / math.pi) / n, rtol=1e-13)


def test_boundary_operator_coefficients_and_refusals():
    bs = BurgersSystem(8)
    B = bs.boundary_operator(0.2)
    n = np.arange(1, 9, dtype=float)
    assert np.allclose(B.coeffs[:, 0], n * math.sqrt(2.0 / math.pi))
    assert isinstance(B.declared_class, SmoothClass)
    for bad in (0.25, 0.3, 1.0, 0.0, -0.1):
        with pytest.raises(ValueError):
            bs.boundary_operator(bad)


def test_certified_inequalities_on_random_states():
    lt = make_local_term("sine_tanh", {"amplitude": 0.3})
    bs = BurgersSystem(32, local=lt)
    rng = np.random.default_rng(3)
    for _ in range(25):
        a = rng.normal(size=32) * np.exp(-0.2 * np.arange(32))
        a *= rng.uniform(0.2, 5.0) / max(np.linalg.norm(a), 1e-12)
        b = rng.normal(size=32) * np.exp(-0.2 * np.arange(32))
        x1, x2 = SpectralState(a), SpectralState(b)
        sup, sup_bound = bs.certify_sup_bound(x1)
        assert sup <= sup_bound + 1e-10
        lhs, rhs = bs.certify_F_bound(x1)
        assert lhs <= rhs + 1e-8
        lhs, rhs = bs.certify_lipschitz(x1, x2)
        assert lhs <= rhs + 1e-8


def test_nonlinearity_certificate_wrapper():
    bs = BurgersSystem(16)
    f = bs.nonlinearity()
    assert f.growth_c == 0.0  # F(0) = 0 without a reaction offset
    a = np.zeros(16)
    a[0] = math.sqrt(math.pi / 2.0)
    assert np.allclose(f(a, np.zeros(1)), bs.F_batch(a))
    # certificate is stated against the smoothness seminorm
    assert f.lipschitz(2.0) == pytest.approx(4.0 * math.sqrt(math.pi))


def test_steady_boundary_profile():
    # constant Dirichlet data d: the heat part relaxes onto the harmonic
    # lifting d (1 - z/pi), which is d/2 at midpoint; truncation of the
    # lifting series and the leftover transient keep ~10% at t = 3
    bs = BurgersSystem(16)
    d = InputSignal.constant(np.array([0.02]), 3.0)
    cfg = SolverConfig(substeps_per_window=32)
    traj = bs.simulate(SpectralState.zero(16), None, d, 3.0, cfg)
    assert traj.status.kind == "completed"
    z, vals = bs.physical_snapshot(traj.final_state())
    mid = vals[np.argmin(np.abs(z - math.pi / 2.0))]
    assert mid == pytest.approx(0.01, rel=0.15)


def test_truncation_refinement():
    # doubling N leaves the resolved modes untouched at short times: the
    # cascade beyond mode 16 is crushed by e^{-n^2 t}
    cfg = SolverConfig(substeps_per_window=32)
    finals = []
    for N in (16, 32):
        bs = BurgersSystem(N)
        x0 = SpectralState.basis(N, 0, 0.5)
        traj = bs.simulate(x0, None, None, 0.25, cfg)
        assert traj.status.kind == "completed"
        finals.append(traj.final_state().coeffs)
    assert np.linalg.norm(finals[0] - finals[1][:16]) <= 1e-12


def test_simulate_channel_validation():
    bs = BurgersSystem(8)
    with pytest.raises(ValueError, match="one channel per mode"):
        bs.simulate(SpectralState.zero(8),
                    InputSignal.constant(np.zeros(3), 1.0), None, 0.5)
    with pytest.raises(ValueError, match="scalar"):
        bs.simulate(SpectralState.zero(8), None,
                    InputSignal.constant(np.zeros(2), 1.0), 0.5)


def test_system_channel_assembly():
    bs = BurgersSystem(8)
    both = bs.system(True, True)
    assert both.input_channels == 9  # N distributed channels + 1 boundary channel
    assert both.input_regularity_deficit  # alpha = 0.2 below the order 1/2
    only_u = bs.system(True, False)
    assert only_u.input_channels == 8
    free = bs.system(False, False)
    assert free.B is None


def _stacked_system(bs: BurgersSystem) -> EvolutionSystem:
    """Both disturbances as one operator [I | b] under the boundary's class."""
    both = bs.system(True, True)
    coeffs = np.hstack([op.coeffs for op in both.input_blocks])
    return EvolutionSystem(bs.semigroup, both.f,
                           B=InputOperator(coeffs, SmoothClass(0.2)),
                           analytic_alpha=both.analytic_alpha)


@pytest.mark.parametrize("N", [16, 32])
def test_per_channel_input_bound_dominates_the_exact_response(N):
    # sum_i h_i(t) |u_i| against the working norm of the exact response to
    # constant inputs, and against the bound of the stacked operator.  The
    # inputs have the case study's sizes: the stacked constant is about the
    # boundary block's, so a boundary value far above the distributed one
    # would leave the split bound no smaller
    bs = BurgersSystem(N)
    sys, stacked = bs.system(True, True), _stacked_system(bs)
    sg = bs.semigroup
    rng = np.random.default_rng(N)
    modes = np.arange(1.0, N + 1.0)
    for k in range(1, 13):
        t = 2.0 ** -k
        gains = sys.input_gain(t)
        (h_stacked,) = stacked.input_gain(t)
        for _ in range(6):
            u = rng.normal(size=N) / modes
            u *= rng.uniform(0.1, 0.5) / np.linalg.norm(u)
            d = rng.uniform(-0.05, 0.05, size=1)
            resp = sum(convolve_poly(sg, op, PolySignal(v[None, :]), t)
                       for op, v in zip(sys.input_blocks, (u, d)))
            bound = gains[0] * np.linalg.norm(u) + gains[1] * abs(d[0])
            assert sys.working_norm(resp) <= bound
            assert bound < h_stacked * np.linalg.norm(np.append(u, d))


def test_two_channel_solve_agrees_with_the_stacked_block():
    # the case study's shape at 32 modes, where the boundary block's
    # truncation-level constant dominates the stacked one
    bs = BurgersSystem(32, local=make_local_term("sine_tanh", {"amplitude": 0.3}))
    rng = np.random.default_rng(5)
    modes = np.arange(1.0, 33.0)
    grid = np.array([0.0, 0.04, 0.1])
    u = rng.normal(size=(2, 32)) / modes
    u = InputSignal(grid, 0.3 * u / np.linalg.norm(u, axis=1, keepdims=True))
    d = InputSignal(grid, np.array([[0.03], [0.05]]))
    x0 = rng.normal(size=32) / modes ** 2
    x0 = SpectralState(0.3 * x0 / np.linalg.norm(x0))
    split = bs.simulate(x0, u, d, 0.1)
    joint = solve(_stacked_system(bs), x0, stack_channels(u, d), 0.1)
    assert split.status.kind == joint.status.kind == "completed"
    err = np.linalg.norm(split.final_state().coeffs - joint.final_state().coeffs)
    assert err <= 1e-8
    assert 2 * len(split.diagnostics) <= len(joint.diagnostics)


def test_physical_snapshot_shapes():
    bs = BurgersSystem(8)
    z, vals = bs.physical_snapshot(SpectralState.basis(8, 0))
    assert z.shape == vals.shape == (bs.basis.M,)
    assert np.allclose(vals, bs.basis.scale * np.sin(z), atol=1e-12)


@settings(max_examples=20, deadline=None)
@given(amp=st.floats(-3.0, 3.0), mode=st.integers(1, 8))
def test_single_mode_F_excites_double_mode_only(amp, mode):
    # -x x' for x on mode n lands exactly on mode 2n
    bs = BurgersSystem(16)
    a = np.zeros(16)
    a[mode - 1] = amp
    Fa = bs.F_batch(a)
    keep = np.zeros(16, bool)
    keep[2 * mode - 1] = True
    assert np.max(np.abs(Fa[~keep])) <= 1e-10 * max(1.0, amp * amp)


@pytest.mark.parametrize("N", [1, 7, 32, 128])
@pytest.mark.parametrize("grid", ["default", "2N", 256])
def test_basis_transforms_match_trig_sums(N, grid):
    # each transform against its defining sum, written point by point
    n_grid = {"default": None, "2N": 2 * N}.get(grid, grid)
    basis = SineBasis(N, n_grid)
    scale, dz = math.sqrt(2.0 / math.pi), math.pi / (basis.M + 1)
    z = np.arange(1, basis.M + 1) * (math.pi / (basis.M + 1))
    n = np.arange(1, N + 1)
    rng = np.random.default_rng(N)
    a = rng.normal(size=(3, N))
    v = rng.normal(size=(3, basis.M))
    x_want = np.array([[scale * np.sum(row * np.sin(n * zi)) for zi in z] for row in a])
    dx_want = np.array([[scale * np.sum(row * n * np.cos(n * zi)) for zi in z]
                        for row in a])
    a_want = np.array([[scale * dz * np.sum(row * np.sin(z * k)) for k in n]
                       for row in v])
    x, dx = basis.values_and_slope(a)
    got_want = [(basis.values(a), x_want), (x, x_want), (dx, dx_want),
                (basis.values(a[0]), x_want[0]), (basis.analyze(v), a_want),
                (basis.analyze(v[0]), a_want[0])]
    for got, want in got_want:
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_F_batch_rows_match_single_calls():
    N = 32
    bs = BurgersSystem(N, local=make_local_term("sine_tanh", {"amplitude": 0.3}))
    rng = np.random.default_rng(11)
    batch = rng.normal(size=(65, N)) / np.arange(1.0, N + 1.0)
    got = bs.F_batch(batch)
    want = np.array([bs.F_batch(row) for row in batch])
    assert got.shape == (65, N)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

