"""The window kernel against a frozen copy of its allocating form, bit for bit,
and the semigroup's memo of window integrals.

_reference_window below is the Picard window as it stood before the kernel
wrote its products into scratch blocks and skipped the X-mode unit weights:
every product a fresh temporary, c[d:] += E^d c[:-d] per scan step, y / w
and g * w with exact-one weights, and the window's linear part built cold
(no memo).  The kernel must match it exactly, memo cold and warm.
"""

import math
from functools import reduce

import numpy as np
import pytest

from semiflow import (
    Bounded,
    DenseGenerator,
    DiagonalSemigroup,
    EvolutionSystem,
    InputOperator,
    PolySignal,
    SolverConfig,
    SpectralState,
    deviation_suite,
    heat_dirichlet_semigroup,
    make_nonlinearity,
    solve,
)
from semiflow import semigroup as semigroup_module
from semiflow.burgers import BurgersSystem
from semiflow.core import _max_row_norm
from semiflow.nonlinearities import arctan_saturation
from semiflow.semigroup import _PLAN_MEMO_BYTES, poly_exp_integral
from semiflow.solver import MAX_PICARD_ITERS, _picard_window_raw


def _act_ref(M, x):
    return M * x if M.ndim == 1 else x @ M.T


def _scan_ref(c, powers):
    for k in range((c.shape[0] - 1).bit_length()):
        d = 1 << k
        c[d:] += _act_ref(powers[k], c[:-d])
    return c


def _diagonal_window_ref(sg, t1, S, x0, forcing):
    tau, powers, A1, A2, T = sg._plan(t1, S)
    free = T * x0[None, :]
    lin = free
    if forcing:
        ints = [poly_exp_integral(sg.mu, tau[:, None], k)
                for k in range(max(map(len, forcing)))]
        lin = free + reduce(np.add, [sum(r * I for r, I in zip(rows, ints))
                                     for rows in forcing])
    return tau, powers, A1, A2, free, lin


def _dense_window_ref(sg, t1, S, x0, forcing):
    h = t1 / S
    d = forcing[0].shape[0] - 1 if forcing else 0
    E, P1, P2, *Q = sg.propagators(h, d)
    tau, *powers = sg._plan(t1, S, E)
    c = np.zeros((S + 1, 2, sg.n_modes))
    c[0] = x0
    if forcing:
        Bp = reduce(np.add, forcing)
        Q = [P1, h * P2] + Q
        c[1:, 1] = reduce(np.add, [
            np.multiply.outer(math.comb(i, k) * tau[:-1] ** (i - k), Q[k] @ Bp[i])
            for k in range(d + 1) for i in range(k, d + 1)])
    _scan_ref(c, powers)
    return tau, powers, P1 - P2, P2, c[:, 0], c[:, 1]


def _reference_window(sys, x0, p, t1, cfg):
    """(tau, y, iters, contraction) of the frozen kernel."""
    forcing = [np.array([op.apply(pk) for pk in p.coeffs[:, cols]])
               for op, cols in zip(sys.input_blocks, sys.input_columns)]
    build = _dense_window_ref if isinstance(sys.semigroup, DenseGenerator) \
        else _diagonal_window_ref
    tau, powers, A1, A2, free, lin = build(
        sys.semigroup, t1, cfg.substeps_per_window, x0, forcing)
    w = sys.weights[None, :]
    lin_w = lin * w
    y = free * w
    u_vals = p.value(tau)
    scale = max(1.0, _max_row_norm(lin_w))
    ratio_floor = max(10.0 * cfg.picard_tol, 1e-13 * scale)
    contraction = 0.0
    prev_delta = None
    conv = np.zeros_like(y)
    for k in range(MAX_PICARD_ITERS):
        g = sys.f.batch(y / w, u_vals)
        if sys.B2 is not None:
            g = g @ sys.B2.coeffs.T
        g = g * w
        conv[1:] = _act_ref(A1, g[:-1]) + _act_ref(A2, g[1:])
        _scan_ref(conv[1:], powers)
        y_new = lin_w + conv
        delta = _max_row_norm(y_new - y)
        y = y_new
        if prev_delta is not None and prev_delta > ratio_floor:
            contraction = max(contraction, delta / prev_delta)
        if delta <= cfg.picard_tol * scale:
            return tau, y, k + 1, contraction
        prev_delta = delta
    raise AssertionError("the reference window did not converge")


def _diagonal_case(degree, with_b2):
    rng = np.random.default_rng([12, degree, with_b2])
    n = 12
    B2 = None
    if with_b2:
        B2 = InputOperator(0.3 * rng.normal(size=(n, n)) / math.sqrt(n), Bounded())
    sys = EvolutionSystem(heat_dirichlet_semigroup(n),
                          arctan_saturation(n, gain=0.4, input_gain=0.5),
                          B=InputOperator(rng.normal(size=(n, 2)), Bounded()), B2=B2)
    return sys, rng.normal(size=n), PolySignal(rng.normal(size=(degree + 1, 2)))


def _analytic_case():
    rng = np.random.default_rng(16)
    burgers = BurgersSystem(16)
    sys = burgers.system(u_present=True, d_present=True)
    x0 = 0.3 * rng.normal(size=16) / np.arange(1.0, 17.0) ** 2
    return sys, x0, PolySignal(0.2 * rng.normal(size=(1, 17)))


def _dense_case(degree):
    rng = np.random.default_rng([8, degree])
    n = 8
    A = -np.diag(np.arange(1.0, n + 1.0)) + np.triu(rng.uniform(-1.5, 1.5, (n, n)), 1)
    B = InputOperator(rng.normal(size=(n, 2)), Bounded())
    sys = EvolutionSystem(DenseGenerator(A), arctan_saturation(n, gain=0.4, input_gain=0.5),
                          B=B)
    return sys, rng.normal(size=n), PolySignal(rng.normal(size=(degree + 1, 2)))


CASES = {
    "diagonal_constant": lambda: _diagonal_case(0, False),
    "diagonal_cubic": lambda: _diagonal_case(3, False),
    "diagonal_constant_B2": lambda: _diagonal_case(0, True),
    "diagonal_cubic_B2": lambda: _diagonal_case(3, True),
    "analytic_burgers": _analytic_case,
    "dense_constant": lambda: _dense_case(0),
    "dense_quadratic": lambda: _dense_case(2),
}


@pytest.mark.parametrize("S", [8, 9, 16, 17, 64])
@pytest.mark.parametrize("case", sorted(CASES))
def test_window_kernel_matches_frozen_reference_bit_for_bit(case, S):
    sys, x0, p = CASES[case]()
    cfg = SolverConfig(substeps_per_window=S)
    t1 = 0.01 if case == "analytic_burgers" else 0.1
    tau_ref, y_ref, iters_ref, ratio_ref = _reference_window(sys, x0, p, t1, cfg)
    assert iters_ref > 2
    # the first call builds the plan (and the integrals), the second reads the memo
    for _ in range(2):
        tau, y, iters, ratio = _picard_window_raw(sys, x0, p, t1, cfg)
        assert np.array_equal(tau, tau_ref)
        assert np.array_equal(y, y_ref)
        assert (iters, ratio) == (iters_ref, ratio_ref)


def _forcing(rng, n, d):
    return [rng.normal(size=(d, n)), rng.normal(size=(d, n))]


@pytest.mark.parametrize("d", [1, 2, 4])
def test_warm_window_equals_cold_build(d):
    rng = np.random.default_rng(d)
    n, S, t1 = 12, 16, 0.0625
    x0, forcing = rng.normal(size=n), _forcing(rng, n, d)
    warm = heat_dirichlet_semigroup(n)
    first = warm.window(t1, S, x0, forcing)
    assert ("I", t1, S, d) in warm._memo._store
    second = warm.window(t1, S, x0, forcing)
    cold = heat_dirichlet_semigroup(n).window(t1, S, x0, forcing)
    for a, b, c in zip(first, second, cold):
        assert np.array_equal(a, c) and np.array_equal(b, c)
    # and equal to the integrals built without the memo
    want = _diagonal_window_ref(warm, t1, S, x0, forcing)
    assert np.array_equal(second[5], want[5])


def test_window_memo_stays_within_budget_over_a_12_mode_suite(monkeypatch):
    get = semigroup_module._ArrayMemo.get
    seen = []

    def checked(self, key, compute):
        arrays = get(self, key, compute)
        held = sum(a.nbytes for entry in self._store.values() for a in entry)
        assert held == self.nbytes <= self.budget
        seen.append(key[0])
        return arrays

    monkeypatch.setattr(semigroup_module._ArrayMemo, "get", checked)
    n = 12
    sg = DiagonalSemigroup(mu=-np.arange(1.0, n + 1.0) ** 2, omega=1.0, analytic=True)
    sys = EvolutionSystem(sg, arctan_saturation(n, gain=0.4, input_gain=0.5),
                          B=InputOperator.identity(n))
    cfg = SolverConfig(substeps_per_window=16)
    rep = deviation_suite(sys, tau=0.4, n_pairs=3, seed=5, cfg=cfg)
    assert rep.passed
    assert "I" in seen and "W" in seen
    assert sg._memo.nbytes <= _PLAN_MEMO_BYTES


@pytest.mark.parametrize("d", [3, 4])
def test_integrals_over_budget_are_not_kept_and_evict_no_plan(d):
    # boundary_poly's size: 128 modes, 32 substeps, a cubic or quartic input
    rng = np.random.default_rng(d)
    n, S, t1 = 128, 32, 0.05
    sg = heat_dirichlet_semigroup(n)
    x0 = rng.normal(size=n)
    sg.window(t1, S, x0, [])
    held = dict(sg._memo._store)
    nbytes = sg._memo.nbytes
    assert list(held) == [("W", t1, S)]
    assert d * (S + 1) * n * 8 > _PLAN_MEMO_BYTES
    forcing = _forcing(rng, n, d)
    got = sg.window(t1, S, x0, forcing)
    assert list(sg._memo._store) == [("W", t1, S)]
    assert sg._memo.nbytes == nbytes
    assert all(sg._memo._store[k] is v for k, v in held.items())
    assert np.array_equal(got[5], _diagonal_window_ref(sg, t1, S, x0, forcing)[5])


def test_blowup_ends_at_the_first_sample_over_the_threshold():
    # the scalar blow-up run of the props_diag workload, end to end through
    # the buffered kernel and the crossing search
    sys = EvolutionSystem(DiagonalSemigroup(mu=np.array([-1.0]), omega=0.5),
                          make_nonlinearity("scalar_square", 1))
    traj = solve(sys, SpectralState([2.0]), None, 2.0, SolverConfig(substeps_per_window=16))
    assert traj.status.kind == "blowup"
    assert math.log(2.0) * (1.0 - 1e-3) <= traj.status.t_blowup <= math.log(2.0)
    norms = np.linalg.norm(traj.coeffs, axis=1)
    assert norms[-1] >= SolverConfig().blowup_threshold > norms[-2]
