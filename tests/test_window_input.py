"""solve's window input against a frozen copy of the preamble it replaced.

_reference_input below is how solve read a window's input before
_window_input: shift the signal to the window start (a piecewise-constant
one through a shift that skipped InputSignal's validation), ask the
shifted signal for the sup of each block's columns and for the joint sup
over [0, cap], and turn it into the window's polynomial with _window_poly,
which refused a breakpoint inside the window.  _window_input must give the
same sups bit for bit, and the same polynomial wherever that guard let the
window through and solve's marks and the old sliver test agree (they part
only an ulp past t + 1e-13; see _assert_same_input).  The window starts
and caps are drawn the way solve makes them: t on a mark or strictly
inside a cell, cap = min(window_cap, next mark - t), the marks being the
input's breakpoints before t_end - 1e-13 and t_end.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from semiflow import (
    Bounded,
    EvolutionSystem,
    InputOperator,
    InputSignal,
    PolySignal,
    SolverConfig,
    SpectralState,
    heat_dirichlet_semigroup,
    solve,
)
from semiflow.nonlinearities import arctan_saturation
from semiflow.solver import _window_input

# B's channel blocks, as EvolutionSystem.input_columns lays them out; () is
# a system without B, where only the joint sup is read
COLUMNS = [(slice(0, 1),), (slice(0, 2),), (slice(0, 1), slice(1, 3)), ()]
# cells shorter than solve's 1e-13 mark spacing, and one just at it
SLIVERS = [1e-14, 5e-14, 9.9e-14, 1e-13]
WINDOW_CAPS = [1.0, 0.5, 0.05, 1e-3]


def _fast_shift(u, tau):
    """InputSignal.shift as it stood with its validation-skipping fork."""
    if tau < 0:
        raise ValueError("shift by a negative time")
    if tau >= u.horizon - 1e-15:
        raise ValueError("shift past the signal horizon")
    i = u._cell_index(tau, "right")
    new_grid = np.concatenate(([tau], u.grid[i + 1 :])) - tau
    new_grid[0] = 0.0
    new_grid.setflags(write=False)
    shifted = object.__new__(InputSignal)
    object.__setattr__(shifted, "grid", new_grid)
    object.__setattr__(shifted, "values", u.values[i:])
    return shifted


def _window_poly(u, t1):
    """u on [0, t1] as a polynomial; a piecewise-constant u must not break before t1."""
    if isinstance(u, PolySignal):
        return u
    i = min(int(np.searchsorted(u.grid, 1e-13, side="right")) - 1, u.values.shape[0] - 1)
    if u.grid[i + 1] < t1 - 1e-12:
        raise ValueError(f"input has a breakpoint at {u.grid[i + 1]:.6g} inside [0, {t1:.6g}]")
    return PolySignal(u.values[i : i + 1])


def _reference_input(u, t, cap, columns):
    """The shifted signal and its sups; _window_poly(shifted, cap) is p, for
    the window solve may select is at most cap long."""
    if t > 0:
        u = _fast_shift(u, t) if isinstance(u, InputSignal) else u.shift(t)
    block_sups = [u.sup_norm(0.0, cap, cols) for cols in columns]
    u_sup = block_sups[0] if len(block_sups) == 1 else u.sup_norm(0.0, cap)
    return u, block_sups, u_sup


def _solve_cap(u, t, t_end, window_cap):
    marks = {float(t_end)}
    if isinstance(u, InputSignal):
        marks.update(float(g) for g in u.grid if 0.0 < g < t_end - 1e-13)
    # solve's loop test t < t_end - 1e-13 and this one round apart below
    # about 2e-13, where next() finds no mark; solve would raise there too
    next_mark = next((m for m in sorted(marks) if m > t + 1e-13), None)
    assume(next_mark is not None)
    return min(window_cap, next_mark - t)


def _marks_and_slivers_disagree(u, t):
    """True when a breakpoint g ahead of t has g - t > 1e-13 but g <= t + 1e-13
    in floats: solve's marks skip it, the old sliver test did not."""
    g = u.grid[u.grid > t]
    return bool(np.any((g - t <= 1e-13) != (g <= t + 1e-13)))


def _assert_same_input(u, t, cap, columns):
    p, block_sups, u_sup = _window_input(u, t, cap, columns)
    try:
        shifted, block_ref, u_sup_ref = _reference_input(u, t, cap, columns)
    except ValueError as e:
        # the old preamble refused to shift to within 1e-15 of the horizon,
        # which solve reaches when t_end passes it (by up to 1e-12): that
        # window lies in the last cell, and p and the sups are that row's
        assert "past the signal horizon" in str(e)
        assert t >= u.horizon - 1e-15
        assert np.array_equal(p.coeffs, u.values[-1:])
        block_ref = [u.sup_norm(t, u.horizon, cols) for cols in columns]
        assert block_sups == block_ref
        assert u_sup == (block_ref[0] if len(block_ref) == 1 else u.sup_norm(t, u.horizon))
        return
    assert block_sups == block_ref
    assert u_sup == u_sup_ref
    disagree = isinstance(u, InputSignal) and _marks_and_slivers_disagree(u, t)
    try:
        p_ref = _window_poly(shifted, cap)
    except ValueError as e:
        # the guard fired on a breakpoint no mark stands on, so solve raised
        # on a window it had made: one the marks skip, or the horizon, which
        # t_end may pass by 1e-12
        assert "breakpoint" in str(e)
        assert disagree or t + cap > u.horizon
        return
    if disagree:
        # a window too short for the guard: p was the cell before the
        # skipped breakpoint and is now the one after it
        # (test_a_breakpoint_an_ulp_...)
        assert cap < 2e-12
        return
    assert p.coeffs.shape == p_ref.coeffs.shape
    assert np.array_equal(p.coeffs, p_ref.coeffs)


@st.composite
def piecewise_cases(draw):
    """(u, t, cap, columns) with t and cap as solve reaches them."""
    columns = draw(st.sampled_from(COLUMNS))
    m = columns[-1].stop if columns else 2
    widths = draw(st.lists(st.one_of(st.sampled_from(SLIVERS), st.floats(1e-3, 1.0)),
                           min_size=1, max_size=6))
    grid = np.concatenate(([0.0], np.cumsum(widths)))
    values = np.array(draw(st.lists(
        st.lists(st.floats(-1e3, 1e3), min_size=m, max_size=m),
        min_size=len(widths), max_size=len(widths))))
    u = InputSignal(grid, values)
    end = draw(st.sampled_from(["horizon", "below", "above", "last_cell"]))
    d = draw(st.floats(0.0, 1e-12))
    if end == "last_cell" and grid.shape[0] > 2:
        # the last cell starts within 1e-13 of t_end, so it is no mark
        t_end = grid[-2] + min(d, 9e-14)
    else:
        t_end = {"horizon": grid[-1], "below": grid[-1] - d,
                 "above": grid[-1] + d}.get(end, grid[-1])
    # a mark, or a point strictly inside a cell (after a bisected window)
    j = draw(st.integers(0, len(widths) - 1))
    frac = draw(st.sampled_from([0.0, 0.0, 0.5, draw(st.floats(0.0, 1.0, exclude_max=True))]))
    t = float(grid[j] + frac * (grid[j + 1] - grid[j]))
    # solve starts no window this close to t_end
    assume(t < t_end - 1e-13)
    cap = _solve_cap(u, t, t_end, draw(st.sampled_from(WINDOW_CAPS)))
    return u, t, cap, columns


@st.composite
def poly_cases(draw):
    columns = draw(st.sampled_from(COLUMNS))
    m = columns[-1].stop if columns else 2
    deg = draw(st.integers(0, 4))
    coeffs = np.array(draw(st.lists(
        st.lists(st.floats(-1e3, 1e3), min_size=m, max_size=m),
        min_size=deg + 1, max_size=deg + 1)))
    u = PolySignal(coeffs)
    t_end = draw(st.floats(1e-3, 5.0))
    t = draw(st.sampled_from([0.0, draw(st.floats(0.0, t_end))]))
    assume(t < t_end - 1e-13)
    cap = _solve_cap(u, t, t_end, draw(st.sampled_from(WINDOW_CAPS)))
    return u, t, cap, columns


# a breakpoint at 0.05 inside a [0, 0.2] horizon: the window from 0 is
# capped at the breakpoint, and p is the first cell's constant
_STEP = InputSignal(np.array([0.0, 0.05, 0.2]), np.array([[1.0], [-1.0]]))
# a window start 6.25e-16 short of the horizon, with t_end 2.1e-13 past it
_NEAR_HORIZON = (InputSignal(np.array([0.0, 1e-14, 2e-14, 3e-14]),
                             np.array([[1.0, 0.5], [-2.0, 0.0], [3.0, -4.0]])),
                 2.9375e-14, 2.1535283504594966e-13, (slice(0, 1), slice(1, 2)))


@settings(max_examples=400, deadline=None)
@given(piecewise_cases())
@example((_STEP, 0.0, 0.05, (slice(0, 1),)))
@example((_STEP, 0.05, 0.15, (slice(0, 1),)))
# a first sliver at t: it counts in the sups but not in p
@example((InputSignal(np.array([0.0, 0.25, 0.25 + 5e-14, 1.0]),
                      np.array([[1.0, 0.0], [9.0, -9.0], [2.0, 3.0]])),
          0.25, 0.75, (slice(0, 1), slice(1, 2))))
@example(_NEAR_HORIZON)
def test_window_input_matches_the_shifted_signal_bit_for_bit(case):
    u, t, cap, columns = case
    _assert_same_input(u, t, cap, columns)


@settings(max_examples=200, deadline=None)
@given(poly_cases())
def test_window_input_of_a_polynomial_matches_the_shifted_signal(case):
    u, t, cap, columns = case
    _assert_same_input(u, t, cap, columns)


def test_step_window_takes_the_first_cell_and_its_sup():
    p, block_sups, u_sup = _window_input(_STEP, 0.0, 0.05, (slice(0, 1),))
    assert np.array_equal(p.coeffs, [[1.0]])
    assert block_sups == [1.0] and u_sup == 1.0
    p, block_sups, u_sup = _window_input(_STEP, 0.05, 0.15, (slice(0, 1),))
    assert np.array_equal(p.coeffs, [[-1.0]])
    assert block_sups == [1.0] and u_sup == 1.0


@settings(max_examples=400, deadline=None)
@given(piecewise_cases())
@example(_NEAR_HORIZON)
def test_validated_shift_accepts_what_the_fast_shift_built(case):
    # InputSignal.shift goes through __post_init__ again; on every window
    # start above it builds the signal the fast shift built, and within
    # 1e-15 of the horizon both refuse
    u, t, _, _ = case
    if t >= u.horizon - 1e-15:
        for shift in (_fast_shift, InputSignal.shift):
            with pytest.raises(ValueError, match="past the signal horizon"):
                shift(u, t)
    elif t > 0:
        fast, checked = _fast_shift(u, t), u.shift(t)
        assert np.array_equal(checked.grid, fast.grid)
        assert np.array_equal(checked.values, fast.values)


def test_a_breakpoint_an_ulp_past_the_sliver_test_is_skipped_like_a_mark():
    # 0.5 + 1e-13 lies 1.0003e-13 past t = 0.5 but rounds to t + 1e-13, so
    # solve's marks skip it; the old preamble took the sliver [0.5, 0.5 + 1e-13)
    # for p and refused the window as crossing a breakpoint, and solve raised
    g = 0.5 + 1e-13
    assert g - 0.5 > 1e-13 and g <= 0.5 + 1e-13
    u = InputSignal(np.array([0.0, 0.5, g, 1.5]), np.array([[1.0], [7.0], [-2.0]]))
    with pytest.raises(ValueError, match="breakpoint"):
        _window_poly(_reference_input(u, 0.5, 1.0, (slice(0, 1),))[0], 1.0)
    p, block_sups, u_sup = _window_input(u, 0.5, 1.0, (slice(0, 1),))
    assert np.array_equal(p.coeffs, [[-2.0]])
    assert block_sups == [7.0] and u_sup == 7.0
    sys = EvolutionSystem(heat_dirichlet_semigroup(2), arctan_saturation(2, gain=0.5),
                          B=InputOperator(np.ones((2, 1)), Bounded()))
    traj = solve(sys, SpectralState(np.array([0.3, -0.1])), u, 1.5,
                 SolverConfig(substeps_per_window=8))
    assert traj.status.kind == "completed"
    starts = [d.t_start for d in traj.diagnostics]
    assert 0.5 in starts and g not in starts
