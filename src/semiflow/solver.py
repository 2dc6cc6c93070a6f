"""Mild-solution engine: contraction-certified Picard windows chained by the
cocycle property.

On each window [0, t1] the fixed-point map

    Phi_u(x)(tau) = T(tau) x0 + int_0^tau T_{-1}(tau - s) B u(s) ds
                  + int_0^tau T_{-1}(tau - s) B2 f(x(s), u(s)) ds

is iterated from the free evolution T(tau) x0.  The window length is chosen
so that the zero-class admissibility constant of the B2 channel times the
local Lipschitz constant stays below the contraction target, and so that
the invariance ball around the window's start state is certified.  The
window kernel gets the input as a polynomial p on the window (windows end
on the breakpoints of a piecewise-constant u, the constant p = u(0) there).
The semigroup's window method (DiagonalSemigroup.window, DenseGenerator.window)
turns it into the exact linear part on the whole substep grid, and into the
weights of the nonlinear term: piecewise-linear-in-time reconstruction of
the f samples with exact integration against T, so the only discretization
error is the O(h^2) reconstruction error.  Per Picard iteration that is the
recurrence conv_{j+1} = E conv_j + A1 g_j + A2 g_{j+1}, solved by one
doubling scan: ceil(log2(S+1)) array steps c[d:] += E^d c[:-d],
d = 1, 2, 4, ..., with the powers E^(2^k) formed once per window.

In analytic mode the iteration runs on y = (omega*I - A)^alpha x with the
singular-kernel window certificate; a bounded-generator dense-matrix mode
covers finite ODE systems with the same code path.  EvolutionSystem owns
the working norm (X, or X_alpha in analytic mode) and hands out the window
constants c_t (nonlinear channel) and h_t (one per input block) every
certificate reads; both come from admissibility.window_constant.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.special

from .core import InputSignal, Nonlinearity, SpectralState
# poly_exp_integral is unused here; the tests and perfbench's tracer look it up here
from .semigroup import DiagonalSemigroup, DenseGenerator, _act, _scan, poly_exp_integral
from .admissibility import (
    Bounded,
    InputOperator,
    QAdmissible,
    SmoothClass,
    c_constant,
    outside_x_alpha,
    singular_kernel,
    window_constant,
)

__all__ = [
    "EvolutionSystem",
    "SolverConfig",
    "PolySignal",
    "Status",
    "WindowDiagnostics",
    "Trajectory",
    "StepSelectionError",
    "select_step",
    "picard_window",
    "solve",
    "solve_analytic",
    "global_bound",
    "trajectory_to_csv",
    "trajectory_diagnostics_json",
]


class StepSelectionError(RuntimeError):
    pass


@dataclass(frozen=True, eq=False)
class PolySignal:
    """Smooth input u(t) = sum_k p_k t^k with vector coefficients p_k.

    The polynomial representation keeps the input convolution exact (the
    kernel integrals have closed forms), which the boundary-system
    representation cross-check depends on.  Degree is capped at 4.
    """

    coeffs: np.ndarray  # (deg+1, m)

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.ndim == 1:
            c = c[:, None]
        if c.shape[0] > 5:
            raise ValueError("polynomial inputs capped at degree 4")
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def m(self) -> int:
        return self.coeffs.shape[1]

    @property
    def degree(self) -> int:
        return self.coeffs.shape[0] - 1

    @property
    def horizon(self) -> float:
        return math.inf

    def value(self, t) -> np.ndarray:
        """u(t); an array of times gives one row per time."""
        t = np.asarray(t, dtype=float)[..., None]
        out = np.zeros(t.shape[:-1] + (self.m,))
        for k in range(self.coeffs.shape[0] - 1, -1, -1):
            out = out * t + self.coeffs[k]
        return out

    def derivative(self) -> "PolySignal":
        if self.degree == 0:
            return PolySignal(np.zeros((1, self.m)))
        k = np.arange(1, self.coeffs.shape[0])[:, None]
        return PolySignal(self.coeffs[1:] * k)

    def sup_norm(self, t0: float = 0.0, t1: float = 1.0,
                 cols: slice = slice(None)) -> float:
        """Certified bound sum_k |p_k| max(|t0|,|t1|)^k >= sup over [t0, t1];
        cols restricts u to a block of its channels."""
        tm = max(abs(t0), abs(t1))
        return float(sum(np.linalg.norm(self.coeffs[k, cols]) * tm ** k
                         for k in range(self.coeffs.shape[0])))

    def shift(self, tau: float) -> "PolySignal":
        """Exact re-expansion of t -> u(t + tau)."""
        deg = self.degree
        out = np.zeros(self.coeffs.shape)
        for k in range(deg + 1):
            for j in range(k + 1):
                out[j] += math.comb(k, j) * tau ** (k - j) * self.coeffs[k]
        return PolySignal(out)


def convolve_poly(sg: DiagonalSemigroup, B: InputOperator, p: PolySignal,
                  t) -> np.ndarray:
    """int_0^t T_{-1}(t-s) B p(s) ds, diagonal semigroups only, by sg.convolve.
    The name stays because perfbench's boundary_poly check calls it and
    perfbench/layer_trace.py lists it."""
    return sg.convolve(t, [[B.apply(pk) for pk in p.coeffs]])[0]


DrivingSignal = Union[InputSignal, PolySignal]

# window constants one EvolutionSystem keeps, keyed on the exact float t;
# the oldest goes first once the memo is full.  The repeats are short-range:
# a 12-mode flow-property suite plus a scalar blow-up solve misses 37.5
# times at this size, 33.6 times at 1024 entries and 32.6 at 4096.
_WINDOW_MEMO_ENTRIES = 256


@dataclass(frozen=True, eq=False)
class EvolutionSystem:
    """Semilinear system dx/dt = A x + B2 f(x, u) + B u on a spectral truncation.

    B is one input operator or a tuple of them, the channel blocks.  Block
    i acts on the next B_i.m columns of the one stacked input signal, so
    B u = sum_i B_i u_i with u_i those columns.  Each block keeps its own
    declared class and gets its own window constant h_t (input_gain), and
    select_step charges each h_t against the sup of its own columns.  One
    operator is the one-block case; Burgers' distributed and boundary
    disturbances are two blocks.

    B2 = None means the identity embedding X -> X_{-1}.  analytic_alpha
    selects the fractional-space solver: the Picard iteration then runs on
    y = (omega*I - A)^alpha x, requires an analytic diagonal semigroup and
    the identity B2, and reports both X and X_alpha norms.  When the
    declared smoothness of a block does not reach analytic_alpha the truncation
    is still well-defined but the window certificates are truncation-level
    only; the deficit is recorded in input_regularity_deficit rather than
    refused, since the canonical boundary-driven example lives there.

    weights are the X_alpha mode weights in analytic mode and exact ones
    otherwise, so X-mode arithmetic through them changes no bit.
    """

    semigroup: Union[DiagonalSemigroup, DenseGenerator]
    f: Nonlinearity
    B: Union[None, InputOperator, Tuple[InputOperator, ...]] = None
    B2: Optional[InputOperator] = None
    analytic_alpha: Optional[float] = None
    weights: np.ndarray = field(init=False, repr=False)
    input_blocks: Tuple[InputOperator, ...] = field(init=False, repr=False)
    input_columns: Tuple[slice, ...] = field(init=False, repr=False)

    def __post_init__(self):
        sg = self.semigroup
        B = self.B
        blocks = () if B is None else (B,) if isinstance(B, InputOperator) else tuple(B)
        if B is not None and not blocks:
            raise ValueError("B needs at least one block")
        columns, start = [], 0
        for op in blocks:
            columns.append(slice(start, start + op.m))
            start += op.m
        object.__setattr__(self, "input_blocks", blocks)
        object.__setattr__(self, "input_columns", tuple(columns))
        ops = [(op, "B") for op in blocks] + [(self.B2, "B2")]
        for op, name in ops:
            if op is not None and op.n_modes != sg.n_modes:
                raise ValueError(f"{name} mode count does not match the semigroup")
        a = self.alpha
        if isinstance(sg, DenseGenerator):
            for op, name in ops:
                if op is not None and not isinstance(op.declared_class, Bounded):
                    raise ValueError(f"{name}: only bounded operators enter "
                                     "the dense ODE mode")
        if not 0.0 <= a < 1.0:
            raise ValueError("analytic order must lie in [0, 1)")
        if a > 0.0:
            if not (isinstance(sg, DiagonalSemigroup) and sg.analytic):
                raise ValueError("analytic mode needs an analytic semigroup")
            if self.B2 is not None:
                raise ValueError("analytic mode fixes B2 to the identity")
            if any(isinstance(op.declared_class, QAdmissible) for op in blocks):
                raise ValueError(
                    "analytic mode needs a bounded or smooth_class input operator"
                )
        w = sg.frac_weights(a) if a > 0.0 else np.ones(sg.n_modes)
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        # gain and input_gain depend on t alone (every field is read-only),
        # and select_step asks for the same dyadic lengths window after window
        object.__setattr__(self, "_window_memo", {})

    @property
    def alpha(self) -> float:
        """Order of the working space X_alpha; 0 means X itself."""
        return self.analytic_alpha or 0.0

    @property
    def n_modes(self) -> int:
        return self.semigroup.n_modes

    @property
    def input_regularity_deficit(self) -> bool:
        """True when some block's declared smoothness falls short of
        analytic_alpha."""
        return self.alpha > 0.0 and any(
            isinstance(op.declared_class, SmoothClass)
            and op.declared_class.alpha <= self.alpha for op in self.input_blocks)

    @property
    def input_channels(self) -> int:
        cols = self.input_columns
        return cols[-1].stop if cols else 1

    def b2_apply(self, g: np.ndarray) -> np.ndarray:
        if self.B2 is None:
            return g
        return g @ self.B2.coeffs.T if g.ndim == 2 else self.B2.apply(g)

    def working_norm(self, c: np.ndarray) -> float:
        """Norm of the raw X coefficients c in the working space."""
        return float(np.linalg.norm(self.weights * c))

    def _memoised(self, key, compute):
        memo = self._window_memo
        value = memo.get(key)
        if value is None:
            value = compute()
            if len(memo) >= _WINDOW_MEMO_ENTRIES:
                del memo[next(iter(memo))]
            memo[key] = value
        return value

    def gain(self, t: float) -> float:
        """Window constant c_t of the nonlinear channel in the working norm:
        the zero-class admissibility constant of B2 in X mode, the
        singular-kernel bound of the identity B2 at order alpha in analytic
        mode (admissibility.window_constant).  Memoised per exact t."""
        def compute():
            if self.alpha == 0.0:
                return c_constant(self.semigroup, self.B2, t)
            return window_constant(self.semigroup, None, self.alpha, t)
        return self._memoised(("c", t), compute)

    def input_gain(self, t: float) -> Tuple[float, ...]:
        """Window constants h_t of the input blocks, one per block: h_t of
        block B_i certifies the working norm of int_0^t T_{-1}(t-s) B_i v(s) ds
        for unit-sup v.  Empty without B.  Memoised per exact t."""
        return self._memoised(("h", t), lambda: tuple([
            window_constant(self.semigroup, op, self.alpha, t)
            for op in self.input_blocks]))


@dataclass(frozen=True)
class SolverConfig:
    """Window-kernel settings.

    picard_tol is relative: a window's Picard iteration stops once the
    largest working-norm change over the sub-grid is at most
    picard_tol * max(1, sup |linear part|), so a state of size 1e6 is not
    held to an absolute tolerance below its own roundoff.
    """

    substeps_per_window: int = 64
    picard_tol: float = 1e-10
    max_picard_iters: int = 60
    blowup_threshold: float = 1e6
    contraction_target: float = 0.5
    max_window_bisections: int = 40
    min_window: float = 1e-9
    window_cap: float = 1.0

    def __post_init__(self):
        if self.substeps_per_window < 8:
            raise ValueError("substeps_per_window must be >= 8")
        if not 0.0 < self.contraction_target < 1.0:
            raise ValueError("contraction target must lie in (0, 1)")
        if self.picard_tol <= 0 or self.blowup_threshold <= 0:
            raise ValueError("tolerances must be positive")


@dataclass(frozen=True)
class Status:
    kind: str  # completed | blowup | failed
    t_blowup: Optional[float] = None
    reason: Optional[str] = None

    @staticmethod
    def completed() -> "Status":
        return Status("completed")

    @staticmethod
    def blowup(t_m: float) -> "Status":
        return Status("blowup", t_blowup=t_m)

    @staticmethod
    def failed(reason: str) -> "Status":
        return Status("failed", reason=reason)


@dataclass
class WindowDiagnostics:
    t_start: float
    t1: float
    K: float
    delta: float
    lipschitz: float
    c_t: float
    picard_iters: int
    contraction_observed: float
    bisections: int


@dataclass(eq=False)
class Trajectory:
    """Solution samples on the concatenated window sub-grids.

    window_boundaries holds the indices into times where windows begin;
    in analytic mode alpha_norms carries the X_alpha norm alongside the
    X norm of each sample.
    """

    times: np.ndarray
    coeffs: np.ndarray
    status: Status
    window_boundaries: np.ndarray
    diagnostics: List[WindowDiagnostics]
    alpha: Optional[float] = None
    alpha_norms: Optional[np.ndarray] = None

    @property
    def n_samples(self) -> int:
        return self.times.shape[0]

    def norms(self) -> np.ndarray:
        return np.linalg.norm(self.coeffs, axis=1)

    def sup_norm(self) -> float:
        return float(np.max(self.norms()))

    def final_state(self) -> SpectralState:
        if self.status.kind == "blowup":
            return SpectralState(self.coeffs[-1], blown_up=True)
        return SpectralState(self.coeffs[-1])

    def state_at(self, t: float) -> SpectralState:
        """Sample lookup: a grid time within 1e-9 of t, else linear interpolation."""
        i = int(np.searchsorted(self.times, t))
        for j in (i - 1, i, i + 1):
            if 0 <= j < self.n_samples and abs(self.times[j] - t) <= 1e-9:
                return SpectralState(self.coeffs[j])
        if t < self.times[0] or t > self.times[-1]:
            raise ValueError(f"time {t} outside trajectory range")
        i = max(1, min(i, self.n_samples - 1))
        t0, t1 = self.times[i - 1], self.times[i]
        w = (t - t0) / (t1 - t0)
        return SpectralState((1 - w) * self.coeffs[i - 1] + w * self.coeffs[i])


# ---------------------------------------------------------------------------
# window selection


def select_step(sys: EvolutionSystem, K: float, u_sup: float,
                cfg: Optional[SolverConfig] = None, *,
                start_state: np.ndarray,
                cap: Optional[float] = None,
                block_sups: Optional[Sequence[float]] = None,
                previous: Optional[float] = None) -> float:
    """Largest dyadic-bisected window length t1 = cap 2^-k <= cap (cap <= 1,
    k <= max_window_bisections) with

    (a) c_{t1} * L(K') <= contraction target, and
    (b) the invariance inequality of the ball of radius delta around the
        window's start state,

        |(T(t1) - I) x| + sum_i h_i(t1) sup|u_i|
            + c_{t1} (L(K') K' + sigma(u_sup) + c) <= delta,

    where delta = max(1, K) and K' = K + delta bounds every norm seen in
    the window.  Certificates are evaluated in the system's working norm;
    start_state (raw X coefficients) enters through the exact
    strong-continuity term |(T(t) - I) x|.

    u_sup is the sup of the whole input on [0, cap]: f sees the stacked
    value, so L is taken at max(K', u_sup) and sigma at u_sup.  block_sups
    holds the sup of each input block's columns (default u_sup for every
    block).  The input term is sound block by block: the input convolution
    of B u is the sum over blocks of the convolution of B_i u_i, so its norm
    is at most sum_i h_i(t) sup|u_i| by the triangle inequality, the
    admissibility constant of a sum being at most the sum of the constants
    (Tucsnak & Weiss 2009, ch. 4).  Each h_i is certified for its own
    block's declared class, so a smooth block is not charged the
    truncation-level constant of a rough one, as one stacked operator
    under the rougher class would be.

    previous, the length of the window before (solve passes it when that
    window was bisected), warm-starts the search: it first tests the
    largest candidate <= 2 previous, then steps to longer candidates while
    they pass (up to cap) or to shorter ones until one passes.  Without
    previous it starts at cap, a descending scan.  The search is sound:
    it returns only a candidate it tested against (a) and (b).  On a
    DiagonalSemigroup it returns what the descending scan returns: every
    term grows with t (c_t and h_t are window_constant's t phi1(lam t) =
    int_0^t e^{lam s} ds and t^{a-d} e^{kappa_+ t}, lam, kappa_+ >= 0, and
    |e^{mu t} - 1| in |(T(t) - I) x| for every mu), so the passing
    candidates are all those below the longest one, which both searches
    find.  On a DenseGenerator |(e^{At} - I) x| may oscillate in t, so the
    passing candidates need not be contiguous; the result is still
    certified, and never longer than the scan's.
    """
    cfg = cfg or SolverConfig()
    sg = sys.semigroup
    theta = cfg.contraction_target
    delta = max(1.0, K)
    K_prime = K + delta
    L = sys.f.lipschitz(max(K_prime, u_sup))
    sigma_u = sys.f.growth_sigma(u_sup)
    c_off = sys.f.growth_c
    cap = min(cfg.window_cap, cap if cap is not None else cfg.window_cap)
    if block_sups is None:
        block_sups = [u_sup] * len(sys.input_blocks)
    k_max = cfg.max_window_bisections

    def certified(k: int) -> bool:
        t = cap * 0.5 ** k
        gain = sys.gain(t)
        if not gain * L <= theta:
            return False
        input_term = sum([h * s for h, s in zip(sys.input_gain(t), block_sups)])
        return (
            sg.sg_distance(t, start_state, sys.alpha) + input_term
            + gain * (L * K_prime + sigma_u + c_off) <= delta
        )

    k = 0
    if previous is not None:
        k = min(k_max, max(0, math.ceil(math.log2(cap / (2.0 * previous)))))
    if certified(k):
        while k > 0 and certified(k - 1):
            k -= 1
        return cap * 0.5 ** k
    while k < k_max:
        k += 1
        if certified(k):
            return cap * 0.5 ** k
    raise StepSelectionError(
        f"no certified window down to {cap * 0.5 ** k_max:.3g} "
        f"(K={K:.3g}, u_sup={u_sup:.3g})"
    )


# ---------------------------------------------------------------------------
# Picard iteration on one window


def _window_poly(u: DrivingSignal, t1: float) -> PolySignal:
    """u on [0, t1] as a polynomial; a piecewise-constant u must not break before t1."""
    if isinstance(u, PolySignal):
        return u
    # a first cell shorter than 1e-13 counts as the next one: solve's
    # window marks skip breakpoints that close
    i = min(int(np.searchsorted(u.grid, 1e-13, side="right")) - 1, u.values.shape[0] - 1)
    if u.grid[i + 1] < t1 - 1e-12:
        raise ValueError(f"input has a breakpoint at {u.grid[i + 1]:.6g} inside [0, {t1:.6g}]")
    return PolySignal(u.values[i : i + 1])


class _WindowFailure(Exception):
    pass


def _picard_window_raw(sys: EvolutionSystem, x0: np.ndarray, p: PolySignal,
                       t1: float, cfg: SolverConfig):
    """Iterate the window fixed-point map on the sub-grid, with the input
    given as the polynomial p on the window.

    Returns (tau, Y, iters, contraction) with Y in working coordinates
    (weighted by (omega - mu)^alpha in analytic mode) at each sub-grid
    point.  Raises _WindowFailure on divergence or iteration exhaustion.
    """
    tau = np.linspace(0.0, t1, cfg.substeps_per_window + 1)
    # row k of block i is B_i p_k: B u = sum_i B_i u_i
    forcing = [np.array([op.apply(pk) for pk in p.coeffs[:, cols]])
               for op, cols in zip(sys.input_blocks, sys.input_columns)]
    powers, A1, A2, free, lin = sys.semigroup.window(tau, x0, forcing)

    w = sys.weights[None, :]
    lin_w = lin * w
    y = free * w
    u_vals = p.value(tau)

    scale = max(1.0, float(np.max(np.linalg.norm(lin_w, axis=1))))
    ratio_floor = max(10.0 * cfg.picard_tol, 1e-13 * scale)
    contraction = 0.0
    prev_delta = None
    conv = np.empty_like(y)
    for k in range(cfg.max_picard_iters):
        g = sys.b2_apply(sys.f.batch(y / w, u_vals)) * w
        conv[0] = 0.0
        conv[1:] = _act(A1, g[:-1]) + _act(A2, g[1:])
        y_new = lin_w + _scan(conv, powers)
        delta = float(np.max(np.linalg.norm(y_new - y, axis=1)))
        y = y_new
        if not np.isfinite(delta) or delta > 1e15 * scale:
            raise _WindowFailure("Picard iteration diverged")
        if prev_delta is not None and prev_delta > ratio_floor:
            contraction = max(contraction, delta / prev_delta)
        if delta <= cfg.picard_tol * scale:
            return tau, y, k + 1, contraction
        prev_delta = delta
    raise _WindowFailure(f"no convergence in {cfg.max_picard_iters} Picard iterations")


def _window_diagnostics(sys: EvolutionSystem, t_start: float, t1: float,
                        K: float, u_sup: float, iters: int,
                        contraction: float, bisections: int) -> WindowDiagnostics:
    """The constants select_step certified the window with, plus what the
    Picard iteration observed on it."""
    delta = max(1.0, K)
    return WindowDiagnostics(
        t_start=t_start, t1=t1, K=K, delta=delta,
        lipschitz=sys.f.lipschitz(max(K + delta, u_sup)), c_t=sys.gain(t1),
        picard_iters=iters, contraction_observed=contraction,
        bisections=bisections,
    )


def picard_window(sys: EvolutionSystem, x0: SpectralState,
                  u: Optional[DrivingSignal], t1: float,
                  cfg: Optional[SolverConfig] = None):
    """Solve one window [0, t1]; returns (times, states, WindowDiagnostics).

    States come back in X coordinates regardless of mode; the observed
    Picard contraction factor is part of the diagnostics and stays below
    the contraction target plus a 0.1 margin on certified windows.  A
    piecewise-constant u must not have a breakpoint inside (0, t1) (it
    raises ValueError): solve() splits its windows there.
    """
    cfg = cfg or SolverConfig()
    if t1 <= 0:
        raise ValueError("window length must be positive")
    if u is None:
        u = InputSignal.zero(sys.input_channels, t1)
    p = _window_poly(u, t1)
    try:
        tau, y, iters, contraction = _picard_window_raw(sys, x0.coeffs, p, t1, cfg)
    except _WindowFailure as e:
        raise RuntimeError(str(e)) from e
    coeffs = y / sys.weights[None, :]
    diag = _window_diagnostics(sys, 0.0, t1, sys.working_norm(x0.coeffs),
                               u.sup_norm(0.0, t1), iters, contraction, 0)
    return tau, [SpectralState(c) for c in coeffs], diag


# ---------------------------------------------------------------------------
# the window-chaining driver


def solve(sys: EvolutionSystem, x0: SpectralState, u: Optional[DrivingSignal],
          t_end: float, cfg: Optional[SolverConfig] = None,
          checkpoint_times: Optional[Sequence[float]] = None) -> Trajectory:
    """March the mild solution to t_end (or to blow-up / failure)."""
    cfg = cfg or SolverConfig()
    if t_end <= 0:
        raise ValueError("t_end must be positive")
    if u is None:
        u = InputSignal.zero(sys.input_channels, t_end)
    if u.horizon < t_end - 1e-12:
        raise ValueError(f"input defined to {u.horizon}, solve needs {t_end}")
    w = sys.weights[None, :]
    if sys.alpha > 0.0 and outside_x_alpha(sys.weights * x0.coeffs):
        raise ValueError(
            "initial state not in X_alpha: weighted mass keeps growing "
            "along the truncation ladder"
        )

    # windows land exactly on input breakpoints and checkpoints, so u is
    # a polynomial on every window (a constant for piecewise-constant u)
    # and comparisons across runs share grid points
    marks = {float(t_end)}
    if isinstance(u, InputSignal):
        marks.update(float(g) for g in u.grid if 0.0 < g < t_end - 1e-13)
    if checkpoint_times is not None:
        marks.update(float(c) for c in checkpoint_times if 0.0 < c < t_end - 1e-13)
    marks = sorted(marks)

    t = 0.0
    x = np.array(x0.coeffs, float)
    all_times: List[np.ndarray] = [np.array([0.0])]
    all_coeffs: List[np.ndarray] = [x[None, :]]
    boundaries = [0]
    diags: List[WindowDiagnostics] = []
    status = Status.completed()
    n_samples = 1
    # the last window's length when it was bisected: window lengths move
    # slowly, so select_step starts its search there
    previous = None

    if sys.working_norm(x) >= cfg.blowup_threshold:
        status = Status.blowup(0.0)

    while status.kind == "completed" and t < t_end - 1e-13:
        K = sys.working_norm(x)
        next_mark = next(m for m in marks if m > t + 1e-13)
        cap = min(cfg.window_cap, next_mark - t)
        u_loc = u.shift(t) if t > 0 else u
        block_sups = [u_loc.sup_norm(0.0, cap, cols) for cols in sys.input_columns]
        # a single block's sup is the joint one
        u_sup = block_sups[0] if len(block_sups) == 1 else u_loc.sup_norm(0.0, cap)
        try:
            t1 = select_step(sys, K, u_sup, cfg, start_state=x, cap=cap,
                             block_sups=block_sups, previous=previous)
        except StepSelectionError as e:
            status = Status.failed(str(e))
            break
        bis = max(0, int(round(math.log2(max(cap / t1, 1.0)))))

        p = _window_poly(u_loc, t1)
        result = None
        while result is None:
            try:
                result = _picard_window_raw(sys, x, p, t1, cfg)
            except _WindowFailure as e:
                t1 *= 0.5
                bis += 1
                if t1 < cfg.min_window:
                    status = Status.failed(
                        f"window collapsed below {cfg.min_window}: {e}"
                    )
                    break
        if result is None:
            break
        tau, y, iters, contraction = result

        diags.append(_window_diagnostics(sys, t, t1, K, u_sup, iters,
                                         contraction, bis))

        coeffs = y / w
        norms_w = np.linalg.norm(y, axis=1)
        crossing = np.nonzero(norms_w >= cfg.blowup_threshold)[0]
        end_j = coeffs.shape[0] - 1
        if crossing.size > 0:
            end_j = max(int(crossing[0]), 1)
            status = Status.blowup(float(t + tau[end_j]))

        all_times.append(t + tau[1 : end_j + 1])
        all_coeffs.append(coeffs[1 : end_j + 1])
        n_samples += end_j
        boundaries.append(n_samples - 1)

        if status.kind != "completed":
            break
        x = coeffs[-1]
        previous = t1 if t1 < cap else None
        t_next = t + t1
        if abs(t_next - next_mark) < 1e-12:
            t_next = next_mark
        t = t_next

    times = np.concatenate(all_times)
    coeffs = np.concatenate(all_coeffs, axis=0)
    return Trajectory(
        times=times, coeffs=coeffs, status=status,
        window_boundaries=np.array(boundaries[:-1], dtype=int),
        diagnostics=diags,
        alpha=sys.alpha or None,
        alpha_norms=np.linalg.norm(coeffs * w, axis=1) if sys.alpha > 0.0 else None,
    )


def solve_analytic(sys: EvolutionSystem, x0: SpectralState,
                   u: Optional[DrivingSignal], t_end: float,
                   cfg: Optional[SolverConfig] = None,
                   checkpoint_times: Optional[Sequence[float]] = None) -> Trajectory:
    """Exactly solve().  The name stays because perfbench/layer_trace.py
    lists it; a call, not an alias, so the tracer does not wrap solve twice."""
    return solve(sys, x0, u, t_end, cfg, checkpoint_times)


# ---------------------------------------------------------------------------
# a-priori trajectory bounds


def _mittag_leffler(beta: float, z: float, max_terms: int = 600) -> float:
    """E_beta(z) = sum_k z^k / Gamma(1 + beta k) for z >= 0; inf, still a bound,
    when a term overflows or max_terms terms do not meet the stopping rule."""
    if z <= 0.0:
        return 1.0
    acc = 0.0
    logz = math.log(z)
    for k in range(max_terms):
        try:
            term = math.exp(k * logz - scipy.special.gammaln(1.0 + beta * k))
        except OverflowError:
            return math.inf
        acc += term
        if k > 4 and term < 1e-16 * max(acc, 1.0):
            return acc
    return math.inf


def global_bound(sys: EvolutionSystem, x0_norm: float, u_norm: float,
                 t: float, cfg: Optional[SolverConfig] = None) -> float:
    """Certified bound on sup over [0, t] of the trajectory norm.

    General mode iterates the reachability window estimate

        b <- 2 (M e^{lam t1} b + h_{t1} |u| + c_{t1} (sigma(|u|) + c))

    over ceil(t/t1) windows with c_{t1} L <= 1/2, h_{t1} the sum of the
    input blocks' constants (|u| bounds each block's sup); it needs a
    uniform Lipschitz certificate.  Analytic mode combines the linear-growth
    certificate with a singular-kernel comparison (Mittag-Leffler)
    envelope for the X_alpha norm.
    """
    cfg = cfg or SolverConfig()
    sg = sys.semigroup
    alpha = sys.alpha
    L = sys.f.uniform_lipschitz
    if L is None:
        raise ValueError("global bound needs a uniform Lipschitz certificate")
    sigma_u = sys.f.growth_sigma(u_norm) + sys.f.growth_c

    if alpha == 0.0:
        t1 = min(cfg.window_cap, t)
        for _ in range(cfg.max_window_bisections + 1):
            if sys.gain(t1) * L <= 0.5:
                break
            t1 *= 0.5
        else:
            raise StepSelectionError("no window with c_t * L <= 1/2")
        n_windows = max(1, math.ceil(t / t1 - 1e-12))
        growth = sg.M * math.exp(sg.lam * t1)
        h_t1 = sum(sys.input_gain(t1))
        c_t1 = sys.gain(t1)
        b = x0_norm
        for _ in range(n_windows):
            b = 2.0 * (growth * b + h_t1 * u_norm + c_t1 * sigma_u)
        return b

    C, kappa_plus = singular_kernel(sg, alpha)
    a_const = (
        sg.M * math.exp(max(sg.lam, 0.0) * t) * x0_norm
        + sum(sys.input_gain(t)) * u_norm
        + sys.gain(t) * sigma_u
    )
    b_kernel = L * C * math.exp(kappa_plus * t)
    z = b_kernel * scipy.special.gamma(1.0 - alpha) * t ** (1.0 - alpha)
    ml = _mittag_leffler(1.0 - alpha, z)
    return a_const * ml if a_const > 0.0 else 0.0  # not 0 * inf = nan


# ---------------------------------------------------------------------------
# export


# rows converted to Python floats at a time by _write_rows: a whole table
# of Python floats would take about 4x its array
_CSV_BLOCK_ROWS = 512


def _write_rows(fh, columns: Sequence[np.ndarray]) -> None:
    """One CSV line per row of the column-stacked arrays (1-D arrays are
    single columns), each value as the repr of a Python float (shortest
    round-trip form, never a numpy scalar's repr), so reruns of a
    deterministic scenario are byte-identical.  The columns are stacked
    once and written _CSV_BLOCK_ROWS rows at a time."""
    table = np.column_stack([np.asarray(c, float) for c in columns])
    for i in range(0, table.shape[0], _CSV_BLOCK_ROWS):
        rows = table[i : i + _CSV_BLOCK_ROWS].tolist()
        fh.write("".join([",".join(map(repr, row)) + "\n" for row in rows]))


def trajectory_to_csv(traj: Trajectory, path: str) -> None:
    """CSV columns t, norm_X [, norm_Xalpha], coeff_1..coeff_N."""
    names = ["t", "norm_X"]
    columns = [traj.times, traj.norms()]
    if traj.alpha_norms is not None:
        names.append("norm_Xalpha")
        columns.append(traj.alpha_norms)
    names += [f"coeff_{i}" for i in range(1, traj.coeffs.shape[1] + 1)]
    columns.append(traj.coeffs)
    with open(path, "w") as fh:
        fh.write(",".join(names) + "\n")
        _write_rows(fh, columns)


def trajectory_diagnostics_json(traj: Trajectory, path: str) -> None:
    payload = {
        "status": asdict(traj.status),
        "n_samples": int(traj.n_samples),
        "t_final": float(traj.times[-1]),
        "alpha": traj.alpha,
        "windows": [asdict(d) for d in traj.diagnostics],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
