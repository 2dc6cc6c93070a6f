"""Input operators into the extrapolation space and admissibility constants.

An input operator B is stored by its mode coefficients (N x m); its range
lies in X_{-1}, i.e. the weighted norm with weight (omega - mu_n)^{-1} is
the one guaranteed finite.  The declared regularity class drives which
admissibility bounds are available:

  * Bounded: B maps into X itself.
  * QAdmissible(q): an L^q -> X admissibility constant is declared to
    exist but no smoothing exponent is known.
  * SmoothClass(alpha): B maps into X_{alpha-1}, which yields zero-class
    infinity-admissibility with h_t = O(t^alpha).

Every certified h_t and c_t comes from one rule, window_constant: in the
X norm (order d = 0) the smaller of the truncation and smoothing bounds,
at d > 0 the smoothing bound wherever it applies; the smoothing bound
carries e^{kappa_+ t}, kappa_+ = max(omega0 + 1, 0).  Convolutions of
piecewise-constant inputs are exact per mode; measure_h probes the input
map through its linearity and reports a bracketing (lower, upper) pair,
never a single pretend-exact value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from .core import InputSignal
from .semigroup import DiagonalSemigroup, phi1

__all__ = [
    "Bounded",
    "QAdmissible",
    "SmoothClass",
    "InputOperator",
    "AdmissibilityEstimate",
    "convolve",
    "measure_h",
    "upper_bound_h",
    "c_constant",
    "estimate_admissibility",
]


@dataclass(frozen=True)
class Bounded:
    def describe(self) -> str:
        return "bounded"


@dataclass(frozen=True)
class QAdmissible:
    q: float

    def __post_init__(self):
        if not (1.0 <= self.q):
            raise ValueError("admissibility exponent q must be >= 1")

    def describe(self) -> str:
        return f"q_admissible(q={self.q})"


@dataclass(frozen=True)
class SmoothClass:
    alpha: float

    def __post_init__(self):
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError("smoothness exponent must lie in (0, 1]")

    def describe(self) -> str:
        return f"smooth_class(alpha={self.alpha})"


OperatorClass = Union[Bounded, QAdmissible, SmoothClass]


@dataclass(frozen=True, eq=False)
class InputOperator:
    """Mode-coefficient matrix of B: U = R^m -> X_{-1} with a declared class."""

    coeffs: np.ndarray
    declared_class: OperatorClass

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.ndim == 1:
            c = c[:, None]
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)
        if not np.all(np.isfinite(c)):
            raise ValueError("non-finite operator coefficients")
        object.__setattr__(self, "_norm_cache", {})

    @property
    def n_modes(self) -> int:
        return self.coeffs.shape[0]

    @property
    def m(self) -> int:
        return self.coeffs.shape[1]

    def norm(self) -> float:
        """Operator norm of the truncation as a map R^m -> X."""
        return self.weighted_norm(None, 0.0)

    def weighted_norm(self, sys: Optional[DiagonalSemigroup], beta: float) -> float:
        """Operator norm of (omega*I - A)^beta B on the truncation; beta = 0
        is the plain norm, for any sys.  The cache holds sys itself, so a
        key cannot be reused by a later semigroup at the same address."""
        key = None if beta == 0.0 else (sys, beta)
        if key not in self._norm_cache:
            w = 1.0 if key is None else sys.frac_weights(beta)[:, None]
            self._norm_cache[key] = float(np.linalg.norm(w * self.coeffs, 2))
        return self._norm_cache[key]

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self.coeffs @ np.asarray(v, float)

    @staticmethod
    def identity(n_modes: int) -> "InputOperator":
        return InputOperator(np.eye(n_modes), Bounded())


def ladder_divergence_ratio(sys: DiagonalSemigroup, coeffs: np.ndarray,
                            beta: float) -> float:
    """Fraction of the weighted Frobenius mass carried by the last mode octave.

    Used as the truncation-ladder heuristic: a ratio near 1 flags a weighted
    norm that keeps growing with the cutoff, i.e. a declared class the
    coefficients do not support.
    """
    c = np.asarray(coeffs, float)
    if c.ndim == 1:
        c = c[:, None]
    return _upper_half_share(sys.frac_weights(beta)[:, None] * c)


def _upper_half_share(wc: np.ndarray) -> float:
    """Fraction of the Frobenius mass of the rows wc in the upper half."""
    mass = np.sum(wc ** 2, axis=1)
    total = float(np.sum(mass))
    if total == 0.0:
        return 0.0
    half = float(np.sum(mass[: max(1, wc.shape[0] // 2)]))
    return (total - half) / total


def outside_x_alpha(wx: np.ndarray) -> bool:
    """The X_alpha membership screen on the weighted coefficients wx of a
    state: |wx| > 1e-8 and over half the mass in the upper half of the modes."""
    return float(np.linalg.norm(wx)) > 1e-8 and _upper_half_share(wx[:, None]) > 0.5


def _cell_kernel(mu: np.ndarray, t: float, a: float, b: float) -> np.ndarray:
    """int_a^b e^{mu (t - s)} ds per mode, exactly.

    Written as e^{mu (t-b)} * (b-a) * phi1(mu (b-a)); expm1 inside phi1
    keeps the small-|mu dt| regime exact, the factored exponential keeps
    large negative mu (t-b) from overflowing anything.
    """
    dt = b - a
    return np.exp(mu * (t - b)) * dt * phi1(mu * dt)


def convolve(sys: DiagonalSemigroup, B: InputOperator, u: InputSignal,
             t: float) -> np.ndarray:
    """int_0^t T_{-1}(t - s) B u(s) ds as X coefficients, exact per mode.

    The integral of a piecewise-constant input against the diagonal kernel
    reduces to elementary exponential cell integrals, so the only error is
    roundoff.  Requires u to reach at least to time t.
    """
    if t < 0:
        raise ValueError("negative convolution horizon")
    if u.horizon < t - 1e-12:
        raise ValueError(f"input defined to {u.horizon}, convolution needs {t}")
    if B.n_modes != sys.n_modes:
        raise ValueError("operator/semigroup mode count mismatch")
    out = np.zeros(sys.n_modes)
    if t == 0.0:
        return out
    for i in range(u.values.shape[0]):
        a = float(u.grid[i])
        b = float(min(u.grid[i + 1], t))
        if a >= t:
            break
        out += B.apply(u.values[i]) * _cell_kernel(sys.mu, t, a, b)
    return out


def measure_h(sys: DiagonalSemigroup, B: InputOperator, t: float,
              q: float = np.inf, k_cells: int = 8) -> Tuple[float, float]:
    """Bracket the admissibility constant h_t = sup_{|u|_q <= 1} |Phi_t u|.

    Lower bound: best probe from a finite family (sign patterns on k_cells
    for q = inf, normalized single-cell impulses for q = 2).  Phi_t is
    linear, so the q = inf family is one (N, 2^k_cells) array per channel,
    its cells added in convolve's order, and an impulse's response is one
    column times one cell kernel.  Upper bound: window_constant at order 0
    (q = inf), Cauchy-Schwarz (q = 2).  The pair is returned as computed: a
    lower bound above the upper one exposes a growth certificate (M, lam)
    that does not hold.
    """
    if t < 0:
        raise ValueError("negative time")
    if q not in (2.0, np.inf):
        raise ValueError("probe families implemented for q in {2, inf}")
    if k_cells > 12:
        raise ValueError("probe family capped at 12 cells")
    if t == 0.0:
        return 0.0, 0.0
    lower = 0.0
    if q == np.inf:
        grid = np.linspace(0.0, t, k_cells + 1)
        kernels = [_cell_kernel(sys.mu, t, grid[i], grid[i + 1]) for i in range(k_cells)]
        # column `mask` carries sign +1 on cell i where bit i of mask is set
        bits = np.arange(2 ** k_cells)[None, :] >> np.arange(k_cells)[:, None] & 1
        signs = np.where(bits == 1, 1.0, -1.0)
        for b in B.coeffs.T:
            resp = np.zeros((sys.n_modes, signs.shape[1]))
            for sign, kernel in zip(signs, kernels):
                resp += sign[None, :] * (b * kernel)[:, None]
            lower = max(lower, float(np.max(np.linalg.norm(resp, axis=0))))
        return lower, window_constant(sys, B, 0.0, t)
    # single-cell impulses of unit L^2 norm on a dyadic cell ladder
    for j in range(0, 14):
        width = t * 2.0 ** (-j)
        for start in (0.0, t - width, (t - width) / 2.0):
            a = min(max(start, 0.0), t - width)
            kernel = _cell_kernel(sys.mu, t, a, min(a + width, t))
            height = 1.0 / np.sqrt(width)
            for b in B.coeffs.T:
                lower = max(lower, float(np.linalg.norm(b * height * kernel)))
    # Cauchy-Schwarz: |int T B u| <= M |B| (int e^{2 lam s} ds)^{1/2} |u|_{L^2}
    return lower, B.norm() * sys.M * float(np.sqrt(t * phi1(2.0 * sys.lam * t)))


def _smoothness(op: Optional[InputOperator]) -> Optional[float]:
    """Order a with op mapping into X_{a-1}: 1 if bounded or op = None (the
    identity), alpha for SmoothClass(alpha), None if only q-admissible."""
    cls = Bounded() if op is None else op.declared_class
    if isinstance(cls, SmoothClass):
        return cls.alpha
    return 1.0 if isinstance(cls, Bounded) else None


def _op_norm(sg, op: Optional[InputOperator], beta: float) -> float:
    """|(omega*I - A)^beta op| on the truncation; op = None is the identity."""
    if op is None:
        return 1.0 if beta == 0.0 else float(np.max(sg.frac_weights(beta)))
    return op.weighted_norm(sg, beta)


def singular_kernel(sg: DiagonalSemigroup, beta: float) -> Tuple[float, float]:
    """(C, kappa_+): |(omega*I - A)^beta T(s)| <= C s^-beta e^{kappa s} on
    (0, 1] for kappa = omega0 + 1, and e^{kappa s} <= e^{kappa_+ t} on [0, t]."""
    kappa = sg.omega0 + 1.0
    return sg.smoothing_constant(beta, kappa=kappa), max(kappa, 0.0)


def _smoothing_bound(sg: DiagonalSemigroup, op: Optional[InputOperator],
                     a: float, d: float, t: float) -> float:
    """|(omega*I - A)^{a-1} op| C_{1-a+d} e^{kappa_+ t} t^{a-d}/(a-d), the
    integral over [0, t] of singular_kernel(sg, 1-a+d) times that norm."""
    C, kappa_plus = singular_kernel(sg, 1.0 - a + d)
    return _op_norm(sg, op, a - 1.0) * (
        C * math.exp(kappa_plus * t) * t ** (a - d) / (a - d))


def window_constant(sg, op: Optional[InputOperator], d: float, t: float) -> float:
    """Certified bound on |(omega*I - A)^d int_0^t T(t-s) op v(s) ds| over
    sup|v| <= 1; op = None is the identity (the B2 = I channel).

    With a the smoothness order of op (_smoothness), two bounds hold:

      * truncation: |(omega*I - A)^d op| M t phi1(lam t), from
        |T(s)| <= M e^{lam s}; every operator is bounded on N modes;
      * smoothing, on an analytic diagonal semigroup with a > d:
        |(omega*I - A)^{a-1} op| C_{1-a+d} e^{kappa_+ t} t^{a-d}/(a-d).
        A dense generator has no such constants: |e^{As}| may exceed
        M e^{(omega0 + 1) s} for a non-normal A.

    At d = 0 (every X-norm constant) the smaller one is taken.  At d > 0
    the smoothing bound is taken wherever it applies and the truncation
    bound only where it does not: |(omega*I - A)^d op| grows with N
    through max_n (omega - mu_n)^d, so taking the minimum there would make
    the certified windows, and with them the solution, depend on the
    truncation level: the Burgers runs from 0.5 e_1 to t = 1/4 at N = 16
    and 32 then take 67 and 70 windows and end 5.9e-12 apart, against
    70, 70 and 2.9e-19 with the smoothing bound alone.
    """
    a = _smoothness(op)
    smooth = None
    if a is not None and a > d and isinstance(sg, DiagonalSemigroup) and sg.analytic:
        smooth = _smoothing_bound(sg, op, a, d, t)
        if d > 0.0:
            return smooth
    trunc = _op_norm(sg, op, d) * sg.M * t * float(phi1(sg.lam * t))
    return trunc if smooth is None else min(trunc, smooth)


def upper_bound_h(sys: DiagonalSemigroup, B: InputOperator, d: float,
                  t: float) -> float:
    """The smoothing bound alone, R t^{alpha - d} e^{kappa_+ t} with
    R = C_{1 - alpha + d} |(omega*I - A)^{alpha - 1} B| / (alpha - d), on
    int_0^t |(omega*I - A)^d T(t-s) B u(s)| ds for unit-sup u, B in
    SmoothClass(alpha) and 0 <= d < alpha (d = 0: the X-norm certificate).
    """
    if not isinstance(B.declared_class, SmoothClass):
        raise ValueError("smoothing bound requires a smooth_class declaration")
    alpha = B.declared_class.alpha
    if not 0.0 <= d < alpha:
        raise ValueError(f"need 0 <= d < alpha = {alpha}")
    if not sys.analytic:
        raise ValueError("smoothing bound requires an analytic semigroup")
    return _smoothing_bound(sys, B, alpha, d, t)


def c_constant(sys, B2: Optional[InputOperator], t: float) -> float:
    """Zero-class infinity-admissibility constant c_t of the B2 channel
    (B2 = None: the identity) in the X norm, window_constant at order 0.  A
    bare q-admissibility declaration carries no such certificate: refused.
    """
    if t < 0:
        raise ValueError("negative time")
    if _smoothness(B2) is None:
        raise ValueError(
            "B2 declared q_admissible only: no zero-class certificate available"
        )
    return window_constant(sys, B2, 0.0, t)


@dataclass(frozen=True, eq=False)
class AdmissibilityEstimate:
    """Measured lower-bound sweep of h_t on a dyadic grid.

    h_values carries the running max of the probe lower bounds (the true
    constant is nondecreasing, and so is a valid lower bound built this
    way).  fitted_exponent is the least-squares slope of log h against
    log t, the measured vanishing rate at 0.
    """

    t_grid: np.ndarray
    h_values: np.ndarray
    fitted_exponent: float

    def __post_init__(self):
        tg = np.asarray(self.t_grid, float).copy()
        hv = np.asarray(self.h_values, float).copy()
        tg.setflags(write=False)
        hv.setflags(write=False)
        object.__setattr__(self, "t_grid", tg)
        object.__setattr__(self, "h_values", hv)
        if tg.shape != hv.shape:
            raise ValueError("grid/value shape mismatch")
        if not np.all(np.diff(tg) > 0):
            raise ValueError("time grid must be strictly increasing")
        if np.any(np.diff(hv) < -1e-12):
            raise ValueError("admissibility constants must be nondecreasing in t")


def estimate_admissibility(sys: DiagonalSemigroup, B: InputOperator,
                           t_grid: Optional[np.ndarray] = None,
                           q: float = np.inf, k_cells: int = 8) -> AdmissibilityEstimate:
    """Sweep measured h_t lower bounds over a dyadic grid and fit the rate."""
    if t_grid is None:
        t_grid = 2.0 ** np.arange(-14.0, -1.0)
    t_grid = np.sort(np.asarray(t_grid, float))
    lows = np.array([measure_h(sys, B, float(t), q=q, k_cells=k_cells)[0]
                     for t in t_grid])
    lows = np.maximum.accumulate(lows)
    pos = lows > 0
    if np.count_nonzero(pos) >= 2:
        slope = float(np.polyfit(np.log(t_grid[pos]), np.log(lows[pos]), 1)[0])
    else:
        slope = float("nan")
    return AdmissibilityEstimate(t_grid, lows, slope)
