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

Convolutions of piecewise-constant inputs with the diagonal semigroup are
computed exactly per mode; measured admissibility constants are reported
as bracketing (lower, upper) pairs, never as a single pretend-exact value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from .core import InputSignal
from .semigroup import DiagonalSemigroup, DenseGenerator, phi1

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
        key = ("plain",)
        if key not in self._norm_cache:
            self._norm_cache[key] = float(np.linalg.norm(self.coeffs, 2))
        return self._norm_cache[key]

    def weighted_norm(self, sys: DiagonalSemigroup, beta: float) -> float:
        """Operator norm of (omega*I - A)^beta B on the truncation."""
        key = (id(sys), beta)
        if key not in self._norm_cache:
            w = sys.frac_weights(beta)
            self._norm_cache[key] = float(np.linalg.norm(w[:, None] * self.coeffs, 2))
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


def _probe_signals_inf(t: float, k_cells: int, m: int):
    """All +-1 sign patterns per channel on a uniform k-cell subdivision."""
    grid = np.linspace(0.0, t, k_cells + 1)
    for ch in range(m):
        for mask in range(2 ** k_cells):
            signs = np.array([1.0 if mask >> i & 1 else -1.0 for i in range(k_cells)])
            values = np.zeros((k_cells, m))
            values[:, ch] = signs
            yield InputSignal(grid, values)


def measure_h(sys: DiagonalSemigroup, B: InputOperator, t: float,
              q: float = np.inf, k_cells: int = 8) -> Tuple[float, float]:
    """Bracket the admissibility constant h_t = sup_{|u|_q <= 1} |Phi_t u|.

    Lower bound: best probe from a finite family (sign patterns on k_cells
    for q = inf, normalized single-cell impulses for q = 2).  Upper bound:
    the certified analytic bound for the declared class; on the truncation
    every operator is bounded, so the bounded-operator bound always applies
    and the smooth-class bound is taken when it is sharper.  The pair is
    returned as computed: a lower bound above the upper one exposes a growth
    certificate (M, lam) that does not hold.
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
        for u in _probe_signals_inf(t, k_cells, B.m):
            lower = max(lower, float(np.linalg.norm(convolve(sys, B, u, t))))
    else:
        # single-cell impulses of unit L^2 norm on a dyadic cell ladder
        for j in range(0, 14):
            width = t * 2.0 ** (-j)
            for start in (0.0, t - width, (t - width) / 2.0):
                a = min(max(start, 0.0), t - width)
                height = 1.0 / np.sqrt(width)
                for ch in range(B.m):
                    pts = sorted({0.0, a, a + width, t})
                    grid = np.array(pts)
                    values = np.zeros((len(pts) - 1, B.m))
                    for i in range(len(pts) - 1):
                        if abs(pts[i] - a) < 1e-15:
                            values[i, ch] = height
                    u = InputSignal(grid, values)
                    lower = max(lower, float(np.linalg.norm(convolve(sys, B, u, t))))

    if q == np.inf:
        return lower, _h_inf_bound(sys, B, t)
    # Cauchy-Schwarz: |int T B u| <= M |B| (int e^{2 lam s} ds)^{1/2} |u|_{L^2}
    return lower, B.norm() * sys.M * float(np.sqrt(t * phi1(2.0 * sys.lam * t)))


def _bounded_h(sys, norm: float, t: float) -> float:
    """norm * M t phi1(lam t) = norm * M (e^{lam t} - 1)/lam: the
    zero-class infinity-admissibility bound of a bounded operator of the
    given norm under |T(t)| <= M e^{lam t}."""
    return norm * sys.M * t * float(phi1(sys.lam * t))


def _h_inf_bound(sys, B: InputOperator, t: float) -> float:
    """Certified upper bound on h_t for q = inf in the X norm.

    On the truncation every operator is bounded, so the bounded-operator
    bound always applies; a smooth-class declaration on an analytic
    semigroup adds the t^alpha smoothing bound, taken when it is sharper.
    """
    upper = _bounded_h(sys, B.norm(), t)
    if isinstance(B.declared_class, SmoothClass) and sys.analytic:
        upper = min(upper, upper_bound_h(sys, B, 0.0, t))
    return upper


def upper_bound_h(sys: DiagonalSemigroup, B: InputOperator, d: float,
                  t: float, kappa: Optional[float] = None) -> float:
    """Certified bound R t^{alpha - d} e^{kappa t} on the weighted convolution.

    For B in SmoothClass(alpha) and 0 <= d < alpha this dominates
    int_0^t |(omega*I - A)^d T(t-s) B u(s)| ds for unit-sup inputs, with
    R = C_{1 - alpha + d} * |(omega*I - A)^{alpha - 1} B| / (alpha - d).
    d = 0 gives the zero-class infinity-admissibility certificate itself.
    """
    if not isinstance(B.declared_class, SmoothClass):
        raise ValueError("smoothing bound requires a smooth_class declaration")
    alpha = B.declared_class.alpha
    if not 0.0 <= d < alpha:
        raise ValueError(f"need 0 <= d < alpha = {alpha}")
    if not sys.analytic:
        raise ValueError("smoothing bound requires an analytic semigroup")
    if kappa is None:
        kappa = sys.omega0 + 1.0
    C = sys.smoothing_constant(1.0 - alpha + d, kappa=kappa)
    R = C * B.weighted_norm(sys, alpha - 1.0) / (alpha - d)
    return R * t ** (alpha - d) * float(np.exp(kappa * t))


def c_constant(sys, B2: Optional[InputOperator], t: float) -> float:
    """Zero-class infinity-admissibility constant c_t for the B2 channel.

    Bounded B2 (or the implicit identity, B2 = None) gets the closed form
    |B2| M (e^{lam t} - 1)/lam, read as |B2| M t at lam = 0.  A smooth-class
    B2 gets the t^alpha smoothing bound.  A bare q-admissibility declaration
    carries no zero-class certificate and is refused.
    """
    if t < 0:
        raise ValueError("negative time")
    cls = Bounded() if B2 is None else B2.declared_class
    if isinstance(cls, Bounded):
        return _bounded_h(sys, 1.0 if B2 is None else B2.norm(), t)
    if isinstance(cls, SmoothClass):
        return upper_bound_h(sys, B2, 0.0, t)
    raise ValueError(
        "B2 declared q_admissible only: no zero-class certificate available"
    )


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
