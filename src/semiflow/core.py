"""State vectors, input signals, and nonlinearity certificates.

The state space X is represented by truncated spectral coefficient vectors
with the Euclidean norm (Parseval).  Essentially bounded inputs are
represented by piecewise-constant signals on a finite grid; this is the
computational stand-in for L^infty and is closed under the shift and
concatenation operations the flow checks rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

__all__ = [
    "SpectralState",
    "InputSignal",
    "KinfFunction",
    "Nonlinearity",
    "stack_channels",
    "signal_sup_distance",
]


def _frozen_array(a, dtype=float, ndim=None) -> np.ndarray:
    arr = np.asarray(a, dtype=dtype)
    if ndim is not None and arr.ndim != ndim:
        raise ValueError(f"expected {ndim}-dimensional array, got shape {arr.shape}")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class SpectralState:
    """Element of the truncated state space: N spectral coefficients.

    A state flagged ``blown_up`` marks the escape-time sentinel produced by
    the solver; its coefficients are not meaningful and norms refuse it.
    """

    coeffs: np.ndarray
    blown_up: bool = False

    def __post_init__(self):
        arr = _frozen_array(self.coeffs, ndim=1)
        object.__setattr__(self, "coeffs", arr)
        if not self.blown_up and not np.all(np.isfinite(arr)):
            raise ValueError("non-finite coefficients in a state not flagged blown_up")

    @property
    def n_modes(self) -> int:
        return self.coeffs.shape[0]

    def norm_X(self) -> float:
        """Euclidean coefficient norm, i.e. the X-norm under Parseval."""
        if self.blown_up:
            raise ValueError("norm of a post-blow-up state is undefined")
        return float(np.linalg.norm(self.coeffs))

    def __add__(self, other: "SpectralState") -> "SpectralState":
        return SpectralState(self.coeffs + other.coeffs)

    def __sub__(self, other: "SpectralState") -> "SpectralState":
        return SpectralState(self.coeffs - other.coeffs)

    def scale(self, a: float) -> "SpectralState":
        return SpectralState(a * self.coeffs)

    @staticmethod
    def zero(n_modes: int) -> "SpectralState":
        return SpectralState(np.zeros(n_modes))

    @staticmethod
    def basis(n_modes: int, k: int, amplitude: float = 1.0) -> "SpectralState":
        """Coordinate state amplitude * e_k (0-based mode index k)."""
        c = np.zeros(n_modes)
        c[k] = amplitude
        return SpectralState(c)


@dataclass(frozen=True, eq=False)
class InputSignal:
    """Piecewise-constant input on [grid[0], grid[-1]] with values in R^m.

    grid holds k+1 strictly increasing time stamps starting at 0; values
    holds one R^m vector per cell [grid[i], grid[i+1]).  Pointwise
    evaluation picks the right-continuous representative; the left limit
    is available where an integrator needs the value leading into a
    breakpoint.  Norm on the value space U is Euclidean.
    """

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        grid = _frozen_array(self.grid, ndim=1)
        values = np.asarray(self.values, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        values = _frozen_array(values, ndim=2)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        if grid.shape[0] < 2:
            raise ValueError("grid needs at least two stamps (one cell)")
        if not np.all(np.diff(grid) > 0):
            raise ValueError("grid must be strictly increasing")
        if abs(grid[0]) > 0:
            raise ValueError("signals start at t = 0")
        if values.shape[0] != grid.shape[0] - 1:
            raise ValueError(
                f"need one value per cell: {grid.shape[0] - 1} cells, "
                f"{values.shape[0]} values"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("non-finite input values")

    @property
    def m(self) -> int:
        return self.values.shape[1]

    @property
    def horizon(self) -> float:
        return float(self.grid[-1])

    def _cell_index(self, t: float, side: str) -> int:
        if t < self.grid[0] - 1e-15 or t > self.horizon + 1e-12:
            raise ValueError(f"time {t} outside signal domain [0, {self.horizon}]")
        i = int(np.searchsorted(self.grid, t, side=side)) - 1
        return min(max(i, 0), self.values.shape[0] - 1)

    def value(self, t: float) -> np.ndarray:
        """Right-continuous evaluation; the horizon returns the last cell."""
        return self.values[self._cell_index(t, "right")]

    def value_left(self, t: float) -> np.ndarray:
        """Left limit at t; at t = 0 this coincides with value(0)."""
        return self.values[self._cell_index(t, "left")]

    def sup_norm(self, t0: float = 0.0, t1: Optional[float] = None,
                 cols: slice = slice(None)) -> float:
        """ess-sup of |u| over [t0, t1] (whole domain by default); cols
        restricts u to a block of its channels."""
        if t1 is None:
            t1 = self.horizon
        if t1 < t0:
            raise ValueError("empty time range")
        lo = self._cell_index(t0, "right")
        # cells with grid[i] < t1 intersect [t0, t1); t1 == t0 degenerates
        # to the single containing cell
        hi = max(int(np.searchsorted(self.grid, t1, side="left")) - 1, lo)
        hi = min(hi, self.values.shape[0] - 1)
        return float(np.max(np.linalg.norm(self.values[lo : hi + 1, cols], axis=1)))

    def shift(self, tau: float) -> "InputSignal":
        """Time shift: the returned signal is s -> u(s + tau) on [0, horizon - tau]."""
        if tau < 0:
            raise ValueError("shift by a negative time")
        if tau >= self.horizon - 1e-15:
            raise ValueError("shift past the signal horizon")
        i = self._cell_index(tau, "right")
        new_grid = np.concatenate(([tau], self.grid[i + 1 :])) - tau
        new_grid[0] = 0.0
        return InputSignal(new_grid, self.values[i:])

    def restrict(self, t1: float) -> "InputSignal":
        """Restriction to [0, t1]."""
        if t1 <= 0 or t1 > self.horizon + 1e-12:
            raise ValueError("restriction outside domain")
        i = self._cell_index(t1, "left")
        new_grid = np.concatenate((self.grid[: i + 1], [t1]))
        return InputSignal(new_grid, self.values[: i + 1])

    @staticmethod
    def concat(u1: "InputSignal", u2: "InputSignal", t: float) -> "InputSignal":
        """Composite input: u1 on [0, t), then u2 restarted at t.

        Closure under this composition is what the cocycle check exercises.
        With t = 0 the result is u2 unchanged.
        """
        if u1.m != u2.m:
            raise ValueError("channel count mismatch")
        if t < 0 or t > u1.horizon + 1e-12:
            raise ValueError("split time outside first signal's domain")
        if t <= 1e-15:
            return u2
        head = u1.restrict(t)
        grid = np.concatenate((head.grid[:-1], t + u2.grid))
        values = np.concatenate((head.values, u2.values))
        return InputSignal(grid, values)

    @staticmethod
    def constant(value, horizon: float) -> "InputSignal":
        v = np.atleast_1d(np.asarray(value, dtype=float))
        return InputSignal(np.array([0.0, horizon]), v[None, :])

    @staticmethod
    def zero(m: int, horizon: float) -> "InputSignal":
        return InputSignal.constant(np.zeros(m), horizon)


def stack_channels(u1: InputSignal, u2: InputSignal) -> InputSignal:
    """Joint signal t -> (u1(t), u2(t)) on the merged cell grid.

    The horizon is the smaller of the two.  Used to feed several input
    operators through one combined channel block.
    """
    T = min(u1.horizon, u2.horizon)
    pts = np.union1d(u1.grid, u2.grid)
    pts = pts[(pts >= 0.0) & (pts < T - 1e-15)]
    grid = np.append(pts, T)
    values = np.empty((grid.shape[0] - 1, u1.m + u2.m))
    for i in range(grid.shape[0] - 1):
        values[i, : u1.m] = u1.value(float(grid[i]))
        values[i, u1.m :] = u2.value(float(grid[i]))
    return InputSignal(grid, values)


def signal_sup_distance(u1: InputSignal, u2: InputSignal, t1: Optional[float] = None) -> float:
    """sup_[0,t1] |u1 - u2| over the merged cell grid (exact for pc signals)."""
    if u1.m != u2.m:
        raise ValueError("channel count mismatch")
    if t1 is None:
        t1 = min(u1.horizon, u2.horizon)
    pts = np.union1d(u1.grid, u2.grid)
    pts = pts[(pts >= 0.0) & (pts < t1 - 1e-15)]
    pts = np.union1d(pts, [0.0])
    worst = 0.0
    for a in pts:
        d = float(np.linalg.norm(u1.value(a) - u2.value(a)))
        worst = max(worst, d)
    return worst


@dataclass(frozen=True)
class KinfFunction:
    """A class-K-infinity comparison function with a sampled certificate.

    The analytic properties (zero at zero, strictly increasing, unbounded)
    are declared by the user; validate() spot-checks them on 60 geometric
    points of [1e-8, 1e8], f(1e8) >= 1e6 witnessing unboundedness.  It and
    Nonlinearity.spot_check_lipschitz are checks for callers and tests.
    """

    fn: Callable[[float], float]
    label: str = "kinf"

    def __call__(self, r: float) -> float:
        if r < 0:
            raise ValueError("comparison functions take nonnegative arguments")
        return float(self.fn(r))

    def validate(self) -> None:
        if abs(self.fn(0.0)) > 1e-12:
            raise ValueError(f"{self.label}: value at 0 is not 0")
        grid = np.geomspace(1e-8, 1e8, 60)
        vals = np.array([self.fn(r) for r in grid])
        if not np.all(np.diff(np.concatenate(([self.fn(0.0)], vals))) > 0):
            raise ValueError(f"{self.label}: not strictly increasing on sample grid")
        if vals[-1] < 1e6:
            raise ValueError(
                f"{self.label}: growth to {vals[-1]:.3g} at r=1e+08 "
                f"does not witness unboundedness"
            )

    @staticmethod
    def identity() -> "KinfFunction":
        return KinfFunction(lambda r: r, "identity")

    @staticmethod
    def power(p: float, scale: float = 1.0) -> "KinfFunction":
        if p <= 0 or scale <= 0:
            raise ValueError("power-law comparison function needs p, scale > 0")
        return KinfFunction(lambda r: scale * r ** p, f"{scale}*r^{p}")


@dataclass(frozen=True)
class Nonlinearity:
    """Right-hand side f: X x U -> V with declared growth/Lipschitz certificates.

    eval acts on raw coefficient vectors (x, v) -> f-coefficients; eval_batch,
    when given, applies f along the leading axis of stacked samples and lets
    the solver reconstruct a whole sub-grid in one call.  lipschitz(r) bounds
    the Lipschitz constant of f on the closed r-ball (states and input values
    both within r); growth_sigma and growth_c certify
    |f(0, v)| <= sigma(|v|) + c.  input_modulus, when given, certifies
    |f(x1,v1) - f(x2,v2)| <= lipschitz(r) * (|x1-x2| + q(|v1-v2|)),
    which the continuous-dependence check requires.  uniform_lipschitz is a
    global (radius-independent) Lipschitz constant when one exists; the
    global-bound estimator requires it in non-analytic mode.
    """

    eval: Callable[[np.ndarray, np.ndarray], np.ndarray]
    lipschitz: Callable[[float], float]
    growth_sigma: KinfFunction
    growth_c: float = 0.0
    eval_batch: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    uniform_lipschitz: Optional[float] = None
    input_modulus: Optional[KinfFunction] = None
    label: str = "f"

    def __post_init__(self):
        if self.growth_c < 0:
            raise ValueError("growth offset c must be nonnegative")

    def __call__(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        return np.asarray(self.eval(np.asarray(x, float), np.asarray(v, float)), float)

    def batch(self, X: np.ndarray, V: np.ndarray) -> np.ndarray:
        """Apply f to stacked samples: X is (P, N), V is (P, m)."""
        X = np.asarray(X, float)
        V = np.asarray(V, float)
        if self.eval_batch is not None:
            out = np.asarray(self.eval_batch(X, V), float)
        else:
            out = np.stack([self(X[i], V[i]) for i in range(X.shape[0])])
        return out

    def spot_check_lipschitz(self, rng: np.random.Generator, radius: float,
                             n_modes: int, m: int, n_samples: int = 50) -> float:
        """Sampled verification of the declared Lipschitz certificate.

        Returns the worst ratio |f(x1,v)-f(x2,v)| / (L(r)|x1-x2|); raises if
        it exceeds 1 + 1e-9 (or, under L = 0, if f varies by more than 1e-9).
        """
        L = self.lipschitz(radius)
        worst = 0.0
        for _ in range(n_samples):
            x1 = rng.normal(size=n_modes)
            x2 = rng.normal(size=n_modes)
            for x in (x1, x2):
                nrm = np.linalg.norm(x)
                if nrm > radius:
                    x *= radius / nrm * rng.uniform(0.2, 1.0)
            v = rng.normal(size=m)
            nv = np.linalg.norm(v)
            if nv > radius:
                v *= radius / nv
            dx = np.linalg.norm(x1 - x2)
            if dx < 1e-12:
                continue
            df = np.linalg.norm(self(x1, v) - self(x2, v))
            if L == 0.0:
                if df > 1e-9:
                    raise ValueError(f"{self.label}: nonzero variation under L=0")
                continue
            worst = max(worst, df / (L * dx))
        if worst > 1.0 + 1e-9:
            raise ValueError(
                f"{self.label}: Lipschitz certificate violated, ratio {worst:.6g}"
            )
        return worst
