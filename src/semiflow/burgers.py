"""Burgers-type equation on (0, pi) with Dirichlet boundary forcing.

x_t = x_zz - x x_z + f(z, x) + u(z, t), boundary input d(t) acting at
z = 0, realized on the sine eigenbasis sqrt(2/pi) sin(n z) of the
Dirichlet Laplacian (eigenvalues -n^2).  The transport term is evaluated
pseudo-spectrally on a grid fine enough that the sine analysis of a
product of two band-N factors is alias-free; as a consequence the
inequality chain behind the local well-posedness constants holds exactly
for the truncated system, not merely in the continuum limit, and the
certification routines treat any violation beyond roundoff as a transform
bug.

Norm conventions.  The X-norm is the coefficient 2-norm (L^2(0, pi) under
Parseval); the smoothness norm used by every certified inequality is the
H^1_0 seminorm |x|_s = sqrt(sum n^2 a_n^2), exact for the sine basis.
The solver's fractional weights (1 + n^2)^(1/2) dominate n, so a
Lipschitz certificate stated against |.|_s transfers to the solver's
working norm unchanged.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from .core import InputSignal, Nonlinearity, KinfFunction, SpectralState, stack_channels
from .semigroup import heat_dirichlet_semigroup
from .admissibility import InputOperator, Bounded, SmoothClass
from .nonlinearities import LocalTerm, make_local_term
from .solver import EvolutionSystem, SolverConfig, Trajectory, solve

__all__ = [
    "SineBasis",
    "BurgersSystem",
]

ANALYTIC_ORDER = 0.5
BOUNDARY_CLASS_LIMIT = 0.25  # sum n^2 (1+n^2)^(2 alpha - 2) diverges at 1/4


class SineBasis:
    """Coefficient <-> collocation transforms for sqrt(2/pi) sin(n z).

    M interior points z_i = i pi / (M + 1), default M = 2N + 1.  Any
    M >= 2N resolves a band-2N function without aliasing, so the discrete
    analysis of a product of two band-N factors equals its true L^2
    projection; the default adds one point of headroom.

    Each transform is one product with a constant matrix: scale [sin(n z_i)
    | n cos(n z_i)], (N, 2M), gives values and slope, and scale dz sin(z_i n),
    (M, N), the analysis; 24 N M bytes, 12.6 MB at N = 512.  Single-thread
    on a 2-vCPU Xeon guest, an F_batch of 65 rows runs 4-6x faster than
    through complex FFTs up to N = 256; at N = 512 the two tie on 65 rows
    (5.8 ms) and the products lose on one row (0.64 against 0.15 ms).
    """

    def __init__(self, n_modes: int, n_grid: Optional[int] = None):
        if n_modes < 1:
            raise ValueError("need at least one mode")
        self.N = int(n_modes)
        self.M = 2 * self.N + 1 if n_grid is None else int(n_grid)
        if self.M < 2 * self.N:
            raise ValueError("grid too coarse: products of band-limited states alias")
        self.z = np.arange(1, self.M + 1) * (np.pi / (self.M + 1))
        self.scale = math.sqrt(2.0 / math.pi)
        # quadrature weight of the interior trapezoid grid
        self.dz = np.pi / (self.M + 1)
        n = np.arange(1, self.N + 1, dtype=float)
        nz = np.outer(n, self.z)
        self._synth = np.hstack([np.sin(nz), n[:, None] * np.cos(nz)]) * self.scale
        self._analysis = np.sin(nz.T) * (self.scale * self.dz)
        for m in (self._synth, self._analysis):
            m.setflags(write=False)

    def values(self, a: np.ndarray) -> np.ndarray:
        """Grid values of x = sum a_n sqrt(2/pi) sin(n z); a is (..., N)."""
        return np.asarray(a, float) @ self._synth[:, : self.M]

    def values_and_slope(self, a: np.ndarray):
        """Grid values of x and of x' (exact per-mode differentiation)."""
        both = np.asarray(a, float) @ self._synth
        return both[..., : self.M], both[..., self.M :]

    def analyze(self, v: np.ndarray) -> np.ndarray:
        """Project grid values onto the first N modes (exact for band <= M)."""
        return np.asarray(v, float) @ self._analysis

    def grid_norm(self, v: np.ndarray) -> float:
        """Discrete L^2 norm; an isometry with the X-norm for band <= M."""
        return float(np.sqrt(self.dz * np.sum(np.asarray(v, float) ** 2)))


class BurgersSystem:
    """Spectral truncation of the Burgers-type equation with certificates.

    local is the pointwise reaction term with its envelope data; all
    certified bounds are stated against the discrete norms, so they are
    theorems about this finite system and the certify_* methods assert
    them outright.
    """

    def __init__(self, n_modes: int, local: Optional[LocalTerm] = None,
                 n_grid: Optional[int] = None):
        self.N = int(n_modes)
        self.local = local if local is not None else make_local_term("zero")
        self.basis = SineBasis(self.N, n_grid)
        self.semigroup = heat_dirichlet_semigroup(self.N)
        self.h_samples = np.asarray(self.local.envelope(self.basis.z), float)
        if self.h_samples.shape != self.basis.z.shape:
            raise ValueError("envelope must return one sample per grid point")
        self.h_norm = self.basis.grid_norm(self.h_samples)
        self._mode_sq = np.arange(1, self.N + 1, dtype=float) ** 2

    # -- norms -------------------------------------------------------------

    def h1_norm(self, a: np.ndarray) -> float:
        """H^1_0 seminorm sqrt(sum n^2 a_n^2), exact in the sine basis."""
        a = np.asarray(a, float)
        return float(np.sqrt(np.sum(self._mode_sq * a * a, axis=-1)))

    # -- the nonlinearity --------------------------------------------------

    def F_batch(self, a: np.ndarray) -> np.ndarray:
        """F(x) = -x x' + f(z, x) projected to N modes; a is (..., N)."""
        x, dx = self.basis.values_and_slope(a)
        w = -x * dx + self.local.fn(self.basis.z, x)
        return self.basis.analyze(w)

    def nonlinearity(self) -> Nonlinearity:
        """Certificate wrapper around F for the mild-solution engine.

        The Lipschitz certificate 2 sqrt(pi) r + pi L_f is stated against
        the smoothness seminorm and transfers to the solver's working
        norm; the constant offset is |F(0)| (zero whenever the reaction
        term vanishes at y = 0).
        """
        Lf = self.local.lipschitz_y
        f0 = float(np.linalg.norm(self.F_batch(np.zeros(self.N))))

        return Nonlinearity(
            eval=lambda x, v: self.F_batch(x),
            lipschitz=lambda r: 2.0 * math.sqrt(math.pi) * r + math.pi * Lf,
            growth_sigma=KinfFunction.identity(),
            growth_c=f0,
            input_modulus=KinfFunction.identity(),
            label=f"burgers_F[{self.local.label}]",
        )

    # -- certified inequalities -------------------------------------------

    def certify_sup_bound(self, x: SpectralState):
        """(sup |x| on the grid, sqrt(pi) |x|_s); asserts sup <= bound."""
        sup_phys = float(np.max(np.abs(self.basis.values(x.coeffs)))) \
            if self.N > 0 else 0.0
        bound = math.sqrt(math.pi) * self.h1_norm(x.coeffs)
        if sup_phys > bound + 1e-10 * max(1.0, bound):
            raise AssertionError(
                f"sup bound violated: {sup_phys} > sqrt(pi)*{bound / math.sqrt(math.pi)}"
            )
        return sup_phys, bound

    def certify_F_bound(self, x: SpectralState):
        """(|F(x)|_X, sqrt(2 pi) |x|_s^2 + sqrt(2) |h| g(sqrt(pi) |x|_s)).

        The quadratic part obeys |P(x x')| <= sup|x| |x'| <= sqrt(pi)|x|_s^2
        and the reaction part |P f| <= |h| g(sup|x|) pointwise on the grid,
        so the stated bound holds with sqrt(2) to spare; asserts it.
        """
        a = x.coeffs
        lhs = float(np.linalg.norm(self.F_batch(a)))
        s = self.h1_norm(a)
        rhs = math.sqrt(2.0 * math.pi) * s * s \
            + math.sqrt(2.0) * self.h_norm * abs(self.local.g(math.sqrt(math.pi) * s))
        if lhs > rhs + 1e-8:
            raise AssertionError(f"F bound violated: {lhs} > {rhs}")
        return lhs, rhs

    def certify_lipschitz(self, x1: SpectralState, x2: SpectralState):
        """(|F(x1)-F(x2)|_X, cross-term + reaction-term bound); asserts it."""
        a1, a2 = x1.coeffs, x2.coeffs
        lhs = float(np.linalg.norm(self.F_batch(a1) - self.F_batch(a2)))
        s1, s2, d = self.h1_norm(a1), self.h1_norm(a2), self.h1_norm(a1 - a2)
        rhs = math.sqrt(math.pi) * (s1 + s2) * d \
            + math.pi * self.local.lipschitz_y * d
        if lhs > rhs + 1e-8:
            raise AssertionError(f"Lipschitz bound violated: {lhs} > {rhs}")
        return lhs, rhs

    # -- input operators ---------------------------------------------------

    def boundary_operator(self, alpha: float = 0.2) -> InputOperator:
        """Scalar Dirichlet input operator, mode coefficients n sqrt(2/pi).

        Obtained by pushing the lifting profile through the generator: the
        profile is harmonic, so only the extrapolated -A R part survives
        and b_n = n^2 * (lifting)_n, with the lifting sqrt(2/pi)/n of
        bcs.dirichlet_heat_0_pi.  The coefficient ladder supports a
        smoothness declaration strictly below 1/4; larger values are
        refused rather than silently declared.
        """
        if not 0.0 < alpha < BOUNDARY_CLASS_LIMIT:
            raise ValueError(
                f"declared smoothness must lie in (0, {BOUNDARY_CLASS_LIMIT}): "
                f"the coefficient ladder diverges at and above it"
            )
        n = np.arange(1, self.N + 1, dtype=float)
        return InputOperator(n * self.basis.scale, SmoothClass(alpha))

    # -- simulation --------------------------------------------------------

    def system(self, u_present: bool, d_present: bool,
               boundary_alpha: float = 0.2) -> EvolutionSystem:
        """Assemble the evolution system for the requested input channels.

        Each present disturbance is its own input block, in the order
        distributed (N channels, the bounded identity), then boundary (one
        channel, SmoothClass(boundary_alpha)): the input signal stacks them
        the same way, and each block is certified under its own class.
        """
        blocks = []
        if u_present:
            blocks.append(InputOperator(np.eye(self.N), Bounded()))
        if d_present:
            blocks.append(self.boundary_operator(boundary_alpha))
        return EvolutionSystem(
            semigroup=self.semigroup,
            f=self.nonlinearity(),
            B=tuple(blocks) or None,
            analytic_alpha=ANALYTIC_ORDER,
        )

    def simulate(self, x0: SpectralState, u: Optional[InputSignal],
                 d: Optional[InputSignal], t_end: float,
                 cfg: Optional[SolverConfig] = None,
                 checkpoint_times: Optional[Sequence[float]] = None,
                 boundary_alpha: float = 0.2) -> Trajectory:
        """Mild solution with distributed input u (N channels) and scalar
        boundary input d, whichever are present."""
        if u is not None and u.m != self.N:
            raise ValueError("distributed input needs one channel per mode")
        if d is not None and d.m != 1:
            raise ValueError("boundary input is scalar")
        sys = self.system(u is not None, d is not None, boundary_alpha)
        if u is not None and d is not None:
            sig = stack_channels(u, d)
        else:
            sig = u if u is not None else d
        return solve(sys, x0, sig, t_end, cfg, checkpoint_times=checkpoint_times)

    def physical_snapshot(self, state: SpectralState):
        """(grid, values) pair for export."""
        return self.basis.z, self.basis.values(state.coeffs)
